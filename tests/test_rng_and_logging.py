"""Unit tests for seeding helpers and logging utilities."""

import logging

import numpy as np

from repro.logging_utils import configure_logging
from repro.rng import DEFAULT_SEED, as_generator


class TestAsGenerator:
    def test_none_uses_default_seed(self):
        a = as_generator(None).integers(0, 1000, 5)
        b = np.random.default_rng(DEFAULT_SEED).integers(0, 1000, 5)
        np.testing.assert_array_equal(a, b)

    def test_integer_seed_reproducible(self):
        a = as_generator(123).normal(size=4)
        b = as_generator(123).normal(size=4)
        np.testing.assert_allclose(a, b)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(7)
        assert as_generator(generator) is generator

    def test_different_seeds_differ(self):
        a = as_generator(1).normal(size=4)
        b = as_generator(2).normal(size=4)
        assert not np.allclose(a, b)


class TestLogging:
    def test_configure_logging_idempotent(self):
        logger = configure_logging(level=logging.DEBUG)
        handlers_before = len(logger.handlers)
        configure_logging(level=logging.DEBUG)
        assert len(logger.handlers) == handlers_before
