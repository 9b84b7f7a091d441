"""Seeded random-number helpers.

Every stochastic component of the library (dataset synthesis, model
initialisation, permutation importance, splitting) accepts either an integer
seed or an already-constructed :class:`numpy.random.Generator`.  This module
centralises the conversion so behaviour is reproducible bit-for-bit.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

#: Default seed used throughout the experiments when none is supplied.
DEFAULT_SEED = 20240229


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (use :data:`DEFAULT_SEED`), an integer seed, or an existing
        generator (returned unchanged so callers can share a stream).
    """
    if seed is None:
        return np.random.default_rng(DEFAULT_SEED)
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(int(seed))
