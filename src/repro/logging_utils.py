"""Logging helpers shared by the experiment harness and examples."""

from __future__ import annotations

import logging
import sys

_LIBRARY_LOGGER_NAME = "repro"


def configure_logging(level: int = logging.INFO, stream=None) -> logging.Logger:
    """Configure the library logger with a simple console handler.

    Safe to call repeatedly — the handler is only installed once.
    """
    logger = logging.getLogger(_LIBRARY_LOGGER_NAME)
    logger.setLevel(level)
    if not logger.handlers:
        handler = logging.StreamHandler(stream or sys.stderr)
        formatter = logging.Formatter("%(asctime)s %(name)s %(levelname)s: %(message)s")
        handler.setFormatter(formatter)
        logger.addHandler(handler)
    return logger
