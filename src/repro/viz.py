"""Terminal visualisation of partitions and per-neighborhood metrics.

Plotting libraries are not available offline, so this module renders maps as
text: a partition becomes a character grid (one letter per neighborhood), and
a 2-D matrix of values becomes a shaded ASCII heatmap.  These renderings
are used by the examples and are handy when inspecting a re-districted map
in CI logs.
"""

from __future__ import annotations

import numpy as np

from .exceptions import EvaluationError
from .spatial.partition import Partition

#: Characters used to label neighborhoods in :func:`render_partition_ascii`.
_LABEL_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

#: Shades from light to dark used by :func:`render_heatmap_ascii`.
_SHADES = " .:-=+*#%@"


def render_partition_ascii(partition: Partition, max_rows: int = 32, max_cols: int = 64) -> str:
    """Render a partition as a character grid (row 0 at the bottom, like a map).

    Each neighborhood is assigned a letter (cycling through the alphabet when
    there are more neighborhoods than symbols).  Large grids are downsampled
    to at most ``max_rows x max_cols`` characters.
    """
    grid = partition.grid
    row_step = max(1, grid.rows // max_rows)
    col_step = max(1, grid.cols // max_cols)
    lines = []
    for row in range(grid.rows - 1, -1, -row_step):
        characters = []
        for col in range(0, grid.cols, col_step):
            index = int(partition.assign([row], [col])[0])
            if index < 0:
                characters.append("?")
            else:
                characters.append(_LABEL_ALPHABET[index % len(_LABEL_ALPHABET)])
        lines.append("".join(characters))
    return "\n".join(lines)


def render_heatmap_ascii(
    values: np.ndarray, max_rows: int = 32, max_cols: int = 64, legend: bool = True
) -> str:
    """Render a 2-D value matrix as an ASCII heatmap (dark = large values)."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise EvaluationError(f"expected a 2-D matrix, got shape {values.shape}")
    finite = values[np.isfinite(values)]
    low = float(finite.min()) if finite.size else 0.0
    high = float(finite.max()) if finite.size else 1.0
    span = high - low if high > low else 1.0

    row_step = max(1, values.shape[0] // max_rows)
    col_step = max(1, values.shape[1] // max_cols)
    lines = []
    for row in range(values.shape[0] - 1, -1, -row_step):
        characters = []
        for col in range(0, values.shape[1], col_step):
            value = values[row, col]
            if not np.isfinite(value):
                characters.append("?")
                continue
            level = int((value - low) / span * (len(_SHADES) - 1))
            characters.append(_SHADES[level])
        lines.append("".join(characters))
    rendering = "\n".join(lines)
    if legend:
        rendering += f"\n[min={low:.4g} max={high:.4g}; darker = larger]"
    return rendering
