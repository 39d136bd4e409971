"""Dyadic cubes as test vocabulary.

The package stores cubes only as rows of the level-row axis; tests that
name single cubes (pointwise Haar values, per-cube methods, the per-root
stopping scan) use this small value type: level l, index in {0..2^l-1}^d.
Tests that build per-cube data level by level, as oracles do, lay it out
as rows with stack_levels.
"""

from typing import NamedTuple

import numpy as np


def stack_levels(levels: list, d: int) -> np.ndarray:
    """Per-level (2^l,)*d + tail arrays stacked on the level-row axis, level
    by level, each level in index order: what dyadic._levels cuts apart."""
    return np.concatenate([a.reshape((-1,) + a.shape[d:]) for a in levels])


class Cube(NamedTuple):
    """The dyadic cube [index * 2^-level, (index + 1) * 2^-level) per axis."""

    level: int
    index: tuple

    @classmethod
    def root(cls, d: int) -> "Cube":
        return cls(0, (0,) * d)

    @property
    def d(self) -> int:
        return len(self.index)

    @property
    def measure(self) -> float:
        return 2.0 ** (-self.level * self.d)

    def cell_slices(self, grid_level: int) -> tuple:
        """Index slices of this cube's cells in a level-grid_level grid."""
        assert grid_level >= self.level
        w = 1 << (grid_level - self.level)
        return tuple(slice(i * w, (i + 1) * w) for i in self.index)
