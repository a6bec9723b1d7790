"""Buffered Gaussian measurement noise.

A noisy sensor draws from its own generator, one group of zero-mean normal
values per measurement (the LiDAR an ``(x, y)`` pair per detection, the
GPS/IMU ``(x, y, speed)`` per pose).  Drawing them one scalar call at a time
costs ~1.2 us a value, and both simulation engines take several per step, so
:class:`GaussianNoise` draws a chunk of groups in one ``Generator.normal``
call and hands them out from an ``array("d")`` buffer (indexing it yields the
same Python float a scalar draw returns).  The values are exactly those of
sequential scalar draws: NumPy's Generator walks one normal stream whether it
fills a vector or returns scalars, and an array ``scale`` draws each element
with its own scale, in order.  Drawing ahead is harmless because nothing else
reads the sensor's generator.
"""

from __future__ import annotations

from array import array
from typing import Sequence

import numpy as np

__all__ = ["GaussianNoise"]

#: Groups drawn per refill.
_CHUNK_GROUPS = 256


class GaussianNoise:
    """Zero-mean normal draws in groups, one value per sigma of ``sigmas``."""

    __slots__ = ("_rng", "_sigmas", "_group", "values", "_cursor")

    def __init__(self, rng: np.random.Generator, sigmas: Sequence[float]):
        self._rng = rng
        self._sigmas = np.asarray(sigmas, dtype=float)
        self._group = len(sigmas)
        #: The buffered draws; :meth:`take` says where the next group starts.
        self.values = array("d")
        self._cursor = 0

    def take(self) -> int:
        """Index in :attr:`values` of the next group of draws (refilling the
        buffer from the generator when it is used up)."""
        cursor = self._cursor
        if cursor == len(self.values):
            scales = np.tile(self._sigmas, _CHUNK_GROUPS)
            self.values = array("d", self._rng.normal(0.0, scales).tobytes())
            cursor = 0
        self._cursor = cursor + self._group
        return cursor
