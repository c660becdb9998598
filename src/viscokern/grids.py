"""Uniform 1-D grid on (a, b) with homogeneous Dirichlet boundaries.

Only interior nodal values are stored, as plain arrays; the boundary
values are identically zero and never appear as unknowns.  The solvers
work in the sine basis, where the three-point Laplacian is diagonal (see
:mod:`.solver`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Grid:
    a: float
    b: float
    n_interior: int

    def __post_init__(self):
        # one comparison rejects b <= a, NaN ends and an infinite length
        if not 0.0 < self.b - self.a < np.inf:
            raise ValueError(f"need finite ends with b > a, got ({self.a}, {self.b})")
        if self.n_interior < 1:
            raise ValueError("need at least one interior node")

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def h(self) -> float:
        return self.length / (self.n_interior + 1)

    @cached_property
    def x(self) -> np.ndarray:
        """Interior node coordinates a + j*h, j = 1..n_interior."""
        pts = self.a + self.h * np.arange(1, self.n_interior + 1)
        pts.setflags(write=False)
        return pts

