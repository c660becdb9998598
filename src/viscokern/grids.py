"""Uniform 1-D grid on (a, b) with homogeneous Dirichlet boundaries.

Only interior nodal values are stored, as plain arrays; the boundary
values are identically zero and never appear as unknowns.  The module
provides the sine eigenpairs of the Dirichlet problem, normalized in the
discrete L2 norm (uniform weight h, i.e. the trapezoid rule with the zero
boundary terms dropped).  The solvers work in the same sine basis, where
the three-point Laplacian is diagonal (see :mod:`.solver`).
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


def dirichlet_eigenpairs(grid: Grid, count: int) -> tuple[np.ndarray, np.ndarray]:
    """First *count* eigenpairs of -w'' = lambda w with zero boundaries.

    Returns ``(eigenvalues, modes)``: the continuous eigenvalues
    ``(i*pi/(b-a))**2`` and a ``(count, n_interior)`` array whose row
    i - 1 is the i-th sine eigenfunction sampled on the grid and
    normalized in the discrete L2 norm (trapezoid mass).  The sampled sine
    vectors happen to be exact eigenvectors of the discrete Laplacian as
    well, with eigenvalues ``(4/h^2) sin^2(i*pi*h/(2(b-a)))``.
    """
    if count < 1:
        raise ValueError("need count >= 1")
    if count > grid.n_interior:
        raise ValueError(
            f"grid with {grid.n_interior} interior nodes resolves at most "
            f"{grid.n_interior} modes, requested {count}"
        )
    L = grid.length
    i = np.arange(1, count + 1)[:, None]
    modes = np.sqrt(2.0 / L) * np.sin(i * np.pi * (grid.x - grid.a) / L)
    modes /= np.sqrt(grid.h * np.sum(modes * modes, axis=1, keepdims=True))
    return (i[:, 0] * np.pi / L) ** 2, modes
