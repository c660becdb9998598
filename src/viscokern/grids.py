"""Uniform 1-D grid on (a, b) with homogeneous Dirichlet boundaries.

Only interior nodal values are stored; the boundary values are
identically zero and never appear as unknowns.  The module provides the
standard second-order three-point Laplacian, the sine eigenpairs of the
Dirichlet problem, and the discrete L2 inner product (uniform weight h,
i.e. the trapezoid rule with the zero boundary terms dropped).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class GridMismatchError(ValueError):
    """Operation mixing fields that live on different grids."""


@dataclass(frozen=True)
class Grid:
    a: float
    b: float
    n_interior: int

    def __post_init__(self):
        if self.b <= self.a:
            raise ValueError("need b > a")
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


@dataclass
class Field:
    """Nodal values on the interior of a grid (boundary is zero)."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_interior,):
            raise ValueError(
                f"expected {self.grid.n_interior} nodal values, "
                f"got shape {self.values.shape}"
            )

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.n_interior))

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


def laplacian_values(values: np.ndarray, h: float) -> np.ndarray:
    """Three-point second difference with zero ghost values at both ends."""
    out = np.empty_like(values)
    if len(values) == 1:
        out[0] = -2.0 * values[0] / (h * h)
        return out
    out[1:-1] = (values[:-2] - 2.0 * values[1:-1] + values[2:]) / (h * h)
    out[0] = (-2.0 * values[0] + values[1]) / (h * h)
    out[-1] = (values[-2] - 2.0 * values[-1]) / (h * h)
    return out


def laplacian_apply(f: Field) -> Field:
    """Discrete u_xx: second-order central differences, zero boundaries."""
    return Field(f.grid, laplacian_values(f.values, f.grid.h))


def dirichlet_eigenpairs(grid: Grid, count: int) -> list[tuple[float, Field]]:
    """First *count* eigenpairs of -w'' = lambda w with zero boundaries.

    Returns the continuous eigenvalues ``(i*pi/(b-a))**2`` with the sine
    eigenfunctions sampled on the grid and normalized in the discrete L2
    norm (trapezoid mass).  The sampled sine vectors happen to be exact
    eigenvectors of the discrete Laplacian as well, with eigenvalues
    ``(4/h^2) sin^2(i*pi*h/(2(b-a)))``.
    """
    if count < 1:
        raise ValueError("need count >= 1")
    if count > grid.n_interior:
        raise ValueError(
            f"grid with {grid.n_interior} interior nodes resolves at most "
            f"{grid.n_interior} modes, requested {count}"
        )
    L = grid.length
    pairs = []
    for i in range(1, count + 1):
        lam = (i * np.pi / L) ** 2
        w = np.sqrt(2.0 / L) * np.sin(i * np.pi * (grid.x - grid.a) / L)
        w /= np.sqrt(grid.h * np.sum(w * w))
        pairs.append((lam, Field(grid, w)))
    return pairs


def project(f: Field, w: Field) -> float:
    """Discrete L2 inner product h * sum(f_j * w_j)."""
    if f.grid != w.grid:
        raise GridMismatchError("fields live on different grids")
    return float(f.grid.h * np.dot(f.values, w.values))
