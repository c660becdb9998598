import numpy as np
import pytest

from viscokern.grids import Grid
from viscokern.solver import _sine_basis


def inner(f, w, g):
    """Discrete L2 inner product h * sum(f_j * w_j)."""
    return g.h * np.dot(f, w)


class TestGrid:
    def test_geometry(self):
        g = Grid(0.0, 1.0, 3)
        assert g.h == 0.25
        np.testing.assert_allclose(g.x, [0.25, 0.5, 0.75])

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(1.0, 0.0, 3)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 0)

    @pytest.mark.parametrize("a, b", [
        (0.0, float("nan")), (float("nan"), 1.0), (0.0, float("inf")),
        (float("-inf"), 0.0), (-1e308, 1e308),
    ])
    def test_non_finite_domain_rejected(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            Grid(a, b, 8)


class TestEigenpairs:
    """The Dirichlet sine modes come from the march's orthonormal DST-I
    table; normalized in the discrete L2 norm they are its rows over sqrt(h)."""

    def test_discrete_normalization(self):
        g = Grid(0.0, 1.5, 40)
        sines, _ = _sine_basis(g)
        for w in sines[:6, :40] / np.sqrt(g.h):
            assert inner(w, w, g) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonality(self):
        # symmetric and orthonormal, also on widths that need padding
        for nx in (5, 37, 127, 250):
            sines, _ = _sine_basis(Grid(0.0, 1.0, nx))
            np.testing.assert_array_equal(sines, sines.T)
            table = sines[:nx, :nx]
            np.testing.assert_allclose(table @ table, np.eye(nx), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("nx", [5, 37, 127])
    def test_rows_match_per_mode_build(self, nx):
        # one mode at a time from the closed form, the argument jk pi/(nx + 1)
        # reduced exactly in integers; padding and lam past nx are zero
        g = Grid(-0.3, 1.1, nx)
        sines, lam = _sine_basis(g)
        assert sines.shape == (len(lam), len(lam)) and len(lam) % 8 == 0
        j = np.arange(1, nx + 1)
        for k in range(1, nx + 1):
            w = np.sqrt(2.0 / (nx + 1)) * np.sin(np.pi * (j * k % (2 * (nx + 1))) / (nx + 1))
            np.testing.assert_allclose(sines[k - 1, :nx], w, rtol=0, atol=1e-15)
            assert lam[k - 1] == pytest.approx(
                (4.0 / g.h**2) * np.sin(k * np.pi / (2 * (nx + 1))) ** 2, rel=1e-15)
        assert not sines[nx:].any() and not sines[:, nx:].any() and not lam[nx:].any()
