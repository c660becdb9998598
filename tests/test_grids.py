import numpy as np
import pytest

from viscokern.grids import Grid, dirichlet_eigenpairs


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
    def test_standard_spectrum(self):
        g = Grid(0.0, 1.0, 63)
        lams, _ = dirichlet_eigenpairs(g, 3)
        assert lams[0] == pytest.approx(np.pi**2)
        assert lams[1] == pytest.approx(4.0 * np.pi**2)

    def test_length_two_domain(self):
        g = Grid(0.0, 2.0, 63)
        lams, _ = dirichlet_eigenpairs(g, 2)
        # (2 pi / 2)^2 = pi^2
        assert lams[1] == pytest.approx(np.pi**2)

    def test_discrete_normalization(self):
        g = Grid(0.0, 1.5, 40)
        for w in dirichlet_eigenpairs(g, 6)[1]:
            assert inner(w, w, g) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonality(self):
        g = Grid(0.0, 1.0, 50)
        _, modes = dirichlet_eigenpairs(g, 4)
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(inner(modes[i], modes[j], g)) < 1e-12

    def test_count_exceeds_resolution(self):
        g = Grid(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="resolves at most"):
            dirichlet_eigenpairs(g, 6)


    @pytest.mark.parametrize("nx", [5, 37, 127])
    def test_rows_match_per_mode_build(self, nx):
        # one mode at a time, as the wave reference depends on: bit for bit
        g = Grid(-0.3, 1.1, nx)
        lams, modes = dirichlet_eigenpairs(g, nx)
        assert lams.shape == (nx,) and modes.shape == (nx, nx)
        for i in range(1, nx + 1):
            w = np.sqrt(2.0 / g.length) * np.sin(i * np.pi * (g.x - g.a) / g.length)
            w /= np.sqrt(g.h * np.sum(w * w))
            np.testing.assert_array_equal(modes[i - 1], w)
            assert lams[i - 1] == (i * np.pi / g.length) ** 2
