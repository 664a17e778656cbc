"""Generator construction, divergence values and the conjugacy invariants."""

import numpy as np
import pytest

from bregman_bv import (
    DomainError,
    InversionError,
    Mahalanobis,
    NegativeEntropySimplex,
    OpenSimplex,
    OracleConfig,
    SeparableCustom,
    SquaredEuclidean,
    divergence,
    dual_divergence,
    fd_gradient,
    make_generator,
    triangle_expansion,
)
from conftest import fig_2b_generator, random_interior_points

# frozen by direct evaluation of the closed forms (see test bodies)
KL_HALF_TO_82 = 0.2231435513142097


class TestConstruction:
    def test_squared_euclidean_gradient(self):
        g = make_generator({"generator": "squared-euclidean", "dim": 2})
        assert np.allclose(g.grad(np.array([3.0, 4.0])), [6.0, 8.0])

    def test_entropy_value_at_uniform(self):
        g = make_generator({"generator": "negative-entropy-simplex", "dim": 2})
        assert g.value(np.array([0.5, 0.5])) == pytest.approx(-np.log(2.0), abs=1e-15)

    def test_fig_2b_generator(self):
        g = fig_2b_generator()
        grad = g.grad(np.array([0.5, 0.5]))
        assert grad[0] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert grad[1] == pytest.approx(0.5 / 0.9375, abs=1e-12)

    def test_matrix_file_loading(self, tmp_path):
        path = tmp_path / "A.csv"
        path.write_text("2,0\n0,1\n")
        g = make_generator({"generator": "mahalanobis", "matrix_file": str(path)})
        assert np.allclose(g.matrix, [[2.0, 0.0], [0.0, 1.0]])

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValueError, match="positive definite"):
            Mahalanobis([[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("matrix", [[[np.inf, 0.0], [0.0, 1.0]], [[1e308, 0.0], [0.0, 1e308]]])
    def test_rejects_non_finite(self, matrix):
        # overflow in the symmetrization counts as non-finite too
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
            Mahalanobis(matrix)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            Mahalanobis([[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            SquaredEuclidean(0)
        with pytest.raises(ValueError):
            Mahalanobis(np.ones((2, 3)))
        with pytest.raises(ValueError):
            SeparableCustom([])
        with pytest.raises(ValueError):
            NegativeEntropySimplex(1)

    def test_rejects_non_convex_piece(self):
        with pytest.raises(ValueError, match="not strictly convex"):
            SeparableCustom([(lambda t: -(t**2), lambda t: -2.0 * t, -1.0, 1.0)])

    def test_unknown_generator(self):
        with pytest.raises(ValueError, match="unknown generator"):
            make_generator({"generator": "huber"})


class TestDivergence:
    def test_euclidean_unit(self):
        g = SquaredEuclidean(2)
        assert divergence(g, [1.0, 0.0], [0.0, 0.0]) == pytest.approx(1.0, abs=1e-15)

    def test_mahalanobis_value(self):
        g = Mahalanobis([[2.0, 0.0], [0.0, 1.0]])
        assert divergence(g, [1.0, 1.0], [0.0, 0.0]) == pytest.approx(3.0, abs=1e-14)

    def test_kl_value(self):
        g = NegativeEntropySimplex(2)
        got = divergence(g, [0.5, 0.5], [0.8, 0.2])
        assert got == pytest.approx(KL_HALF_TO_82, abs=1e-14)

    def test_one_hot_first_argument(self):
        g = NegativeEntropySimplex(2)
        assert divergence(g, [1.0, 0.0], [0.8, 0.2]) == pytest.approx(-np.log(0.8), abs=1e-14)

    def test_boundary_second_argument_rejected(self):
        g = NegativeEntropySimplex(2)
        with pytest.raises(DomainError, match="refusing to clamp"):
            divergence(g, [0.5, 0.5], [1e-13, 1.0 - 1e-13])

    def test_boundary_first_argument_rejected_on_box(self):
        g = fig_2b_generator()
        with pytest.raises(DomainError):
            divergence(g, [1.0, 0.0], [0.0, 0.0])

    def test_overflow_reported_not_clamped(self):
        g = NegativeEntropySimplex(2)
        with pytest.raises(DomainError, match="overflowed"):
            divergence(g, [0.5, 0.5], [0.0, 1.0], validate=False)


class TestDualDivergence:
    def test_euclidean_swap(self):
        g = SquaredEuclidean(2)
        got = dual_divergence(g, [2.0, 0.0], [0.0, 0.0])
        assert got == pytest.approx(divergence(g, [0.0, 0.0], [1.0, 0.0]), abs=1e-15)
        assert got == pytest.approx(1.0, abs=1e-15)

    def test_equal_arguments_vanish(self, gen):
        rng = np.random.default_rng(3)
        x = random_interior_points(gen, rng, 1)[0]
        xs = gen.grad(x)
        assert dual_divergence(gen, xs, xs) == pytest.approx(0.0, abs=1e-12)

    def test_entropy_matches_primal(self):
        g = NegativeEntropySimplex(2)
        got = dual_divergence(g, g.grad(np.array([0.8, 0.2])), g.grad(np.array([0.5, 0.5])))
        assert got == pytest.approx(KL_HALF_TO_82, abs=1e-12)

    def test_inversion_failure_reported(self):
        g = fig_2b_generator()
        # the gradient image of (-1, 1) under 2t/(1-t^2) is bracketed; 1e16 is outside
        with pytest.raises(InversionError):
            dual_divergence(g, [1e16, 0.0], [0.0, 0.0])


class TestTriangleExpansion:
    def test_degenerate_first_leg(self, gen):
        rng = np.random.default_rng(4)
        x, z = random_interior_points(gen, rng, 2)
        t = triangle_expansion(gen, x, x, z)
        assert t.leg_xy == pytest.approx(0.0, abs=1e-14)
        assert t.total == pytest.approx(t.leg_yz + t.correction, abs=1e-12)

    def test_degenerate_second_leg(self, gen):
        rng = np.random.default_rng(5)
        x, y = random_interior_points(gen, rng, 2)
        t = triangle_expansion(gen, x, y, y)
        assert t.correction == pytest.approx(0.0, abs=1e-12)
        assert t.total == pytest.approx(t.leg_xy, abs=1e-12)

    def test_euclidean_right_angle(self):
        g = SquaredEuclidean(2)
        t = triangle_expansion(g, [1.0, 0.0], [0.0, 0.0], [0.0, 1.0])
        assert t.total == pytest.approx(2.0, abs=1e-15)
        assert t.leg_xy == pytest.approx(1.0, abs=1e-15)
        assert t.leg_yz == pytest.approx(1.0, abs=1e-15)
        assert t.correction == pytest.approx(0.0, abs=1e-15)


class TestInvariants:
    N_SAMPLES = 1000

    def test_non_negativity(self, gen):
        rng = np.random.default_rng(11)
        first = random_interior_points(gen, rng, self.N_SAMPLES)
        second = random_interior_points(gen, rng, self.N_SAMPLES)
        values = divergence(gen, first, second, validate=False)
        assert np.min(values) >= -1e-12

    def test_identity_of_indiscernibles(self, gen):
        rng = np.random.default_rng(12)
        pts = random_interior_points(gen, rng, self.N_SAMPLES)
        assert np.max(divergence(gen, pts, pts, validate=False)) <= 1e-12
        other = random_interior_points(gen, rng, self.N_SAMPLES)
        separated = np.max(np.abs(pts - other), axis=-1) >= 1e-6
        assert np.all(divergence(gen, pts[separated], other[separated], validate=False) > 0.0)

    def test_conjugate_round_trip(self, gen):
        rng = np.random.default_rng(13)
        pts = random_interior_points(gen, rng, self.N_SAMPLES)
        back = gen.grad_conj(gen.grad(pts))
        tol = 1e-6 if isinstance(gen, SeparableCustom) else 1e-9
        assert np.max(np.abs(back - pts)) <= tol

    def test_gradient_matches_finite_differences(self, gen):
        rng = np.random.default_rng(14)
        cfg = OracleConfig(fd_step=1e-6)
        on_simplex = isinstance(gen.domain, OpenSimplex)
        for x in random_interior_points(gen, rng, 50):
            approx = fd_gradient(gen, x, cfg)
            exact = gen.grad(x)
            if on_simplex:
                # the stored gradient is a gauge representative: compare tangentially
                approx = approx - np.mean(approx)
                exact = exact - np.mean(exact)
            rel = np.max(np.abs(approx - exact)) / max(1.0, np.max(np.abs(exact)))
            assert rel <= 1e-5

    def test_duality_swap(self, gen):
        rng = np.random.default_rng(15)
        first = random_interior_points(gen, rng, self.N_SAMPLES)
        second = random_interior_points(gen, rng, self.N_SAMPLES)
        swapped = dual_divergence(gen, gen.grad(first), gen.grad(second), validate=False)
        direct = divergence(gen, second, first, validate=False)
        assert np.max(np.abs(swapped - direct)) <= 1e-9

    def test_triangle_expansion_residual(self, gen):
        rng = np.random.default_rng(16)
        x = random_interior_points(gen, rng, self.N_SAMPLES)
        y = random_interior_points(gen, rng, self.N_SAMPLES)
        z = random_interior_points(gen, rng, self.N_SAMPLES)
        t = triangle_expansion(gen, x, y, z, validate=False)
        assert np.max(np.abs(t.residual)) <= 1e-10

    def test_convex_in_first_argument(self, gen):
        rng = np.random.default_rng(17)
        x1 = random_interior_points(gen, rng, self.N_SAMPLES)
        x2 = random_interior_points(gen, rng, self.N_SAMPLES)
        z = random_interior_points(gen, rng, self.N_SAMPLES)
        lam = rng.uniform(0.0, 1.0, size=(self.N_SAMPLES, 1))
        mixed = divergence(gen, lam * x1 + (1.0 - lam) * x2, z, validate=False)
        bound = (
            lam[:, 0] * divergence(gen, x1, z, validate=False)
            + (1.0 - lam[:, 0]) * divergence(gen, x2, z, validate=False)
        )
        assert np.all(mixed <= bound + 1e-12)
