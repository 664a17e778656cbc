"""Generator construction, divergence values and the conjugacy invariants."""

import numpy as np
import pytest

from bregman_bv import (
    ConvexGenerator,
    DomainError,
    InversionError,
    Mahalanobis,
    NegativeEntropySimplex,
    OpenBox,
    OpenSimplex,
    SeparableCustom,
    SquaredEuclidean,
    divergence,
    dual_divergence,
    fd_gradient,
    make_generator,
    triangle_expansion,
)
from conftest import GENERATOR_NAMES, build_generator, fig_2b_generator, random_interior_points

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

    @pytest.mark.parametrize("matrix", [
        [[np.inf, 0.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]], [[1e308, 0.0], [0.0, 1e308]],
    ])
    def test_rejects_non_finite(self, matrix):
        # overflow in the symmetrization counts as non-finite too
        with pytest.raises(ValueError, match="finite"):
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


def _contains_with_finiteness(domain, x, allow_boundary):
    """Membership with an explicit finiteness test, which the domains leave to their comparisons."""
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(domain, OpenBox):
            above = x >= domain.lowers if allow_boundary else x > domain.lowers
            below = x <= domain.uppers if allow_boundary else x < domain.uppers
            inside = np.all(above & below, axis=-1)
        else:
            positive = np.all(x >= 0.0 if allow_boundary else x > 0.0, axis=-1)
            inside = positive & (np.abs(np.sum(x, axis=-1) - 1.0) <= domain.sum_tolerance)
    return inside & np.all(np.isfinite(x), axis=-1)


class TestDomains:
    SPECIALS = [np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324, -5e-324, 0.0, 1.0]

    @pytest.mark.parametrize("allow_boundary", [False, True])
    @pytest.mark.parametrize("domain", [OpenBox([-1.0, 0.0, 2.0], [1.0, 1e308, 3.0]), OpenSimplex(3)],
                             ids=["box", "simplex"])
    def test_non_finite_rows_are_outside(self, domain, allow_boundary):
        rng = np.random.default_rng(31)
        n = 20_000
        if isinstance(domain, OpenBox):
            x = rng.uniform(domain.lowers, domain.uppers, size=(n, 3))
            pool = np.concatenate([self.SPECIALS, domain.lowers, domain.uppers])
        else:
            x = rng.dirichlet(np.ones(3), size=n)
            pool = np.array(self.SPECIALS + [0.5])
        swap = rng.random((n, 3)) < 0.3
        x[swap] = rng.choice(pool, size=int(swap.sum()))
        inside = domain.contains(x, allow_boundary=allow_boundary)
        assert np.array_equal(inside, _contains_with_finiteness(domain, x, allow_boundary))
        assert 0 < np.sum(inside) < n


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
        on_simplex = isinstance(gen.domain, OpenSimplex)
        for x in random_interior_points(gen, rng, 50):
            approx = fd_gradient(gen, x)
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


CLOSED_FORMS = [
    (name, dim)
    for name in ("squared-euclidean", "mahalanobis", "negative-entropy-simplex")
    for dim in range(2 if name == "negative-entropy-simplex" else 1, 11)
]


def generic_kernel(g, y, x):
    """The base-class formula F(y) - F(x) - <grad F(x), y - x>, under divergence's errstate."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return ConvexGenerator.divergence_kernel(g, y, x)


def assert_matches_generic(g, y, x):
    closed = g.divergence_kernel(y, x)
    reference = generic_kernel(g, y, x)
    assert closed.shape == reference.shape
    assert np.all(np.abs(closed - reference) <= 1e-12 * np.maximum(1.0, np.abs(reference)))


class TestClosedForms:
    """Each built-in closed form against the generic kernel it replaces."""

    @pytest.mark.parametrize("name, dim", CLOSED_FORMS)
    def test_matches_generic_formula(self, name, dim):
        g = build_generator(name, dim)
        assert type(g).divergence_kernel is not ConvexGenerator.divergence_kernel
        rng = np.random.default_rng(dim)
        y = random_interior_points(g, rng, 200)
        x = random_interior_points(g, rng, 200)
        assert_matches_generic(g, y, x)
        assert_matches_generic(g, y, x[0])  # one center against many points, both ways
        assert_matches_generic(g, y[0], x)

    @pytest.mark.parametrize("name", GENERATOR_NAMES)
    def test_equal_arguments_give_exact_zero(self, name):
        g = build_generator(name, 5)
        x = random_interior_points(g, np.random.default_rng(21), 200)
        assert np.all(g.divergence_kernel(x, x) == 0.0)

    def test_kl_boundary_coordinates(self):
        g = NegativeEntropySimplex(4)
        rng = np.random.default_rng(22)
        x = random_interior_points(g, rng, 200)
        onehot = np.eye(4)[rng.integers(4, size=200)]
        assert_matches_generic(g, onehot, x)
        # y = x = 0 in the last coordinate: both points on one face of the simplex
        face = NegativeEntropySimplex(3)
        y = np.pad(random_interior_points(face, rng, 200), ((0, 0), (0, 1)))
        x = np.pad(random_interior_points(face, rng, 200), ((0, 0), (0, 1)))
        assert_matches_generic(g, y, x)
        assert_matches_generic(g, np.eye(4)[rng.integers(3, size=200)], x)
        assert np.all(g.divergence_kernel(x, x) == 0.0)

    def test_kl_keeps_the_off_plane_mass(self):
        # sums may miss 1 by up to 1e-9; without -sum y + sum x this D would be -1e-10
        g = NegativeEntropySimplex(3)
        x = random_interior_points(g, np.random.default_rng(23), 200)
        assert np.all(np.abs(divergence(g, (1.0 - 1e-10) * x, x)) <= 1e-15)
