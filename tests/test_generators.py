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
    Piece,
    SampleSet,
    SeparableCustom,
    SquaredEuclidean,
    decompose,
    divergence,
    dual_divergence,
    dual_mean,
    triangle_expansion,
)
from conftest import (
    GENERATOR_NAMES,
    assert_frozen,
    build_generator,
    fd_gradient,
    fig_2b_generator,
    random_interior_points,
)

# frozen by direct evaluation of the closed forms (see test bodies)
KL_HALF_TO_82 = 0.2231435513142097


class TestConstruction:
    def test_squared_euclidean_gradient(self):
        g = SquaredEuclidean(2)
        assert np.allclose(g.grad(np.array([3.0, 4.0])), [6.0, 8.0])

    def test_entropy_value_at_uniform(self):
        g = NegativeEntropySimplex(2)
        assert g.value(np.array([0.5, 0.5])) == pytest.approx(-np.log(2.0), abs=1e-15)

    def test_fig_2b_generator(self):
        g = fig_2b_generator()
        grad = g.grad(np.array([0.5, 0.5]))
        assert grad[0] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert grad[1] == pytest.approx(0.5 / 0.9375, abs=1e-12)

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

    def test_rejects_piece_not_finite_inside(self):
        square = (lambda t: t**2, lambda t: 2.0 * t, -1.0, 1.0)
        # infinite on part of the interior, where the construction probes it
        spike = (lambda t: np.where(t > 0.5, np.inf, t**2), lambda t: 2.0 * t, 0.0, 1.0)
        with pytest.raises(ValueError, match=r"^piece 1 is not finite on the interior of its interval$"):
            SeparableCustom([square, spike])

    @pytest.mark.parametrize("lowers, uppers, message", [
        ([0.0, 0.0], [1.0], "box bounds must be two vectors of equal length"),
        ([[0.0]], [[1.0]], "box bounds must be two vectors of equal length"),
        ([0.0, -np.inf], [1.0, 1.0], "box bounds must be finite"),
        ([0.0, 0.0], [1.0, np.nan], "box bounds must be finite"),
        ([0.0, 1.0], [1.0, 1.0], "each box interval needs lower < upper"),
    ], ids=["lengths", "matrices", "infinite", "nan", "empty-interval"])
    def test_open_box_rejects_bad_bounds(self, lowers, uppers, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            OpenBox(lowers, uppers)

    def test_constructors_leave_caller_arrays_alone(self):
        lowers, uppers, matrix = np.zeros(2), np.ones(2), np.eye(2)
        box, maha = OpenBox(lowers, uppers), Mahalanobis(matrix)
        for mine, held in ((lowers, box.lowers), (uppers, box.uppers), (matrix, maha.matrix)):
            assert mine.flags.writeable and not np.shares_memory(mine, held)

    def test_held_arrays_cannot_be_made_writable(self):
        box = OpenBox(np.zeros(2), np.ones(2))
        for a in (box.lowers, box.uppers, Mahalanobis(np.eye(2)).matrix):
            assert_frozen(a)


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

    def test_zero_second_argument_coordinate_rejected(self):
        g = NegativeEntropySimplex(2)
        with pytest.raises(DomainError, match="second divergence argument outside the open-simplex domain"):
            divergence(g, [0.5, 0.5], [0.0, 1.0])

    def test_batch_names_the_rows_outside(self):
        g = NegativeEntropySimplex(2)
        second = [[0.5, 0.5], [0.0, 1.0], [0.25, 0.75]]
        with pytest.raises(DomainError, match=r"^second divergence argument \[1\] outside the open-simplex domain$"):
            divergence(g, [0.5, 0.5], second)

    def test_tiny_second_argument_coordinate_is_valid(self):
        # any positive coordinate is inside the open simplex, as in a sample set
        g = NegativeEntropySimplex(2)
        x = np.array([1e-13, 1.0 - 1e-13])
        closed_form = 0.5 * np.log(0.5 / x[0]) + 0.5 * np.log(0.5 / x[1]) - 1.0 + (x[0] + x[1])
        assert divergence(g, [0.5, 0.5], x) == pytest.approx(closed_form, rel=1e-15)

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


def _square_pieces(lower, upper):
    return SeparableCustom([Piece(lambda t: t * t, lambda t: 2.0 * t, lower, upper)] * 2)


class TestBisection:
    """``SeparableCustom.grad_conj`` bisects every piece at once down to adjacent floats."""

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6, 1e-9])
    def test_square_pieces_match_squared_euclidean(self, scale):
        # the sets lie apart: the generic formula cancels F values, and a bias far below
        # them would measure that cancellation rather than the inverse
        pieces, euclid = _square_pieces(-10.0, 10.0), SquaredEuclidean(2)
        rng = np.random.default_rng(25)
        for _ in range(30):
            labels = SampleSet(scale * rng.uniform(1.0, 5.0, size=(15, 2)))
            predictions = SampleSet(scale * rng.uniform(-5.0, -1.0, size=(12, 2)))
            got, want = decompose(pieces, labels, predictions), decompose(euclid, labels, predictions)
            assert np.array_equal(got.central_prediction, want.central_prediction)
            assert got.bias == pytest.approx(want.bias, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("scale", [0.5, 1e-3, 1e-6, 1e-9])
    def test_round_trip_within_four_ulps(self, scale):
        g = build_generator("separable-custom", 3)
        x = scale * np.random.default_rng(26).uniform(-1.0, 1.0, size=(1000, 3))
        assert np.all(np.abs(g.grad_conj(g.grad(x)) - x) <= 4 * np.spacing(np.abs(x)))

    def test_wide_intervals(self):
        g = _square_pieces(-1e60, 1e60)
        assert np.array_equal(dual_mean(g, SampleSet([[1.0, 2.0], [3.0, -1.0]])), [2.0, 0.5])

    def test_at_most_66_derivative_calls_per_piece(self):
        calls = []

        def deriv(t):
            calls.append(1)
            return np.sinh(t)

        g = SeparableCustom([(np.cosh, deriv, -1.5, 1.5)] * 2)
        calls.clear()  # construction probes the derivative too
        g.grad_conj(np.random.default_rng(27).uniform(-2.0, 2.0, size=(50, 2)))
        assert len(calls) <= 2 * 66


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


class TestSimplexRewrites:
    """The KL kernel and the simplex membership test against the expressions they replaced."""

    @staticmethod
    def logged_after_broadcast(y, x):
        positive = y > 0.0
        logs = np.log(np.where(positive, y, 1.0)) - np.log(np.where(positive, x, 1.0))
        return np.einsum("...i,...i->...", y, logs) + np.einsum("...i->...", x - y)

    @staticmethod
    def reduced_per_row(domain, x, allow_boundary):
        positive = np.all(x >= 0.0 if allow_boundary else x > 0.0, axis=-1)
        with np.errstate(over="ignore", invalid="ignore"):
            on_plane = np.abs(np.sum(x, axis=-1) - 1.0) <= domain.sum_tolerance
        return positive & on_plane

    @staticmethod
    def rows(rng, n=300):
        """Interior, one-hot, face and on-plane negative rows, with NaN, inf and negatives mixed in."""
        g = NegativeEntropySimplex(4)
        moved = np.eye(4)[rng.integers(4, size=n)] - np.eye(4)[rng.integers(4, size=n)]
        x = np.concatenate([
            random_interior_points(g, rng, n),
            np.eye(4)[rng.integers(4, size=n)],
            np.pad(random_interior_points(NegativeEntropySimplex(3), rng, n), ((0, 0), (0, 1))),
            random_interior_points(g, rng, n) + 0.5 * moved,
        ])
        swap = rng.random(x.shape) < 0.05
        x[swap] = rng.choice([np.nan, np.inf, -np.inf, -0.25, 0.0], size=int(swap.sum()))
        return x[rng.permutation(len(x))]

    def test_kl_kernel_logs_before_broadcasting(self):
        g = NegativeEntropySimplex(4)
        rng = np.random.default_rng(24)
        y, x = self.rows(rng), self.rows(rng)
        for first, second in ((y, x), (y, x[0]), (y[0], x), (y, y[5]), (y[5], y[5])):
            with np.errstate(all="ignore"):
                got = g.divergence_kernel(first, second)
                want = self.logged_after_broadcast(first, second)
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("allow_boundary", [False, True])
    def test_simplex_membership_tests_signs_once(self, allow_boundary):
        domain = OpenSimplex(4)
        rng = np.random.default_rng(25)
        x = self.rows(rng)
        inside = random_interior_points(NegativeEntropySimplex(4), rng, 50)
        for batch in (x, inside, x[:1], x[0], inside[0], np.eye(4)):
            got = domain.contains(batch, allow_boundary=allow_boundary)
            want = self.reduced_per_row(domain, batch, allow_boundary)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)
