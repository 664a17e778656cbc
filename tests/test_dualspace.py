"""Sample sets, primal/dual means and variances, averaging and ensembling."""

import array
import copy
import copyreg
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bregman_bv import (
    ENSEMBLE_ATOM_CAP,
    DomainError,
    EnumerationCapError,
    GroupedSampleSet,
    Mahalanobis,
    NegativeEntropySimplex,
    SampleSet,
    SquaredEuclidean,
    check_samples,
    conditional_label,
    conditional_prediction,
    decompose,
    dual_average,
    dual_mean,
    dual_variance,
    ensemble_distribution,
    primal_average,
    primal_mean,
    primal_variance,
    total_variance,
)
from conftest import assert_frozen, build_generator, random_grouped, random_sample_set, spd_matrix

# frozen from the analytic normalized geometric mean of {(0.8,0.2), (0.6,0.4)}
GEOMETRIC_MEAN = np.array([0.71010205144336436, 0.28989794855663564])
# frozen from direct evaluation of the weighted KL sums for the same pair
PRIMAL_VAR_PAIR = 0.024157256781171303
DUAL_VAR_PAIR = 0.02463800269179502


def kl_pair():
    return SampleSet([[0.8, 0.2], [0.6, 0.4]])


# every way a held set comes back: pickled, deep-copied, shallow-copied
REBUILDS = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    # protocol 5 unpickles array data into a writable buffer, not an array
    "pickle-5": lambda x: pickle.loads(pickle.dumps(x, protocol=5)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}


class _Pickled:
    """Pickles as ``cls`` with the plain instance dict ``state``, as sets did before they froze their arrays on load."""

    def __init__(self, cls, state):
        self.cls, self.state = cls, state

    def __reduce__(self):
        return copyreg._reconstructor, (self.cls, object, None), self.state


def earlier_pickle(x):
    """``x`` as an earlier version pickled it: the same instance dict, with writable arrays."""
    if isinstance(x, SampleSet):
        return _Pickled(SampleSet, {"points": x.points.copy(), "weights": x.weights.copy()})
    state = dict(vars(x), _flat=earlier_pickle(x._flat), _weights=x._weights.copy(), _offsets=x._offsets.copy())
    state["_groups"] = {k: earlier_pickle(s) for k, s in x._groups.items()}
    return _Pickled(GroupedSampleSet, state)


class TestSampleSet:
    def test_uniform_default(self):
        s = SampleSet([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(s.weights, [0.5, 0.5])
        assert s.n == 2 and s.dim == 2

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=6))
    def test_weights_normalized(self, raw):
        s = SampleSet(np.zeros((len(raw), 2)), raw)
        assert abs(float(np.sum(s.weights)) - 1.0) <= 1e-12

    def test_single_point_promotion(self):
        s = SampleSet([1.5, 2.5])
        assert s.points.shape == (1, 2)

    def test_rejections(self):
        with pytest.raises(ValueError):
            SampleSet(np.empty((0, 2)))
        with pytest.raises(ValueError):
            SampleSet([[np.nan, 0.0]])
        with pytest.raises(ValueError):
            SampleSet([[1.0, 0.0]], [0.0])
        with pytest.raises(ValueError):
            SampleSet([[1.0, 0.0]], [0.5, 0.5])

    def test_messages_name_rows(self):
        with pytest.raises(ValueError, match=r"^non-finite coordinates in data rows \[1, 2\]$"):
            SampleSet([[0.0, 1.0], [np.inf, 0.0], [0.0, np.nan]])
        with pytest.raises(ValueError, match=r"^zero, negative or non-finite weights in data rows \[0, 2\]$"):
            SampleSet([[0.0], [1.0], [2.0]], [0.0, 1.0, np.inf])

    def test_overflowing_weight_sum(self):
        # the plain sum is inf, which would turn every weight into 0
        s = SampleSet([[1.0, 2.0], [3.0, 4.0]], [1e308, 1e308])
        assert s.weights.tolist() == [0.5, 0.5]
        assert decompose(SquaredEuclidean(2), s, s).expected_loss == pytest.approx(4.0, rel=1e-15)

    @pytest.mark.parametrize("rows", [slice(None), slice(None, None, 2), 0],
                             ids=["array", "strided-view", "one-row"])
    def test_owns_its_points(self, rows):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 3.0]])
        w = np.array([1.0, 2.0, 3.0])
        s = SampleSet(a[rows], np.atleast_1d(w[rows]))
        kept = s.points.copy(), s.weights.copy()
        assert a.flags.writeable and w.flags.writeable
        a[...] = np.nan
        w[...] = np.nan
        assert np.array_equal(s.points, kept[0]) and np.array_equal(s.weights, kept[1])
        # the points of another set are copied too: the copy is the new set's own
        t = SampleSet(s.points)
        assert not np.may_share_memory(t.points, s.points) and not s.points.flags.writeable
        assert not t.points.flags.writeable

    def test_owns_points_given_as_a_buffer(self):
        buf = array.array("d", [0.8, 0.2, 0.6, 0.4])
        s = SampleSet(memoryview(buf).cast("B").cast("d", (2, 2)))
        buf[0] = float("nan")
        assert s.points.tolist() == [[0.8, 0.2], [0.6, 0.4]]
        assert_frozen(s.points)

    def test_owns_points_given_through_the_array_protocol(self):
        class Wrapper:
            def __init__(self, a):
                self.a = a

            def __array__(self, dtype=None, copy=None):
                return self.a[:, :]  # a float view of the wrapper's own array: asarray does not copy it

        a = np.array([[0.8, 0.2], [0.6, 0.4]])
        s = SampleSet(Wrapper(a))
        assert a.flags.writeable
        a[0, 0] = 0.5
        assert s.points.tolist() == [[0.8, 0.2], [0.6, 0.4]]
        assert_frozen(s.points)

    def test_immutable(self):
        s = SampleSet([[1.0, 0.0]])
        with pytest.raises(ValueError):
            s.points[0, 0] = 2.0
        # a promoted single point is a view of the 1-D array; both are frozen
        for t in (s, SampleSet([1.5, 2.5]), SampleSet(np.arange(6.0).reshape(3, 2)[::2], [1.0, 2.0])):
            assert_frozen(t.points)
            assert_frozen(t.weights)

    @pytest.mark.parametrize("how", REBUILDS)
    def test_rebuilt_sets_stay_frozen(self, how):
        s = SampleSet([[0.8, 0.2], [0.6, 0.4]], [1.0, 3.0])
        t = REBUILDS[how](s)
        assert type(t) is SampleSet and t is not s
        assert t.points.tolist() == s.points.tolist() and t.weights.tolist() == s.weights.tolist()
        assert_frozen(t.points)
        assert_frozen(t.weights)


class TestGroupedSampleSet:
    def test_flatten_mixes_weights(self):
        grouped = GroupedSampleSet(
            {"a": SampleSet([[0.0], [2.0]]), "b": SampleSet([[4.0]])}, [0.25, 0.75]
        )
        flat = grouped.flatten()
        assert np.allclose(flat.weights, [0.125, 0.125, 0.75])
        assert np.allclose(flat.points.ravel(), [0.0, 2.0, 4.0])

    def test_rejections(self):
        with pytest.raises(ValueError):
            GroupedSampleSet({})
        with pytest.raises(ValueError):
            GroupedSampleSet({"a": SampleSet([[1.0]]), "b": SampleSet([[1.0, 2.0]])})
        with pytest.raises(ValueError, match=r"^zero, negative or non-finite weights in groups \[0\]$"):
            GroupedSampleSet({"a": SampleSet([[1.0]])}, [0.0])

    def test_immutable(self):
        grouped = GroupedSampleSet({"a": SampleSet([[0.0], [2.0]]), "b": SampleSet([[4.0]])})
        with pytest.raises(TypeError):
            grouped.groups["c"] = SampleSet([[1.0]])
        with pytest.raises(TypeError):
            grouped.group_weights["a"] = 1.0
        with pytest.raises(AttributeError):
            grouped.groups = {}
        flat = grouped.flatten()
        assert grouped.flatten() is flat
        with pytest.raises(ValueError):
            flat.points[0, 0] = 1.0
        with pytest.raises(ValueError):
            flat.weights[0] = 1.0
        with pytest.raises(ValueError):
            grouped.groups["a"].points[0, 0] = 1.0
        assert list(grouped.groups.values())[1].points.tolist() == [[4.0]]

    @pytest.mark.parametrize("how", REBUILDS)
    def test_rebuilt_sets_stay_frozen_and_give_equal_reports(self, how, row_tests):
        g = Mahalanobis(spd_matrix(2))
        grouped = random_grouped(g, np.random.default_rng(3), max_groups=4, max_n=5)
        for mode in ("primal", "dual"):
            total_variance(g, grouped, mode)
        t = REBUILDS[how](grouped)
        flat = t.flatten()
        assert type(t) is GroupedSampleSet and t is not grouped
        for a in (flat.points, flat.weights, t._weights, t._offsets):
            assert_frozen(a)
        assert list(t.groups) == list(grouped.groups)
        assert [float(w) for w in t.group_weights.values()] == [float(w) for w in grouped.group_weights.values()]
        for key, s in t.groups.items():
            # each group views its rows of the mixture, as at construction
            assert np.shares_memory(s.points, flat.points)
            assert s.points.tolist() == grouped.groups[key].points.tolist()
            assert s.weights.tolist() == grouped.groups[key].weights.tolist()
            assert_frozen(s.points)
            assert_frozen(s.weights)
        point = np.array([0.3, -0.2])
        for report in (
            lambda x: total_variance(g, x, "primal"),
            lambda x: total_variance(g, x, "dual"),
            lambda x: conditional_prediction(g, point, x),
            lambda x: conditional_label(g, x, point),
        ):
            assert report(t).as_dict() == report(grouped).as_dict()
        assert row_tests == []  # a full-space domain needs no row test

    def test_loads_pickles_of_earlier_versions(self):
        g = NegativeEntropySimplex(3)
        grouped = random_grouped(g, np.random.default_rng(4))
        t = pickle.loads(pickle.dumps(earlier_pickle(grouped)))
        assert type(t) is GroupedSampleSet and list(t.groups) == list(grouped.groups)
        flat = t.flatten()
        for a in (flat.points, flat.weights, t._weights, t._offsets):
            assert_frozen(a)
        for key, s in t.groups.items():
            assert np.shares_memory(s.points, flat.points)
            assert s.weights.tolist() == grouped.groups[key].weights.tolist()
            assert_frozen(s.points)
            assert_frozen(s.weights)
        for mode in ("primal", "dual"):
            assert total_variance(g, t, mode).as_dict() == total_variance(g, grouped, mode).as_dict()
        s = pickle.loads(pickle.dumps(earlier_pickle(flat)))
        assert type(s) is SampleSet and s.points.tolist() == flat.points.tolist()
        assert_frozen(s.points)
        assert_frozen(s.weights)

    def test_overflowing_group_weight_sum(self):
        grouped = GroupedSampleSet(
            {"a": SampleSet([[0.0]]), "b": SampleSet([[4.0]])}, {"a": 1e308, "b": 1.5e308}
        )
        assert grouped.group_weights["a"] == pytest.approx(0.4, rel=1e-15)
        assert grouped.group_weights["b"] == pytest.approx(0.6, rel=1e-15)


class TestCheckSamples:
    def test_message_lists_plain_row_indices(self):
        s = SampleSet([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainError) as info:
            check_samples(NegativeEntropySimplex(2), s)
        assert str(info.value) == "samples [1, 2] outside the open-simplex domain"

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError, match="points have dimension 2, generator expects 3"):
            check_samples(SquaredEuclidean(3), kl_pair())

    def test_decompose_tests_each_input_once(self, row_tests):
        g = NegativeEntropySimplex(3)
        labels = SampleSet(np.eye(3)[[0, 2, 1, 2]])
        predictions = SampleSet([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1], [0.1, 0.1, 0.8]])
        decompose(g, labels, predictions)
        assert row_tests == [("open-simplex", 4), ("open-simplex", 3)]

    def test_full_space_makes_no_row_test(self, row_tests):
        g = Mahalanobis(spd_matrix(2))
        rng = np.random.default_rng(5)
        grouped = random_grouped(g, rng)
        for mode in ("primal", "dual"):
            assert not total_variance(g, grouped, mode).failures(1e-9)
        decompose(g, random_sample_set(g, rng), random_sample_set(g, rng))
        assert row_tests == []


class TestMeans:
    def test_primal_mean_symmetry(self):
        assert np.allclose(primal_mean(SampleSet([[1.0, 0.0], [0.0, 1.0]])), [0.5, 0.5])

    def test_primal_mean_single(self):
        assert np.allclose(primal_mean(SampleSet([[0.3, 0.7]])), [0.3, 0.7])

    def test_primal_mean_pair(self):
        assert np.allclose(primal_mean(kl_pair()), [0.7, 0.3])

    def test_dual_mean_collapses_for_euclidean(self):
        g = SquaredEuclidean(2)
        rng = np.random.default_rng(0)
        s = random_sample_set(g, rng, max_n=6, min_n=2)
        assert np.allclose(dual_mean(g, s), primal_mean(s), atol=1e-12)

    def test_dual_mean_is_normalized_geometric_mean(self):
        g = NegativeEntropySimplex(2)
        assert np.max(np.abs(dual_mean(g, kl_pair()) - GEOMETRIC_MEAN)) <= 1e-12

    def test_dual_mean_single_point(self):
        g = NegativeEntropySimplex(2)
        s = SampleSet([[0.8, 0.2]])
        assert np.allclose(dual_mean(g, s), [0.8, 0.2], atol=1e-12)


def matrix_with_condition(dim, cond, rng):
    """A symmetric positive-definite matrix with eigenvalues log-spaced from 1 to ``cond``."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    a = (q * np.logspace(0.0, np.log10(cond), dim)) @ q.T
    return 0.5 * (a + a.T)


class TestQuadraticDualMean:
    """A quadratic generator's dual mean is its weighted mean, taken without the gradient map."""

    @pytest.mark.parametrize("cond", [1e1, 1e4, 1e8])
    def test_agrees_with_the_gradient_map(self, cond):
        # the path the weighted mean replaced stays as a cross-check: it loses ~cond(A) ulps
        rng = np.random.default_rng(int(np.log10(cond)))
        g = Mahalanobis(matrix_with_condition(3, cond, rng))
        for _ in range(20):
            s = random_sample_set(g, rng, min_n=2)
            mapped = g.grad_conj(s.weights @ g.grad(s.points))
            scale = s.weights @ np.abs(s.points)
            assert np.all(np.abs(mapped - dual_mean(g, s)) <= 1e-15 * cond * scale)

    def test_exact_to_a_few_ulps_at_high_condition(self):
        eps = np.finfo(float).eps
        rng = np.random.default_rng(8)
        g = Mahalanobis(matrix_with_condition(3, 1e8, rng))
        for _ in range(20):
            s = random_sample_set(g, rng, min_n=2)
            got = dual_mean(g, s)
            for j in range(3):
                exact = sum(Fraction(w) * Fraction(x) for w, x in zip(s.weights, s.points[:, j]))
                scale = sum(Fraction(w) * abs(Fraction(x)) for w, x in zip(s.weights, s.points[:, j]))
                assert abs(Fraction(got[j]) - exact) <= 4 * eps * scale

    def test_single_point_at_offset_is_the_point(self):
        g = Mahalanobis(spd_matrix(3))
        for x in 1e4 + np.random.default_rng(10).uniform(-2.0, 2.0, size=(20, 3)):
            assert np.array_equal(dual_mean(g, SampleSet([x])), x)
            assert np.array_equal(dual_average(g, x), x)


class TestVariances:
    def test_constant_set_is_zero(self, gen):
        rng = np.random.default_rng(1)
        point = random_sample_set(gen, rng, max_n=1).points[0]
        s = SampleSet(np.tile(point, (3, 1)))
        assert primal_variance(gen, s) == 0.0
        assert dual_variance(gen, s) == 0.0

    def test_single_atom_is_exactly_zero(self, gen):
        rng = np.random.default_rng(2)
        s = random_sample_set(gen, rng, max_n=1)
        assert primal_variance(gen, s) == 0.0
        assert dual_variance(gen, s) == 0.0

    def test_classical_variance_of_signs(self):
        g = SquaredEuclidean(2)
        s = SampleSet([[1.0, 0.0], [-1.0, 0.0]])
        assert primal_variance(g, s) == pytest.approx(1.0, abs=1e-15)
        assert dual_variance(g, s) == pytest.approx(1.0, abs=1e-15)

    def test_kl_pair_values(self):
        g = NegativeEntropySimplex(2)
        assert primal_variance(g, kl_pair()) == pytest.approx(PRIMAL_VAR_PAIR, abs=1e-14)
        assert dual_variance(g, kl_pair()) == pytest.approx(DUAL_VAR_PAIR, abs=1e-14)

    def test_onehot_labels_missing_a_class(self):
        # the mean (0.5, 0.5, 0) is on the boundary; its zero coordinate agrees with both labels
        g = NegativeEntropySimplex(3)
        s = SampleSet([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert primal_variance(g, s) == pytest.approx(np.log(2.0), rel=1e-15)


class TestAverages:
    def test_primal_average_pair(self):
        assert np.allclose(primal_average([[0.8, 0.2], [0.6, 0.4]]), [0.7, 0.3])

    def test_primal_average_degenerate(self):
        assert np.allclose(primal_average([[0.3, 0.7]]), [0.3, 0.7])
        assert np.allclose(primal_average(np.tile([0.3, 0.7], (4, 1))), [0.3, 0.7])

    def test_dual_average_collapses_for_euclidean(self):
        g = SquaredEuclidean(2)
        pts = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])
        assert np.allclose(dual_average(g, pts), primal_average(pts), atol=1e-12)

    def test_dual_average_geometric_mean(self):
        g = NegativeEntropySimplex(2)
        got = dual_average(g, [[0.8, 0.2], [0.6, 0.4]])
        assert np.max(np.abs(got - GEOMETRIC_MEAN)) <= 1e-12

    def test_dual_average_single(self):
        g = NegativeEntropySimplex(2)
        assert np.allclose(dual_average(g, [[0.8, 0.2]]), [0.8, 0.2], atol=1e-12)

    def test_rejects_what_a_sample_set_rejects(self):
        for average in (primal_average, lambda points: dual_average(SquaredEuclidean(2), points)):
            with pytest.raises(ValueError, match=r"^points must form a nonempty \(n, d\) array$"):
                average([])
            with pytest.raises(ValueError, match=r"^non-finite coordinates in data rows \[1\]$"):
                average([[0.5, 0.5], [np.nan, 0.5]])

    def test_dual_average_rejects_off_domain_points(self):
        with pytest.raises(DomainError, match=r"^samples \[0\] outside the open-simplex domain$"):
            dual_average(NegativeEntropySimplex(2), [[0.5, 0.6]])


class TestMomentsCheckTheirSamples:
    OFF_SIMPLEX = SampleSet([[0.5, 0.6], [-0.1, 1.1]])

    @pytest.mark.parametrize("moment", [dual_mean, primal_variance, dual_variance])
    def test_wrong_dimension(self, moment):
        with pytest.raises(DomainError, match=r"^points have dimension 2, generator expects 3$"):
            moment(SquaredEuclidean(3), SampleSet([[1.0, 2.0]]))

    @pytest.mark.parametrize("moment", [dual_mean, primal_variance, dual_variance])
    def test_off_domain_rows(self, moment):
        with pytest.raises(DomainError, match=r"^samples \[0, 1\] outside the open-simplex domain$"):
            moment(NegativeEntropySimplex(2), self.OFF_SIMPLEX)

    def test_primal_variance_takes_one_hot_labels(self):
        g = NegativeEntropySimplex(2)
        assert primal_variance(g, SampleSet([[1.0, 0.0], [0.0, 1.0]])) == pytest.approx(np.log(2.0), abs=1e-15)
        with pytest.raises(DomainError):
            dual_variance(g, SampleSet([[1.0, 0.0], [0.0, 1.0]]))


class TestEnsembleDistribution:
    def test_size_one_returns_input(self):
        g = SquaredEuclidean(2)
        s = kl_pair()
        assert ensemble_distribution(g, s, 1, "primal") is s

    def test_two_draw_primal_enumeration(self):
        g = NegativeEntropySimplex(2)
        ens = ensemble_distribution(g, kl_pair(), 2, "primal")
        assert np.allclose(ens.weights, [0.25, 0.5, 0.25], atol=1e-15)
        assert np.allclose(ens.points, [[0.8, 0.2], [0.7, 0.3], [0.6, 0.4]], atol=1e-15)

    def test_two_draw_dual_enumeration(self):
        g = NegativeEntropySimplex(2)
        ens = ensemble_distribution(g, kl_pair(), 2, "dual")
        assert np.allclose(ens.weights, [0.25, 0.5, 0.25], atol=1e-15)
        assert np.max(np.abs(ens.points[1] - GEOMETRIC_MEAN)) <= 1e-12

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4))
    def test_weights_form_a_distribution(self, n, atoms):
        g = SquaredEuclidean(1)
        s = SampleSet(np.arange(atoms, dtype=float)[:, None], np.arange(1.0, atoms + 1.0))
        ens = ensemble_distribution(g, s, n, "primal")
        assert abs(float(np.sum(ens.weights)) - 1.0) <= 1e-12

    def test_cap_exceeded(self):
        # C(59, 10) multisets: the count is checked before any is enumerated
        g = SquaredEuclidean(1)
        s = SampleSet(np.arange(50, dtype=float)[:, None])
        total = math.comb(59, 10)
        assert total > ENSEMBLE_ATOM_CAP
        with pytest.raises(EnumerationCapError) as info:
            ensemble_distribution(g, s, 10, "primal")
        message = str(info.value)
        assert f"needs {total} atoms" in message and f"cap {ENSEMBLE_ATOM_CAP}" in message

    @pytest.mark.parametrize("n", [2, 10**20, 2**62])
    @pytest.mark.parametrize("mode", ["primal", "dual"])
    def test_one_atom_is_its_own_ensemble(self, gen, mode, n):
        # the average of n draws of one atom is that atom, at any n
        s = random_sample_set(gen, np.random.default_rng(66), max_n=1)
        assert ensemble_distribution(gen, s, n, mode) is s
        assert ensemble_distribution(gen, s, n, mode, mc_draws=8, seed=1) is s

    def test_monte_carlo_needs_seed(self):
        g = SquaredEuclidean(1)
        s = SampleSet(np.arange(3, dtype=float)[:, None])
        with pytest.raises(ValueError, match="seed"):
            ensemble_distribution(g, s, 2, "primal", mc_draws=10)

    @pytest.mark.parametrize("seed", [-1, 1.5, "1"])
    def test_monte_carlo_seed_must_be_a_nonnegative_integer(self, seed):
        g = SquaredEuclidean(1)
        s = SampleSet(np.arange(3, dtype=float)[:, None])
        with pytest.raises(ValueError, match=f"seed must be a nonnegative integer, got {seed!r}"):
            ensemble_distribution(g, s, 2, "primal", mc_draws=2, seed=seed)

    def test_monte_carlo_deterministic(self):
        g = NegativeEntropySimplex(2)
        a = ensemble_distribution(g, kl_pair(), 2, "dual", mc_draws=64, seed=42)
        b = ensemble_distribution(g, kl_pair(), 2, "dual", mc_draws=64, seed=42)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)

    def test_bad_arguments(self):
        g = SquaredEuclidean(1)
        s = SampleSet([[0.0]])
        with pytest.raises(ValueError):
            ensemble_distribution(g, s, 0, "primal")
        with pytest.raises(ValueError):
            ensemble_distribution(g, s, 2, "median")
        for draws in (0, -2):
            with pytest.raises(ValueError, match=f"mc_draws must be >= 1, got {draws}"):
                ensemble_distribution(g, s, 2, "primal", mc_draws=draws, seed=1)

    def test_underflowing_atoms_are_dropped(self):
        s = SampleSet([[0.8, 0.2], [0.6, 0.4]], [1.0, 1e-200])
        ens = ensemble_distribution(NegativeEntropySimplex(2), s, 2, "dual")
        # the multiset drawing the light atom twice has weight 1e-400
        assert ens.n == 2
        assert ens.weights[1] == pytest.approx(2e-200, rel=1e-12)

    def test_large_ensemble_does_not_overflow(self):
        # multinomial coefficients up to C(1100, 550) ~ 1e330 exceed the float range
        ens = ensemble_distribution(SquaredEuclidean(1), SampleSet([[0.0], [1.0]]), 1100, "primal")
        assert 1 < ens.n < 1101
        assert primal_mean(ens)[0] == pytest.approx(0.5, abs=1e-12)


class TestDualMeanLaws:
    def test_iterated_dual_expectation(self, gen):
        rng = np.random.default_rng(21)
        for _ in range(20):
            grouped = random_grouped(gen, rng)
            whole = dual_mean(gen, grouped.flatten())
            inner = SampleSet(
                [dual_mean(gen, s) for s in grouped.groups.values()],
                [grouped.group_weights[k] for k in grouped.groups],
            )
            assert np.max(np.abs(dual_mean(gen, inner) - whole)) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dual_ensembling_preserves_dual_mean(self, gen, n):
        rng = np.random.default_rng(22)
        s = random_sample_set(gen, rng, max_n=4, min_n=2)
        ens = ensemble_distribution(gen, s, n, "dual")
        assert np.max(np.abs(dual_mean(gen, ens) - dual_mean(gen, s))) <= 1e-10

    def test_dual_ensembling_reduces_dual_variance(self, gen):
        rng = np.random.default_rng(23)
        for _ in range(20):
            s = random_sample_set(gen, rng, max_n=5, min_n=2)
            ens = ensemble_distribution(gen, s, 2, "dual")
            assert dual_variance(gen, ens) <= dual_variance(gen, s) + 1e-12

    @pytest.mark.parametrize("name", ["squared-euclidean", "mahalanobis"])
    def test_primal_ensembling_reduces_dual_variance_when_jointly_convex(self, name):
        g = build_generator(name, 2)
        rng = np.random.default_rng(24)
        for _ in range(20):
            s = random_sample_set(g, rng, max_n=5, min_n=2)
            ens = ensemble_distribution(g, s, 2, "primal")
            assert dual_variance(g, ens) <= dual_variance(g, s) + 1e-12

    @pytest.mark.parametrize("name", ["squared-euclidean", "mahalanobis"])
    def test_symmetric_divergence_collapse(self, name):
        g = build_generator(name, 3)
        rng = np.random.default_rng(25)
        for _ in range(20):
            s = random_sample_set(g, rng, max_n=6, min_n=2)
            assert np.max(np.abs(dual_mean(g, s) - primal_mean(s))) <= 1e-10
            assert abs(dual_variance(g, s) - primal_variance(g, s)) <= 1e-10
