"""Decomposition identity, total-variance laws, conditional gaps, ensembling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bregman_bv import (
    DomainError,
    GroupedSampleSet,
    NegativeEntropySimplex,
    SampleSet,
    SquaredEuclidean,
    conditional_label,
    conditional_prediction,
    decompose,
    divergence,
    ensemble_distribution,
    ensemble_effect,
    primal_mean,
    total_variance,
)
from conftest import (
    GENERATOR_NAMES,
    build_generator,
    fig_2b_generator,
    random_grouped,
    random_sample_set,
)

# frozen: -log of the normalized-geometric-mean coordinates of {(0.8,0.2),(0.6,0.4)}
BIAS_ONEHOT_FIRST = 0.34234658484830527
BIAS_ONEHOT_SECOND = 1.2382263194623326
# frozen: same after replacing the pair by its exact two-draw primal ensemble
ENSEMBLED_BIAS_ONEHOT_FIRST = 0.34944941657234252
ENSEMBLED_BIAS_ONEHOT_SECOND = 1.2210382140729581
ENSEMBLED_CENTER = np.array([0.705076186132503, 0.29492381386749705])
DUAL_VAR_PAIR = 0.02463800269179502


def kl_pair():
    return SampleSet([[0.8, 0.2], [0.6, 0.4]])


def pair_sum_loss(g, labels, predictions, chunk=16):
    """Reference expected loss: the product-measure double sum, chunked over label rows."""
    total = 0.0
    for start in range(0, labels.n, chunk):
        rows = slice(start, start + chunk)
        pairs = divergence(g, labels.points[rows, None], predictions.points[None], validate=False)
        total += labels.weights[rows] @ pairs @ predictions.weights
    return float(total)


class TestDecompose:
    def test_euclidean_bullseye(self):
        g = SquaredEuclidean(2)
        report = decompose(g, SampleSet([[0.0, 0.0]]), SampleSet([[1.0, 0.0], [-1.0, 0.0]]))
        assert report.bayes_error == 0.0
        assert report.bias == pytest.approx(0.0, abs=1e-15)
        assert report.model_variance == pytest.approx(1.0, abs=1e-15)
        assert report.expected_loss == pytest.approx(1.0, abs=1e-15)
        assert abs(report.identity_residual) <= 1e-15

    def test_constant_prediction_at_label_mean(self, gen):
        rng = np.random.default_rng(31)
        labels = random_sample_set(gen, rng, max_n=5, min_n=2)
        predictions = SampleSet(primal_mean(labels).reshape(1, -1))
        report = decompose(gen, labels, predictions)
        assert report.bias == pytest.approx(0.0, abs=1e-12)
        assert report.model_variance == 0.0
        assert report.expected_loss == pytest.approx(report.bayes_error, abs=1e-12)

    def test_one_hot_bias_against_kl_pair(self):
        g = NegativeEntropySimplex(2)
        report = decompose(g, SampleSet([[1.0, 0.0]]), kl_pair())
        assert report.bayes_error == 0.0
        assert report.bias == pytest.approx(BIAS_ONEHOT_FIRST, abs=1e-14)
        assert abs(report.identity_residual) <= 1e-12

    def test_identity_residual_randomized(self, gen):
        rng = np.random.default_rng(32)
        for _ in range(30):
            labels = random_sample_set(gen, rng, max_n=8)
            predictions = random_sample_set(gen, rng, max_n=8)
            report = decompose(gen, labels, predictions)
            assert report.within(1e-9)

    def test_euclidean_closed_forms(self):
        g = SquaredEuclidean(3)
        rng = np.random.default_rng(33)
        labels = random_sample_set(g, rng, max_n=10, min_n=2)
        predictions = random_sample_set(g, rng, max_n=10, min_n=2)
        report = decompose(g, labels, predictions)
        label_mean = labels.weights @ labels.points
        pred_mean = predictions.weights @ predictions.points
        bayes = float(labels.weights @ np.sum((labels.points - label_mean) ** 2, axis=1))
        bias = float(np.sum((label_mean - pred_mean) ** 2))
        variance = float(predictions.weights @ np.sum((predictions.points - pred_mean) ** 2, axis=1))
        assert report.bayes_error == pytest.approx(bayes, abs=1e-10)
        assert report.bias == pytest.approx(bias, abs=1e-10)
        assert report.model_variance == pytest.approx(variance, abs=1e-10)

    def test_boundary_labels_rejected_off_simplex(self):
        g = fig_2b_generator()
        with pytest.raises(DomainError):
            decompose(g, SampleSet([[1.0, 0.0]]), SampleSet([[0.0, 0.0]]))

    def test_kl_labels_missing_a_class(self):
        # the label mean (0.5, 0.5, 0) sits on the boundary, where log 0 * 0 was NaN
        g = NegativeEntropySimplex(3)
        labels = SampleSet([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        predictions = SampleSet([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3]])
        report = decompose(g, labels, predictions)
        assert report.bayes_error == pytest.approx(np.log(2.0), rel=1e-15)
        assert report.expected_loss == pytest.approx(pair_sum_loss(g, labels, predictions), rel=1e-13)
        assert report.within(1e-12)

    def test_overflowing_total_is_domain_error(self):
        # each term is finite, their sum (about 2.2e308) is not
        g = SquaredEuclidean(1)
        with pytest.raises(DomainError, match="divergence overflowed near the domain boundary"):
            decompose(g, SampleSet([[1.3e154]]), SampleSet([[7e153], [-7e153]]))

    def test_peak_memory_is_linear(self):
        rng = np.random.default_rng(34)
        labels = SampleSet(rng.normal(size=(2000, 10)))
        predictions = SampleSet(rng.normal(size=(2000, 10)))
        g = SquaredEuclidean(10)
        tracemalloc.start()
        try:
            decompose(g, labels, predictions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_report_schema(self):
        g = SquaredEuclidean(1)
        report = decompose(g, SampleSet([[0.0]]), SampleSet([[1.0]]))
        assert list(report.as_dict()) == [
            "expected_loss",
            "bayes_error",
            "bias",
            "model_variance",
            "identity_residual",
            "central_label",
            "central_prediction",
        ]


class TestExpectedLossReference:
    """decompose's expected loss against the product-measure pair sum it replaced."""

    def test_matches_pair_sum(self, gen):
        rng = np.random.default_rng(35)
        sizes = [(int(rng.integers(1, 9)), int(rng.integers(1, 9))) for _ in range(30)] + [(40, 25)]
        for n, m in sizes:
            labels = random_sample_set(gen, rng, max_n=n, min_n=n)
            predictions = random_sample_set(gen, rng, max_n=m, min_n=m)
            expected_loss = decompose(gen, labels, predictions).expected_loss
            assert expected_loss == pytest.approx(pair_sum_loss(gen, labels, predictions), rel=1e-12)

    def test_matches_pair_sum_onehot_kl(self):
        g = NegativeEntropySimplex(3)
        rng = np.random.default_rng(36)
        for _ in range(30):
            classes = rng.integers(0, 3, size=int(rng.integers(1, 9)))
            labels = SampleSet(np.eye(3)[classes], rng.uniform(0.2, 1.0, size=classes.size))
            predictions = random_sample_set(g, rng)
            report = decompose(g, labels, predictions)
            assert report.expected_loss == pytest.approx(pair_sum_loss(g, labels, predictions), rel=1e-12)
            assert report.within(1e-9)

    @pytest.mark.parametrize("name, offset, max_predictions", [
        ("squared-euclidean", 1e2, 8),
        ("squared-euclidean", 1e4, 8),
        ("mahalanobis", 1e2, 8),
        ("mahalanobis", 1e4, 8),
        ("squared-euclidean", 1e2, 1),
        ("squared-euclidean", 1e4, 1),
        ("mahalanobis", 1e2, 1),
        ("mahalanobis", 1e4, 1),
    ])
    def test_identity_at_offset(self, name, offset, max_predictions):
        g = build_generator(name, 2)
        rng = np.random.default_rng(37)
        for _ in range(50):
            labels = random_sample_set(g, rng)
            predictions = random_sample_set(g, rng, max_n=max_predictions, min_n=min(2, max_predictions))
            report = decompose(g, SampleSet(labels.points + offset, labels.weights),
                               SampleSet(predictions.points + offset, predictions.weights))
            assert report.within(1e-9)


def _rearranged(s, rng, move):
    """The same distribution as ``s`` with its atoms permuted, one split in two, or reweighted."""
    if move == "permute":
        order = rng.permutation(s.n)
        return SampleSet(s.points[order], s.weights[order])
    if move == "split":
        i = int(rng.integers(s.n))
        weights = s.weights.copy()
        weights[i] /= 2.0
        return SampleSet(np.vstack([s.points, s.points[i]]), np.append(weights, weights[i]))
    return SampleSet(s.points, s.weights * float(rng.uniform(1e-3, 1e3)))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(GENERATOR_NAMES), seed=st.integers(0, 2**32 - 1),
       move=st.sampled_from(["permute", "split", "scale"]), side=st.sampled_from(["labels", "predictions"]))
def test_terms_invariant_under_atom_rearrangement(name, seed, move, side):
    g = build_generator(name, 2)
    rng = np.random.default_rng(seed)
    labels = random_sample_set(g, rng)
    predictions = random_sample_set(g, rng)
    base = decompose(g, labels, predictions)
    if side == "labels":
        moved = decompose(g, _rearranged(labels, rng, move), predictions)
    else:
        moved = decompose(g, labels, _rearranged(predictions, rng, move))
    tol = 1e-9 * max(1.0, base.expected_loss)
    for term in ("expected_loss", "bayes_error", "bias", "model_variance"):
        assert abs(getattr(moved, term) - getattr(base, term)) <= tol, term


class TestTotalVariance:
    def test_single_group(self, gen):
        rng = np.random.default_rng(41)
        grouped = GroupedSampleSet({"only": random_sample_set(gen, rng, max_n=5, min_n=2)})
        for mode in ("primal", "dual"):
            report = total_variance(gen, grouped, mode)
            assert report.explained == pytest.approx(0.0, abs=1e-14)
            assert report.total == pytest.approx(report.unexplained, abs=1e-12)

    def test_atomic_groups(self, gen):
        rng = np.random.default_rng(42)
        grouped = random_grouped(gen, rng, max_groups=4, max_n=1)
        for mode in ("primal", "dual"):
            report = total_variance(gen, grouped, mode)
            assert report.unexplained == 0.0
            assert report.total == pytest.approx(report.explained, abs=1e-12)

    def test_scalar_hand_case(self):
        g = SquaredEuclidean(1)
        grouped = GroupedSampleSet(
            {"a": SampleSet([[0.0], [2.0]]), "b": SampleSet([[4.0], [6.0]])}
        )
        report = total_variance(g, grouped, "primal")
        assert report.total == pytest.approx(5.0, abs=1e-12)
        assert report.unexplained == pytest.approx(1.0, abs=1e-12)
        assert report.explained == pytest.approx(4.0, abs=1e-12)
        assert abs(report.residual) <= 1e-12

    def test_residual_randomized(self, gen):
        rng = np.random.default_rng(43)
        for _ in range(20):
            grouped = random_grouped(gen, rng)
            for mode in ("primal", "dual"):
                report = total_variance(gen, grouped, mode)
                assert abs(report.residual) <= 1e-9
                assert min(report.total, report.explained, report.unexplained) >= -1e-12

    def test_mode_validation(self):
        g = SquaredEuclidean(1)
        grouped = GroupedSampleSet({"a": SampleSet([[0.0]])})
        with pytest.raises(ValueError):
            total_variance(g, grouped, "mixed")


class TestConditional:
    def test_single_group_has_no_gap(self, gen):
        rng = np.random.default_rng(51)
        grouped = GroupedSampleSet({"z": random_sample_set(gen, rng, max_n=4, min_n=2)})
        label = random_sample_set(gen, rng, max_n=1).points[0]
        report = conditional_prediction(gen, label, grouped)
        assert report.gap == pytest.approx(0.0, abs=1e-14)
        assert report.conditional_bias == pytest.approx(report.unconditional_bias, abs=1e-12)

    def test_identical_group_centers_have_no_gap(self):
        g = NegativeEntropySimplex(2)
        grouped = GroupedSampleSet({"a": kl_pair(), "b": kl_pair()})
        report = conditional_prediction(g, np.array([0.5, 0.5]), grouped)
        assert report.gap == pytest.approx(0.0, abs=1e-14)

    def test_atomic_groups_gap_is_dual_variance(self):
        g = NegativeEntropySimplex(2)
        grouped = GroupedSampleSet(
            {"a": SampleSet([[0.8, 0.2]]), "b": SampleSet([[0.6, 0.4]])}
        )
        report = conditional_prediction(g, np.array([1.0, 0.0]), grouped)
        assert report.conditional_variance == 0.0
        assert report.gap == pytest.approx(DUAL_VAR_PAIR, abs=1e-14)
        assert report.gap == pytest.approx(report.unconditional_variance, abs=1e-12)

    def test_scalar_label_hand_case(self):
        g = SquaredEuclidean(1)
        grouped = GroupedSampleSet({"a": SampleSet([[0.0]]), "b": SampleSet([[2.0]])})
        report = conditional_label(g, grouped, np.array([3.0]))
        assert report.conditional_bias == pytest.approx(5.0, abs=1e-12)
        assert report.unconditional_bias == pytest.approx(4.0, abs=1e-12)
        assert report.gap == pytest.approx(1.0, abs=1e-12)
        assert report.conditional_variance == 0.0
        assert report.unconditional_variance == pytest.approx(1.0, abs=1e-12)

    def test_identities_randomized(self, gen):
        rng = np.random.default_rng(52)
        for _ in range(20):
            grouped = random_grouped(gen, rng)
            point = random_sample_set(gen, rng, max_n=1).points[0]
            pred_side = conditional_prediction(gen, point, grouped)
            label_side = conditional_label(gen, grouped, point)
            for report in (pred_side, label_side):
                assert abs(report.bias_residual) <= 1e-9
                assert abs(report.variance_residual) <= 1e-9
                assert report.gap >= -1e-12

    def test_boundary_prediction_rejected(self):
        g = NegativeEntropySimplex(2)
        grouped = GroupedSampleSet({"a": SampleSet([[0.5, 0.5]])})
        with pytest.raises(DomainError):
            conditional_label(g, grouped, np.array([1.0, 0.0]))


class TestEnsembleEffect:
    @pytest.mark.parametrize("n", [2, 3])
    def test_dual_mode_certifies(self, gen, n):
        rng = np.random.default_rng(61)
        for _ in range(10):
            predictions = random_sample_set(gen, rng, max_n=4, min_n=2)
            label = random_sample_set(gen, rng, max_n=1).points[0]
            report = ensemble_effect(gen, label, predictions, n, "dual")
            assert abs(report.bias_change) <= 1e-10
            assert report.variance_change <= 1e-12
            assert report.bias_preserved and report.variance_reduced

    def test_kl_counterexample_directions(self):
        g = NegativeEntropySimplex(2)
        up = ensemble_effect(g, np.array([1.0, 0.0]), kl_pair(), 2, "primal")
        assert up.base.bias == pytest.approx(BIAS_ONEHOT_FIRST, abs=1e-14)
        assert up.ensembled.bias == pytest.approx(ENSEMBLED_BIAS_ONEHOT_FIRST, abs=1e-14)
        assert up.bias_change > 1e-3

        down = ensemble_effect(g, np.array([0.0, 1.0]), kl_pair(), 2, "primal")
        assert down.base.bias == pytest.approx(BIAS_ONEHOT_SECOND, abs=1e-14)
        assert down.ensembled.bias == pytest.approx(ENSEMBLED_BIAS_ONEHOT_SECOND, abs=1e-14)
        assert down.bias_change < -1e-3

        assert np.max(np.abs(up.ensembled.central_prediction - ENSEMBLED_CENTER)) <= 1e-12
        gap = np.max(np.abs(up.ensembled.central_prediction - up.base.central_prediction))
        assert gap > 1e-3

    @pytest.mark.parametrize("name", ["squared-euclidean", "mahalanobis"])
    def test_primal_mode_reduces_variance_when_jointly_convex(self, name):
        g = build_generator(name, 2)
        rng = np.random.default_rng(62)
        for _ in range(10):
            predictions = random_sample_set(g, rng, max_n=4, min_n=2)
            label = random_sample_set(g, rng, max_n=1).points[0]
            report = ensemble_effect(g, label, predictions, 2, "primal")
            assert report.variance_change <= 1e-12
            assert report.bias_preserved is None

    def test_primal_label_averaging_preserves_bias(self, gen):
        rng = np.random.default_rng(63)
        for _ in range(10):
            labels = random_sample_set(gen, rng, max_n=4, min_n=2)
            predictions = random_sample_set(gen, rng, max_n=4, min_n=2)
            base = decompose(gen, labels, predictions)
            averaged = ensemble_distribution(gen, labels, 2, "primal")
            after = decompose(gen, averaged, predictions)
            assert abs(after.bias - base.bias) <= 1e-10
            assert after.bayes_error <= base.bayes_error + 1e-12

    @pytest.mark.parametrize("name", ["squared-euclidean", "mahalanobis"])
    def test_dual_label_averaging_reduces_bayes_when_jointly_convex(self, name):
        g = build_generator(name, 2)
        rng = np.random.default_rng(64)
        for _ in range(10):
            labels = random_sample_set(g, rng, max_n=4, min_n=2)
            predictions = random_sample_set(g, rng, max_n=4, min_n=2)
            base = decompose(g, labels, predictions)
            averaged = ensemble_distribution(g, labels, 2, "dual")
            after = decompose(g, averaged, predictions)
            assert after.bayes_error <= base.bayes_error + 1e-12
            # bias change is reported, not asserted: either sign can occur
            assert np.isfinite(after.bias - base.bias)

    def test_report_shape(self):
        g = SquaredEuclidean(1)
        report = ensemble_effect(g, np.array([0.0]), SampleSet([[1.0], [2.0]]), 2, "dual")
        payload = report.as_dict()
        assert payload["mode"] == "dual" and payload["n"] == 2
        assert set(payload) >= {"base", "ensembled", "bias_change", "variance_change"}

    def test_monte_carlo_dual_is_reported_not_certified(self):
        g = NegativeEntropySimplex(2)
        report = ensemble_effect(
            g, np.array([1.0, 0.0]), kl_pair(), 2, "dual", mc_draws=50, seed=4
        )
        assert report.bias_preserved is None
        assert report.variance_reduced is None
        assert np.isfinite(report.bias_change)
