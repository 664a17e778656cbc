"""Decomposition identity, total-variance laws, conditional gaps, ensembling."""

import decimal
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bregman_bv import (
    ConditionalReport,
    DecompositionReport,
    DomainError,
    EnsembleEffectReport,
    GroupedSampleSet,
    NegativeEntropySimplex,
    SampleSet,
    SquaredEuclidean,
    TotalVarianceReport,
    conditional_label,
    conditional_prediction,
    decompose,
    divergence,
    dual_mean,
    dual_variance,
    ensemble_distribution,
    ensemble_effect,
    primal_mean,
    primal_variance,
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
            assert not report.failures(1e-9)

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
        assert not report.failures(1e-12)

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
            assert not report.failures(1e-9)

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
            assert not report.failures(1e-9)


def public_moment_decomposition(g, labels, predictions):
    """The fields of ``decompose`` as it computed them before it took each moment once.

    Every mean and variance comes from its public function, which recomputes
    the centers it needs; the expected loss is the same three-point sum.
    """
    central_label = primal_mean(labels)
    center = primal_mean(predictions)
    with np.errstate(over="ignore", invalid="ignore"):
        mean_grad = predictions.weights @ g.grad(predictions.points)
        cross = np.sum((g.grad(center) - mean_grad) * (central_label - center))
        expected_loss = float(
            labels.weights @ divergence(g, labels.points, center, validate=False)
            + predictions.weights @ divergence(g, center, predictions.points, validate=False)
            + cross
        )
    bayes_error = primal_variance(g, labels)
    central_prediction = dual_mean(g, predictions)
    bias = float(divergence(g, central_label, central_prediction))
    model_variance = dual_variance(g, predictions)
    return {
        "expected_loss": expected_loss,
        "bayes_error": bayes_error,
        "bias": bias,
        "model_variance": model_variance,
        "identity_residual": expected_loss - (bayes_error + bias + model_variance),
        "central_label": [float(v) for v in central_label],
        "central_prediction": [float(v) for v in central_prediction],
    }


@pytest.mark.parametrize("name, dim", [(n, d) for n in GENERATOR_NAMES for d in (2, 3)])
def test_decompose_matches_public_moment_formulas(name, dim):
    g = build_generator(name, dim)
    rng = np.random.default_rng(38 + dim)
    cases = []
    for _ in range(20):
        labels, predictions = random_sample_set(g, rng, max_n=12), random_sample_set(g, rng, max_n=12)
        one_row = SampleSet(predictions.points[:1])
        constant = SampleSet(np.repeat(predictions.points[:1], 3, axis=0), [0.2, 0.5, 0.3])
        cases += [(labels, predictions), (labels, one_row), (labels, constant), (predictions, labels)]
    if name == "negative-entropy-simplex":
        classes = rng.integers(0, g.dim, size=7)
        cases.append((SampleSet(np.eye(g.dim)[classes]), random_sample_set(g, rng)))
    for labels, predictions in cases:
        assert decompose(g, labels, predictions).as_dict() == public_moment_decomposition(g, labels, predictions)


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


def _decimal_kl(y, x):
    """Generalized KL sum y ln(y / x) - sum y + sum x in the current decimal context; 0 ln 0 = 0."""
    return sum(a * (a / b).ln() for a, b in zip(y, x) if a) - sum(y) + sum(x)


def test_confident_decomposition_matches_a_60_digit_reference():
    # the central prediction's middle coordinate is ~3.1e-14
    rows = [[0.97, 3e-14, 0.02999999999997], [0.95, 5e-14, 0.04999999999995], [0.99, 2e-14, 0.00999999999998]]
    report = decompose(NegativeEntropySimplex(3), SampleSet([[1.0, 0.0, 0.0]]), SampleSet(rows))
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        p = [[Decimal(v) for v in row] for row in rows]  # the floats' exact values
        label = [Decimal(1), Decimal(0), Decimal(0)]
        geometric = [(sum(row[k].ln() for row in p) / len(p)).exp() for k in range(3)]
        central = [v / sum(geometric) for v in geometric]
        reference = {
            "expected_loss": sum(_decimal_kl(label, row) for row in p) / len(p),
            "bias": _decimal_kl(label, central),
            "model_variance": sum(_decimal_kl(central, row) for row in p) / len(p),
        }
    assert report.bayes_error == 0.0
    for term, value in reference.items():
        assert abs(getattr(report, term) - float(value)) <= 1e-13 * float(value), term
    for got, value in zip(report.central_prediction, central):
        assert abs(got - float(value)) <= 1e-13 * float(value)


@st.composite
def _confident_case(draw):
    """A one-hot label and simplex rows whose coordinate ``tiny_at`` is log-uniform in [1e-300, 1e-12]."""
    dim = draw(st.integers(2, 4))
    n = draw(st.integers(1, 4))
    tiny_at = draw(st.integers(0, dim - 1))
    rows = []
    for _ in range(n):
        tiny = 10.0 ** draw(st.floats(-300.0, -12.0))
        rest = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=dim - 1, max_size=dim - 1)))
        rows.append(np.insert(rest / np.sum(rest) * (1.0 - tiny), tiny_at, tiny))
    keys = draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))
    label = np.eye(dim)[draw(st.integers(0, dim - 1))]
    return label, np.array(rows), keys


@settings(max_examples=100, deadline=None)
@given(case=_confident_case())
def test_confident_predictions_certify(case):
    label, rows, keys = case
    g = NegativeEntropySimplex(rows.shape[1])
    assert decompose(g, SampleSet([label]), SampleSet(rows)).failures(1e-9) == []
    grouped = GroupedSampleSet({
        key: SampleSet(rows[[i for i, k in enumerate(keys) if k == key]]) for key in dict.fromkeys(keys)
    })
    assert conditional_prediction(g, label, grouped).failures(1e-9) == []


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

    @pytest.mark.parametrize("mode", ["primal", "dual"])
    def test_wrong_dimension_rejected(self, mode):
        grouped = GroupedSampleSet({"a": SampleSet([[0.0, 1.0], [2.0, 3.0]]), "b": SampleSet([[4.0, 5.0]])})
        with pytest.raises(DomainError, match=r"^points have dimension 2, generator expects 3$"):
            total_variance(SquaredEuclidean(3), grouped, mode)

    @pytest.mark.parametrize("mode", ["primal", "dual"])
    def test_off_domain_points_rejected_without_warnings(self, mode):
        grouped = GroupedSampleSet({"a": SampleSet([[0.5, 0.6], [0.2, 0.8]]), "b": SampleSet([[-0.1, 1.1]])})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^samples \[0, 2\] outside the open-simplex domain$"):
                total_variance(NegativeEntropySimplex(2), grouped, mode)

    def test_one_hot_labels_accepted_in_primal_mode_only(self):
        g = NegativeEntropySimplex(2)
        grouped = GroupedSampleSet(
            {"a": SampleSet([[1.0, 0.0], [0.0, 1.0]]), "b": SampleSet([[1.0, 0.0]])}, [0.5, 0.5]
        )
        report = total_variance(g, grouped, "primal")
        assert report.unexplained == pytest.approx(0.5 * np.log(2.0), abs=1e-15)
        assert abs(report.residual) <= 1e-12
        with pytest.raises(DomainError):
            total_variance(g, grouped, "dual")


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

    def test_label_of_wrong_dimension_rejected(self):
        g = NegativeEntropySimplex(2)
        grouped = GroupedSampleSet({"a": SampleSet([[0.5, 0.5]])})
        with pytest.raises(DomainError, match=r"^label: expected trailing dimension 2, got shape \(3,\)$"):
            conditional_prediction(g, np.array([0.2, 0.3, 0.5]), grouped)


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

    @pytest.mark.parametrize("n", [2, 10**20, 2**62])
    @pytest.mark.parametrize("mode", ["primal", "dual"])
    def test_one_prediction_is_unchanged_at_any_n(self, gen, mode, n):
        rng = np.random.default_rng(65)
        predictions = random_sample_set(gen, rng, max_n=1)
        label = random_sample_set(gen, rng, max_n=1).points[0]
        report = ensemble_effect(gen, label, predictions, n, mode)
        assert report.ensembled.as_dict() == report.base.as_dict()
        assert report.bias_change == 0.0 == report.variance_change

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


def _above(x):
    """The next float above ``x``."""
    return float(np.nextafter(x, np.inf))


def _decomposition(residual, loss=1.0):
    return DecompositionReport(
        expected_loss=loss, bayes_error=0.0, bias=0.0, model_variance=loss,
        identity_residual=residual, central_label=np.zeros(1), central_prediction=np.zeros(1),
    )


def _conditional(bias_residual=0.0, variance_residual=0.0, gap=0.0):
    return ConditionalReport(
        conditional_bias=1.0, conditional_variance=1.0, unconditional_bias=1.0,
        unconditional_variance=1.0, gap=gap, side="prediction",
        bias_residual=bias_residual, variance_residual=variance_residual,
    )


def _ensemble(base=0.0, ensembled=0.0, bias_preserved=True, variance_reduced=True):
    return EnsembleEffectReport(
        mode="dual", n=2, base=_decomposition(base), ensembled=_decomposition(ensembled),
        bias_change=-2e-10, variance_change=3e-12,
        bias_preserved=bias_preserved, variance_reduced=variance_reduced,
    )


class TestGates:
    """Each report's gate rule at its boundary: the bound passes, the next float fails."""

    @pytest.mark.parametrize("loss", [0.25, 1.0, 3.0, -3.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_decomposition_is_relative_to_the_loss(self, loss, sign):
        bound = 1e-9 * max(1.0, abs(loss))
        assert _decomposition(sign * bound, loss).failures(1e-9) == []
        residual = sign * _above(bound)
        assert _decomposition(residual, loss).failures(1e-9) == [
            f"identity violated: residual {residual:.6e} exceeds 1e-09 * max(1, loss)"
        ]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_total_variance_is_absolute(self, sign):
        def report(residual):
            return TotalVarianceReport(total=5.0, explained=2.0, unexplained=3.0, residual=residual,
                                       mode="primal")

        assert report(sign * 1e-9).failures(1e-9) == []
        assert report(sign * _above(1e-9)).failures(1e-9) == [
            f"identity violated: residual {sign * _above(1e-9):.6e} exceeds 1e-09"
        ]

    @pytest.mark.parametrize("field", ["bias_residual", "variance_residual"])
    def test_conditional_residuals_are_absolute(self, field):
        assert _conditional(**{field: -1e-9}).failures(1e-9) == []
        assert _conditional(**{field: -_above(1e-9)}).failures(1e-9) == [
            f"identity violated: residual {_above(1e-9):.6e} exceeds 1e-09"
        ]

    def test_conditional_gap_may_be_negative_by_rounding_only(self):
        assert _conditional(gap=-1e-12).failures(1e-9) == []
        for gap in (-float(np.nextafter(1e-12, np.inf)), -2e-12):
            assert _conditional(gap=gap).failures(1e-9) == [
                f"negative gap: {gap:.6e} is below the -1e-12 floor"
            ]

    def test_conditional_gap_and_residual_are_reported_apart(self):
        assert _conditional(variance_residual=2e-9, gap=-2e-12).failures(1e-9) == [
            "identity violated: residual 2.000000e-09 exceeds 1e-09",
            "negative gap: -2.000000e-12 is below the -1e-12 floor",
        ]

    def test_ensemble_gates_both_decompositions(self):
        assert _ensemble(base=1e-9, ensembled=-1e-9).failures(1e-9) == []
        assert _ensemble(base=_above(1e-9), ensembled=-_above(1e-9)).failures(1e-9) == [
            f"identity violated: base residual {_above(1e-9):.6e} exceeds 1e-09 * max(1, loss)",
            f"identity violated: ensembled residual {-_above(1e-9):.6e} exceeds 1e-09 * max(1, loss)",
        ]

    @pytest.mark.parametrize("bias_preserved, variance_reduced", [(False, True), (True, False), (False, False)])
    def test_failed_dual_certification(self, bias_preserved, variance_reduced):
        assert _ensemble(bias_preserved=bias_preserved, variance_reduced=variance_reduced).failures(1e-9) == [
            "dual ensembling certification failed: bias change -2.000000e-10, variance change 3.000000e-12"
        ]

    def test_monte_carlo_and_primal_ensembles_are_not_certified(self):
        assert _ensemble(bias_preserved=None, variance_reduced=None).failures(1e-9) == []
