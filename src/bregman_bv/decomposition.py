"""Three-term bias-variance decomposition and the laws built on it.

The expected loss between independent labels and predictions splits into a
Bayes term (primal variance of the labels), a bias term (divergence from the
central label to the central prediction) and a model-variance term (dual
variance of the predictions).  Both variances obey a law of total variance,
and conditioning on a discrete variable shifts bias and variance by one
explicit gap term.  Every report carries the residual of the identity that
certifies it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .dualspace import (
    _DUAL,
    _PRIMAL,
    GroupedSampleSet,
    SampleSet,
    _side,
    check_samples,
    ensemble_distribution,
)
from .errors import DomainError
from .generators import ConvexGenerator, divergence

__all__ = [
    "DecompositionReport",
    "TotalVarianceReport",
    "ConditionalReport",
    "EnsembleEffectReport",
    "decompose",
    "total_variance",
    "conditional_prediction",
    "conditional_label",
    "ensemble_effect",
    "DUAL_ENSEMBLE_BIAS_TOL",
    "DUAL_ENSEMBLE_VARIANCE_SLACK",
]

#: certification tolerances for dual-mode ensembling
DUAL_ENSEMBLE_BIAS_TOL = 1e-10
DUAL_ENSEMBLE_VARIANCE_SLACK = 1e-12


class _Report:
    """Base of the report dataclasses; a gated report's ``failures(tol)`` lists each rule it misses."""

    def as_dict(self) -> dict:
        """The fields in declaration order; arrays become float lists, nested reports dicts."""
        out = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, np.ndarray):
                value = [float(v) for v in value]
            elif isinstance(value, _Report):
                value = value.as_dict()
            out[field.name] = value
        return out


@dataclass(frozen=True, eq=False)
class DecompositionReport(_Report):
    """Named terms of the three-way split of an expected loss."""

    expected_loss: float
    bayes_error: float
    bias: float
    model_variance: float
    identity_residual: float
    central_label: np.ndarray
    central_prediction: np.ndarray

    def failures(self, tol: float, what: str = "residual") -> list[str]:
        if abs(self.identity_residual) <= tol * max(1.0, abs(self.expected_loss)):
            return []
        return [f"identity violated: {what} {self.identity_residual:.6e} exceeds {tol:g} * max(1, loss)"]


@dataclass(frozen=True, eq=False)
class TotalVarianceReport(_Report):
    """total = explained + unexplained (+ residual) for one variance notion."""

    total: float
    explained: float
    unexplained: float
    residual: float
    mode: str

    def failures(self, tol: float) -> list[str]:
        if abs(self.residual) > tol:
            return [f"identity violated: residual {self.residual:.6e} exceeds {tol:g}"]
        return []


@dataclass(frozen=True, eq=False)
class ConditionalReport(_Report):
    """Conditional vs. unconditional bias and variance, with the gap term.

    The gap is nonnegative: conditioning on a single draw overestimates the
    bias and underestimates the variance by exactly this amount.
    """

    conditional_bias: float
    conditional_variance: float
    unconditional_bias: float
    unconditional_variance: float
    gap: float
    side: str
    bias_residual: float
    variance_residual: float

    def failures(self, tol: float) -> list[str]:
        worst = max(abs(self.bias_residual), abs(self.variance_residual))
        found = []
        if worst > tol:
            found.append(f"identity violated: residual {worst:.6e} exceeds {tol:g}")
        if self.gap < -1e-12:
            found.append(f"negative gap: {self.gap:.6e} is below the -1e-12 floor")
        return found


@dataclass(frozen=True, eq=False)
class EnsembleEffectReport(_Report):
    """Decomposition before and after replacing predictions by their n-fold average."""

    mode: str
    n: int
    base: DecompositionReport
    ensembled: DecompositionReport
    bias_change: float
    variance_change: float
    bias_preserved: bool | None
    variance_reduced: bool | None

    def failures(self, tol: float) -> list[str]:
        found = self.base.failures(tol, "base residual") + self.ensembled.failures(tol, "ensembled residual")
        if False in (self.bias_preserved, self.variance_reduced):
            found.append(f"dual ensembling certification failed: bias change {self.bias_change:.6e}, "
                         f"variance change {self.variance_change:.6e}")
        return found


def decompose(g: ConvexGenerator, labels: SampleSet, predictions: SampleSet) -> DecompositionReport:
    """Split the expected loss between independent labels and predictions.

    The expected loss under the product measure is expanded through the
    primal mean c of the predictions with the three-point identity
    D(y, x) = D(y, c) + D(c, x) + <grad F(c) - grad F(x), y - c>, so it costs
    one divergence per label and one per prediction, not one per pair.  The
    report's residual certifies that it equals Bayes error + bias + model
    variance; c is not the label mean, so the residual checks the label side
    too.  For a quadratic F the central prediction is c itself, so the
    model-variance sum is the same on both sides of the residual.  Labels
    may sit on the domain boundary only where the generator admits boundary
    first arguments (one-hot labels under the simplex entropy generator).
    """
    check_samples(g, labels, allow_boundary=True)
    check_samples(g, predictions)
    central_label = _PRIMAL.center(g, labels)
    center = _PRIMAL.center(g, predictions)  # inside the domain: the domains are convex and open
    with np.errstate(over="ignore", invalid="ignore"):
        mean_grad = predictions.weights @ g.grad(predictions.points)
        cross = np.sum((g.grad(center) - mean_grad) * (central_label - center))
        expected_loss = float(
            labels.weights @ divergence(g, labels.points, center, validate=False)
            + predictions.weights @ divergence(g, center, predictions.points, validate=False)
            + cross
        )
    if not np.isfinite(expected_loss):
        raise DomainError("divergence overflowed near the domain boundary")
    # each moment once: the variances are taken around the centers computed above
    bayes_error = _PRIMAL.variance(g, labels, central_label)
    # a quadratic F has a linear grad, so its dual mean is the primal mean c
    central_prediction = center if g.quadratic else g.grad_conj(mean_grad)
    bias = float(divergence(g, central_label, central_prediction))
    model_variance = _DUAL.variance(g, predictions, central_prediction)
    residual = expected_loss - (bayes_error + bias + model_variance)
    return DecompositionReport(
        expected_loss=expected_loss,
        bayes_error=bayes_error,
        bias=bias,
        model_variance=model_variance,
        identity_residual=residual,
        central_label=np.asarray(central_label, dtype=float),
        central_prediction=np.asarray(central_prediction, dtype=float),
    )


def total_variance(g: ConvexGenerator, grouped: GroupedSampleSet, mode: str) -> TotalVarianceReport:
    """Law of total variance for the primal or the dual variance.

    total variance = mean within-group variance (unexplained) + variance of
    the per-group centers (explained).  In dual mode both the within-group
    terms and the center spread use the dual mean.  The samples are checked
    against the generator's domain (labels may sit on the boundary in primal
    mode where the generator allows it).  One pass over the flat rows gives
    every group's center and variance, bit-identical to the per-group
    formulas.
    """
    side = _side(mode)
    moments = side.grouped(g, grouped)
    total = moments.total
    unexplained = float(moments.weights @ moments.within)
    explained = side.variance(g, SampleSet(moments.centers, moments.weights))
    residual = total - (explained + unexplained)
    return TotalVarianceReport(
        total=total, explained=explained, unexplained=unexplained, residual=residual, mode=mode
    )


def _conditional(g: ConvexGenerator, side, grouped: GroupedSampleSet, point) -> ConditionalReport:
    """Conditioning report for the grouped ``side`` against a fixed point on the other side.

    The group centers and variances come from one validated pass over the
    flat rows, bit-identical to the per-group formulas; every center is
    computed once.
    """
    moments = side.grouped(g, grouped)
    weights, centers, whole_center = moments.weights, moments.centers, moments.whole_center
    conditional_bias = float(weights @ side.spread(g, centers, point))
    conditional_variance = float(weights @ moments.within)
    unconditional_bias = float(side.spread(g, whole_center, point, validate=True))
    unconditional_variance = moments.total
    gap = float(weights @ side.spread(g, centers, whole_center))
    return ConditionalReport(
        conditional_bias=conditional_bias,
        conditional_variance=conditional_variance,
        unconditional_bias=unconditional_bias,
        unconditional_variance=unconditional_variance,
        gap=gap,
        side=side.role,
        bias_residual=conditional_bias - (unconditional_bias + gap),
        variance_residual=conditional_variance - (unconditional_variance - gap),
    )


def conditional_prediction(
    g: ConvexGenerator, label, grouped_predictions: GroupedSampleSet
) -> ConditionalReport:
    """Effect of conditioning the predictions on a discrete variable.

    The label is deterministic.  Conditional bias / variance average the
    per-group decompositions; the gap is the mean divergence from the
    overall central prediction to the per-group central predictions, and
    certifies both identities of the report.
    """
    label = np.asarray(label, dtype=float)
    g.domain.validate(label, allow_boundary=g.boundary_first_args, role="label")
    return _conditional(g, _DUAL, grouped_predictions, label)


def conditional_label(
    g: ConvexGenerator, grouped_labels: GroupedSampleSet, prediction
) -> ConditionalReport:
    """Effect of conditioning the labels on a discrete variable.

    Mirror image of :func:`conditional_prediction` with primal means and
    variances; the prediction is deterministic and the gap is the mean
    divergence from the per-group label means to the overall label mean.
    """
    prediction = np.asarray(prediction, dtype=float)
    g.domain.validate(prediction, role="prediction")
    return _conditional(g, _PRIMAL, grouped_labels, prediction)


def ensemble_effect(
    g: ConvexGenerator,
    label,
    predictions: SampleSet,
    n: int,
    mode: str,
    *,
    mc_draws: int | None = None,
    seed: int | None = None,
) -> EnsembleEffectReport:
    """Decompose against a deterministic label before and after ensembling.

    Dual averaging provably preserves the bias and cannot increase the dual
    variance; the report certifies both at fixed tolerances when the
    ensemble distribution is exact.  Monte Carlo ensembles are only reported
    (the equalities hold in expectation, not per draw).  Primal averaging
    can move the bias either way, so only the signed change is reported.
    """
    label = np.asarray(label, dtype=float)
    labels = SampleSet(label.reshape(1, -1))
    base = decompose(g, labels, predictions)
    ensembled_set = ensemble_distribution(g, predictions, n, mode, mc_draws=mc_draws, seed=seed)
    ensembled = decompose(g, labels, ensembled_set)
    bias_change = ensembled.bias - base.bias
    variance_change = ensembled.model_variance - base.model_variance
    bias_preserved = None
    variance_reduced = None
    if mode == "dual" and mc_draws is None:
        bias_preserved = bool(abs(bias_change) <= DUAL_ENSEMBLE_BIAS_TOL)
        variance_reduced = bool(variance_change <= DUAL_ENSEMBLE_VARIANCE_SLACK)
    return EnsembleEffectReport(
        mode=mode,
        n=int(n),
        base=base,
        ensembled=ensembled,
        bias_change=bias_change,
        variance_change=variance_change,
        bias_preserved=bias_preserved,
        variance_reduced=variance_reduced,
    )
