"""Bias-variance decompositions for Bregman divergences via dual-space means.

The expected divergence between independent labels and predictions splits
into Bayes error, bias and model variance once the central prediction is
taken as the dual mean: the primal form of the mean of the predictions'
gradient coordinates.  This package provides the convex generators, the
dual-space statistics, the decomposition reports, brute-force certification
oracles and a small CLI.

Submodules are imported lazily so the ``bregman-bv`` entry point can apply
the ``BREGMAN_BV_THREADS`` cap before the numeric stack loads.
"""

__version__ = "0.1.0"

_EXPORTS = {
    # errors
    "DomainError": ".errors",
    "InversionError": ".errors",
    "EnumerationCapError": ".errors",
    # generators
    "Domain": ".generators",
    "FullSpace": ".generators",
    "OpenBox": ".generators",
    "OpenSimplex": ".generators",
    "ConvexGenerator": ".generators",
    "SquaredEuclidean": ".generators",
    "Mahalanobis": ".generators",
    "NegativeEntropySimplex": ".generators",
    "Piece": ".generators",
    "SeparableCustom": ".generators",
    "make_generator": ".generators",
    "divergence": ".generators",
    "dual_divergence": ".generators",
    "TriangleExpansion": ".generators",
    "triangle_expansion": ".generators",
    # dualspace
    "SampleSet": ".dualspace",
    "GroupedSampleSet": ".dualspace",
    "check_samples": ".dualspace",
    "primal_mean": ".dualspace",
    "dual_mean": ".dualspace",
    "primal_variance": ".dualspace",
    "dual_variance": ".dualspace",
    "primal_average": ".dualspace",
    "dual_average": ".dualspace",
    "ensemble_distribution": ".dualspace",
    "ENSEMBLE_ATOM_CAP": ".dualspace",
    # decomposition
    "DecompositionReport": ".decomposition",
    "TotalVarianceReport": ".decomposition",
    "ConditionalReport": ".decomposition",
    "EnsembleEffectReport": ".decomposition",
    "decompose": ".decomposition",
    "total_variance": ".decomposition",
    "conditional_prediction": ".decomposition",
    "conditional_label": ".decomposition",
    "ensemble_effect": ".decomposition",
    "DUAL_ENSEMBLE_BIAS_TOL": ".decomposition",
    "DUAL_ENSEMBLE_VARIANCE_SLACK": ".decomposition",
    # oracle
    "OracleConfig": ".oracle",
    "certify_means": ".oracle",
    "argmin_to": ".oracle",
    "argmin_from": ".oracle",
    "fd_gradient": ".oracle",
    "expected_divergence_to": ".oracle",
    "expected_divergence_from": ".oracle",
    # cli-level I/O
    "ingest": ".cli",
    "emit_samples": ".cli",
    "emit_divergence_field": ".cli",
    "render_json": ".cli",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(target, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
