"""The shared primal/dual implementation against the written-out mirror formulas.

Each public primal/dual pair runs one computation in two coordinate systems.
The references below spell every pair out twice, one formula per side, in
the same float operations; the library must match them exactly.  The
ensemble weights are the one place the arithmetic changed (log-space
multinomials instead of integer coefficients), so they are held to a
relative tolerance instead.
"""

import functools
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import bregman_bv
from bregman_bv import (
    GroupedSampleSet,
    SampleSet,
    conditional_label,
    conditional_prediction,
    decompose,
    divergence,
    dual_average,
    dual_variance,
    ensemble_distribution,
    primal_average,
    primal_mean,
    primal_variance,
    total_variance,
)
from bregman_bv.dualspace import _side
from conftest import build_generator, random_grouped, random_interior_points, random_sample_set

SEEDS = range(8)
# lgamma sums over at most n + 1 terms, each within a few ulps
ENSEMBLE_WEIGHT_RTOL = 1e-12


def ref_primal_mean(s):
    return s.weights @ s.points


def ref_dual_mean(g, s):
    # grad of a quadratic F is linear: the dual mean is the weighted mean
    if g.quadratic:
        return ref_primal_mean(s)
    return g.grad_conj(s.weights @ g.grad(s.points))


def ref_is_constant(s):
    return s.n == 1 or bool(np.all(s.points == s.points[0]))


def ref_primal_variance(g, s):
    if ref_is_constant(s):
        return 0.0
    center = ref_primal_mean(s)
    return float(s.weights @ divergence(g, s.points, center, validate=False))


def ref_dual_variance(g, s):
    if ref_is_constant(s):
        return 0.0
    center = ref_dual_mean(g, s)
    return float(s.weights @ divergence(g, center, s.points, validate=False))


def ref_primal_average(points):
    return np.mean(np.atleast_2d(np.asarray(points, dtype=float)), axis=0)


def ref_dual_average(g, points):
    if g.quadratic:
        return ref_primal_average(points)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return g.grad_conj(np.mean(g.grad(points), axis=0))


def ref_total_variance(g, grouped, mode):
    flat = grouped.flatten()
    keys = list(grouped.groups)
    weights = np.asarray([grouped.group_weights[k] for k in keys])
    if mode == "primal":
        total = ref_primal_variance(g, flat)
        unexplained = float(weights @ [ref_primal_variance(g, grouped.groups[k]) for k in keys])
        centers = SampleSet([ref_primal_mean(grouped.groups[k]) for k in keys], weights)
        explained = ref_primal_variance(g, centers)
    else:
        total = ref_dual_variance(g, flat)
        unexplained = float(weights @ [ref_dual_variance(g, grouped.groups[k]) for k in keys])
        centers = SampleSet([ref_dual_mean(g, grouped.groups[k]) for k in keys], weights)
        explained = ref_dual_variance(g, centers)
    return {
        "total": total,
        "explained": explained,
        "unexplained": unexplained,
        "residual": total - (explained + unexplained),
        "mode": mode,
    }


def _conditional_dict(cb, cv, ub, uv, gap, side):
    return {
        "conditional_bias": cb,
        "conditional_variance": cv,
        "unconditional_bias": ub,
        "unconditional_variance": uv,
        "gap": gap,
        "side": side,
        "bias_residual": cb - (ub + gap),
        "variance_residual": cv - (uv - gap),
    }


def ref_conditional_prediction(g, label, grouped):
    flat = grouped.flatten()
    keys = list(grouped.groups)
    weights = np.asarray([grouped.group_weights[k] for k in keys])
    centers = np.asarray([ref_dual_mean(g, grouped.groups[k]) for k in keys])
    whole = ref_dual_mean(g, flat)
    return _conditional_dict(
        float(weights @ divergence(g, label, centers, validate=False)),
        float(weights @ [ref_dual_variance(g, grouped.groups[k]) for k in keys]),
        float(divergence(g, label, whole)),
        ref_dual_variance(g, flat),
        float(weights @ divergence(g, whole, centers, validate=False)),
        "prediction",
    )


def ref_conditional_label(g, grouped, prediction):
    flat = grouped.flatten()
    keys = list(grouped.groups)
    weights = np.asarray([grouped.group_weights[k] for k in keys])
    centers = np.asarray([ref_primal_mean(grouped.groups[k]) for k in keys])
    whole = ref_primal_mean(flat)
    return _conditional_dict(
        float(weights @ divergence(g, centers, prediction, validate=False)),
        float(weights @ [ref_primal_variance(g, grouped.groups[k]) for k in keys]),
        float(divergence(g, whole, prediction, validate=False)),
        ref_primal_variance(g, flat),
        float(weights @ divergence(g, centers, whole, validate=False)),
        "label",
    )


def ref_ensemble(g, s, n, mode):
    """Direct enumeration with integer multinomial coefficients."""
    combos = list(itertools.combinations_with_replacement(range(s.n), n))
    counts = np.array([np.bincount(c, minlength=s.n) for c in combos], dtype=float)
    weights = np.empty(len(combos))
    for row, c in enumerate(counts.astype(int)):
        coef = math.factorial(n)
        for ci in c:
            coef //= math.factorial(int(ci))
        weights[row] = coef * float(np.prod(s.weights**c))
    if mode == "primal" or g.quadratic:
        points = (counts @ s.points) / n
    else:
        points = g.grad_conj((counts @ g.grad(s.points)) / n)
    return points, weights / np.sum(weights)


@pytest.mark.parametrize("seed", SEEDS)
def test_variances_and_averages_match_mirror_formulas(gen, seed):
    rng = np.random.default_rng(seed)
    s = random_sample_set(gen, rng)
    assert primal_variance(gen, s) == ref_primal_variance(gen, s)
    assert dual_variance(gen, s) == ref_dual_variance(gen, s)
    assert np.array_equal(primal_average(s.points), ref_primal_average(s.points))
    assert np.array_equal(dual_average(gen, s.points), ref_dual_average(gen, s.points))


def large_grouped(g, rng, groups=40):
    """Groups of hundreds of rows, one of them a single row and one constant."""
    sets = {}
    for k in range(groups):
        points = random_interior_points(g, rng, int(rng.integers(100, 400)))
        if k == 1:
            points = points[:1]
        elif k == 2:
            points = np.repeat(points[:1], len(points), axis=0)
        sets[f"g{k}"] = SampleSet(points, rng.uniform(0.2, 1.0, size=len(points)))
    return GroupedSampleSet(sets, rng.uniform(0.2, 1.0, size=groups))


def grouped_case(gen, case, base):
    """A small random grouped set per seed; "large" is a d = 10 set at workload scale."""
    if case == "large":
        g = build_generator(gen.name, 10)
        rng = np.random.default_rng(base + 99)
        return g, rng, large_grouped(g, rng)
    rng = np.random.default_rng(base + case)
    return gen, rng, random_grouped(gen, rng)


@pytest.mark.parametrize("case", [*SEEDS, "large"])
def test_total_variance_matches_mirror_formulas(gen, case):
    g, _, grouped = grouped_case(gen, case, 100)
    for mode in ("primal", "dual"):
        assert total_variance(g, grouped, mode).as_dict() == ref_total_variance(g, grouped, mode)


@pytest.mark.parametrize("case", [*SEEDS, "large"])
@pytest.mark.parametrize("mode", ["primal", "dual"])
def test_grouped_moments_match_mirror_formulas(gen, case, mode):
    """The one-pass centers and variances behind both grouped reports, field by field.

    A one-ulp change in one center can round away in a report's sums, so
    they are compared here before any sum is taken.
    """
    g, _, grouped = grouped_case(gen, case, 400)
    moments = _side(mode).grouped(g, grouped)
    mean, variance = (
        (ref_primal_mean, ref_primal_variance) if mode == "primal"
        else (functools.partial(ref_dual_mean, g), ref_dual_variance)
    )
    sets = list(grouped.groups.values())
    assert np.array_equal(moments.centers, [mean(s) for s in sets])
    assert moments.within.tolist() == [variance(g, s) for s in sets]
    assert np.array_equal(moments.whole_center, mean(grouped.flatten()))
    assert moments.total == variance(g, grouped.flatten())
    assert moments.weights.tolist() == [grouped.group_weights[k] for k in grouped.groups]


@pytest.mark.parametrize("case", [*SEEDS, "large"])
def test_conditional_reports_match_mirror_formulas(gen, case):
    g, rng, grouped = grouped_case(gen, case, 200)
    point = random_interior_points(g, rng, 1)[0]
    got = conditional_prediction(g, point, grouped).as_dict()
    assert got == ref_conditional_prediction(g, point, grouped)
    got = conditional_label(g, grouped, point).as_dict()
    assert got == ref_conditional_label(g, grouped, point)


@pytest.mark.parametrize("seed", SEEDS[:4])
@pytest.mark.parametrize("mode", ["primal", "dual"])
def test_ensemble_matches_direct_enumeration(gen, seed, mode):
    rng = np.random.default_rng(300 + seed)
    s = random_sample_set(gen, rng, max_n=4, min_n=2)
    ens = ensemble_distribution(gen, s, 3, mode)
    points, weights = ref_ensemble(gen, s, 3, mode)
    assert np.array_equal(ens.points, points)
    assert np.allclose(ens.weights, weights, rtol=ENSEMBLE_WEIGHT_RTOL, atol=0.0)


@pytest.mark.parametrize("name", ["squared-euclidean", "mahalanobis"])
def test_quadratic_dual_reports_equal_primal_ones(name):
    """A quadratic F has a linear gradient and a symmetric D: each dual report is its primal mirror.

    The dual mean is the primal mean and D(c, x) == D(x, c) bit for bit, so
    the two sides of every mirror pair agree exactly, on 150 random cases
    and one at workload scale.
    """
    gen = build_generator(name, 2)
    for case in [*range(150), "large"]:
        g, rng, grouped = grouped_case(gen, case, 500)
        dual, primal = (total_variance(g, grouped, mode).as_dict() for mode in ("dual", "primal"))
        assert {**dual, "mode": "primal"} == primal
        point = random_interior_points(g, rng, 1)[0]
        got = conditional_prediction(g, point, grouped).as_dict()
        assert {**got, "side": "label"} == conditional_label(g, grouped, point).as_dict()
        for predictions in (grouped.flatten(), random_sample_set(g, rng)):
            report = decompose(g, random_sample_set(g, rng), predictions)
            assert np.array_equal(report.central_prediction, primal_mean(predictions))


@pytest.mark.parametrize("name", ["negative-entropy-simplex", "separable-custom"])
@pytest.mark.parametrize("dim", [2, 3, 10])
def test_non_quadratic_maps_are_row_wise(name, dim):
    """``grad`` and ``grad_conj`` give a row the same bits in any batch, one-row batches included.

    The grouped reports map all rows, and all group centers, in one batch
    each, and are pinned with == against per-group formulas.
    """
    g = build_generator(name, dim)
    assert not g.quadratic
    points = random_interior_points(g, np.random.default_rng(600 + dim), 60)
    for fn, batch in ((g.grad, points), (g.grad_conj, g.grad(points))):
        whole = fn(batch)
        for i, row in enumerate(batch):
            assert np.array_equal(fn(row), whole[i])
            assert np.array_equal(fn(batch[i:i + 1]), whole[i:i + 1])
        assert np.array_equal(fn(batch[7:30]), whole[7:30])


def test_no_scipy_import():
    code = (
        "import sys, bregman_bv, bregman_bv.cli, bregman_bv.decomposition, bregman_bv.oracle\n"
        "sys.exit(int(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(bregman_bv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr or "scipy was imported"
