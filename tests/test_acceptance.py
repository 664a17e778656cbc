"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned here; nothing is left to later calibration.
"""

import time
from pathlib import Path

import numpy as np

from bregman_bv import (
    GroupedSampleSet,
    NegativeEntropySimplex,
    OracleConfig,
    SampleSet,
    SquaredEuclidean,
    argmin_from,
    argmin_to,
    conditional_label,
    conditional_prediction,
    decompose,
    divergence,
    dual_divergence,
    dual_mean,
    ensemble_effect,
    expected_divergence_from,
    expected_divergence_to,
    primal_mean,
    total_variance,
    triangle_expansion,
)
from bregman_bv.cli import main
from conftest import (
    GENERATOR_NAMES,
    build_generator,
    random_grouped,
    random_interior_points,
    random_sample_set,
)

FIXTURES = Path(__file__).parent / "fixtures"

# frozen oracle recomputation of the two-atom KL example (criterion 7)
KL_PAIR_CENTER = np.array([0.71010205144336436, 0.28989794855663564])
KL_PAIR_ENSEMBLED_CENTER = np.array([0.705076186132503, 0.29492381386749705])
KL_BIAS = {"first": 0.34234658484830527, "second": 1.2382263194623326}
KL_ENSEMBLED_BIAS = {"first": 0.34944941657234252, "second": 1.2210382140729581}


def _verdict(num: int, title: str, ok: bool, details: str):
    print(f"[acceptance] criterion {num} ({title}): {'PASS' if ok else 'FAIL'} -- {details}")
    assert ok, f"criterion {num} ({title}): {details}"


def test_criterion_1_decomposition_identity():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for name in GENERATOR_NAMES:
        dims = [2, 3] if name == "negative-entropy-simplex" else [1, 2, 3]
        for _ in range(200):
            g = build_generator(name, int(rng.choice(dims)))
            labels = random_sample_set(g, rng, max_n=50)
            predictions = random_sample_set(g, rng, max_n=50)
            report = decompose(g, labels, predictions)
            scaled = abs(report.identity_residual) / max(1.0, abs(report.expected_loss))
            worst = max(worst, scaled)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 10.0
    _verdict(1, "decomposition identity", ok,
             f"max scaled residual {worst:.3e} (tol 1e-9), {elapsed:.1f}s (< 10s)")


def test_criterion_2_euclidean_specialization():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        g = SquaredEuclidean(d)
        labels = random_sample_set(g, rng, max_n=20, min_n=2)
        predictions = random_sample_set(g, rng, max_n=20, min_n=2)
        report = decompose(g, labels, predictions)
        label_mean = labels.weights @ labels.points
        pred_mean = predictions.weights @ predictions.points
        bayes = float(labels.weights @ np.sum((labels.points - label_mean) ** 2, axis=1))
        bias = float(np.sum((label_mean - pred_mean) ** 2))
        var = float(predictions.weights @ np.sum((predictions.points - pred_mean) ** 2, axis=1))
        worst = max(
            worst,
            abs(report.bayes_error - bayes),
            abs(report.bias - bias),
            abs(report.model_variance - var),
            np.max(np.abs(report.central_prediction - pred_mean)),
        )
    _verdict(2, "Euclidean specialization", worst <= 1e-10,
             f"max deviation from closed forms {worst:.3e} (tol 1e-10)")


def test_criterion_3_minimizer_characterizations():
    rng = np.random.default_rng(103)
    cfg = OracleConfig(grid_resolution=256)
    started = time.perf_counter()
    worst = 0.0
    for name in GENERATOR_NAMES:
        if name == "negative-entropy-simplex":
            dims = [2] * 12 + [3] * 8
        else:
            dims = [1] * 10 + [2] * 8 + [3] * 2
        for d in dims:
            g = build_generator(name, d)
            s = random_sample_set(g, rng, max_n=6, min_n=2)
            dual_gap = abs(
                expected_divergence_to(g, s, argmin_to(g, s, cfg))
                - expected_divergence_to(g, s, dual_mean(g, s))
            )
            primal_gap = abs(
                expected_divergence_from(g, s, argmin_from(g, s, cfg))
                - expected_divergence_from(g, s, primal_mean(s))
            )
            worst = max(worst, dual_gap, primal_gap)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-5 and elapsed < 60.0
    _verdict(3, "minimizer characterizations", ok,
             f"max objective gap {worst:.3e} (tol 1e-5) on 20 fixtures/generator at 256/axis, "
             f"{elapsed:.1f}s (< 60s)")


def test_criterion_4_laws_of_total_variance():
    rng = np.random.default_rng(104)
    worst = 0.0
    for name in GENERATOR_NAMES:
        g = build_generator(name, 3 if name == "negative-entropy-simplex" else 2)
        for _ in range(100):
            grouped = random_grouped(g, rng)
            for mode in ("primal", "dual"):
                report = total_variance(g, grouped, mode)
                worst = max(worst, abs(report.residual))
    _verdict(4, "laws of total variance", worst <= 1e-9,
             f"max residual {worst:.3e} over 100 grouped sets/generator, both modes (tol 1e-9)")


def test_criterion_5_iterated_dual_expectation():
    rng = np.random.default_rng(104)  # same fixture stream as criterion 4
    worst = 0.0
    for name in GENERATOR_NAMES:
        g = build_generator(name, 3 if name == "negative-entropy-simplex" else 2)
        for _ in range(100):
            grouped = random_grouped(g, rng)
            whole = dual_mean(g, grouped.flatten())
            inner = SampleSet(
                [dual_mean(g, s) for s in grouped.groups.values()],
                [grouped.weight(k) for k in grouped.keys()],
            )
            worst = max(worst, float(np.max(np.abs(dual_mean(g, inner) - whole))))
    _verdict(5, "iterated dual expectation", worst <= 1e-10,
             f"max deviation {worst:.3e} (tol 1e-10)")


def test_criterion_6_conditional_gaps():
    rng = np.random.default_rng(106)
    worst_residual = 0.0
    worst_gap = 0.0
    for name in GENERATOR_NAMES:
        g = build_generator(name, 3 if name == "negative-entropy-simplex" else 2)
        for _ in range(100):
            grouped = random_grouped(g, rng)
            point = random_sample_set(g, rng, max_n=1).points[0]
            for report in (
                conditional_prediction(g, point, grouped),
                conditional_label(g, grouped, point),
            ):
                worst_residual = max(
                    worst_residual, abs(report.bias_residual), abs(report.variance_residual)
                )
                worst_gap = min(worst_gap, report.gap)
    g1 = SquaredEuclidean(1)
    hand = conditional_label(
        g1,
        GroupedSampleSet({"a": SampleSet([[0.0]]), "b": SampleSet([[2.0]])}),
        np.array([3.0]),
    )
    hand_ok = (
        abs(hand.conditional_bias - 5.0) <= 1e-12
        and abs(hand.unconditional_bias - 4.0) <= 1e-12
        and abs(hand.gap - 1.0) <= 1e-12
    )
    ok = worst_residual <= 1e-9 and worst_gap >= -1e-12 and hand_ok
    _verdict(6, "conditional gaps", ok,
             f"max identity residual {worst_residual:.3e} (tol 1e-9), min gap {worst_gap:.3e} "
             f"(>= -1e-12), scalar hand case exact: {hand_ok}")


def test_criterion_7_kl_counterexample():
    g = NegativeEntropySimplex(2)
    predictions = SampleSet([[0.8, 0.2], [0.6, 0.4]])
    up = ensemble_effect(g, np.array([1.0, 0.0]), predictions, 2, "primal")
    down = ensemble_effect(g, np.array([0.0, 1.0]), predictions, 2, "primal")
    center_gap = float(np.max(np.abs(up.ensembled.central_prediction - up.base.central_prediction)))
    frozen_ok = (
        np.max(np.abs(up.base.central_prediction - KL_PAIR_CENTER)) <= 1e-12
        and np.max(np.abs(up.ensembled.central_prediction - KL_PAIR_ENSEMBLED_CENTER)) <= 1e-12
        and abs(up.base.bias - KL_BIAS["first"]) <= 1e-14
        and abs(up.ensembled.bias - KL_ENSEMBLED_BIAS["first"]) <= 1e-14
        and abs(down.base.bias - KL_BIAS["second"]) <= 1e-14
        and abs(down.ensembled.bias - KL_ENSEMBLED_BIAS["second"]) <= 1e-14
    )
    ok = center_gap > 1e-3 and up.bias_change > 0.0 and down.bias_change < 0.0 and frozen_ok
    _verdict(7, "KL counterexample", ok,
             f"center gap {center_gap:.3e} (> 1e-3), bias up {up.bias_change:+.3e}, "
             f"bias down {down.bias_change:+.3e}, frozen constants hold: {frozen_ok}")


def test_criterion_8_dual_ensembling():
    rng = np.random.default_rng(108)
    worst_bias = 0.0
    worst_var = -np.inf
    for name in GENERATOR_NAMES:
        g = build_generator(name, 3 if name == "negative-entropy-simplex" else 2)
        for _ in range(100):
            predictions = random_sample_set(g, rng, max_n=5, min_n=2)
            label = random_sample_set(g, rng, max_n=1).points[0]
            for n in (2, 3):
                report = ensemble_effect(g, label, predictions, n, "dual")
                worst_bias = max(worst_bias, abs(report.bias_change))
                worst_var = max(worst_var, report.variance_change)
    ok = worst_bias <= 1e-10 and worst_var <= 1e-12
    _verdict(8, "dual ensembling", ok,
             f"max |bias change| {worst_bias:.3e} (tol 1e-10), "
             f"max variance change {worst_var:.3e} (<= 1e-12)")


def test_criterion_9_conjugacy_machinery():
    rng = np.random.default_rng(109)
    details = []
    ok = True
    for name in GENERATOR_NAMES:
        g = build_generator(name, 3 if name == "negative-entropy-simplex" else 2)
        pts = random_interior_points(g, rng, 1000)
        others = random_interior_points(g, rng, 1000)
        thirds = random_interior_points(g, rng, 1000)
        round_trip = float(np.max(np.abs(g.grad_conj(g.grad(pts)) - pts)))
        swap = float(np.max(np.abs(
            dual_divergence(g, g.grad(pts), g.grad(others), validate=False)
            - divergence(g, others, pts, validate=False)
        )))
        triangle = float(np.max(np.abs(
            triangle_expansion(g, pts, others, thirds, validate=False).residual
        )))
        rt_tol = 1e-6 if name == "separable-custom" else 1e-9
        ok = ok and round_trip <= rt_tol and swap <= 1e-9 and triangle <= 1e-10
        details.append(f"{name}: rt {round_trip:.1e}, swap {swap:.1e}, tri {triangle:.1e}")
    _verdict(9, "conjugacy and duality machinery", ok, "; ".join(details))


def test_criterion_10_cli_end_to_end(tmp_path):
    def fx(name):
        return str(FIXTURES / name)

    runs = {
        "decompose": [
            "decompose", "--generator", "negative-entropy-simplex", "--dim", "2",
            "--labels", fx("labels_onehot.csv"), "--predictions", fx("preds_pair.csv"),
            "--label-onehot",
        ],
        "total-variance": [
            "total-variance", "--generator", "negative-entropy-simplex", "--dim", "2",
            "--predictions", fx("grouped_simplex.csv"), "--group-col", "z", "--mode", "dual",
        ],
        "conditional": [
            "conditional", "--generator", "squared-euclidean", "--dim", "2",
            "--labels", fx("grouped_euclid.csv"), "--predictions", fx("point_euclid.csv"),
            "--group-col", "z",
        ],
        "ensemble": [
            "ensemble", "--generator", "negative-entropy-simplex", "--dim", "2",
            "--labels", fx("labels_onehot.csv"), "--predictions", fx("preds_pair.csv"),
            "--mode", "dual", "--ensemble-n", "3", "--label-onehot",
        ],
        "check": [
            "check", "--generator", "mahalanobis", "--matrix-file", fx("matrix2.csv"),
            "--predictions", fx("preds_euclid.csv"), "--grid-resolution", "64",
        ],
    }
    identical = True
    all_zero = True
    for stem, argv in runs.items():
        out1 = tmp_path / f"{stem}1.json"
        out2 = tmp_path / f"{stem}2.json"
        code1 = main(argv + ["--out", str(out1)])
        code2 = main(argv + ["--out", str(out2)])
        all_zero = all_zero and code1 == 0 and code2 == 0
        identical = identical and out1.read_bytes() == out2.read_bytes()
    input_error = main([
        "decompose", "--generator", "negative-entropy-simplex", "--dim", "2",
        "--labels", fx("labels_onehot.csv"), "--predictions", fx("preds_pair.csv"),
    ])  # boundary labels without --label-onehot
    identity_error = main([
        "decompose", "--generator", "negative-entropy-simplex", "--dim", "2",
        "--labels", fx("preds_pair.csv"), "--predictions", fx("grouped_simplex.csv"),
        "--tolerance", "0", "--out", str(tmp_path / "gate.json"),
    ])  # residual is a few 1e-17 here, so a zero tolerance must trip the gate
    ok = all_zero and identical and input_error == 1 and identity_error == 2
    _verdict(10, "CLI end-to-end", ok,
             f"five subcommands byte-identical: {identical}, exit codes "
             f"(ok/input/identity) = (0={all_zero}, {input_error}, {identity_error})")
