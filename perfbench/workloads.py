"""The four workloads: inputs drawn from a seed, the cycle of reports, and their checks.

Every workload is a fixed cycle of operations; one operation is one certified
report (one public call, or one CLI invocation).  Each operation carries a
check against a reference computed at set-up by :mod:`reference`, plus the
library's own certification gate.  README.md records why each workload
exists and which ROADMAP item it should and should not move.

Inputs are drawn at unit coordinate scale from the seed only; nothing is
re-drawn when a report fails.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
import tracing

HERE = Path(__file__).resolve().parent
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# the library's own gates, as the CLI applies them
IDENTITY_TOL = 1e-9
ORACLE_GAP_TOL = 1e-5
GAP_FLOOR = -1e-12

KL = ("negative-entropy-simplex", None)
EUCLID = ("squared-euclidean", None)


@dataclass
class Op:
    """One report: ``run(trace)`` is timed, ``check(result)`` returns a failure or None.

    ``trace`` is None or ``(tracer, op_id, memory)``; ``memory`` marks the
    untimed memory pass, which only in-process reports get.  ``collect(trace)``
    runs after the timed region of a traced CLI call; ``meta`` holds the
    counts the traced run cross-checks.
    """

    kind: str
    run: Callable
    check: Callable
    meta: dict = field(default_factory=dict)
    collect: Callable | None = None


def in_process(fn):
    def run(trace):
        if trace is None:
            return fn()
        tracer, op_id, memory = trace
        return tracer.run(op_id, fn, memory)

    return run


def interior_points(kind, rng, n, d, box=None, margin=0.1):
    """Points well inside a domain, drawn like the acceptance suite's samplers."""
    if kind == "negative-entropy-simplex":
        return (1.0 - margin) * rng.dirichlet(np.ones(d), size=n) + margin / d
    if box is not None:
        lo, hi = box
        return lo + (hi - lo) * rng.uniform(margin, 1.0 - margin, size=(n, d))
    return rng.uniform(-2.0, 2.0, size=(n, d))


def gate_decomposition(values, want, label=""):
    """The library's relative identity gate, then every term against the reference."""
    loss, residual = values["expected_loss"], values["identity_residual"]
    if abs(residual) > IDENTITY_TOL * max(1.0, abs(loss)):
        return f"{label}identity residual {residual:.3e} outside the library's gate"
    bad = ref.mismatch(values, want, want["expected_loss"])
    return f"{label}{bad}" if bad else None


def gate_conditional(values, want):
    worst = max(abs(values["bias_residual"]), abs(values["variance_residual"]))
    if worst > IDENTITY_TOL or values["gap"] < GAP_FLOOR:
        return f"conditional residual {worst:.3e} or gap {values['gap']:.3e} outside the gate"
    keys = ("conditional_bias", "conditional_variance", "unconditional_bias",
            "unconditional_variance", "gap")
    return ref.mismatch(values, {k: want[k] for k in keys}, want["unconditional_variance"])


def gate_total_variance(values, want):
    if abs(values["residual"]) > IDENTITY_TOL:
        return f"total-variance residual {values['residual']:.3e} outside the gate"
    keys = ("total", "explained", "unexplained")
    return ref.mismatch(values, {k: want[k] for k in keys}, want["total"])


def draw_grouped(rng, n, k, d):
    """Grouped points: k equal-size groups around unit-normal centers, random weights."""
    labels = rng.permutation(np.arange(n) % k)
    points = rng.normal(size=(k, d))[labels] + rng.normal(size=(n, d))
    weights = rng.uniform(0.2, 1.0, size=n)
    return labels, points, weights


def grouped_reference(spec, labels, points, weights, k, label):
    groups = []
    for j in range(k):
        idx = np.flatnonzero(labels == j)
        groups.append((points[idx], weights[idx] / weights[idx].sum()))
    group_weights = np.array([weights[labels == j].sum() for j in range(k)]) / weights.sum()
    return ref.quadratic_grouped(spec, groups, group_weights, label)


class DecomposeLarge:
    """In-process decompose at N = M = 2000, d = 10, plus grouped reports on 20k points."""

    name = "decompose-large"

    def __init__(self, lib, workdir, small):
        self.lib = lib
        self.d = 10
        self.n = 60 if small else 2000
        self.grouped_n, self.groups = (600, 6) if small else (20_000, 50)

    def setup(self, rng):
        G, S, D = self.lib.generators, self.lib.dualspace, self.lib.decomposition
        d, n = self.d, self.n
        b = rng.normal(size=(d, d))
        matrix = b @ b.T / d + np.eye(d)
        mahalanobis = ("mahalanobis", matrix)
        families = [
            (G.SquaredEuclidean(d), EUCLID),
            (G.Mahalanobis(matrix), mahalanobis),
            (G.NegativeEntropySimplex(d), KL),
        ]
        decomposes = []
        for g, spec in families:
            if spec is KL:
                labels = np.eye(d)[rng.integers(0, d, size=n)]  # one-hot labels on the boundary
                preds = rng.dirichlet(np.ones(d), size=n)
            else:
                labels = rng.normal(size=(n, d))
                preds = rng.normal(0.3, 1.0, size=(n, d))
            ls = S.SampleSet(labels, rng.uniform(0.2, 1.0, size=n))
            ps = S.SampleSet(preds, rng.uniform(0.2, 1.0, size=n))
            want = ref.decomposition(spec, ls.points, ls.weights, ps.points, ps.weights)
            decomposes.append(self._decompose(g, spec[0], ls, ps, want))

        g = families[1][0]
        labels, points, weights = draw_grouped(rng, self.grouped_n, self.groups, d)
        grouped = S.GroupedSampleSet(
            {f"g{j}": S.SampleSet(points[labels == j], weights[labels == j]) for j in range(self.groups)},
            {f"g{j}": weights[labels == j].sum() for j in range(self.groups)},
        )
        point = rng.normal(size=d)  # deterministic side of both conditional reports
        want = grouped_reference(mahalanobis, labels, points, weights, self.groups, point)

        def total_variance(mode):
            return Op(f"total_variance/{mode}",
                      in_process(lambda: D.total_variance(g, grouped, mode)),
                      lambda r: gate_total_variance(r.as_dict(), want))

        cond_prediction = Op("conditional/prediction",
                             in_process(lambda: D.conditional_prediction(g, point, grouped)),
                             lambda r: gate_conditional(r.as_dict(), want))
        cond_label = Op("conditional/label",
                        in_process(lambda: D.conditional_label(g, grouped, point)),
                        lambda r: gate_conditional(r.as_dict(), want))
        # decompose is 6 of the 10 reports, so the median latency is a decompose
        self.ops = (decomposes + [total_variance("primal"), cond_prediction]
                    + decomposes + [total_variance("dual"), cond_label])

    def _decompose(self, g, family, ls, ps, want):
        D = self.lib.decomposition
        return Op(f"decompose/{family}",
                  in_process(lambda: D.decompose(g, ls, ps)),
                  lambda r: gate_decomposition(r.as_dict(), want),
                  {"decompose_pairs": ls.n * ps.n + 1})

    def warm_up(self):
        for op in self.ops[:5] + self.ops[8:]:
            op.run(None)

    def cycle(self):
        return self.ops


class EnsembleExact:
    """Exact ensemble_effect with 6 atoms, dual and primal, under KL and squared Euclidean."""

    name = "ensemble-exact"
    atoms = 6
    dim = 3

    def __init__(self, lib, workdir, small):
        self.lib = lib
        # multiset counts C(n + 5, 5): 11,628 / 26,334 / 53,130 / 278,256
        self.ns = (2, 3, 4, 6) if small else (14, 17, 20, 29)

    def setup(self, rng):
        G, S, D = self.lib.generators, self.lib.dualspace, self.lib.decomposition
        k, d = self.atoms, self.dim
        families = {}
        for g, spec in ((G.NegativeEntropySimplex(d), KL), (G.SquaredEuclidean(d), EUCLID)):
            pts = interior_points(spec[0], rng, k, d, margin=0.0)
            label = interior_points(spec[0], rng, 1, d, margin=0.0)[0]
            families[spec[0]] = (g, spec, S.SampleSet(pts, rng.uniform(0.2, 1.0, size=k)), label)
        counts = {n: ref.compositions(k, n) for n in self.ns}
        combos = [(KL[0], "dual"), (KL[0], "primal"), (EUCLID[0], "dual"), (EUCLID[0], "primal")]
        # every combination at the three smaller n, and the costliest one once:
        # the median stays among the n = 17 reports and the tail among n = 20
        plan = [(fam, mode, n) for n in self.ns[:-1] for fam, mode in combos]
        plan.append((KL[0], "dual", self.ns[-1]))

        self.ops = []
        for fam, mode, n in plan:
            g, spec, preds, label = families[fam]
            atoms, weights = ref.ensemble(spec, preds.points, preds.weights, counts[n], mode)
            want_base = ref.single_label(spec, label, preds.points, preds.weights)
            want = ref.single_label(spec, label, atoms, weights)
            direct = (atoms, weights) if mode == "primal" and n == self.ns[0] else None
            self.ops.append(Op(
                f"ensemble_effect/{fam}/{mode}/n={n}",
                in_process(lambda g=g, label=label, preds=preds, n=n, mode=mode:
                           D.ensemble_effect(g, label, preds, n, mode)),
                lambda r, g=g, preds=preds, want_base=want_base, want=want, direct=direct:
                    self._check(r, g, preds, want_base, want, direct),
                {"ensemble_atoms": math.comb(n + k - 1, n)},
            ))

    def _check(self, report, g, preds, want_base, want, direct):
        bad = (gate_decomposition(report.base.as_dict(), want_base, "base ")
               or gate_decomposition(report.ensembled.as_dict(), want, "ensembled "))
        if bad:
            return bad
        if report.mode == "dual" and not (report.bias_preserved and report.variance_reduced):
            return (f"dual certification failed: bias change {report.bias_change:.3e}, "
                    f"variance change {report.variance_change:.3e}")
        if direct is not None:
            # the primal atoms and weights themselves, against direct enumeration
            dist = self.lib.dualspace.ensemble_distribution(g, preds, report.n, "primal")
            return same_atoms(dist.points, dist.weights, *direct)
        return None

    def warm_up(self):
        for op in self.ops[:4]:
            op.run(None)

    def cycle(self):
        return self.ops


def same_atoms(points, weights, want_points, want_weights):
    """Compare two finite distributions atom by atom, in a fixed projection order."""
    if points.shape != want_points.shape:
        return f"ensemble has {len(points)} atoms, direct enumeration {len(want_points)}"
    key = np.array([1.0, 0.6180339887498949, 0.41421356237309503])[: points.shape[1]]
    got, want = np.argsort(points @ key), np.argsort(want_points @ key)
    atoms, want_atoms = points[got], want_points[want]
    want_weights = want_weights[want] / want_weights.sum()
    if not np.all(np.abs(atoms - want_atoms) <= ref.REL_TOL * np.maximum(1.0, np.abs(want_atoms))):
        return "ensemble atoms differ from direct enumeration"
    if not np.all(np.abs(weights[got] - want_weights) <= ref.REL_TOL * want_weights):
        return "ensemble weights differ from direct enumeration"
    return None


# the acceptance suite's separable pieces: -log(1 - t^2), -log(1 - t^4), cosh
PIECES = [
    (lambda t: -np.log(1.0 - t**2), lambda t: 2.0 * t / (1.0 - t**2), -1.0, 1.0),
    (lambda t: -np.log(1.0 - t**4), lambda t: 4.0 * t**3 / (1.0 - t**4), -1.0, 1.0),
    (np.cosh, np.sinh, -1.5, 1.5),
]


class CertifyOracle:
    """Grid-oracle certification of both means, criterion 3's generators at d <= 3."""

    name = "certify-oracle"
    # One d = 3 box per box family keeps 3 of 61 reports on 256^3 grids, and
    # the 40 reports on d = 2 boxes and d = 3 simplices hold both the median
    # and the tail; many distinct sample sets keep those from hinging on a few.
    box_dims = (1,) * 4 + (2,) * 10 + (3,)
    simplex_dims = (2,) * 6 + (3,) * 10

    def __init__(self, lib, workdir, small):
        self.lib = lib
        self.resolution = 12 if small else 256

    def _generator(self, family, d, rng):
        G = self.lib.generators
        if family == "squared-euclidean":
            return G.SquaredEuclidean(d), EUCLID, None
        if family == "mahalanobis":
            b = rng.normal(size=(d, d))
            matrix = b @ b.T + d * np.eye(d)
            return G.Mahalanobis(matrix), ("mahalanobis", matrix), None
        if family == "negative-entropy-simplex":
            return G.NegativeEntropySimplex(d), KL, None
        pieces = [G.Piece(*PIECES[i % len(PIECES)]) for i in range(d)]
        g = G.SeparableCustom(pieces)
        return g, None, (g.domain.lowers, g.domain.uppers)

    def setup(self, rng):
        S = self.lib.dualspace
        res = self.resolution
        boxes = ("squared-euclidean", "mahalanobis", "separable-custom")
        plan = [(f, d) for f in boxes for d in self.box_dims]
        plan += [("negative-entropy-simplex", d) for d in self.simplex_dims]
        self.ops = []
        for family, d in plan:
            g, spec, box = self._generator(family, d, rng)
            n = int(rng.integers(2, 7))
            s = S.SampleSet(interior_points(family, rng, n, d, box=box), rng.uniform(0.2, 1.0, size=n))
            want = {"primal_mean": s.weights @ s.points}
            if spec is not None:
                want["dual_mean"] = ref.dual_mean(spec, s.points, s.weights)
            simplex = family == "negative-entropy-simplex"
            grid = math.comb(res - 1, d - 1) if simplex else res**d
            self.ops.append(Op(f"certify/{family}/d={d}",
                               in_process(lambda g=g, s=s: self._certify(g, s)),
                               lambda r, want=want: self._check(r, want),
                               {"grid_points": 2 * grid}))

    def _certify(self, g, s):
        S, O = self.lib.dualspace, self.lib.oracle
        cfg = O.OracleConfig(grid_resolution=self.resolution)
        primal = S.primal_mean(s)
        dual = S.dual_mean(g, s)
        oracle_primal = O.argmin_from(g, s, cfg)
        oracle_dual = O.argmin_to(g, s, cfg)
        return {
            "primal_mean": primal,
            "dual_mean": dual,
            "primal_gap": abs(O.expected_divergence_from(g, s, primal)
                              - O.expected_divergence_from(g, s, oracle_primal)),
            "dual_gap": abs(O.expected_divergence_to(g, s, dual)
                            - O.expected_divergence_to(g, s, oracle_dual)),
        }

    @staticmethod
    def _check(result, want):
        worst = max(result["primal_gap"], result["dual_gap"])
        if worst > ORACLE_GAP_TOL:
            return f"oracle objective gap {worst:.3e} exceeds {ORACLE_GAP_TOL:g}"
        return ref.mismatch(result, want, 1.0)

    def warm_up(self):
        seen = set()
        for op in self.ops:
            family = op.kind.split("/")[1]
            if family not in seen and not op.kind.endswith("d=3"):
                seen.add(family)
                op.run(None)

    def cycle(self):
        return self.ops


def write_csv(path, points, weights=None, groups=None):
    header = [f"x{j}" for j in range(points.shape[1])]
    header += ["weight"] if weights is not None else []
    header += ["group"] if groups is not None else []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i, row in enumerate(points):
            cells = [format(v, ".17g") for v in row.tolist()]
            if weights is not None:
                cells.append(format(float(weights[i]), ".17g"))
            if groups is not None:
                cells.append(str(groups[i]))
            fh.write(",".join(cells) + "\n")


class CliFiles:
    """All six CLI subcommands as fresh processes, on files written at set-up."""

    name = "cli-files"

    def __init__(self, lib, workdir, small):
        self.lib = lib
        self.workdir = workdir
        self.rows = 300 if small else 20_000
        self.groups = 5 if small else 50
        self.field_resolution = 30 if small else 300
        self.grid_resolution = 8 if small else 64
        root = HERE.parent
        self.root = root
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env["PYTHONPATH"] = str(root / "src")
        env["BREGMAN_BV_THREADS"] = os.environ.get(BLAS_VARS[0], "1")
        self.env = env
        self.spans_path = workdir / "cli-spans.jsonl"

    def setup(self, rng):
        w = self.workdir
        d = 10
        files = {name: str(w / name) for name in (
            "preds.csv", "label_onehot.csv", "grouped.csv", "label_point.csv",
            "ens_preds.csv", "ens_label.csv", "check.csv", "matrix.csv")}

        preds = rng.dirichlet(np.ones(d), size=self.rows)
        pred_w = rng.uniform(0.2, 1.0, size=self.rows)
        onehot = np.eye(d)[[int(rng.integers(0, d))]]
        write_csv(files["preds.csv"], preds, pred_w)
        write_csv(files["label_onehot.csv"], onehot)
        want_decompose = ref.decomposition(KL, onehot, np.ones(1), preds, pred_w / pred_w.sum())

        labels, points, weights = draw_grouped(rng, self.rows, self.groups, d)
        point = rng.normal(size=d)
        write_csv(files["grouped.csv"], points, weights, [f"g{j}" for j in labels])
        write_csv(files["label_point.csv"], point[None, :])
        want_grouped = grouped_reference(EUCLID, labels, points, weights, self.groups, point)

        ens = interior_points(KL[0], rng, 6, 3, margin=0.0)
        ens_w = rng.uniform(0.2, 1.0, size=6)
        ens_label = interior_points(KL[0], rng, 1, 3, margin=0.0)
        write_csv(files["ens_preds.csv"], ens, ens_w)
        write_csv(files["ens_label.csv"], ens_label)
        ens_w = ens_w / ens_w.sum()
        atoms, atom_w = ref.ensemble(KL, ens, ens_w, ref.compositions(6, 6), "dual")
        want_ens = (ref.single_label(KL, ens_label[0], ens, ens_w),
                    ref.single_label(KL, ens_label[0], atoms, atom_w))

        b = rng.normal(size=(3, 3))
        matrix = b @ b.T + 3 * np.eye(3)
        with open(files["matrix.csv"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(",".join(format(v, ".17g") for v in row) for row in matrix.tolist()) + "\n")
        samples = rng.uniform(-2.0, 2.0, size=(5, 3))
        sample_w = rng.uniform(0.2, 1.0, size=5)
        write_csv(files["check.csv"], samples, sample_w)
        sample_mean = (sample_w / sample_w.sum()) @ samples

        center = rng.uniform(-0.5, 0.5, size=2)
        res = self.field_resolution

        def decompose_check(values):
            return gate_decomposition(values, want_decompose)

        def ensemble_check(values):
            if not (values["bias_preserved"] and values["variance_reduced"]):
                return "dual certification failed"
            return (gate_decomposition(values["base"], want_ens[0], "base ")
                    or gate_decomposition(values["ensembled"], want_ens[1], "ensembled "))

        def check_check(values):
            worst = max(values["primal"]["objective_gap"], values["dual"]["objective_gap"])
            if worst > ORACLE_GAP_TOL:
                return f"oracle objective gap {worst:.3e} exceeds {ORACLE_GAP_TOL:g}"
            got = {"primal": values["primal"]["analytic_point"], "dual": values["dual"]["analytic_point"]}
            return ref.mismatch(got, {"primal": sample_mean, "dual": sample_mean}, 1.0)

        def field_check(text):
            table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
            axis = np.linspace(-1.0, 1.0, res)
            grid = np.column_stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")])
            dist = ref.divergence(EUCLID, grid, center)
            want = {"coordinates": grid, "div_from_center": dist, "div_to_center": dist}
            got = {"coordinates": table[:, :2], "div_from_center": table[:, 2], "div_to_center": table[:, 3]}
            return ref.mismatch(got, want, 1.0)

        common = ["--dim", str(d)]
        euclid = ["--generator", "squared-euclidean", *common]
        plan = [
            ("decompose", ["decompose", "--generator", "negative-entropy-simplex", *common,
                           "--labels", files["label_onehot.csv"], "--predictions", files["preds.csv"],
                           "--label-onehot"],
             decompose_check, {"ingest_rows": 1 + self.rows}),
            ("total-variance", ["total-variance", *euclid, "--predictions", files["grouped.csv"],
                                "--group-col", "group", "--mode", "primal"],
             lambda v: gate_total_variance(v, want_grouped), {"ingest_rows": self.rows}),
            ("conditional", ["conditional", *euclid, "--labels", files["label_point.csv"],
                             "--predictions", files["grouped.csv"], "--group-col", "group"],
             lambda v: gate_conditional(v, want_grouped), {"ingest_rows": 1 + self.rows}),
            ("ensemble", ["ensemble", "--generator", "negative-entropy-simplex", "--dim", "3",
                          "--labels", files["ens_label.csv"], "--predictions", files["ens_preds.csv"],
                          "--mode", "dual", "--ensemble-n", "6"],
             ensemble_check, {"ingest_rows": 1 + 6}),
            ("check", ["check", "--generator", "mahalanobis", "--matrix-file", files["matrix.csv"],
                       "--labels", files["check.csv"], "--grid-resolution", str(self.grid_resolution)],
             check_check, {"ingest_rows": 5}),
            ("total-variance", ["total-variance", *euclid, "--predictions", files["grouped.csv"],
                                "--group-col", "group", "--mode", "dual"],
             lambda v: gate_total_variance(v, want_grouped), {"ingest_rows": self.rows}),
            ("conditional", ["conditional", *euclid, "--labels", files["grouped.csv"],
                             "--predictions", files["label_point.csv"], "--group-col", "group"],
             lambda v: gate_conditional(v, want_grouped), {"ingest_rows": 1 + self.rows}),
            ("field", ["field", "--generator", "squared-euclidean", "--dim", "2",
                       "--center=" + ",".join(repr(float(c)) for c in center), "--region", "box",
                       "--lo=-1,-1", "--hi=1,1", "--resolution", str(res)],
             field_check, {"field_rows": res * res}),
        ]
        self.first_stdout = {}
        self.ops = [Op(f"cli/{sub}", self._runner(argv), self._checker(tuple(argv), sub, check),
                       meta, self._collect) for sub, argv, check, meta in plan]

    def _runner(self, argv):
        def run(trace):
            if trace is None:
                cmd = [sys.executable, "-m", "bregman_bv.cli", *argv]
            else:
                self.spans_path.unlink(missing_ok=True)
                cmd = [sys.executable, str(HERE / "clitrace.py"), str(self.spans_path), *argv]
            return subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True, timeout=150)

        return run

    def _checker(self, key, sub, check):
        def run_check(proc):
            if proc.returncode != 0:
                tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
                return f"exit code {proc.returncode}: {' '.join(tail)}"
            first = self.first_stdout.get(key)
            if first is not None:
                return None if proc.stdout == first else "stdout differs from the first run of the same command"
            text = proc.stdout.decode("utf-8")
            bad = check(text if sub == "field" else json.loads(text))
            if bad is None:
                self.first_stdout[key] = proc.stdout
            return bad

        return run_check

    def _collect(self, trace):
        tracer, op_id, _ = trace
        if self.spans_path.exists():
            tracer.extend(tracing.load(self.spans_path), op_id)

    def warm_up(self):
        # one run imports the whole numeric stack and compiles the package's bytecode
        for op in self.ops:
            if op.kind in ("cli/ensemble", "cli/check"):
                op.run(None)

    def cycle(self):
        return self.ops


WORKLOADS = {w.name: w for w in (DecomposeLarge, EnsembleExact, CertifyOracle, CliFiles)}
