#!/usr/bin/env python3
"""Benchmark of bregman-bv: certified reports timed end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload decompose-large --seed 1 --seconds 40 --trace 0

One client runs a fixed cycle of reports in a closed loop, one process and no
threads of its own (BLAS threads capped at the CPU count), until ``--seconds``
have passed at a cycle boundary.  Every report is checked.  The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds details (machine, tail percentile, failures, cross-checks).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every report
twice, untraced and then traced, and reports the per-layer metrics from the
traced runs plus the tracing overhead.  ``--workload all`` runs every
workload in both modes in child processes and prints one table.  ``--smoke``
uses tiny inputs and one set-up round: it checks the harness, not the speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("decompose-large", "ensemble-exact", "certify-oracle", "cli-files")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ROUNDS = 3
TAIL_BEYOND = 10
SUBCOMMANDS = ("decompose", "total-variance", "conditional", "ensemble", "check", "field")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import bregman_bv.cli, bregman_bv.decomposition, bregman_bv.oracle; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs and one set-up round")
    return p.parse_args(argv)


class Library:
    """The bregman_bv modules, looked up by attribute at call time so tracing can wrap them."""

    def __init__(self):
        import importlib

        for name in ("generators", "dualspace", "decomposition", "oracle", "cli"):
            setattr(self, name, importlib.import_module(f"bregman_bv.{name}"))


def fresh_import_seconds(threads: str) -> float:
    """Import time of the CLI's handler modules in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **{var: threads for var in BLAS_VARS})
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip())


def execute(op, trace):
    """Time one report, then check it.  A report that raises counts as failed."""
    result, failure = None, None
    start = time.perf_counter()
    try:
        result = op.run(trace)
    except Exception as exc:  # a failing report is a measurement, not a harness error
        failure = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if trace is not None and op.collect is not None:
        op.collect(trace)
    if failure is None:
        try:
            failure = op.check(result)
        except Exception as exc:
            failure = f"check raised {type(exc).__name__}: {exc}"
    return {"kind": op.kind, "latency": latency, "failure": failure, "traced": trace is not None}


def read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def machine_record(threads: str) -> dict:
    cpuinfo = read_text("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        level, kind, size = (read_text(index / f) for f in ("level", "type", "size"))
        if level and kind and size and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    numpy = sys.modules.get("numpy")
    scipy = sys.modules.get("scipy")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches_per_core_or_shared": caches,
        "mem_total_mib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "scipy": getattr(scipy, "__version__", None),
        "blas_threads": int(threads),
    }


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, 0) if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


CROSS_CHECKS = {
    # meta key: (what holds exactly, how the traced spans count it)
    "decompose_pairs": ("divergence pairs evaluated directly by decompose = N*M + 1 per report "
                        "(the pair tensor and the bias pair)",
                        ("generators.divergence", "decomposition.decompose", False)),
    "ensemble_atoms": ("atoms from ensemble_distribution = C(n+5, n) per report",
                       ("dualspace.ensemble_distribution", None, False)),
    "grid_points": ("oracle grid points = 256^d per box objective, C(255, d-1) per simplex objective",
                    ("generators.value", "oracle.argmin", True)),
    "ingest_rows": ("rows read by cli.ingest = rows of the input files", ("cli.ingest", None, False)),
    "field_rows": ("valued rows from emit_divergence_field = resolution^2",
                   ("cli.emit_divergence_field", None, False)),
}


def cross_checks(tracing, spans, ops):
    results = []
    for key, (claim, (name, parent, grid_only)) in CROSS_CHECKS.items():
        expected = {i: op.meta[key] for i, op in enumerate(ops) if key in op.meta}
        if not expected:
            continue
        observed = tracing.work_by_op(spans, name, parent, grid_only)
        got = {i: observed.get(i, 0) for i in expected}
        results.append({"check": claim, "expected": sum(expected.values()),
                        "observed": sum(got.values()), "holds": got == expected})
    return results


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    threads = str(os.cpu_count() or 1)
    for var in BLAS_VARS:  # before numpy is imported, here and in every child
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)

    rounds, imports = [], []
    for _ in range(1 if args.smoke else SETUP_ROUNDS):
        start = time.perf_counter()
        imports.append(fresh_import_seconds(threads))
        import numpy as np

        import workloads

        wl = workloads.WORKLOADS[args.workload](Library(), workdir, args.smoke)
        wl.setup(np.random.default_rng(args.seed))
        wl.warm_up()
        rounds.append(time.perf_counter() - start)

    import tracing

    tracer = tracing.Tracer() if args.trace else None
    records, traced_ops = [], []
    cycles = 0
    start = time.perf_counter()
    while cycles == 0 or time.perf_counter() - start < args.seconds:
        for op in wl.cycle():
            records.append(execute(op, None))
            if tracer is not None:
                traced_ops.append(op)
                op_id = len(traced_ops) - 1
                records.append(execute(op, (tracer, op_id, False)))
                if op.collect is None:  # in-process: an untimed pass for peak allocations
                    try:
                        op.run((tracer, op_id, True))
                    except Exception:  # already counted by the timed passes
                        pass
        cycles += 1
    elapsed = time.perf_counter() - start

    attempted = len(records)
    failures = [r for r in records if r["failure"]]
    plain = [r for r in records if not r["traced"]]
    latencies = [r["latency"] for r in plain]
    tail_value, tail_pct, beyond = tail(latencies)
    by_kind = {}
    for r in plain:
        by_kind.setdefault(r["kind"], []).append(r["latency"])
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "measured_s": elapsed, "cycles": cycles, "reports": attempted,
        "failures": [{"kind": r["kind"], "failure": r["failure"]} for r in failures[:5]],
        "setup_rounds_s": rounds, "fresh_import_s": imports,
        "latency_tail": {"percentile": tail_pct, "samples_beyond": beyond, "samples": len(latencies)},
        "latency_p50_by_kind_s": {k: statistics.median(v) for k, v in by_kind.items()},
        "latencies_s": [round(x, 6) for x in latencies],
        "machine": machine_record(threads),
    }

    if tracer is None:
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli-files" else resource.RUSAGE_SELF
        ok = len(plain) - sum(1 for r in plain if r["failure"])
        metrics = {
            "setup_s": metric(statistics.median(rounds), "s"),
            "throughput_rps": metric(ok / sum(latencies), "1/s"),
            "latency_p50_s": metric(statistics.median(latencies), "s"),
            "latency_tail_s": metric(tail_value, "s"),
            "peak_rss_mib": metric(resource.getrusage(usage).ru_maxrss / 1024.0, "MiB"),
            "success_rate": metric(100.0 * (attempted - len(failures)) / attempted, "%"),
        }
    else:
        spans_path = workdir / f"spans-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        checks = cross_checks(tracing, tracer.spans, traced_ops)
        for check in checks:
            if not check["holds"]:
                print(f"cross-check no longer holds: {check}", file=sys.stderr)
        traced_s = sum(r["latency"] for r in records if r["traced"])
        layers = tracing.summarize(tracer.spans, tracer.peaks, len(traced_ops))
        metrics = {name: metric(value, unit) for name, (value, unit) in layers.items()}
        metrics["cli.import_s"] = metric(statistics.median(imports), "s")
        for sub in SUBCOMMANDS:
            times = by_kind.get(f"cli/{sub}")
            p50 = statistics.median(times) if times else 0.0
            metrics[f"cli.subcommand.{sub}.p50_s"] = metric(p50, "s")
        metrics["trace.overhead_pct"] = metric(100.0 * (traced_s / sum(latencies) - 1.0), "%")
        metrics["error_rate"] = metric(len(failures) / attempted, "ratio")
        metrics["crosscheck.failed"] = metric(sum(1 for c in checks if not c["holds"]), "count")
        detail["cross_checks"] = checks
        detail["spans_file"] = str(spans_path.relative_to(ROOT))

    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process; one table."""
    results = {}
    print(f"{'workload':<16} {'trace':<5} {'metric':<48} {'value':>14} unit")
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            cmd += ["--smoke"] if args.smoke else []
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or len(lines) < 2:
                print(f"{workload} --trace {trace} failed:\n{out.stderr}", file=sys.stderr)
                return 1
            detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
            results[f"{workload}/trace{trace}"] = {"detail": detail, **result}
            for name, m in result["metrics"].items():
                print(f"{workload:<16} {trace:<5} {name:<48} {m['value']:>14.6g} {m['unit']}")
            print(f"{workload:<16} {trace:<5} {'(reports attempted / failed)':<48} "
                  f"{result['attempted']:>8} / {result['failed']}")
            if trace == 0:
                t = detail["latency_tail"]
                print(f"{workload:<16} {trace:<5} {'(latency_tail_s percentile / samples)':<48} "
                      f"{t['percentile']:>8.1f} / {t['samples']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bregman_bv" / "__init__.py").is_file():
        print(f"error: no bregman_bv package at {SRC}; run from the root of a bregman-bv checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
