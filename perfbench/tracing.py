"""Spans around bregman_bv's public calls, recorded from outside the library.

While a traced report runs, :class:`Tracer` replaces the library's public
functions (in every ``bregman_bv`` module that holds a reference to them) and
the ``value`` / ``grad`` / ``grad_conj`` methods of every generator class with
wrappers that record a span: name, start, end, parent span, operation id, a
work count and a note.  The originals are restored afterwards, so untraced
reports run the unmodified library.  Spans stay in memory until
:meth:`Tracer.dump` writes them out as JSON lines.

Peak allocations come from a separate memory pass that keeps no spans:
tracemalloc slows allocation-heavy Python code several times over, so it
never runs while spans are timed.

A wrapper called inside a span of the same name records nothing, so the
recursive ``render_json`` yields one span per report.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
import tracemalloc

import numpy as np

# (module, attribute, span name).  Both conditional reports share one span name.
FUNCTIONS = [
    ("generators", "divergence", "generators.divergence"),
    ("dualspace", "check_samples", "dualspace.check_samples"),
    ("dualspace", "dual_mean", "dualspace.dual_mean"),
    ("dualspace", "primal_variance", "dualspace.primal_variance"),
    ("dualspace", "dual_variance", "dualspace.dual_variance"),
    ("dualspace", "ensemble_distribution", "dualspace.ensemble_distribution"),
    ("decomposition", "decompose", "decomposition.decompose"),
    ("decomposition", "total_variance", "decomposition.total_variance"),
    ("decomposition", "conditional_prediction", "decomposition.conditional"),
    ("decomposition", "conditional_label", "decomposition.conditional"),
    ("decomposition", "ensemble_effect", "decomposition.ensemble_effect"),
    ("oracle", "argmin_to", "oracle.argmin"),
    ("oracle", "argmin_from", "oracle.argmin"),
    ("cli", "ingest", "cli.ingest"),
    ("cli", "emit_divergence_field", "cli.emit_divergence_field"),
    ("cli", "render_json", "cli.render_json"),
]
GENERATOR_METHODS = ("value", "grad", "grad_conj")

# spans whose peak traced allocation (tracemalloc) is recorded
PEAK_SPANS = frozenset({"decomposition.decompose", "dualspace.ensemble_distribution"})

# span fields
NAME, START, END, PARENT, OP, WORK, NOTE = range(7)


def _leading_size(x) -> int:
    return math.prod(np.shape(x)[:-1])


def _work_divergence(args, kwargs, result):
    y, x = args[1], args[2]
    return math.prod(np.broadcast_shapes(np.shape(y)[:-1], np.shape(x)[:-1]))


def _work_rows(args, kwargs, result):
    if hasattr(result, "groups"):
        return sum(s.n for s in result.groups.values())
    return result.n


WORK_COUNTERS = {
    "generators.divergence": _work_divergence,
    "dualspace.ensemble_distribution": lambda a, k, r: r.n,
    "cli.ingest": _work_rows,
    "cli.emit_divergence_field": lambda a, k, r: int(r),
}


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


class Tracer:
    """Records spans of one process; install around each traced report."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._active = {}
        self._op = None
        self._memory = False
        self.peaks = {}  # span name -> largest peak traced allocation, bytes
        self._samples = None  # points of the sample set the current argmin searches over
        self._patches = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, work=None, method=False):
        tracer = self
        spans = self.spans
        stack = self._stack
        active = self._active
        peak = name in PEAK_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active.get(name):
                return fn(*args, **kwargs)
            if tracer._memory:
                if not peak:
                    return fn(*args, **kwargs)
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    used = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peaks[name] = max(tracer.peaks.get(name, 0), used)
            note = None
            if method and tracer._samples is not None and len(args) > 1 and args[1] is tracer._samples:
                note = "samples"
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._op, 0, note]
            previous_samples = tracer._samples
            if name == "oracle.argmin":
                tracer._samples = args[1].points
            spans.append(span)
            stack.append(len(spans) - 1)
            active[name] = active.get(name, 0) + 1
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                active[name] -= 1
                stack.pop()
                tracer._samples = previous_samples
            if work is not None:
                span[WORK] = work(args, kwargs, result)
            elif method:
                span[WORK] = _leading_size(args[1])
            return result

        return traced

    def _install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "bregman_bv" or n.startswith("bregman_bv.")]
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        for mod_name, attr, span_name in FUNCTIONS:
            owner = by_name.get(mod_name)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(span_name, original, WORK_COUNTERS.get(span_name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        generators = by_name.get("generators")
        if generators is not None:
            for cls in _all_subclasses(generators.ConvexGenerator):
                for meth in GENERATOR_METHODS:
                    original = cls.__dict__.get(meth)
                    if original is not None:
                        self._patches.append((cls, meth, original))
                        setattr(cls, meth, self._wrap(f"generators.{meth}", original, method=True))

    def _uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def run(self, op_id, fn, memory=False):
        """Call ``fn()`` with the wrappers installed; spans carry ``op_id``.

        With ``memory`` no spans are kept; instead the peak traced allocation
        of each span named in PEAK_SPANS updates :attr:`peaks`.
        """
        self._op, self._memory = op_id, memory
        self._install()
        try:
            return fn()
        finally:
            self._uninstall()
            self._op, self._memory = None, False

    # -- output ----------------------------------------------------------

    def extend(self, spans, op_id):
        """Append spans recorded in another process, re-numbered under ``op_id``."""
        offset = len(self.spans)
        for span in spans:
            span = list(span)
            span[PARENT] = span[PARENT] + offset if span[PARENT] >= 0 else -1
            span[OP] = op_id
            self.spans.append(span)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _duration(span):
    return span[END] - span[START]


def summarize(spans, peaks, reports: int) -> dict:
    """Per-layer metrics from spans, as means per traced report."""
    children = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]] += _duration(span)
    busy, self_time, work = {}, {}, {}
    for i, span in enumerate(spans):
        name = span[NAME]
        busy[name] = busy.get(name, 0.0) + _duration(span)
        self_time[name] = self_time.get(name, 0.0) + _duration(span) - children[i]
        work[name] = work.get(name, 0) + span[WORK]

    grid_points = refine_evals = 0
    grid_busy = refine_busy = 0.0
    for span in spans:
        parent = span[PARENT]
        if span[NAME] not in ("generators.value", "generators.grad") or parent < 0:
            continue
        if spans[parent][NAME] != "oracle.argmin" or span[NOTE] == "samples":
            continue
        if span[WORK] > 1:
            grid_busy += _duration(span)
            grid_points += span[WORK] if span[NAME] == "generators.value" else 0
        else:
            refine_busy += _duration(span)
            refine_evals += 1 if span[NAME] == "generators.value" else 0

    per = 1.0 / max(reports, 1)
    ens_busy = busy.get("dualspace.ensemble_distribution", 0.0)
    ens_atoms = work.get("dualspace.ensemble_distribution", 0)
    out = {}
    for name in ("divergence", "value", "grad", "grad_conj"):
        key = f"generators.{name}"
        unit = "pairs" if name == "divergence" else "points"
        out[f"{key}.{unit}"] = (work.get(key, 0) * per, "count")
        out[f"{key}.busy_s"] = (busy.get(key, 0.0) * per, "s")
    out["dualspace.ensemble_distribution.atoms"] = (ens_atoms * per, "count")
    out["dualspace.ensemble_distribution.busy_s"] = (ens_busy * per, "s")
    out["dualspace.ensemble_distribution.atoms_per_s"] = (ens_atoms / ens_busy if ens_busy else 0.0, "1/s")
    out["dualspace.ensemble_distribution.peak_alloc_mib"] = (
        peaks.get("dualspace.ensemble_distribution", 0) / 2**20, "MiB")
    for name in ("dual_mean", "primal_variance", "dual_variance", "check_samples"):
        out[f"dualspace.{name}.busy_s"] = (busy.get(f"dualspace.{name}", 0.0) * per, "s")
    out["decomposition.decompose.busy_s"] = (busy.get("decomposition.decompose", 0.0) * per, "s")
    out["decomposition.decompose.self_s"] = (self_time.get("decomposition.decompose", 0.0) * per, "s")
    out["decomposition.decompose.peak_alloc_mib"] = (peaks.get("decomposition.decompose", 0) / 2**20, "MiB")
    out["decomposition.total_variance.busy_s"] = (busy.get("decomposition.total_variance", 0.0) * per, "s")
    out["decomposition.conditional.busy_s"] = (busy.get("decomposition.conditional", 0.0) * per, "s")
    out["decomposition.ensemble_effect.self_s"] = (
        self_time.get("decomposition.ensemble_effect", 0.0) * per, "s")
    out["oracle.argmin.busy_s"] = (busy.get("oracle.argmin", 0.0) * per, "s")
    out["oracle.grid.points"] = (grid_points * per, "count")
    out["oracle.grid.busy_s"] = (grid_busy * per, "s")
    out["oracle.refine.evals"] = (refine_evals * per, "count")
    out["oracle.refine.busy_s"] = (refine_busy * per, "s")
    out["cli.ingest.rows"] = (work.get("cli.ingest", 0) * per, "count")
    out["cli.ingest.busy_s"] = (busy.get("cli.ingest", 0.0) * per, "s")
    out["cli.emit_divergence_field.rows"] = (work.get("cli.emit_divergence_field", 0) * per, "count")
    out["cli.emit_divergence_field.busy_s"] = (busy.get("cli.emit_divergence_field", 0.0) * per, "s")
    out["cli.render_json.busy_s"] = (busy.get("cli.render_json", 0.0) * per, "s")
    return out


def work_by_op(spans, name, parent=None, grid_only=False) -> dict:
    """Summed work of ``name`` spans per op id.

    ``parent`` keeps only spans called directly from a span of that name;
    ``grid_only`` keeps only multi-row generator calls that are not the
    sample-set evaluations an oracle objective makes once.
    """
    totals = {}
    for span in spans:
        if span[NAME] != name:
            continue
        if parent is not None and (span[PARENT] < 0 or spans[span[PARENT]][NAME] != parent):
            continue
        if grid_only and (span[WORK] <= 1 or span[NOTE] == "samples"):
            continue
        totals[span[OP]] = totals.get(span[OP], 0) + span[WORK]
    return totals
