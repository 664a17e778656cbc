"""Brute-force reference minimizers that certify the analytic operators.

The oracles never touch ``grad_conj``: they rebuild the expected-divergence
objectives from the generator primitives (``value`` and ``grad``) and
minimize by exhaustive grid search followed by derivative-free local
refinement.  Results are deterministic for a fixed configuration.  Intended
for desk-scale certification (dimension <= 4).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dualspace import SampleSet, _compositions
from .errors import DomainError
from .generators import ConvexGenerator, FullSpace, OpenBox, OpenSimplex

__all__ = [
    "OracleConfig",
    "argmin_to",
    "argmin_from",
    "fd_gradient",
    "expected_divergence_to",
    "expected_divergence_from",
]

_CHUNK = 1 << 16  # most grid rows per objective call; larger blocks run slower out of cache
_SIMPLEX_FLOOR = 1e-12
_DESCENT_TOLERANCE = 1e-10  # refinement stops once a pass gains less than this
_MAX_PASSES = 200
_FD_STEP = 1e-6


@dataclass(frozen=True)
class OracleConfig:
    """Knob of the grid-search oracles.

    ``grid_resolution`` counts grid points per axis (lattice resolution on
    the simplex).
    """

    grid_resolution: int = 128

    def __post_init__(self):
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be at least 2")


def _objective_to(g: ConvexGenerator, s: SampleSet):
    """phi(z) = sum_i w_i D(z, x_i), rebuilt from value/grad primitives.

    The sample terms that are linear in z are pre-summed once; the search
    itself never touches grad_conj.
    """
    fx = np.asarray(g.value(s.points), dtype=float)
    gx = np.asarray(g.grad(s.points), dtype=float)
    grad_mean = s.weights @ gx
    const = float(s.weights @ (np.sum(gx * s.points, axis=-1) - fx))

    def phi(z):
        z = np.atleast_2d(np.asarray(z, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = g.value(z) - z @ grad_mean + const
        return np.where(np.isfinite(out), out, np.inf)

    return phi


def _objective_from(g: ConvexGenerator, s: SampleSet):
    """psi(z) = sum_i w_i D(x_i, z), rebuilt from value/grad primitives."""
    const = float(s.weights @ np.asarray(g.value(s.points), dtype=float))
    point_mean = s.weights @ s.points

    def psi(z):
        z = np.atleast_2d(np.asarray(z, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gz = np.asarray(g.grad(z), dtype=float)
            out = const - g.value(z) - gz @ point_mean + np.sum(gz * z, axis=-1)
        return np.where(np.isfinite(out), out, np.inf)

    return psi


def expected_divergence_to(g: ConvexGenerator, s: SampleSet, z) -> float:
    """Objective value sum_i w_i D(z, x_i) at one point."""
    return float(_objective_to(g, s)(np.asarray(z, dtype=float))[0])


def expected_divergence_from(g: ConvexGenerator, s: SampleSet, z) -> float:
    """Objective value sum_i w_i D(x_i, z) at one point."""
    return float(_objective_from(g, s)(np.asarray(z, dtype=float))[0])


def _box_bounds(g: ConvexGenerator, s: SampleSet):
    dom = g.domain
    if isinstance(dom, OpenBox):
        width = dom.uppers - dom.lowers
        return dom.lowers + 1e-9 * width, dom.uppers - 1e-9 * width
    if isinstance(dom, FullSpace):
        lo = np.min(s.points, axis=0) - 1.0
        hi = np.max(s.points, axis=0) + 1.0
        if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise ValueError("cannot bracket an unbounded domain without finite samples")
        return lo, hi
    raise ValueError(f"no box bounds for domain kind {dom.kind!r}")


def _box_grid_blocks(axes):
    """Yield the grid in C order as (m, d) blocks of at most ``_CHUNK`` rows.

    Every block holds the whole grid of the most trailing axes that fits in
    ``_CHUNK`` rows, once for each value in a run of the axis before them; the
    axes before that are fixed one combination at a time.  One buffer serves
    every block.
    """
    sizes = [a.size for a in axes]
    split = 0
    while math.prod(sizes[split + 1 :]) > _CHUNK:
        split += 1
    tail = math.prod(sizes[split + 1 :])
    run = min(sizes[split], _CHUNK // tail)
    buffer = np.empty((run * tail, len(axes)))
    for j, m in enumerate(np.meshgrid(*axes[split + 1 :], indexing="ij"), start=split + 1):
        buffer[:, j] = np.tile(m.ravel(), run)
    for lead in itertools.product(*axes[:split]):
        buffer[:, :split] = lead
        for start in range(0, sizes[split], run):
            values = axes[split][start : start + run]
            block = buffer[: values.size * tail]
            block[:, split] = np.repeat(values, tail)
            yield block


def _best_on_grid(objective, blocks):
    """First grid point, in block order, with the lowest objective value."""
    best_val = np.inf
    best_point = None
    for pts in blocks:
        vals = objective(pts)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_point = pts[k].copy()
    if best_point is None:
        raise DomainError("no grid point with a finite objective value")
    return best_point, best_val


def _simplex_lattice(dim: int, resolution: int):
    """Interior barycentric lattice: compositions of `resolution` into `dim` positive parts."""
    return (_compositions(dim, resolution - dim) + 1) / float(resolution)


def _golden_section(fun, a, b, xtol=1e-13, max_iter=120):
    """Deterministic golden-section minimization on [a, b]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(max_iter):
        if b - a <= xtol * max(1.0, abs(a), abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (c, fc) if fc < fd else (d, fd)


def _refine(objective, z, best, moves, lo, hi, step):
    """Golden-section passes over ``moves`` until a pass gains less than ``_DESCENT_TOLERANCE``.

    A move ``(j, j)`` sets coordinate j within one grid step of its value and
    inside ``[lo, hi]`` (box grids).  A move ``(i, j)``, ``i < j``, shifts mass
    t, ``|t| <= step[i]``, from coordinate j to coordinate i and keeps both
    above ``_SIMPLEX_FLOOR`` (simplex lattice).
    """
    z = np.array(z, dtype=float)

    def moved(i, j, t):
        p = z.copy()
        if i == j:
            p[j] = t
        else:
            p[i] += t
            p[j] -= t
        return p

    for _ in range(_MAX_PASSES):
        before = best
        for i, j in moves:
            if i == j:
                a, b = max(lo[j], z[j] - step[j]), min(hi[j], z[j] + step[j])
            else:
                a, b = max(-step[i], _SIMPLEX_FLOOR - z[i]), min(step[i], z[j] - _SIMPLEX_FLOOR)
                if a >= b:
                    continue
            t, val = _golden_section(lambda t: float(objective(moved(i, j, t)[None, :])[0]), a, b)
            if val < best:
                best = val
                z = moved(i, j, t)
        if before - best < _DESCENT_TOLERANCE:
            break
    return z


def _argmin(g: ConvexGenerator, s: SampleSet, cfg: OracleConfig, objective):
    r = cfg.grid_resolution
    d = g.dim
    if isinstance(g.domain, OpenSimplex):
        pts = _simplex_lattice(d, r)
        blocks = (pts[start : start + _CHUNK] for start in range(0, len(pts), _CHUNK))
        moves = list(itertools.combinations(range(d), 2))
        lo = hi = None
        step = np.full(d, 1.0 / r)
    else:
        lo, hi = _box_bounds(g, s)
        blocks = _box_grid_blocks([np.linspace(lo[j], hi[j], r) for j in range(d)])
        moves = [(j, j) for j in range(d)]
        step = (hi - lo) / (r - 1)
    z, best = _best_on_grid(objective, blocks)
    return _refine(objective, z, best, moves, lo, hi, step)


def argmin_to(g: ConvexGenerator, s: SampleSet, cfg: OracleConfig | None = None):
    """Brute-force minimizer of z -> sum_i w_i D(z, x_i).

    Reference for the dual mean; agreement is judged on objective values,
    not argument locations, to tolerate flat regions near the optimum.
    """
    cfg = cfg or OracleConfig()
    return _argmin(g, s, cfg, _objective_to(g, s))


def argmin_from(g: ConvexGenerator, s: SampleSet, cfg: OracleConfig | None = None):
    """Brute-force minimizer of z -> sum_i w_i D(x_i, z); reference for the primal mean."""
    cfg = cfg or OracleConfig()
    return _argmin(g, s, cfg, _objective_from(g, s))


def fd_gradient(g: ConvexGenerator, x):
    """Central finite differences (step ``_FD_STEP``) of the generator value at an interior point.

    Requires the point to sit at least 10 steps away from the domain
    boundary.  On the simplex the probes leave the constraint plane, so the
    result approximates the gradient of the unconstrained extension; compare
    against ``grad`` through coordinate differences (the simplex gauge).
    """
    x = np.asarray(x, dtype=float)
    h = _FD_STEP
    dom = g.domain
    if isinstance(dom, OpenBox):
        margin = min(np.min(x - dom.lowers), np.min(dom.uppers - x))
    elif isinstance(dom, OpenSimplex):
        margin = float(np.min(x))
    else:
        margin = np.inf
    if margin < 10.0 * h:
        raise DomainError("point too close to the domain boundary for finite differences")
    eye = np.eye(x.size)
    plus = g.value(x[None, :] + h * eye)
    minus = g.value(x[None, :] - h * eye)
    return (plus - minus) / (2.0 * h)
