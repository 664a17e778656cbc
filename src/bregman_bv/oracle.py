"""Brute-force reference minimizers that certify the analytic operators.

The oracles never touch ``grad_conj``: they rebuild the expected-divergence
objectives from the generator primitives (``value`` and ``grad``) and
minimize by exhaustive grid search followed by derivative-free local
refinement.  Results are deterministic for a fixed configuration.  Intended
for desk-scale certification (dimension <= 4).
"""

from __future__ import annotations

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

_CHUNK = 1 << 20
_SIMPLEX_FLOOR = 1e-12


@dataclass(frozen=True)
class OracleConfig:
    """Knobs of the grid-search oracles.

    ``grid_resolution`` counts grid points per axis (lattice resolution on
    the simplex); refinement stops once a full pass improves the objective
    by less than ``descent_tolerance`` or after ``max_iters`` passes.
    """

    grid_resolution: int = 128
    descent_tolerance: float = 1e-10
    fd_step: float = 1e-6
    max_iters: int = 200

    def __post_init__(self):
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be at least 2")
        if self.descent_tolerance <= 0 or self.fd_step <= 0 or self.max_iters <= 0:
            raise ValueError("oracle configuration values must be positive")


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
    """Yield the grid as (m, d) blocks, reusing one buffer per first-axis slab."""
    d = len(axes)
    if d == 1:
        yield axes[0][:, None]
        return
    tail_size = int(np.prod([a.size for a in axes[1:]]))
    if tail_size <= _CHUNK:
        tail = np.stack([m.ravel() for m in np.meshgrid(*axes[1:], indexing="ij")], axis=-1)
        block = np.empty((tail_size, d))
        block[:, 1:] = tail
        for v in axes[0]:
            block[:, 0] = v
            yield block
    else:
        shape = tuple(a.size for a in axes)
        total = int(np.prod(shape))
        for start in range(0, total, _CHUNK):
            flat = np.arange(start, min(start + _CHUNK, total))
            multi = np.unravel_index(flat, shape)
            yield np.column_stack([axes[j][multi[j]] for j in range(d)])


def _best_on_box_grid(objective, lo, hi, resolution):
    axes = [np.linspace(lo[j], hi[j], resolution) for j in range(lo.size)]
    best_val = np.inf
    best_point = None
    for pts in _box_grid_blocks(axes):
        vals = objective(pts)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_point = pts[k].copy()
    return best_point, best_val


def _simplex_lattice(dim: int, resolution: int):
    """Interior barycentric lattice: compositions of `resolution` into `dim` positive parts."""
    return (_compositions(dim, resolution - dim) + 1) / float(resolution)


def _best_on_simplex_grid(objective, dim, resolution):
    pts = _simplex_lattice(dim, resolution)
    best_val = np.inf
    best_point = None
    for start in range(0, len(pts), _CHUNK):
        chunk = pts[start : start + _CHUNK]
        vals = objective(chunk)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_point = chunk[k]
    return best_point, best_val


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


def _refine_box(objective, z, best, lo, hi, step, cfg: OracleConfig):
    z = np.array(z, dtype=float)
    d = z.size

    for _ in range(cfg.max_iters):
        before = best
        for j in range(d):
            a = max(lo[j], z[j] - step[j])
            b = min(hi[j], z[j] + step[j])

            def line(t, j=j):
                trial = z.copy()
                trial[j] = t
                return float(objective(trial[None, :])[0])

            t, val = _golden_section(line, a, b)
            if val < best:
                best = val
                z[j] = t
        if before - best < cfg.descent_tolerance:
            break
    return z, best


def _refine_simplex(objective, z, best, step, cfg: OracleConfig):
    z = np.array(z, dtype=float)
    d = z.size

    for _ in range(cfg.max_iters):
        before = best
        for i in range(d):
            for j in range(i + 1, d):
                a = max(-step, _SIMPLEX_FLOOR - z[i])
                b = min(step, z[j] - _SIMPLEX_FLOOR)
                if a >= b:
                    continue

                def line(t, i=i, j=j):
                    trial = z.copy()
                    trial[i] += t
                    trial[j] -= t
                    return float(objective(trial[None, :])[0])

                t, val = _golden_section(line, a, b)
                if val < best:
                    best = val
                    z[i] += t
                    z[j] -= t
        if before - best < cfg.descent_tolerance:
            break
    return z, best


def _argmin(g: ConvexGenerator, s: SampleSet, cfg: OracleConfig, objective):
    if isinstance(g.domain, OpenSimplex):
        z, best = _best_on_simplex_grid(objective, g.dim, cfg.grid_resolution)
        step = 1.0 / cfg.grid_resolution
        z, _ = _refine_simplex(objective, z, best, step, cfg)
        return z
    lo, hi = _box_bounds(g, s)
    z, best = _best_on_box_grid(objective, lo, hi, cfg.grid_resolution)
    step = (hi - lo) / (cfg.grid_resolution - 1)
    z, _ = _refine_box(objective, z, best, lo, hi, step, cfg)
    return z


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


def fd_gradient(g: ConvexGenerator, x, cfg: OracleConfig | None = None):
    """Central finite differences of the generator value at an interior point.

    Requires the point to sit at least 10 steps away from the domain
    boundary.  On the simplex the probes leave the constraint plane, so the
    result approximates the gradient of the unconstrained extension; compare
    against ``grad`` through coordinate differences (the simplex gauge).
    """
    cfg = cfg or OracleConfig()
    x = np.asarray(x, dtype=float)
    h = cfg.fd_step
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
