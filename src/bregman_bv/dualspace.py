"""Empirical distributions and their primal/dual means, variances and averages.

Expectations are exact weighted sums over finite sample sets, so the
decomposition identities built on top hold to floating-point precision.
The dual mean is the primal form of the mean taken in gradient coordinates:
it minimizes the expected divergence *to* the samples, while the ordinary
(primal) mean minimizes the expected divergence *from* them.
"""

from __future__ import annotations

import itertools
import math
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import DomainError, EnumerationCapError
from .generators import ConvexGenerator, divergence

__all__ = [
    "SampleSet",
    "GroupedSampleSet",
    "check_samples",
    "primal_mean",
    "dual_mean",
    "primal_variance",
    "dual_variance",
    "primal_average",
    "dual_average",
    "ensemble_distribution",
    "ENSEMBLE_ATOM_CAP",
]

ENSEMBLE_ATOM_CAP = 1_000_000


def _normalized(weights, n: int, what: str):
    """Validate ``n`` weights, one per entry of ``what``, and scale them to sum to one.

    Zero, negative and non-finite weights are rejected by index.  The weights
    are divided by their maximum first only when their plain sum overflows,
    so ordinary inputs keep the arithmetic ``weights / sum(weights)``.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise ValueError(f"weights must give one value for each of the {n} {what}")
    bad = np.flatnonzero(~np.isfinite(weights) | (weights <= 0.0)).tolist()
    if bad:
        raise ValueError(f"zero, negative or non-finite weights in {what} {bad}")
    with np.errstate(over="ignore"):
        total = np.sum(weights)
    if not np.isfinite(total):
        weights = weights / np.max(weights)
        total = np.sum(weights)
    return weights / total


class SampleSet:
    """Weighted finite collection of points: an empirical distribution.

    Weights must be positive and are normalized to sum to one.  Points are
    stored as a read-only ``(n, d)`` array; instances are immutable.
    """

    def __init__(self, points, weights=None):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 1:
            raise ValueError("points must form a nonempty (n, d) array")
        bad = np.flatnonzero(~np.all(np.isfinite(points), axis=1)).tolist()
        if bad:
            raise ValueError(f"non-finite coordinates in data rows {bad}")
        if weights is None:
            weights = np.full(points.shape[0], 1.0 / points.shape[0])
        else:
            weights = _normalized(weights, points.shape[0], "data rows")
        self.points = points
        self.weights = weights
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @classmethod
    def _over(cls, points, weights) -> "SampleSet":
        """A set over arrays that already hold a set's invariants: no copy, no renormalization."""
        s = cls.__new__(cls)
        s.points, s.weights = points, weights
        return s

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"SampleSet(n={self.n}, dim={self.dim})"


class GroupedSampleSet:
    """Sample sets partitioned by a discrete conditioning label.

    ``group_weights`` are the mixture weights of the groups (uniform when
    omitted); every group must be nonempty and share one dimension.

    The mixture over all groups is built once, at construction: its rows are
    the groups' rows in key order, so each group holds one contiguous row
    range of it, and its weights are ``group_weight * weight`` renormalized.
    The rows are stored once: each set in ``groups`` keeps the weights it was
    given, and its points are a view of its rows of the mixture.  Instances
    are immutable: ``groups`` and ``group_weights`` are read-only mappings and
    every stored array is read-only.
    """

    def __init__(self, groups: Mapping, group_weights=None):
        if not groups:
            raise ValueError("grouped sample set needs at least one group")
        keys, sets = list(groups), list(groups.values())
        if len({s.dim for s in sets}) != 1:
            raise ValueError("all groups must share one dimension")
        if group_weights is None:
            weights = np.full(len(keys), 1.0 / len(keys))
        else:
            if isinstance(group_weights, Mapping):
                group_weights = [group_weights[k] for k in keys]
            weights = _normalized(group_weights, len(keys), "groups")
        weights.setflags(write=False)
        self._flat = SampleSet(
            np.concatenate([s.points for s in sets], axis=0),
            np.concatenate([w * s.weights for w, s in zip(weights, sets)]),
        )
        self._weights = weights
        self._offsets = np.cumsum([0] + [s.n for s in sets])
        self._offsets.setflags(write=False)
        self._rows = tuple(map(slice, self._offsets[:-1].tolist(), self._offsets[1:].tolist()))
        self._groups = {
            k: SampleSet._over(self._flat.points[r], s.weights) for k, r, s in zip(keys, self._rows, sets)
        }
        self._group_weights = dict(zip(keys, weights))

    @property
    def groups(self) -> Mapping:
        return MappingProxyType(self._groups)

    @property
    def group_weights(self) -> Mapping:
        return MappingProxyType(self._group_weights)

    @property
    def dim(self) -> int:
        return self._flat.dim

    def keys(self):
        return self.groups.keys()

    def items(self):
        return self.groups.items()

    def weight(self, key) -> float:
        return self._group_weights[key]

    def flatten(self) -> SampleSet:
        """Mixture distribution over all groups (built once, at construction)."""
        return self._flat

    def __repr__(self) -> str:
        return f"GroupedSampleSet(groups={len(self.groups)}, dim={self.dim})"


def check_samples(g: ConvexGenerator, s: SampleSet, *, allow_boundary: bool = False):
    """Validate every point of ``s`` against the generator's domain.

    Meant for ingestion time; the arithmetic operators below trust their
    inputs and do not re-validate per call.
    """
    if s.dim != g.dim:
        raise DomainError(f"points have dimension {s.dim}, generator expects {g.dim}")
    boundary_ok = allow_boundary and g.boundary_first_args
    mask = g.domain.contains(s.points, allow_boundary=boundary_ok)
    if not np.all(mask):
        bad = np.flatnonzero(~mask).tolist()
        raise DomainError(f"samples {bad} outside the {g.domain.kind} domain")


class _GroupedMoments(NamedTuple):
    """Centers and variances of a grouped sample set on one side of the symmetry."""

    weights: np.ndarray  # (K,) group weights
    centers: np.ndarray  # (K, d) center of each group
    within: np.ndarray  # (K,) variance of each group
    whole_center: np.ndarray  # center of the mixture over all groups
    total: float  # variance of the mixture


class _Side(NamedTuple):
    """One side of the primal/dual symmetry: labels (primal) or predictions (dual).

    The center is the weighted mean taken in the side's coordinates and mapped
    back; it minimizes the expected ``spread(g, x, center)``, which is
    D(x, c) on the primal side and D(c, x) on the dual side.
    """

    role: str
    to_coords: Callable
    from_coords: Callable
    spread: Callable
    boundary_samples: bool

    def center(self, g, s: SampleSet):
        return self.from_coords(g, s.weights @ self.to_coords(g, s.points))

    def variance(self, g, s: SampleSet) -> float:
        if s.n == 1 or np.all(s.points == s.points[0]):
            return 0.0
        return float(s.weights @ self.spread(g, s.points, self.center(g, s)))

    def grouped(self, g, grouped: GroupedSampleSet) -> _GroupedMoments:
        """Validate the rows of ``grouped``, then take every center and variance in one pass.

        All rows are mapped to the side's coordinates once.  Each group's
        center is the dot of its weights with its contiguous row range,
        mapped back one group at a time: a batched Mahalanobis solve rounds
        unlike single-row ones.  The spread of every row to its own group's
        center is one divergence call, and the mixture's center reuses the
        mapped rows.  Every value is bit-identical to :meth:`center` and
        :meth:`variance` applied to each group and to ``grouped.flatten()``,
        exact zeros for constant groups included.
        """
        flat = grouped.flatten()
        check_samples(g, flat, allow_boundary=self.boundary_samples)
        coords = self.to_coords(g, flat.points)
        rows, local = grouped._rows, [s.weights for s in grouped.groups.values()]
        # a one-row group is mapped alone: a one-row matrix product is a BLAS
        # matrix-vector product, which rounds unlike that row of the batch
        sums = [w @ (coords[r] if w.size > 1 else self.to_coords(g, flat.points[r]))
                for r, w in zip(rows, local)]
        whole_center = self.from_coords(g, flat.weights @ coords)
        del coords  # freed before the spreads allocate theirs, for peak memory
        centers = np.asarray([self.from_coords(g, row) for row in sums])
        starts, sizes = grouped._offsets[:-1], np.diff(grouped._offsets)
        spread = self.spread(g, flat.points, np.repeat(centers, sizes, axis=0))
        # moved[i]: where row i differs from row i - 1; a set is constant when no row moved
        moved = np.zeros(flat.points.shape, dtype=bool)
        moved[1:] = flat.points[1:] != flat.points[:-1]
        whole_constant = not moved.any()
        moved[starts] = False
        constant = ~np.logical_or.reduceat(moved, starts, axis=0).any(axis=1)
        within = np.array([
            0.0 if same else float(w @ spread[r]) for same, r, w in zip(constant, rows, local)
        ])
        total = 0.0
        if not whole_constant:
            total = float(flat.weights @ self.spread(g, flat.points, whole_center))
        return _GroupedMoments(grouped._weights, centers, within, whole_center, total)

    def average(self, g, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[0] < 1:
            raise ValueError("need at least one point")
        return self.from_coords(g, np.mean(self.to_coords(g, points), axis=0))


_PRIMAL = _Side(
    role="label",
    to_coords=lambda g, x: x,
    from_coords=lambda g, x: x,
    spread=lambda g, x, c, validate=False: divergence(g, x, c, validate=validate),
    boundary_samples=True,
)
_DUAL = _Side(
    role="prediction",
    to_coords=lambda g, x: g.grad(x),
    from_coords=lambda g, xstar: g.grad_conj(xstar),
    spread=lambda g, x, c, validate=False: divergence(g, c, x, validate=validate),
    boundary_samples=False,
)


def _side(mode: str) -> _Side:
    if mode not in ("primal", "dual"):
        raise ValueError("mode must be 'primal' or 'dual'")
    return _PRIMAL if mode == "primal" else _DUAL


def primal_mean(s: SampleSet):
    """Weighted arithmetic mean; minimizes the expected divergence from the samples."""
    return _PRIMAL.center(None, s)


def dual_mean(g: ConvexGenerator, s: SampleSet):
    """Mean in gradient coordinates, mapped back to the primal domain.

    Computes grad_conj(sum_i w_i grad(x_i)); minimizes the expected
    divergence to the samples.  For the simplex entropy generator this is
    the normalized geometric mean.
    """
    return _DUAL.center(g, s)


def primal_variance(g: ConvexGenerator, s: SampleSet) -> float:
    """Expected divergence from the samples to their primal mean.

    Exactly zero for a constant sample set.
    """
    return _PRIMAL.variance(g, s)


def dual_variance(g: ConvexGenerator, s: SampleSet) -> float:
    """Expected divergence from the dual mean to the samples.

    Exactly zero for a constant sample set.
    """
    return _DUAL.variance(g, s)


def primal_average(points):
    """Plain arithmetic mean of a batch of points."""
    return _PRIMAL.average(None, points)


def dual_average(g: ConvexGenerator, points):
    """Arithmetic mean taken in gradient coordinates, mapped back.

    For the simplex entropy generator this is the normalized geometric mean
    of the points.
    """
    return _DUAL.average(g, points)


def _compositions(parts: int, total: int):
    """Every way to write ``total`` as an ordered sum of ``parts`` nonnegative integers.

    Stars and bars: one int64 row per choice of ``parts - 1`` bar positions
    among ``total + parts - 1`` slots, in lexicographic order of the bar
    positions (so the last row is ``[total, 0, ..., 0]``).
    """
    slots = total + parts - 1
    rows = math.comb(slots, parts - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), parts - 1)),
        dtype=np.int64,
        count=rows * (parts - 1),
    ).reshape(rows, parts - 1)
    bounds = np.column_stack(
        [np.full(rows, -1, dtype=np.int64), bars, np.full(rows, slots, dtype=np.int64)]
    )
    return np.diff(bounds, axis=1) - 1


def ensemble_distribution(
    g: ConvexGenerator,
    s: SampleSet,
    n: int,
    mode: str,
    *,
    cap: int = ENSEMBLE_ATOM_CAP,
    mc_draws: int | None = None,
    seed: int | None = None,
) -> SampleSet:
    """Distribution of the n-fold i.i.d. average of draws from ``s``.

    Exact by default: enumerates multisets of atoms with multinomial
    weights and maps each through the primal or dual average.  Weights are
    computed in log space; atoms whose weight underflows to zero add nothing
    to any expectation and are left out.  When the multiset count exceeds
    ``cap``, raises; pass ``mc_draws`` (with a seed) to fall back to Monte
    Carlo sampling of ensembles instead.
    """
    side = _side(mode)
    n = int(n)
    if n < 1:
        raise ValueError("ensemble size must be >= 1")
    if mc_draws is not None and int(mc_draws) < 1:
        raise ValueError(f"mc_draws must be >= 1, got {mc_draws}")
    if n == 1:
        return s
    coords = side.to_coords(g, s.points)
    if mc_draws is not None:
        if seed is None:
            raise ValueError("Monte Carlo ensembling requires an explicit seed")
        rng = np.random.default_rng(int(seed))
        idx = rng.choice(s.n, size=(int(mc_draws), n), p=s.weights)
        return SampleSet(side.from_coords(g, np.mean(coords[idx], axis=1)))
    total = math.comb(n + s.n - 1, n)
    if total > cap:
        raise EnumerationCapError(
            f"exact ensembling needs {total} atoms (> cap {cap}); "
            "pass mc_draws and a seed for the Monte Carlo fallback"
        )
    # reversed, the rows follow itertools.combinations_with_replacement order
    counts = _compositions(s.n, n)[::-1]
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    log_weights = log_fact[n] - np.sum(log_fact[counts], axis=1) + counts @ np.log(s.weights)
    weights = np.exp(log_weights - np.max(log_weights))
    kept = weights > 0.0
    return SampleSet(side.from_coords(g, (counts @ coords)[kept] / n), weights[kept])
