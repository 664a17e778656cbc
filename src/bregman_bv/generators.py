"""Convex generators and the Bregman divergences they induce.

A generator is a strictly convex differentiable function F together with its
domain, its gradient map and the inverse of that map.  Each generator induces
the divergence

    D(y, x) = F(y) - F(x) - <grad F(x), y - x>,

which is nonnegative, zero exactly on the diagonal, convex in its first
argument and in general asymmetric.  ``value``, ``grad``, ``grad_conj`` and
``divergence_kernel`` are vectorized over leading axes: arrays of shape
``(..., d)`` give values of shape ``(...)`` and gradients of shape ``(..., d)``.
Squared Euclidean, Mahalanobis and the simplex entropy evaluate D in closed
form; separable generators use the formula above.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, InversionError

__all__ = [
    "Domain",
    "FullSpace",
    "OpenBox",
    "OpenSimplex",
    "ConvexGenerator",
    "SquaredEuclidean",
    "Mahalanobis",
    "NegativeEntropySimplex",
    "Piece",
    "SeparableCustom",
    "make_generator",
    "divergence",
    "dual_divergence",
    "TriangleExpansion",
    "triangle_expansion",
]


def _rowdot(a, b):
    """Inner products over the trailing axis (faster than ``np.sum(a * b, axis=-1)``)."""
    return np.einsum("...i,...i->...", a, b)


class Domain:
    """Open convex subset of R^d on which a generator is differentiable."""

    kind = ""

    def __init__(self, dim: int):
        dim = int(dim)
        if dim <= 0:
            raise ValueError("domain dimension must be a positive integer")
        self.dim = dim

    def contains(self, x, allow_boundary: bool = False):
        """Vectorized membership test over the trailing coordinate axis."""
        raise NotImplementedError

    def validate(self, x, *, allow_boundary: bool = False, role: str = "point"):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.dim:
            raise DomainError(f"{role}: expected trailing dimension {self.dim}, got shape {x.shape}")
        if not np.all(self.contains(x, allow_boundary=allow_boundary)):
            raise DomainError(f"{role} outside the {self.kind} domain")

    def validate_second(self, x):
        """Validation for points used in second (gradient) argument position."""
        self.validate(x, role="second divergence argument")


class FullSpace(Domain):
    """All of R^d."""

    kind = "full-space"

    def contains(self, x, allow_boundary: bool = False):
        x = np.asarray(x, dtype=float)
        return np.all(np.isfinite(x), axis=-1)


class OpenBox(Domain):
    """Product of finite open intervals (lowers[i], uppers[i])."""

    kind = "open-box"

    def __init__(self, lowers, uppers):
        lowers = np.atleast_1d(np.asarray(lowers, dtype=float))
        uppers = np.atleast_1d(np.asarray(uppers, dtype=float))
        if lowers.shape != uppers.shape or lowers.ndim != 1:
            raise ValueError("box bounds must be two vectors of equal length")
        if not (np.all(np.isfinite(lowers)) and np.all(np.isfinite(uppers))):
            raise ValueError("box bounds must be finite")
        if not np.all(lowers < uppers):
            raise ValueError("each box interval needs lower < upper")
        super().__init__(lowers.size)
        self.lowers = lowers
        self.uppers = uppers
        self.lowers.setflags(write=False)
        self.uppers.setflags(write=False)

    def contains(self, x, allow_boundary: bool = False):
        x = np.asarray(x, dtype=float)
        if allow_boundary:
            inside = (x >= self.lowers) & (x <= self.uppers)
        else:
            inside = (x > self.lowers) & (x < self.uppers)
        # the bounds are finite, so NaN and infinite coordinates fail both comparisons
        return np.all(inside, axis=-1)


class OpenSimplex(Domain):
    """Strictly positive vectors summing to one, within a fixed tolerance.

    Membership allows the sum to deviate from 1 by at most ``sum_tolerance``.
    Second divergence arguments must additionally stay ``second_arg_floor``
    away from the boundary; closer points raise instead of being clamped,
    since clamping would silently corrupt the identity checks built on top.
    """

    kind = "open-simplex"
    sum_tolerance = 1e-9
    second_arg_floor = 1e-12

    def contains(self, x, allow_boundary: bool = False):
        x = np.asarray(x, dtype=float)
        if allow_boundary:
            positive = np.all(x >= 0.0, axis=-1)
        else:
            positive = np.all(x > 0.0, axis=-1)
        # NaN fails the sign test; +inf, or a sum beyond the float range, is off the plane
        with np.errstate(over="ignore", invalid="ignore"):
            on_plane = np.abs(np.sum(x, axis=-1) - 1.0) <= self.sum_tolerance
        return positive & on_plane

    def validate_second(self, x):
        self.validate(x, role="second divergence argument")
        if np.any(np.asarray(x, dtype=float) < self.second_arg_floor):
            raise DomainError(
                "second divergence argument has a coordinate below "
                f"{self.second_arg_floor:g}; refusing to clamp near the simplex boundary"
            )


class ConvexGenerator:
    """Strictly convex differentiable function with its gradient maps.

    Subclasses provide ``value`` (F), ``grad`` (the gradient of F) and
    ``grad_conj`` (the gradient of the convex conjugate, which inverts
    ``grad``).  Instances are immutable after construction and safe to share
    between threads.
    """

    #: whether divergence first arguments may sit on the domain boundary
    boundary_first_args = False

    name: str
    domain: Domain

    @property
    def dim(self) -> int:
        return self.domain.dim

    def value(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def grad_conj(self, xstar):
        raise NotImplementedError

    def divergence_kernel(self, y, x):
        """D(y, x) row-wise for float arrays, without validation.

        Callers wrap the call in ``np.errstate`` and check the result for
        non-finite values, which mark overflow near the domain boundary.
        This generic form is F(y) - F(x) - <grad F(x), y - x>; a coordinate
        where y and x agree adds exactly 0 to the inner product, also where
        the gradient is infinite on the boundary.
        """
        gap = self.value(y) - self.value(x)
        step = y - x
        slope = self.grad(x)
        out = gap - _rowdot(slope, step)
        if not np.all(np.isfinite(out)):
            # rare, so the common path pays no np.where
            out = gap - _rowdot(np.where(step == 0.0, 0.0, slope), step)
        return out


class SquaredEuclidean(ConvexGenerator):
    """F(x) = ||x||^2 on R^d; the induced divergence is ||y - x||^2."""

    def __init__(self, dim: int):
        self.name = "squared-euclidean"
        self.domain = FullSpace(dim)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.sum(x * x, axis=-1)

    def grad(self, x):
        return 2.0 * np.asarray(x, dtype=float)

    def grad_conj(self, xstar):
        return 0.5 * np.asarray(xstar, dtype=float)

    def divergence_kernel(self, y, x):
        diff = y - x
        return _rowdot(diff, diff)


class Mahalanobis(ConvexGenerator):
    """F(x) = x^T A x for symmetric positive-definite A.

    The induced divergence is the squared Mahalanobis distance
    (y - x)^T A (y - x).  Positive definiteness is checked once at
    construction (a Cholesky factorization must exist); ``grad_conj``
    solves 2 A z = x* for z.
    """

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("Mahalanobis matrix must be square")
        with np.errstate(over="ignore", invalid="ignore"):
            # not finite where an entry is not, or where a sum or difference overflows
            doubled = matrix + matrix.T
            skew = np.abs(matrix - matrix.T)
        if not np.all(np.isfinite(doubled)):
            raise ValueError("Mahalanobis matrix must be finite")
        if not np.all(skew <= 1e-12 * max(1.0, float(np.max(np.abs(matrix))))):
            raise ValueError("Mahalanobis matrix must be symmetric")
        matrix = 0.5 * doubled
        try:
            np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError as exc:
            raise ValueError("Mahalanobis matrix must be positive definite") from exc
        self.name = "mahalanobis"
        self.domain = FullSpace(matrix.shape[0])
        self._matrix = matrix
        self._matrix.setflags(write=False)

    @property
    def matrix(self):
        return self._matrix

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.sum((x @ self._matrix) * x, axis=-1)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return 2.0 * (x @ self._matrix)

    def grad_conj(self, xstar):
        xstar = np.asarray(xstar, dtype=float)
        flat = xstar.reshape(-1, self.dim)
        solved = np.linalg.solve(self._matrix, 0.5 * flat.T).T
        return solved.reshape(xstar.shape)

    def divergence_kernel(self, y, x):
        diff = y - x
        return _rowdot(diff @ self._matrix, diff)


class NegativeEntropySimplex(ConvexGenerator):
    """F(x) = sum_i x_i log x_i on the open probability simplex.

    The induced divergence is the Kullback-Leibler divergence.  On the
    simplex the gradient is determined only up to an additive constant (the
    coordinates sum to one), so ``grad`` returns the raw log coordinates and
    ``grad_conj`` is the softmax map; averaging in these dual coordinates is
    the normalized geometric mean.  First arguments may lie on the boundary:
    0 log 0 evaluates to 0, so a one-hot first argument y gives
    D(y, x) = -log x_y.
    """

    boundary_first_args = True

    def __init__(self, dim: int):
        if int(dim) < 2:
            raise ValueError("the simplex generator needs dimension >= 2")
        self.name = "negative-entropy-simplex"
        self.domain = OpenSimplex(dim)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        safe = np.where(x > 0.0, x, 1.0)
        return np.sum(np.where(x > 0.0, x * np.log(safe), 0.0), axis=-1)

    def grad(self, x):
        return np.log(np.asarray(x, dtype=float))

    def grad_conj(self, xstar):
        xstar = np.asarray(xstar, dtype=float)
        shifted = np.exp(xstar - np.max(xstar, axis=-1, keepdims=True))
        return shifted / np.sum(shifted, axis=-1, keepdims=True)

    def divergence_kernel(self, y, x):
        """Generalized KL: sum y log(y / x) - sum y + sum x, with 0 log(0 / x) = 0.

        The last two sums differ by at most the simplex sum tolerance; they
        keep D nonnegative for points that miss the plane by that much.
        log y - log x rather than log(y / x) skips rounding 1 / x_k, so a
        one-hot y gives -log x_k rounded once.
        """
        positive = y > 0.0
        logs = np.log(np.where(positive, y, 1.0)) - np.log(np.where(positive, x, 1.0))
        return _rowdot(y, logs) + np.einsum("...i->...", x - y)


class Piece(NamedTuple):
    """One-dimensional convex piece of a separable generator.

    ``fun`` and ``deriv`` must accept numpy arrays; the interval
    (lower, upper) must be finite and open.
    """

    fun: Callable
    deriv: Callable
    lower: float
    upper: float


def _bisect_increasing(fn, target, lo, hi, *, xtol=1e-12, max_iter=200):
    """Invert a strictly increasing map on [lo, hi] for an array of targets."""
    target = np.asarray(target, dtype=float)
    a = np.full(target.shape, lo)
    b = np.full(target.shape, hi)
    below = np.asarray(fn(a), dtype=float) - target
    above = np.asarray(fn(b), dtype=float) - target
    if np.any(below > 0.0) or np.any(above < 0.0) or not (
        np.all(np.isfinite(below)) and np.all(np.isfinite(above))
    ):
        raise InversionError("dual coordinate outside the gradient image of the piece interval")
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        high = np.asarray(fn(mid), dtype=float) > target
        b = np.where(high, mid, b)
        a = np.where(high, a, mid)
        if np.max(b - a) <= xtol:
            return 0.5 * (a + b)
    raise InversionError(f"bisection did not reach tolerance {xtol:g} in {max_iter} iterations")


class SeparableCustom(ConvexGenerator):
    """Sum of user-supplied one-dimensional convex pieces on an open box.

    Each piece is a :class:`Piece` or a ``(fun, deriv, lower, upper)``
    tuple.  Convexity of each piece is probed at construction: the supplied
    derivative is sampled across the interval and must be finite and
    strictly increasing.  ``grad_conj`` inverts each derivative by
    bracketing bisection (absolute tolerance 1e-12, at most 200 iterations),
    so the user never supplies a second derivative.
    """

    _PROBE_POINTS = 33
    _BRACKET_INSET = 1e-13

    def __init__(self, pieces):
        pieces = [Piece(f, fp, float(lo), float(hi)) for f, fp, lo, hi in pieces]
        if not pieces:
            raise ValueError("separable generator needs at least one piece")
        self.name = "separable-custom"
        self.domain = OpenBox([p.lower for p in pieces], [p.upper for p in pieces])
        for i, piece in enumerate(pieces):
            width = piece.upper - piece.lower
            probe = np.linspace(piece.lower + 1e-6 * width, piece.upper - 1e-6 * width, self._PROBE_POINTS)
            values = np.asarray(piece.fun(probe), dtype=float)
            slopes = np.asarray(piece.deriv(probe), dtype=float)
            if not (np.all(np.isfinite(values)) and np.all(np.isfinite(slopes))):
                raise ValueError(f"piece {i} is not finite on the interior of its interval")
            if not np.all(np.diff(slopes) > 0.0):
                raise ValueError(f"piece {i} has a non-increasing derivative: not strictly convex")
        self._pieces = tuple(pieces)

    @property
    def pieces(self) -> tuple:
        return self._pieces

    def value(self, x):
        x = np.asarray(x, dtype=float)
        total = np.asarray(self._pieces[0].fun(x[..., 0]), dtype=float)
        for i, piece in enumerate(self._pieces[1:], start=1):
            total = total + np.asarray(piece.fun(x[..., i]), dtype=float)
        return total

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        cols = [np.asarray(p.deriv(x[..., i]), dtype=float) for i, p in enumerate(self._pieces)]
        return np.stack(np.broadcast_arrays(*cols), axis=-1)

    def grad_conj(self, xstar):
        xstar = np.asarray(xstar, dtype=float)
        cols = []
        for i, piece in enumerate(self._pieces):
            width = piece.upper - piece.lower
            inset = self._BRACKET_INSET * width
            cols.append(
                _bisect_increasing(
                    piece.deriv, xstar[..., i], piece.lower + inset, piece.upper - inset
                )
            )
        return np.stack(np.broadcast_arrays(*cols), axis=-1)


_CONFIG_GENERATORS = ("squared-euclidean", "mahalanobis", "negative-entropy-simplex", "separable-custom")


def make_generator(spec) -> ConvexGenerator:
    """Build a generator from a config mapping.

    Accepted forms::

        {"generator": "squared-euclidean", "dim": 2}
        {"generator": "mahalanobis", "matrix": [[2, 0], [0, 1]]}
        {"generator": "mahalanobis", "matrix_file": "A.csv"}   # CSV, no header
        {"generator": "negative-entropy-simplex", "dim": 2}
        {"generator": "separable-custom", "pieces": [(f, fp, lo, hi), ...]}
    """
    if not isinstance(spec, dict):
        raise ValueError("generator spec must be a mapping with a 'generator' key")
    kind = spec.get("generator")
    if kind == "squared-euclidean":
        return SquaredEuclidean(_require_dim(spec))
    if kind == "mahalanobis":
        if "matrix" in spec:
            matrix = spec["matrix"]
        elif "matrix_file" in spec:
            matrix = _read_matrix(spec["matrix_file"])
        else:
            raise ValueError("mahalanobis spec needs 'matrix' or 'matrix_file'")
        return Mahalanobis(matrix)
    if kind == "negative-entropy-simplex":
        return NegativeEntropySimplex(_require_dim(spec))
    if kind == "separable-custom":
        if "pieces" not in spec:
            raise ValueError("separable-custom spec needs 'pieces'")
        return SeparableCustom(spec["pieces"])
    raise ValueError(f"unknown generator {kind!r}; expected one of {_CONFIG_GENERATORS}")


def _read_matrix(path):
    """The matrix in a headerless CSV file, as ``np.loadtxt`` reads it; errors name the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        # loadtxt only warns, and returns no rows, when no line holds a cell
        if not any(line.split("#", 1)[0].strip() for line in lines):
            raise ValueError("no matrix rows")
        return np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:  # a decode error too
        raise ValueError(f"{path}: {exc}") from None


def _require_dim(spec) -> int:
    dim = spec.get("dim")
    if dim is None or int(dim) != dim or int(dim) <= 0:
        raise ValueError("generator spec needs a positive integer 'dim'")
    return int(dim)


def divergence(g: ConvexGenerator, y, x, *, validate: bool = True):
    """Bregman divergence D(y, x) = F(y) - F(x) - <grad F(x), y - x>.

    Broadcasts over leading axes of ``y`` and ``x`` and evaluates the
    generator's :meth:`~ConvexGenerator.divergence_kernel`.  Overflow near
    the domain boundary raises instead of clamping.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if validate:
        g.domain.validate(y, allow_boundary=g.boundary_first_args, role="first divergence argument")
        g.domain.validate_second(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = g.divergence_kernel(y, x)
    if not np.all(np.isfinite(out)):
        raise DomainError("divergence overflowed near the domain boundary")
    return out


def dual_divergence(g: ConvexGenerator, xstar, ystar, *, validate: bool = True):
    """Divergence of the conjugate generator between two dual points.

    Both points are mapped back through ``grad_conj`` and the primal
    divergence is evaluated with swapped order, so that
    ``dual_divergence(g, grad(x), grad(y)) == divergence(g, y, x)``.
    """
    first = g.grad_conj(np.asarray(ystar, dtype=float))
    second = g.grad_conj(np.asarray(xstar, dtype=float))
    return divergence(g, first, second, validate=validate)


class TriangleExpansion(NamedTuple):
    """Terms of D(x, z) = D(x, y) + D(y, z) + correction."""

    leg_xy: float
    leg_yz: float
    correction: float
    total: float
    residual: float


def triangle_expansion(g: ConvexGenerator, x, y, z, *, validate: bool = True) -> TriangleExpansion:
    """Expand D(x, z) through an intermediate point y.

    The correction term <grad F(y) - grad F(z), x - y> can take either sign,
    which is why Bregman divergences satisfy only this generalized form of
    the triangle inequality.  ``residual`` certifies the expansion.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    leg_xy = divergence(g, x, y, validate=validate)
    leg_yz = divergence(g, y, z, validate=validate)
    correction = np.sum((g.grad(y) - g.grad(z)) * (x - y), axis=-1)
    total = divergence(g, x, z, validate=False)
    residual = total - (leg_xy + leg_yz + correction)
    return TriangleExpansion(leg_xy, leg_yz, correction, total, residual)
