"""Shared builders: generators at test dimensions, domain-aware samplers, finite differences."""

from __future__ import annotations

import numpy as np
import pytest

from bregman_bv import (
    DomainError,
    FullSpace,
    GroupedSampleSet,
    Mahalanobis,
    NegativeEntropySimplex,
    OpenBox,
    OpenSimplex,
    Piece,
    SampleSet,
    SeparableCustom,
    SquaredEuclidean,
)

FD_STEP = 1e-6

GENERATOR_NAMES = [
    "squared-euclidean",
    "mahalanobis",
    "negative-entropy-simplex",
    "separable-custom",
]

_PIECE_FAMILIES = [
    Piece(lambda t: -np.log(1.0 - t**2), lambda t: 2.0 * t / (1.0 - t**2), -1.0, 1.0),
    Piece(lambda t: -np.log(1.0 - t**4), lambda t: 4.0 * t**3 / (1.0 - t**4), -1.0, 1.0),
    Piece(np.cosh, np.sinh, -1.5, 1.5),
]


def spd_matrix(dim: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed + dim)
    b = rng.normal(size=(dim, dim))
    return b @ b.T + dim * np.eye(dim)


def build_generator(name: str, dim: int):
    if name == "squared-euclidean":
        return SquaredEuclidean(dim)
    if name == "mahalanobis":
        return Mahalanobis(spd_matrix(dim))
    if name == "negative-entropy-simplex":
        return NegativeEntropySimplex(max(dim, 2))
    if name == "separable-custom":
        return SeparableCustom([_PIECE_FAMILIES[i % len(_PIECE_FAMILIES)] for i in range(dim)])
    raise ValueError(name)


def fig_2b_generator() -> SeparableCustom:
    return SeparableCustom(_PIECE_FAMILIES[:2])


def default_generators():
    """One representative of each built-in family at desk-scale dimension."""
    return [
        build_generator("squared-euclidean", 2),
        build_generator("mahalanobis", 2),
        build_generator("negative-entropy-simplex", 3),
        build_generator("separable-custom", 2),
    ]


def random_interior_points(g, rng, n: int, margin: float = 0.1) -> np.ndarray:
    """Points comfortably inside the generator's domain."""
    d = g.dim
    dom = g.domain
    if isinstance(dom, OpenSimplex):
        x = rng.dirichlet(np.ones(d), size=n)
        return (1.0 - margin) * x + margin / d
    if isinstance(dom, OpenBox):
        width = dom.uppers - dom.lowers
        u = rng.uniform(margin, 1.0 - margin, size=(n, d))
        return dom.lowers + width * u
    return rng.uniform(-2.0, 2.0, size=(n, d))


def random_sample_set(g, rng, max_n: int = 8, min_n: int = 1) -> SampleSet:
    n = int(rng.integers(min_n, max_n + 1))
    weights = rng.uniform(0.2, 1.0, size=n)
    return SampleSet(random_interior_points(g, rng, n), weights)


def random_grouped(g, rng, max_groups: int = 4, max_n: int = 5) -> GroupedSampleSet:
    k = int(rng.integers(2, max_groups + 1))
    groups = {f"g{i}": random_sample_set(g, rng, max_n=max_n) for i in range(k)}
    return GroupedSampleSet(groups, rng.uniform(0.2, 1.0, size=k))


def assert_frozen(a):
    """``a`` is read-only, and numpy refuses to make it writable again."""
    with pytest.raises(ValueError, match="^cannot set WRITEABLE flag to True of this array$"):
        a.setflags(write=True)
    assert not a.flags.writeable


def fd_gradient(g, x):
    """Central finite differences (step ``FD_STEP``) of the generator value at an interior point.

    The reference for ``grad``.  Requires the point to sit at least 10 steps
    away from the domain boundary.  On the simplex the probes leave the
    constraint plane, so the result approximates the gradient of the
    unconstrained extension; compare against ``grad`` through coordinate
    differences (the simplex gauge).
    """
    x = np.asarray(x, dtype=float)
    h = FD_STEP
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


@pytest.fixture(params=GENERATOR_NAMES)
def gen(request):
    dims = {"negative-entropy-simplex": 3}
    return build_generator(request.param, dims.get(request.param, 2))


@pytest.fixture
def row_tests(monkeypatch):
    """The (domain kind, rows) of every domain row test made while the test runs.

    A row test is a membership test of an ``(n, d)`` array; the single points
    that reports validate (a bias's two centers, a conditional's fixed point)
    are left out.
    """
    calls = []
    for cls in (FullSpace, OpenBox, OpenSimplex):
        def counted(self, x, allow_boundary=False, _contains=cls.contains):
            if np.ndim(x) == 2:
                calls.append((self.kind, len(x)))
            return _contains(self, x, allow_boundary=allow_boundary)
        monkeypatch.setattr(cls, "contains", counted)
    return calls
