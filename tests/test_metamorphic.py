"""Metamorphic relations: reports that must agree after a known change of their inputs.

The other checks pin each report by its own residual or against formulas of
the same shape.  A relation that follows from the theory compares two
reports computed along different code paths, so a fault that moves a term
consistently (a swapped divergence argument, a dropped term) still shows.

* **Conjugate swap.**  D_F(y, x) = D_{F*}(grad F(x), grad F(y)) (Banerjee
  et al., "Clustering with Bregman Divergences", JMLR 6, 2005).  Mapping
  every row through grad F and swapping labels and predictions gives the
  same expected loss and bias, with the Bayes error and model variance
  exchanged; primal reports under F are dual reports under F*, and back.
  For F(x) = x^T A x, F* is ``Mahalanobis(inv(A) / 4)``.  For a separable
  F the conjugate pieces below are written in closed form.
* **Scaling.**  The generator lambda F scales every term by lambda.
* **Atom split.**  Halving one atom's weight and repeating its row leaves
  the distribution, and so every term, unchanged.

Each relation runs on a fixed stream of random sets (dimension 1 to 4, 1 to
15 weighted rows, Mahalanobis rows at offsets 0 to 10).  Its tolerance,
relative to max(1, largest term), is about 30 times the worst difference
measured on those sets; no report gate is involved.  A symmetric D cannot
tell D(c, x) from D(x, c), and a quadratic F has no cross term in
``decompose``, so of these relations only the separable swap sees a dual
spread with swapped arguments or a dropped cross term.
"""

import numpy as np
import pytest

from bregman_bv import (
    GroupedSampleSet,
    Mahalanobis,
    Piece,
    SampleSet,
    SeparableCustom,
    conditional_label,
    conditional_prediction,
    decompose,
    total_variance,
)

DECOMPOSITION_TERMS = ("expected_loss", "bayes_error", "bias", "model_variance")
CONDITIONAL_TERMS = (
    "conditional_bias", "conditional_variance", "unconditional_bias", "unconditional_variance", "gap"
)
# what each term of decompose(g, Y, X) is called in decompose(g*, grad F(X), grad F(Y))
SWAPPED_TERMS = {
    "expected_loss": "expected_loss", "bayes_error": "model_variance", "bias": "bias",
    "model_variance": "bayes_error",
}

# each piece f on (lo, hi) with its conjugate f* on (f'(lo), f'(hi)); f*' is the inverse of f'
CONJUGATE_PIECES = [
    (
        Piece(np.cosh, np.sinh, -2.0, 2.0),
        Piece(lambda s: s * np.arcsinh(s) - np.sqrt(1.0 + s * s), np.arcsinh, -np.sinh(2.0), np.sinh(2.0)),
    ),
    (
        Piece(lambda t: np.log(np.cosh(t)), np.tanh, -3.0, 3.0),
        Piece(
            lambda s: 0.5 * ((1.0 + s) * np.log1p(s) + (1.0 - s) * np.log1p(-s)),
            np.arctanh, -np.tanh(3.0), np.tanh(3.0),
        ),
    ),
    (
        Piece(lambda t: t * t, lambda t: 2.0 * t, -1.5, 1.5),
        Piece(lambda s: 0.25 * s * s, lambda s: 0.5 * s, -3.0, 3.0),
    ),
]


def mahalanobis_pair(rng):
    """A random ``Mahalanobis(A)``, its conjugate ``Mahalanobis(inv(A) / 4)``, and a row sampler."""
    d = int(rng.integers(1, 5))
    b = rng.normal(size=(d, d))
    a = b @ b.T + d * np.eye(d)
    offset = rng.uniform(0.0, 10.0)

    def rows(n):
        return offset + rng.uniform(-2.0, 2.0, (n, d))

    return Mahalanobis(a), Mahalanobis(np.linalg.inv(a) / 4.0), rows


def separable_pair(rng):
    """A random ``SeparableCustom``, its conjugate, and a sampler of rows in the middle 90% of each interval."""
    chosen = rng.integers(0, len(CONJUGATE_PIECES), size=int(rng.integers(1, 5)))
    g = SeparableCustom([CONJUGATE_PIECES[i][0] for i in chosen])
    lo, hi = g.domain.lowers, g.domain.uppers

    def rows(n):
        return lo + (hi - lo) * rng.uniform(0.05, 0.95, (n, lo.size))

    return g, SeparableCustom([CONJUGATE_PIECES[i][1] for i in chosen]), rows


def weighted(rng, rows):
    n = int(rng.integers(1, 16))
    return SampleSet(rows(n), rng.uniform(0.2, 1.0, n))


def grouped(rng, rows):
    k = int(rng.integers(1, 5))
    return GroupedSampleSet({f"g{i}": weighted(rng, rows) for i in range(k)}, rng.uniform(0.2, 1.0, k))


def mapped(g, s):
    """``s`` with every row mapped through ``grad F``: the same weights, in the conjugate's domain."""
    return SampleSet(g.grad(s.points), s.weights)


def mapped_groups(g, sets):
    return GroupedSampleSet({k: mapped(g, s) for k, s in sets.groups.items()}, dict(sets.group_weights))


def terms(report, names):
    return {name: getattr(report, name) for name in names}


def swapped_decomposition(pair):
    def relation(rng):
        g, conjugate, rows = pair(rng)
        labels, predictions = weighted(rng, rows), weighted(rng, rows)
        swapped = decompose(conjugate, mapped(g, predictions), mapped(g, labels))
        got = {name: getattr(swapped, SWAPPED_TERMS[name]) for name in DECOMPOSITION_TERMS}
        return got, terms(decompose(g, labels, predictions), DECOMPOSITION_TERMS)
    return relation


def swapped_total_variance(rng):
    g, conjugate, rows = mahalanobis_pair(rng)
    sets = grouped(rng, rows)
    names = ("total", "explained", "unexplained")
    got, want = {}, {}
    for mode, conjugate_mode in (("primal", "dual"), ("dual", "primal")):
        report = total_variance(conjugate, mapped_groups(g, sets), conjugate_mode)
        got.update({(mode, name): value for name, value in terms(report, names).items()})
        want.update({(mode, name): value for name, value in terms(total_variance(g, sets, mode), names).items()})
    return got, want


def swapped_conditional(rng):
    g, conjugate, rows = mahalanobis_pair(rng)
    labels, prediction = grouped(rng, rows), rows(1)[0]
    swapped = conditional_prediction(conjugate, g.grad(prediction), mapped_groups(g, labels))
    return terms(swapped, CONDITIONAL_TERMS), terms(conditional_label(g, labels, prediction), CONDITIONAL_TERMS)


def scaled_decomposition(rng):
    g, _, rows = mahalanobis_pair(rng)
    labels, predictions = weighted(rng, rows), weighted(rng, rows)
    scale = float(rng.choice([0.5, 3.0, 1e3]))
    got = terms(decompose(Mahalanobis(scale * g.matrix), labels, predictions), DECOMPOSITION_TERMS)
    want = terms(decompose(g, labels, predictions), DECOMPOSITION_TERMS)
    return got, {name: scale * value for name, value in want.items()}


def split_label_atom(rng):
    g, _, rows = mahalanobis_pair(rng)
    labels, predictions = weighted(rng, rows), weighted(rng, rows)
    i = int(rng.integers(labels.n))
    weights = labels.weights.copy()
    weights[i] /= 2.0
    split = SampleSet(np.vstack([labels.points, labels.points[i]]), np.append(weights, weights[i]))
    return (terms(decompose(g, split, predictions), DECOMPOSITION_TERMS),
            terms(decompose(g, labels, predictions), DECOMPOSITION_TERMS))


# name: (relation, number of random sets, seed, tolerance relative to max(1, largest term));
# each tolerance is about 30 times the worst difference measured on its sets, given after it
RELATIONS = {
    "conjugate-swap-mahalanobis-decompose": (swapped_decomposition(mahalanobis_pair), 300, 1, 1e-13),  # 3.7e-15
    "conjugate-swap-mahalanobis-total-variance": (swapped_total_variance, 300, 2, 5e-14),  # 1.7e-15
    "conjugate-swap-mahalanobis-conditional": (swapped_conditional, 300, 3, 2e-13),  # 5.9e-15
    "conjugate-swap-separable-decompose": (swapped_decomposition(separable_pair), 200, 4, 2e-14),  # 8.2e-16
    "scaling-mahalanobis-decompose": (scaled_decomposition, 300, 5, 5e-14),  # 1.6e-15
    "split-label-atom-decompose": (split_label_atom, 300, 6, 1e-13),  # 3.6e-15
}


def worst_difference(name):
    """The largest difference of any term over the relation's sets, relative to max(1, largest term)."""
    relation, sets, seed, _ = RELATIONS[name]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(sets):
        got, want = relation(rng)
        scale = max(1.0, *(abs(v) for v in want.values()))
        worst = max(worst, *(abs(got[k] - want[k]) / scale for k in want))
    return worst


@pytest.mark.parametrize("name", RELATIONS)
def test_relation_holds(name):
    worst, tol = worst_difference(name), RELATIONS[name][3]
    assert worst <= tol, f"{name}: a term moved by {worst:.3e} * max(1, largest term), above {tol:g}"
