"""Reference results computed by the benchmark itself, independently of bregman_bv.

Divergences use their closed forms (||y - x||^2, (y - x)^T A (y - x) and
sum y log(y / x)) rather than the library's generic
F(y) - F(x) - <grad F(x), y - x>.  The expected loss is a chunked sum over
all label/prediction pairs, each pair divergence taken from the Gram form of
its closed form (so no independence factorization is used).  Exact
ensembles are enumerated with a stars-and-bars lattice and log-space
multinomial weights.  Each generator is described by a small spec:
``("squared-euclidean", None)``, ``("mahalanobis", A)`` or
``("negative-entropy-simplex", None)``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# an operation fails when a reported value is off by more than this, relative
# to the larger of the reference value and max(1, |scale|) (see mismatch)
REL_TOL = 1e-9


def divergence(spec, y, x):
    kind, matrix = spec
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if kind == "squared-euclidean":
        diff = y - x
        return np.sum(diff * diff, axis=-1)
    if kind == "mahalanobis":
        diff = y - x
        return np.sum((diff @ matrix) * diff, axis=-1)
    if kind == "negative-entropy-simplex":
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(y > 0.0, y * (np.log(np.where(y > 0.0, y, 1.0)) - np.log(x)), 0.0)
        return np.sum(terms, axis=-1)
    raise ValueError(kind)


def dual_mean(spec, points, weights):
    """Minimizer of the expected divergence to the points: a weighted mean in gradient coordinates."""
    if spec[0] == "negative-entropy-simplex":
        logs = weights @ np.log(points)
        expd = np.exp(logs - np.max(logs))
        return expd / np.sum(expd)
    return weights @ points


def pair_matrix(spec, labels, preds):
    """D(y_i, x_j) for every pair, from the Gram form of each closed-form divergence."""
    kind, matrix = spec
    if kind == "negative-entropy-simplex":
        safe = np.where(labels > 0.0, labels, 1.0)
        neg_entropy = np.sum(labels * np.log(safe), axis=-1)  # 0 log 0 = 0
        return neg_entropy[:, None] - labels @ np.log(preds).T
    if kind == "squared-euclidean":
        matrix = np.eye(labels.shape[1])
    ly, lx = labels @ matrix, preds @ matrix
    squares = np.sum(ly * labels, axis=-1)[:, None] + np.sum(lx * preds, axis=-1)[None, :]
    return squares - 2.0 * ly @ preds.T


def expected_loss(spec, labels, label_weights, preds, pred_weights, chunk=512):
    """sum_ij w_i v_j D(y_i, x_j) as a pair sum over row chunks of the labels."""
    total = 0.0
    for start in range(0, len(labels), chunk):
        block = pair_matrix(spec, labels[start:start + chunk], preds)
        total += float(label_weights[start:start + chunk] @ (block @ pred_weights))
    return total


def decomposition(spec, labels, label_weights, preds, pred_weights):
    """Reference values of every term of a decomposition report."""
    central_label = label_weights @ labels
    central_prediction = dual_mean(spec, preds, pred_weights)
    return {
        "expected_loss": expected_loss(spec, labels, label_weights, preds, pred_weights),
        "bayes_error": float(label_weights @ divergence(spec, labels, central_label)),
        "bias": float(divergence(spec, central_label, central_prediction)),
        "model_variance": float(pred_weights @ divergence(spec, central_prediction, preds)),
        "central_label": central_label,
        "central_prediction": central_prediction,
    }


def quadratic_grouped(spec, groups, group_weights, label):
    """Total-variance and conditional terms for a quadratic generator.

    For squared Euclidean and Mahalanobis generators the dual mean is the
    weighted mean and the divergence is symmetric, so both variance notions
    and both conditioning sides share these closed forms.
    """
    centers = np.array([w @ p for p, w in groups])
    within = np.array([float(w @ divergence(spec, p, c)) for (p, w), c in zip(groups, centers)])
    whole = group_weights @ centers
    points = np.concatenate([p for p, _ in groups])
    weights = np.concatenate([gw * w for (_, w), gw in zip(groups, group_weights)])
    total = float(weights @ divergence(spec, points, whole))
    explained = float(group_weights @ divergence(spec, centers, whole))
    unexplained = float(group_weights @ within)
    return {
        "total": total,
        "explained": explained,
        "unexplained": unexplained,
        "conditional_bias": float(group_weights @ divergence(spec, label, centers)),
        "conditional_variance": unexplained,
        "unconditional_bias": float(divergence(spec, label, whole)),
        "unconditional_variance": total,
        "gap": explained,
    }


def compositions(n_atoms: int, draws: int) -> np.ndarray:
    """All count vectors of ``draws`` draws from ``n_atoms`` atoms (stars and bars)."""
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(draws + n_atoms - 1), n_atoms - 1)),
        dtype=np.int64,
    ).reshape(-1, n_atoms - 1)
    edges = np.column_stack([np.full(len(bars), -1), bars, np.full(len(bars), draws + n_atoms - 1)])
    return np.diff(edges, axis=1) - 1


def ensemble(spec, points, weights, counts, mode):
    """Atoms and multinomial weights of the n-fold primal or dual average."""
    n = int(counts[0].sum())
    lgam = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    log_w = math.lgamma(n + 1) - lgam[counts].sum(axis=1) + counts @ np.log(weights)
    atom_weights = np.exp(log_w)
    if mode == "dual" and spec[0] == "negative-entropy-simplex":
        logs = (counts @ np.log(points)) / n
        expd = np.exp(logs - logs.max(axis=1, keepdims=True))
        atoms = expd / expd.sum(axis=1, keepdims=True)
    else:
        # the dual average of a quadratic generator is the primal average
        atoms = (counts @ points) / n
    return atoms, atom_weights


def single_label(spec, label, atoms, atom_weights):
    """Decomposition terms against one deterministic label."""
    atom_weights = atom_weights / np.sum(atom_weights)
    center = dual_mean(spec, atoms, atom_weights)
    return {
        "expected_loss": float(atom_weights @ divergence(spec, label, atoms)),
        "bayes_error": 0.0,
        "bias": float(divergence(spec, label, center)),
        "model_variance": float(atom_weights @ divergence(spec, center, atoms)),
        "central_prediction": center,
    }


def mismatch(got: dict, want: dict, scale: float):
    """The first key of ``want`` whose value in ``got`` is off by more than
    REL_TOL * max(1, |scale|, |reference|), described for the failure log."""
    for key, ref in want.items():
        value = np.asarray(got[key], dtype=float)
        ref = np.asarray(ref, dtype=float)
        limit = REL_TOL * np.maximum(max(1.0, abs(scale)), np.abs(ref))
        if value.shape != ref.shape or not np.all(np.abs(value - ref) <= limit):
            return f"{key}: got {value.tolist()}, reference {ref.tolist()}"
    return None
