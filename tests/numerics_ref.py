"""Autodiff ops that only the tests use: whole-tensor reductions for building
probe losses; `bce`, the probability-space reference that
`kgdta.numerics.bce_with_logits` is checked against; and `segment_sum`, the
per-relation scatter of the reference encoder in `gnn_ref`."""

import numpy as np

from kgdta.errors import ShapeMismatch
from kgdta.numerics import Tensor, _as_tensor, _make, _scatter_add


def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    return _make(np.asarray(a.data.sum()), (a,), lambda g: (np.broadcast_to(g, a.data.shape).copy(),))


def mean(a) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size
    return _make(
        np.asarray(a.data.mean()),
        (a,),
        lambda g: (np.broadcast_to(g / n, a.data.shape).copy(),),
    )


def bce(pred, labels) -> Tensor:
    """Binary cross-entropy on probabilities in (0,1)."""
    pred = _as_tensor(pred)
    y = np.asarray(labels, dtype=np.float64)
    if pred.data.shape != y.shape:
        raise ShapeMismatch(f"bce shapes differ: {pred.data.shape} vs {y.shape}")
    p = pred.data
    n = p.size
    losses = -(y * np.log(p) + (1.0 - y) * np.log1p(-p))
    return _make(
        np.asarray(losses.mean()),
        (pred,),
        lambda g: (g * (p - y) / (p * (1.0 - p) * n),),
    )


def segment_sum(a, rows: np.ndarray, segments: np.ndarray, weights: np.ndarray, n_segments: int) -> Tensor:
    """Weighted scatter-add of rows: out[s] = sum of weights[e] * a[rows[e]] over the
    entries e with segments[e] == s, added in entry order; segments nobody hits are
    zero. This is the sparse (n_segments x len(a)) matrix with `weights` at
    (segments, rows) times `a`, so the backward pass is the transposed scatter,
    grad_a[rows[e]] += weights[e] * g[segments[e]]."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeMismatch(f"segment_sum needs a 2-d tensor, got {a.data.shape}")
    if not rows.shape == segments.shape == weights.shape:
        raise ShapeMismatch(f"segment_sum: {rows.shape} rows, {segments.shape} segments, {weights.shape} weights")
    weights = weights[:, None]
    data = _scatter_add(segments, weights * a.data.take(rows, axis=0), n_segments)
    n_rows = a.data.shape[0]
    return _make(data, (a,), lambda g: (_scatter_add(rows, weights * g[segments], n_rows),))
