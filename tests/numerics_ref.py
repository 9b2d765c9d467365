"""Autodiff ops that only the tests use: whole-tensor reductions for building
probe losses, and `bce`, the probability-space reference that
`kgdta.numerics.bce_with_logits` is checked against."""

import numpy as np

from kgdta.errors import ShapeMismatch
from kgdta.numerics import Tensor, _as_tensor, _make


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
