"""Autodiff ops that only the tests use: whole-tensor reductions and elementwise
`mul`/`sub` for building probe losses; `bce`, the probability-space reference that
`kgdta.numerics.bce_with_logits` is checked against; `segment_sum`, the
per-relation scatter of the reference encoder in `gnn_ref`; `assemble_rows`, the
checked row assembly of that encoder, of `gathered_rows` and of the tests' hand-written
views; and the op chains that `kgdta.numerics.projection`, `node_rows`,
`distmult_rows` and `transe_rows` replaced, which they are checked against byte for
byte."""

from typing import Sequence

import numpy as np

from kgdta import numerics as nm
from kgdta.errors import ShapeMismatch
from kgdta.numerics import Tensor, _as_tensor, _make, _scatter_add, _unbroadcast, as_index


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data - b.data
    return _make(data, (a, b), lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data
    return _make(
        data,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)),
    )


def l2norm_rows(a) -> Tensor:
    """Euclidean norm of each row of an (n, m) tensor. Subgradient 0 at the origin."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeMismatch(f"l2norm_rows needs a 2-d tensor, got {a.data.shape}")
    norms = np.sqrt((a.data * a.data).sum(axis=1))

    def grad_fn(g):
        safe = np.where(norms > 0.0, norms, 1.0)
        return (g[:, None] * a.data / safe[:, None],)

    return _make(norms, (a,), grad_fn)


def assemble_rows(
    n_rows: int,
    width: int,
    pieces: Sequence[tuple[np.ndarray, "Tensor | np.ndarray"]],
) -> Tensor:
    """Build an (n_rows, width) matrix from row-index/block pairs; uncovered rows are zero.

    Blocks may be plain arrays (constants, e.g. historical embeddings) or tensors, in
    which case gradients route back to the block rows. Each block must be
    (len(idx), width) (ShapeMismatch). Each piece's indices must be integers and lie
    in [0, n_rows) (IndexError) and be strictly increasing (ValueError), and no row
    may be covered twice (ValueError): a later block would overwrite it while both
    got its gradient.
    """
    data = np.zeros((n_rows, width), dtype=np.float64)
    parents: list[Tensor] = []
    spans: list[tuple[np.ndarray, int]] = []  # (idx, parent position or -1)
    seen, covered = np.zeros(n_rows, dtype=bool), 0  # rows written, and writes made
    for idx, block in pieces:
        idx = as_index(idx)
        if len(idx) > 1 and np.count_nonzero(idx[1:] <= idx[:-1]):  # cheaper than .any() on small arrays
            raise ValueError("row indices must be strictly increasing")
        if len(idx) and (idx[0] < 0 or idx[-1] >= n_rows):  # increasing: its ends show the range
            raise IndexError(f"row index out of range for {n_rows} rows")
        if len(pieces) > 1:
            seen[idx] = True
            covered += len(idx)
        tensor = isinstance(block, Tensor)
        values = block.data if tensor else np.asarray(block, dtype=np.float64)
        if values.shape != (len(idx), width):  # numpy would broadcast a (1, width) block
            raise ShapeMismatch(f"assemble_rows: a {values.shape} block at {len(idx)} rows of width {width}")
        data[idx] = values
        if tensor:
            spans.append((idx, len(parents)))
            parents.append(block)
    if np.count_nonzero(seen) != covered:
        raise ValueError("assemble_rows covers a row twice")

    def grad_fn(g):
        grads: list[np.ndarray | None] = [None] * len(parents)
        for idx, pos in spans:
            grads[pos] = g[idx]
        return tuple(grads)

    return _make(data, parents, grad_fn)


def projection_chain(n_rows: int, width: int, pieces) -> Tensor:
    """`nm.projection` as the chain of separate ops it does the work of."""
    blocks = [(rows, nm.add(nm.matmul(nm.constant(X), w), b)) for rows, X, w, b in pieces]
    return assemble_rows(n_rows, width, blocks)


def gathered_rows(h: Tensor, row: np.ndarray, stored, nodes: np.ndarray) -> Tensor:
    """`nm.node_rows` as a chain: a gather of the rows in the scope, and a block of
    the stored rows, or zeros, for the others, assembled in node order."""
    rows = row.take(nodes)
    if (inside := rows >= 0).all():
        return nm.gather_rows(h, rows)
    pos_in, pos_out = np.flatnonzero(inside), np.flatnonzero(~inside)
    pieces = [(pos_in, nm.gather_rows(h, rows[pos_in]))] if len(pos_in) else []
    if stored is not None:
        pieces.append((pos_out, stored[nodes[pos_out]]))
    return assemble_rows(len(nodes), h.data.shape[1], pieces)


def distmult_chain(h: Tensor, row: np.ndarray, stored, w: Tensor, src, tgt) -> Tensor:
    """`nm.distmult_rows` as the chain of separate ops it does the work of."""
    return nm.rowsum(mul(mul(gathered_rows(h, row, stored, src), w), gathered_rows(h, row, stored, tgt)))


def transe_chain(h: Tensor, row: np.ndarray, stored, w: Tensor, src, tgt, margin: float) -> Tensor:
    """`nm.transe_rows` as the chain of separate ops it does the work of."""
    moved = nm.add(gathered_rows(h, row, stored, src), w)
    return sub(margin, l2norm_rows(sub(moved, gathered_rows(h, row, stored, tgt))))


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
