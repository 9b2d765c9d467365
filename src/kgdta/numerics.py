"""Dense float64 tensors with reverse-mode automatic differentiation.

Deliberately minimal: just the primitive set the encoder, scoring functions, and
downstream regressors need, each with a hand-written backward rule, plus Adam and a
central-finite-difference gradient checker that serves as the independent oracle for
every differentiable composite in the repo.

Tensors wrap numpy arrays; ops never mutate inputs, but `adam_step` updates the
parameters in place, through views of one buffer. Determinism matters more than
speed here: float64 everywhere, no threading assumptions beyond BLAS.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import NonFinite, ShapeMismatch


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


def param(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-uniform (fan_in, fan_out) weights drawn from `rng`."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: Sequence[Tensor], grad_fn) -> Tensor:
    out = Tensor(data)
    for p in parents:  # a loop, not a generator: every op pays for this check
        if p.requires_grad:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._grad_fn = grad_fn
            break
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- arithmetic -------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data
    return _make(data, (a, b), lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    return _make(a.data * c, (a,), lambda g: (g * c,))


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeMismatch(f"matmul needs 2-d operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def grad_fn(g):
        # a constant operand (e.g. an input batch) gets no gradient, so no product for it
        return (g @ b.data.T if a.requires_grad else None, a.data.T @ g if b.requires_grad else None)

    return _make(data, (a, b), grad_fn)


# -- nonlinearities ----------------------------------------------------------


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0.0
    return _make(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    s = _sigmoid(np.asarray(a.data, dtype=np.float64))
    return _make(s, (a,), lambda g: (g * s * (1.0 - s),))


# -- shape ops ---------------------------------------------------------------


def concat_cols(tensors: Sequence[Tensor]) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeMismatch("concat of nothing")
    if any(t.data.ndim != 2 for t in tensors):
        raise ShapeMismatch("concat_cols needs 2-d operands")
    widths = [t.data.shape[1] for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=1)
    offsets = np.cumsum([0] + widths)

    def grad_fn(g):
        return tuple(g[:, offsets[i] : offsets[i + 1]] for i in range(len(tensors)))

    return _make(data, tensors, grad_fn)


def as_index(idx) -> np.ndarray:
    """`idx` as an int array of row indices. A non-empty index of another dtype raises
    IndexError: numpy would cast a bool mask or floats to row numbers. An empty one
    of any dtype passes, since `np.asarray([])` is float64. The range is left to the
    caller, which can check a sorted index by its ends."""
    idx = np.asarray(idx)
    if idx.size and idx.dtype.kind not in "iu":
        raise IndexError(f"row indices must be integers, got dtype {idx.dtype}")
    return idx.astype(np.intp, copy=False)


def _scatter_add(index: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """out[index[e]] += values[e] for every entry e, added in entry order into an
    (n_rows, width) block of zeros. Each cell sums its terms in the same order as a
    row-at-a-time unbuffered add would, so the result is bit for bit the same; the work
    is one `np.bincount` over the flat cell numbers `row * width + column`."""
    index = np.asarray(index, dtype=np.intp)
    width = values.shape[1]
    # one reduction checks both ends: read as unsigned, a negative index is huge
    if index.size and index.view(np.uintp).max() >= n_rows:
        raise IndexError(f"scatter index out of range for {n_rows} rows")
    cells = (index[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(cells, weights=values.ravel(), minlength=n_rows * width)
    return out.reshape(n_rows, width)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeMismatch(f"gather_rows needs a 2-d tensor, got {a.data.shape}")
    idx, n_rows = as_index(idx), a.data.shape[0]
    if idx.size and idx.min() < 0:  # numpy would read a negative index from the end
        raise IndexError(f"negative row index for {n_rows} rows")
    return _make(a.data.take(idx, axis=0), (a,), lambda g: (_scatter_add(idx, g, n_rows),))


def projection(n_rows: int, width: int, pieces: Sequence[tuple[np.ndarray, np.ndarray, Tensor, Tensor]]) -> Tensor:
    """An (n_rows, width) matrix whose rows `rows` are X @ w + b for each piece
    (rows, X, w, b), X a constant (len(rows), k) block, w (k, width) and b (width,);
    rows no piece covers are zero. One tape op with the float operations of the
    matmul, add and row-assembly chain it replaced, so both give equal bytes. Operand
    shapes are checked (ShapeMismatch); the rows are trusted (distinct, in range),
    because `gnn.build_mp` makes them once and freezes them."""
    data = np.zeros((n_rows, width), dtype=np.float64)
    for rows, X, w, b in pieces:
        if X.ndim != 2 or len(X) != len(rows) or w.data.shape != (X.shape[1], width) or b.data.shape != (width,):
            raise ShapeMismatch(f"projection: {len(rows)} rows, X {X.shape}, w {w.data.shape}, b {b.data.shape}")
        data[rows] = X @ w.data + b.data

    def grad_fn(g):
        grads = []
        for rows, X, _, _ in pieces:
            gp = g[rows]
            grads += [X.T @ gp, gp.sum(axis=0)]
        return tuple(grads)

    return _make(data, [t for *_, w, b in pieces for t in (w, b)], grad_fn)


def rgcn_layer(
    h: Tensor,
    w_self: Tensor,
    bias: Tensor,
    weights: Sequence[Tensor],
    groups: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    out_rows: np.ndarray,
) -> Tensor:
    """relu(h W_self + sum_r mean_r(h) W_r + b) at `out_rows`, as one tape op whose
    float operations, and their order, are those of the same layer built from the
    separate ops (scatter, matmul, row add, relu, gather), so both give equal bytes.

    In group r, (targets, segment, sender, weight), edge e adds `weight[e]` times row
    `sender[e]` of h into row `segment[e]` of a block with a row per target; the block
    times `weights[r]` is added into the target rows. A tensor may appear in `weights`
    more than once, and the tape sums its gradients. Operand shapes are checked
    (ShapeMismatch); the group arrays and `out_rows` are trusted (`targets` strictly
    increasing, `segment` non-decreasing over [0, len(targets)), every index in
    range), because `gnn.build_mp` makes them once and freezes them."""
    H, W = h.data, w_self.data
    if H.ndim != 2 or W.ndim != 2 or W.shape[0] != H.shape[1] or bias.data.shape != W.shape[1:]:
        raise ShapeMismatch(f"rgcn_layer: h {H.shape}, w_self {W.shape}, bias {bias.data.shape}")
    if len(weights) != len(groups) or any(w.data.shape != W.shape for w in weights):
        raise ShapeMismatch(f"rgcn_layer: {len(groups)} groups, weights {[w.data.shape for w in weights]}")
    n = H.shape[0]
    z = H @ W
    means = []
    for (targets, segment, sender, weight), w in zip(groups, weights):
        mean = _scatter_add(segment, weight[:, None] * H.take(sender, axis=0), len(targets))
        z[targets] = z.take(targets, axis=0) + mean @ w.data
        means.append(mean)
    pre = z + bias.data
    mask = pre > 0.0

    def grad_fn(g):
        gz = _scatter_add(out_rows, g, n) * mask
        gh = gz @ W.T if h.requires_grad else None
        grads = []
        for (targets, segment, sender, weight), w, mean in zip(groups, weights, means):
            gt = gz.take(targets, axis=0)
            grads.append(mean.T @ gt)
            if gh is not None:
                gh = gh + _scatter_add(sender, weight[:, None] * (gt @ w.data.T)[segment], n)
        return (gh, H.T @ gz, gz.sum(axis=0), *grads)

    return _make(np.where(mask, pre, 0.0).take(out_rows, axis=0), (h, w_self, bias, *weights), grad_fn)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


# -- reductions and norms -----------------------------------------------------


def rowsum(a) -> Tensor:
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeMismatch(f"rowsum needs a 2-d tensor, got {a.data.shape}")
    n_cols = a.data.shape[1]
    return _make(a.data.sum(axis=1), (a,), lambda g: (np.repeat(g[:, None], n_cols, axis=1),))


# -- rows by node -------------------------------------------------------------------


def _read_rows(h: Tensor, row: np.ndarray, stored: np.ndarray | None, nodes: np.ndarray):
    """The nodes' rows as a fresh array, and their rows of h (< 0: outside the scope)."""
    at = row.take(nodes)
    if (at >= 0).all():
        return h.data.take(at, axis=0), at
    out = np.zeros((len(nodes), h.data.shape[1])) if stored is None else stored.take(nodes, axis=0)
    out[at >= 0] = h.data.take(at[at >= 0], axis=0)
    return out, at


def _scatter_rows(at: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray | None:
    """`_scatter_add` of the rows of `values` whose node has a row of h; None if none has."""
    if not (inside := at >= 0).all():
        at, values = at[inside], values[inside]
    return _scatter_add(at, values, n_rows) if len(at) else None


def node_rows(h: Tensor, row: np.ndarray, stored: np.ndarray | None, nodes) -> Tensor:
    """Row `row[node]` of h for each node where that is >= 0 (the node is in the scope),
    else the constant row `stored[node]`, which gets no gradient, or zeros when `stored`
    is None. A non-integer node array raises IndexError."""
    data, at = _read_rows(h, row, stored, as_index(nodes))
    return _make(data, (h,), lambda g: (_scatter_rows(at, g, len(h.data)),))


def distmult_rows(h: Tensor, row: np.ndarray, stored: np.ndarray | None, w: Tensor, src, tgt) -> Tensor:
    """One relation group's DistMult logits, sum_k s_k w_k t_k for each pair of rows
    (s, t) that `node_rows` reads for (src[e], tgt[e]). The tape keeps the node arrays,
    not the rows: the backward reads them again and does the float operations of
    rowsum(mul(mul(rows(src), w), rows(tgt))) in that chain's order. h is a parent
    twice, so the tape adds the source rows' gradient into h's, then the target rows',
    as it did for the chain's two gathers, and every sum keeps its bytes."""
    src, tgt = as_index(src), as_index(tgt)
    logits = (_read_rows(h, row, stored, src)[0] * w.data * _read_rows(h, row, stored, tgt)[0]).sum(axis=1)

    def grad_fn(g):
        (s, at_s), (t, at_t) = _read_rows(h, row, stored, src), _read_rows(h, row, stored, tgt)
        t *= g[:, None]  # the gradient at s * w
        gw = (t * s).sum(axis=0)
        t *= w.data
        gs = _scatter_rows(at_s, t, len(h.data))
        del t
        s *= w.data
        s *= g[:, None]
        return gs, _scatter_rows(at_t, s, len(h.data)), gw

    return _make(logits, (h, h, w), grad_fn)


def transe_rows(h: Tensor, row: np.ndarray, stored: np.ndarray | None, w: Tensor, src, tgt, margin: float) -> Tensor:
    """One relation group's TransE logits, margin - |s + w - t| for each pair, kept on
    the tape and differentiated as in `distmult_rows`, after the chain
    sub(margin, l2norm_rows(sub(add(rows(src), w), rows(tgt)))). The norm's subgradient
    at 0 is 0."""
    src, tgt = as_index(src), as_index(tgt)
    d = _read_rows(h, row, stored, src)[0] + w.data - _read_rows(h, row, stored, tgt)[0]
    logits = np.asarray(margin, dtype=np.float64) - np.sqrt((d * d).sum(axis=1))

    def grad_fn(g):
        (d, at_s), (t, at_t) = _read_rows(h, row, stored, src), _read_rows(h, row, stored, tgt)
        d += w.data  # d: the source rows, then s + w - t in place
        d -= t
        del t
        norms = np.sqrt((d * d).sum(axis=1))
        d *= (-g)[:, None]
        d /= np.where(norms > 0.0, norms, 1.0)[:, None]  # the gradient at s + w - t
        gw, gs = d.sum(axis=0), _scatter_rows(at_s, d, len(h.data))
        return gs, _scatter_rows(at_t, np.negative(d, out=d), len(h.data)), gw

    return _make(logits, (h, h, w), grad_fn)


# -- losses -------------------------------------------------------------------


def mse(pred, target) -> Tensor:
    pred = _as_tensor(pred)
    target = np.asarray(target, dtype=np.float64)
    if pred.data.shape != target.shape:
        raise ShapeMismatch(f"mse shapes differ: {pred.data.shape} vs {target.shape}")
    diff = pred.data - target
    n = diff.size
    return _make(np.asarray((diff * diff).mean()), (pred,), lambda g: (g * 2.0 * diff / n,))


def bce_with_logits(logits, labels) -> Tensor:
    """Mean Bernoulli NLL straight from logits; never saturates."""
    logits = _as_tensor(logits)
    y = np.asarray(labels, dtype=np.float64)
    if logits.data.shape != y.shape:
        raise ShapeMismatch(f"bce shapes differ: {logits.data.shape} vs {y.shape}")
    x = logits.data
    n = x.size
    losses = (1.0 - y) * x + np.logaddexp(0.0, -x)
    return _make(np.asarray(losses.mean()), (logits,), lambda g: (g * (_sigmoid(x) - y) / n,))


# -- tape ---------------------------------------------------------------------


def backward(loss: Tensor):
    """Reverse-mode sweep from a scalar; adds into `.grad` of reachable leaves, which
    keeps accumulating over sweeps until `adam_step` consumes it."""
    if loss.data.size != 1:
        raise ShapeMismatch(f"backward needs a scalar, got shape {loss.data.shape}")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen and parent.requires_grad:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._grad_fn is not None:
            parent_grads = node._grad_fn(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
        elif node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g


# -- gradient checking ----------------------------------------------------------


def grad_check(
    f: Callable[[Mapping[str, Tensor]], Tensor],
    params: Mapping[str, Tensor],
    eps: float = 1e-5,
) -> float:
    """Max relative error between tape gradients and central finite differences.

    The denominator is max(|analytic|, |numeric|, 1e-8) per component. The analytic
    gradients are left on `.grad`.
    """
    for p in params.values():
        p.grad = None
    out = f(params)
    if not np.isfinite(out.data).all():
        raise NonFinite("grad_check: objective is not finite")
    backward(out)

    def evaluate() -> float:
        value = f(params)
        v = float(value.data)
        if not np.isfinite(v):
            raise NonFinite("grad_check: objective not finite at perturbed point")
        return v

    max_err = 0.0
    for p in params.values():
        flat = p.data.reshape(-1)
        ana = np.zeros(flat.size) if p.grad is None else p.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = evaluate()
            flat[i] = orig - eps
            f_minus = evaluate()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(ana[i]), abs(numeric), 1e-8)
            max_err = max(max_err, abs(ana[i] - numeric) / denom)
    return max_err


# -- optimizer --------------------------------------------------------------------


class AdamState:
    """Adam's moments `m` and `v`, a gradient buffer `g` and the parameters `p`, each
    one flat float64 buffer, for one fixed set of parameters; `views` maps each name
    to its (parameter, gradient) views, shaped as the parameter. The names and shapes
    are fixed when the state is built; one tensor under two names raises ValueError."""

    def __init__(self, params: Mapping[str, Tensor]):
        size = sum(p.data.size for p in params.values())
        self.m, self.v, self.g, self.p = (np.zeros(size) for _ in range(4))
        self.scratch = np.empty(min(size, _BLOCK))
        self.views: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        names: dict[int, str] = {}  # tensor id -> its first name
        offset = 0
        for name, p in params.items():
            if names.setdefault(id(p), name) != name:
                raise ValueError(f"adam: {names[id(p)]!r} and {name!r} are the same tensor")
            at, shape = slice(offset, offset + p.data.size), p.data.shape
            self.views[name] = (self.p[at].reshape(shape), self.g[at].reshape(shape))
            offset = at.stop
        self.step = 0


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
_BLOCK = 1 << 14  # elements per pass of the update, so that each pass reads from cache


def adam_step(params: Mapping[str, Tensor], state: AdamState | None, lr: float) -> AdamState:
    """Standard Adam update on the gradients `backward` left on each parameter's
    `.grad`, which it consumes: every `.grad` is None afterwards, and a parameter with
    no `.grad` is stepped with a zero gradient; a `.grad` left by an earlier `backward`
    or `grad_check` is part of the step. The first step copies each parameter into the
    state's one parameter buffer and rebinds its `.data` to a view of it, as it does
    for a `.data` rebound since the last step; the arrays so replaced are never
    written. Every step overwrites those views in place, so keep a copy, not `.data`
    itself, as a snapshot, and run a tape's `backward` before the next step: after
    it, the tape would read the stepped values. A refused step changes nothing."""
    if state is None:
        state = AdamState(params)
    if len(params) != len(state.views):
        raise ShapeMismatch(f"adam: {len(params)} params, state holds {len(state.views)}")
    for name, p in params.items():
        shape = state.views[name][0].shape if name in state.views else None
        if shape != p.data.shape:
            raise ShapeMismatch(f"adam: param {name!r} of shape {p.data.shape} does not match the state ({shape})")
        if p.grad is not None and p.grad.shape != shape:
            raise ShapeMismatch(f"adam: grad shape {p.grad.shape} != param shape {shape} ({name})")
    for name, p in params.items():
        data, grad = state.views[name]
        if p.data is not data:  # the first step, or a .data rebound since the last one
            np.copyto(data, p.data)
            p.data = data
        np.copyto(grad, 0.0 if p.grad is None else p.grad)
        p.grad = None
    state.step += 1
    c1, c2 = 1.0 - _BETA1**state.step, 1.0 - _BETA2**state.step
    # block by block, the per-element operation sequence of m = b1*m + (1-b1)*g,
    # v = b2*v + (1-b2)*(g*g), p = p - lr * (m / c1) / (sqrt(v / c2) + eps), in place
    for lo in range(0, len(state.p), _BLOCK):
        g, m, v, p = (a[lo : lo + _BLOCK] for a in (state.g, state.m, state.v, state.p))
        s = state.scratch[: len(g)]
        np.multiply(g, 1.0 - _BETA1, out=s)
        np.multiply(m, _BETA1, out=m)
        np.add(m, s, out=m)
        np.multiply(g, g, out=g)
        np.multiply(g, 1.0 - _BETA2, out=g)
        np.multiply(v, _BETA2, out=v)
        np.add(v, g, out=v)
        np.divide(m, c1, out=s)
        np.multiply(s, lr, out=s)
        np.divide(v, c2, out=g)
        np.sqrt(g, out=g)
        np.add(g, _EPS, out=g)
        np.divide(s, g, out=s)
        np.subtract(p, s, out=p)
    return state
