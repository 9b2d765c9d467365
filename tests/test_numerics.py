import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdta.errors import NonFinite, ShapeMismatch
from kgdta import numerics as nm
import numerics_ref as ref


def test_relu_values():
    out = nm.relu(nm.constant([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_sigmoid_at_zero():
    assert nm.sigmoid(nm.constant(0.0)).item() == 0.5


def test_bce_at_half_is_ln2():
    loss = ref.bce(nm.constant(np.array([0.5])), np.array([1.0]))
    assert abs(loss.item() - math.log(2)) < 1e-12


def test_bce_with_logits_matches_bce():
    logits = np.array([-3.0, -0.5, 0.0, 1.2, 4.0])
    labels = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
    a = nm.bce_with_logits(nm.constant(logits), labels).item()
    b = ref.bce(nm.sigmoid(nm.constant(logits)), labels).item()
    assert abs(a - b) < 1e-12


def test_grad_check_square():
    params = {"x": nm.param(np.array(3.0))}

    def f(p):
        return ref.mul(p["x"], p["x"])

    err = nm.grad_check(f, params)
    assert err < 1e-8
    assert abs(params["x"].grad - 6.0) < 1e-12


def test_grad_check_constant_function():
    params = {"x": nm.param(np.array([1.0, 2.0]))}

    def f(p):
        return nm.add(nm.constant(np.array(5.0)), nm.scale(ref.sum_all(p["x"]), 0.0))

    assert nm.grad_check(f, params) == 0.0


def test_grad_check_composite_ops():
    rng = np.random.default_rng(0)
    params = {
        "W1": nm.param(rng.normal(size=(4, 3)) * 0.3),
        "b1": nm.param(rng.normal(size=(3,)) * 0.1),
        "W2": nm.param(rng.normal(size=(6, 1)) * 0.3),
        "w": nm.param(rng.normal(size=(3,)) * 0.5),
    }
    X = rng.normal(size=(5, 4))
    y = rng.normal(size=(5,))
    labels = (rng.random(5) > 0.5).astype(float)
    idx = np.array([0, 2, 4])

    def f(p):
        h = nm.relu(nm.add(nm.matmul(nm.constant(X), p["W1"]), p["b1"]))
        h2 = nm.concat_cols([h, ref.mul(h, p["w"])])
        score = nm.rowsum(nm.matmul(h2, p["W2"]))
        part = nm.gather_rows(h2, idx)
        loss_a = nm.bce_with_logits(score, labels)
        loss_b = nm.mse(ref.l2norm_rows(part), y[idx])
        asm = ref.assemble_rows(6, 6, [(np.array([1, 3, 5]), part), (np.array([0]), np.ones((1, 6)))])
        loss_c = ref.mean(nm.sigmoid(asm))
        return nm.add(nm.add(loss_a, loss_b), loss_c)

    assert nm.grad_check(f, params) < 1e-6


def test_l2norm_rows_values_and_zero_row():
    t = nm.constant([[3.0, 4.0], [0.0, 0.0]])
    out = ref.l2norm_rows(t)
    assert np.allclose(out.data, [5.0, 0.0])
    p = nm.param(np.array([[0.0, 0.0]]))
    loss = ref.sum_all(ref.l2norm_rows(p))
    nm.backward(loss)
    assert np.array_equal(p.grad, [[0.0, 0.0]])  # subgradient at the origin is 0


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        nm.matmul(nm.constant(np.ones((2, 3))), nm.constant(np.ones((2, 3))))
    with pytest.raises(ShapeMismatch):
        nm.matmul(nm.constant(np.ones(3)), nm.constant(np.ones((3, 1))))


def test_backward_requires_scalar():
    with pytest.raises(ShapeMismatch):
        nm.backward(nm.param(np.ones(3)))


def test_grad_accumulates_over_reuse():
    x = nm.param(np.array(2.0))
    y = nm.add(ref.mul(x, x), nm.scale(x, 3.0))  # x^2 + 3x -> dy/dx = 2x + 3 = 7
    nm.backward(y)
    assert abs(x.grad - 7.0) < 1e-12


def test_adam_zero_gradient_leaves_params():
    p = {"w": nm.param(np.array([1.0, -2.0]))}
    p["w"].grad = np.zeros(2)
    state = nm.adam_step(p, None, lr=0.1)
    assert np.array_equal(p["w"].data, [1.0, -2.0])
    p["w"].grad = np.zeros(2)
    nm.adam_step(p, state, lr=0.1)
    assert np.array_equal(p["w"].data, [1.0, -2.0])


def test_adam_descends_on_square():
    p = {"x": nm.param(np.array(1.0))}
    loss = ref.mul(p["x"], p["x"])
    nm.backward(loss)
    nm.adam_step(p, None, lr=0.1)
    assert p["x"].data < 1.0


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(3)
        p = {"w": nm.param(rng.normal(size=(4,)))}
        state = None
        for _ in range(25):
            loss = ref.sum_all(ref.mul(p["w"], p["w"]))
            nm.backward(loss)
            state = nm.adam_step(p, state, lr=0.05)
        return p["w"].data.copy()

    assert np.array_equal(run(), run())


def test_adam_shape_mismatch():
    p = {"w": nm.param(np.ones(3))}
    p["w"].grad = np.ones(4)
    with pytest.raises(ShapeMismatch):
        nm.adam_step(p, None, lr=0.1)


def test_adam_step_consumes_grad():
    p = {"w": nm.param(np.array([1.0, -2.0])), "idle": nm.param(np.array([0.5]))}
    nm.backward(ref.sum_all(ref.mul(p["w"], p["w"])))
    assert p["idle"].grad is None
    state = nm.adam_step(p, None, lr=0.1)
    assert isinstance(state, nm.AdamState) and state.step == 1
    assert p["w"].data[0] < 1.0 and p["w"].data[1] > -2.0
    assert np.array_equal(p["idle"].data, [0.5])  # no .grad is a zero-gradient step
    assert all(t.grad is None for t in p.values())
    # with every .grad consumed, the next step has zero gradients; m still moves w
    w_before = p["w"].data.copy()
    nm.adam_step(p, state, lr=0.1)
    assert not np.array_equal(p["w"].data, w_before)
    assert np.array_equal(p["idle"].data, [0.5])
    p["w"].grad = np.ones((2, 1))
    with pytest.raises(ShapeMismatch):
        nm.adam_step(p, state, lr=0.1)
    assert state.step == 2 and p["w"].grad.shape == (2, 1)  # a refused step consumes nothing


def test_grad_check_rejects_nonfinite():
    params = {"x": nm.param(np.array(0.0))}

    def f(p):
        return nm.add(nm.constant(np.array(float("nan"))), p["x"])

    with pytest.raises(NonFinite):
        nm.grad_check(f, params)


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
def test_sigmoid_in_open_unit_interval(xs):
    out = nm.sigmoid(nm.constant(np.array(xs))).data
    assert np.all(out > 0.0) and np.all(out < 1.0)


@given(
    st.lists(st.floats(0.01, 0.99), min_size=1, max_size=8),
    st.integers(0, 255),
)
def test_bce_nonnegative(ps, label_bits):
    p = np.array(ps)
    y = np.array([(label_bits >> i) & 1 for i in range(len(ps))], dtype=float)
    assert ref.bce(nm.constant(p), y).item() >= 0.0


def test_mse_value():
    assert nm.mse(nm.constant([1.0, 2.0]), np.array([0.0, 0.0])).item() == 2.5


def test_segment_sum_is_a_sparse_product_and_passes_finite_differences():
    rng = np.random.default_rng(3)
    # repeated (segment, row) pairs accumulate; segments 2 and 4 receive nothing
    rows = np.array([0, 2, 2, 1, 3, 0, 0])
    segments = np.array([1, 1, 0, 3, 3, 3, 3])
    weights = rng.uniform(0.2, 1.0, size=7)
    a = rng.normal(size=(4, 3))
    dense = np.zeros((5, 4))
    for r, s, w in zip(rows, segments, weights):
        dense[s, r] += w
    out = ref.segment_sum(nm.constant(a), rows, segments, weights, 5)
    assert out.data.shape == (5, 3)
    assert np.max(np.abs(out.data - dense @ a)) <= 1e-14
    assert not out.data[[2, 4]].any()

    params = {"a": nm.param(a)}
    probe = rng.normal(size=(5, 3))

    def f(p):
        return ref.sum_all(ref.mul(ref.segment_sum(p["a"], rows, segments, weights, 5), nm.constant(probe)))

    assert nm.grad_check(f, params) < 1e-8
    # the backward pass is the transposed scatter
    assert np.max(np.abs(params["a"].grad - dense.T @ probe)) <= 1e-14


def test_segment_sum_rejects_mismatched_edge_arrays():
    a = nm.constant(np.ones((3, 2)))
    with pytest.raises(ShapeMismatch):
        ref.segment_sum(a, np.array([0, 1]), np.array([0]), np.array([1.0, 1.0]), 2)
    with pytest.raises(ShapeMismatch):
        ref.segment_sum(nm.constant(np.ones(3)), np.array([0]), np.array([0]), np.array([1.0]), 2)


# -- the bincount scatter-add against np.add.at -----------------------------------------


def _add_at_reference(index, values, n_rows):
    out = np.zeros((n_rows, values.shape[1]))
    np.add.at(out, index, values)
    return out


@st.composite
def scatter_cases(draw):
    """Row count, width, and a possibly empty, unsorted, repeating list of
    (row, segment) index pairs, plus a seed for the float values."""
    n_rows = draw(st.integers(1, 6))
    n_segments = draw(st.integers(1, 6))
    width = draw(st.integers(1, 4))
    pairs = draw(st.lists(st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_segments - 1)), max_size=25))
    rows = np.array([r for r, _ in pairs], dtype=np.intp)
    segments = np.array([s for _, s in pairs], dtype=np.intp)
    return n_rows, n_segments, width, rows, segments, draw(st.integers(0, 2**32 - 1))


def _values(seed, shape):
    # magnitudes spread over many orders, so any change in summation order shows
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)


@settings(max_examples=200, deadline=None)
@given(scatter_cases())
def test_scatter_add_is_bit_identical_to_add_at(case):
    """Both scatters of a relation's mean: the forward one into segments, and the
    backward one, transposed, into rows."""
    n_rows, n_segments, width, rows, segments, seed = case
    a = _values(seed, (n_rows, width))
    weights = _values(seed + 1, rows.shape)[:, None]
    probe = _values(seed + 2, (n_segments, width))
    out = nm._scatter_add(segments, weights * a[rows], n_segments)
    assert out.shape == (n_segments, width)
    assert out.tobytes() == _add_at_reference(segments, weights * a[rows], n_segments).tobytes()
    back = nm._scatter_add(rows, weights * probe[segments], n_rows)
    assert back.tobytes() == _add_at_reference(rows, weights * probe[segments], n_rows).tobytes()


@settings(max_examples=200, deadline=None)
@given(scatter_cases())
def test_gather_rows_backward_is_bit_identical_to_add_at(case):
    n_rows, _, width, rows, _, seed = case
    p = nm.param(_values(seed, (n_rows, width)))
    probe = _values(seed + 1, (len(rows), width))
    nm.backward(ref.sum_all(ref.mul(nm.gather_rows(p, rows), nm.constant(probe))))
    assert p.grad.tobytes() == _add_at_reference(rows, probe, n_rows).tobytes()


@pytest.mark.parametrize("bad", [3, -1])
def test_scatter_rejects_out_of_range_and_negative_indices(bad):
    a = nm.param(np.ones((3, 2)))
    with pytest.raises(IndexError):
        nm._scatter_add(np.array([0, bad]), np.ones((2, 2)), 3)
    # the forward gather rejects the index too, where numpy indexing would read -1 from the end
    with pytest.raises(IndexError):
        nm.gather_rows(a, np.array([2, bad]))


def test_assemble_rows_rejects_out_of_range_unsorted_and_twice_covered_rows():
    t = nm.param(np.ones((1, 2)))
    with pytest.raises(IndexError):  # numpy would fill row 2 from the end
        ref.assemble_rows(3, 2, [(np.array([-1]), t)])
    with pytest.raises(IndexError):
        ref.assemble_rows(3, 2, [(np.array([3]), np.zeros((1, 2)))])
    # a repeated row keeps one block row but would hand its gradient to both
    with pytest.raises(ValueError):
        ref.assemble_rows(3, 2, [(np.array([1, 1]), nm.param(np.ones((2, 2))))])
    with pytest.raises(ValueError):
        ref.assemble_rows(3, 2, [(np.array([0, 1]), np.zeros((2, 2))), (np.array([1]), t)])
    with pytest.raises(ValueError):  # each piece's rows in increasing order
        ref.assemble_rows(3, 2, [(np.array([2, 0]), np.zeros((2, 2)))])
    out = ref.assemble_rows(3, 2, [(np.array([2]), t), (np.array([0]), np.full((1, 2), 2.0))])
    assert np.array_equal(out.data, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_assemble_rows_rejects_a_block_of_the_wrong_shape():
    # a (1, 3) block at two rows would broadcast into both and hand back a (2, 3) gradient
    for block in (nm.param(np.ones((1, 3))), np.ones((1, 3)), np.ones((3, 3)), np.ones((2, 2)), np.ones(3)):
        with pytest.raises(ShapeMismatch):
            ref.assemble_rows(3, 3, [(np.array([0, 2]), block)])
    with pytest.raises(ShapeMismatch):
        ref.assemble_rows(3, 3, [(np.array([1]), np.ones(3))])


def test_non_integer_row_indices_raise_and_empty_ones_pass():
    a = nm.param(np.arange(6.0).reshape(3, 2))
    for idx in (np.array([True, False, True]), np.array([0.0, 2.0]), np.array([0.9])):
        with pytest.raises(IndexError):  # numpy would cast them to rows 1, 0, 1 / 0, 2 / 0
            nm.gather_rows(a, idx)
        with pytest.raises(IndexError):
            ref.assemble_rows(3, 2, [(idx, np.ones((len(idx), 2)))])
    assert nm.gather_rows(a, np.asarray([])).shape == (0, 2)  # np.asarray([]) is float64
    assert not ref.assemble_rows(3, 2, [(np.asarray([]), np.ones((0, 2)))]).data.any()
    assert np.array_equal(nm.gather_rows(a, np.array([2, 0], dtype=np.uint8)).data, [[4.0, 5.0], [0.0, 1.0]])


# -- the encoder's input projection as one tape op ---------------------------------------


def _projection_case(values):
    """Seven rows of width 3: a piece of input width 4 at rows 0, 2 and 5, a one-row
    piece of input width 2 at row 3, and rows 1, 4 and 6 that no piece covers. The
    parameters and inputs come from `values(seed, shape)`."""
    params = {"w_a": nm.param(values(0, (4, 3))), "b_a": nm.param(values(1, 3)),
              "w_b": nm.param(values(2, (2, 3))), "b_b": nm.param(values(3, 3))}
    inputs = [(np.array([0, 2, 5]), values(4, (3, 4)), "a"), (np.array([3]), values(5, (1, 2)), "b")]
    return params, inputs


def _pieces(p, inputs):
    return [(rows, X, p[f"w_{k}"], p[f"b_{k}"]) for rows, X, k in inputs]


def _normal(seed, shape):
    return np.random.default_rng(seed).normal(size=shape)


def test_projection_is_each_pieces_affine_map_and_passes_finite_differences():
    params, inputs = _projection_case(_normal)
    want = np.zeros((7, 3))
    for rows, X, w, b in _pieces(params, inputs):
        want[rows] = X @ w.data + b.data
    out = nm.projection(7, 3, _pieces(params, inputs))
    assert out.data.tobytes() == want.tobytes() and not out.data[[1, 4, 6]].any()
    probe = _normal(6, (7, 3))

    def f(p):
        return ref.sum_all(ref.mul(nm.sigmoid(nm.projection(7, 3, _pieces(p, inputs))), nm.constant(probe)))

    assert nm.grad_check(f, params) < 1e-6
    assert all(p.grad.any() for p in params.values())


def test_projection_gives_the_bytes_of_the_op_chain():
    """Values and gradients equal the matmul, add and `assemble_rows` chain's, with
    magnitudes spread so that any change in summation order shows."""
    runs = []
    for project in (nm.projection, ref.projection_chain):
        params, inputs = _projection_case(_values)
        out = project(7, 3, _pieces(params, inputs))
        nm.backward(ref.sum_all(ref.mul(nm.sigmoid(out), nm.constant(_values(6, (7, 3))))))
        runs.append([out.data.tobytes()] + [p.grad.tobytes() for p in params.values()])
    assert runs[0] == runs[1]


def test_projection_of_no_pieces_is_a_constant_zero_block():
    out = nm.projection(4, 3, [])
    assert out.shape == (4, 3) and not out.data.any() and not out.requires_grad


def test_projection_rejects_operands_of_the_wrong_shape():
    params, inputs = _projection_case(_normal)
    rows, X, _ = inputs[0]
    w, b = params["w_a"], params["b_a"]
    for piece in (
        (rows, X, nm.param(np.ones((3, 3))), b),  # w's rows differ from X's width
        (rows, X, nm.param(np.ones((4, 2))), b),  # w's width differs from the output's
        (rows, X, nm.param(np.ones(4)), b),
        (rows, X, w, nm.param(np.ones(2))),
        (rows, X, w, nm.param(np.ones((1, 3)))),  # numpy would broadcast a (1, width) b
        (rows, X[:1], w, b),  # numpy would broadcast X's one row into all three
        (rows, X[0], w, b),
    ):
        with pytest.raises(ShapeMismatch):
            nm.projection(7, 3, [piece])


# -- one R-GCN layer as one tape op ---------------------------------------------------------


def _rgcn_case():
    """Six rows; three groups, the second with one target, the last two sharing one
    weight (as unseen relations share `w_default`); four of the six rows returned."""
    rng = np.random.default_rng(11)
    groups = [
        (np.array([1, 4]), np.array([0, 0, 1]), np.array([0, 2, 5]), np.array([0.5, 0.5, 1.0])),
        (np.array([3]), np.array([0, 0]), np.array([1, 4]), np.array([0.5, 0.5])),
        (np.array([0, 2, 5]), np.array([0, 1, 1, 2]), np.array([3, 1, 4, 0]), np.array([1.0, 0.5, 0.5, 1.0])),
    ]
    params = {
        "h": nm.param(rng.normal(size=(6, 3))),
        "w_self": nm.param(rng.normal(size=(3, 4)) * 0.5),
        "bias": nm.param(rng.normal(size=4) * 0.1),
        "w_a": nm.param(rng.normal(size=(3, 4)) * 0.5),
        "w_default": nm.param(rng.normal(size=(3, 4)) * 0.5),
    }
    return params, groups, np.array([0, 1, 3, 4]), rng.normal(size=(4, 4))


def test_rgcn_layer_is_the_layer_formula_and_passes_finite_differences():
    params, groups, out_rows, probe = _rgcn_case()

    def layer(p):
        p = {**params, **p}  # grad_check may vary a subset of the operands
        weights = [p["w_a"], p["w_default"], p["w_default"]]
        return nm.rgcn_layer(p["h"], p["w_self"], p["bias"], weights, groups, out_rows)

    h = params["h"].data
    z = h @ params["w_self"].data + params["bias"].data
    for (targets, segment, sender, weight), name in zip(groups, ("w_a", "w_default", "w_default")):
        A = np.zeros((6, 6))
        A[targets[segment], sender] = weight
        z = z + A @ h @ params[name].data
    out = layer(params)
    assert out.shape == (4, 4) and np.max(np.abs(out.data - np.maximum(z, 0.0)[out_rows])) <= 1e-12
    assert (z[out_rows] < 0).any() and (z[out_rows] > 0).any()  # both sides of the relu are exercised

    def f(p):
        return ref.sum_all(ref.mul(layer(p), nm.constant(probe)))

    assert nm.grad_check(f, params) < 1e-6
    # a constant h (a closure with no projected attribute) gets no gradient
    params["h"] = nm.constant(h)
    assert nm.grad_check(f, {k: v for k, v in params.items() if k != "h"}) < 1e-6
    assert params["h"].grad is None


def test_rgcn_layer_rejects_mismatched_operand_shapes():
    params, groups, out_rows, _ = _rgcn_case()
    h, w, b, wa = params["h"], params["w_self"], params["bias"], params["w_a"]
    weights = [wa, wa, wa]
    for args in (
        (nm.param(np.ones(6)), w, b, weights, groups),
        (nm.param(np.ones((6, 2))), w, b, weights, groups),
        (h, nm.param(np.ones(4)), b, weights, groups),
        (h, w, nm.param(np.ones(3)), weights, groups),
        (h, w, b, weights[:2], groups),
        (h, w, b, [wa, wa, nm.param(np.ones((4, 3)))], groups),
    ):
        with pytest.raises(ShapeMismatch):
            nm.rgcn_layer(*args, out_rows)


# -- rows by node, and the scorers that read them ---------------------------------------

# nodes 1, 2, 4 and 6 are in the scope, at rows 2, 0, 3 and 1 of h; nodes 0, 3 and 5 are not
_ROW = np.array([-1, 2, 0, -1, 3, -1, 1])
# every node on both sides, node 4 in a pair with itself, pairs in and out of the scope
_SRC = np.array([0, 1, 2, 3, 4, 5, 6, 4])
_TGT = np.array([4, 3, 6, 1, 0, 2, 5, 4])


def _scorer_case(seed):
    rng = np.random.default_rng(seed)
    h, w = nm.param(rng.normal(size=(4, 3))), nm.param(rng.normal(size=3))
    return h, rng.normal(size=(7, 3)), w, rng.normal(size=len(_SRC))


def _rows_by_hand(h, stored, nodes):
    """Each node's row: its row of h in the scope, else its stored row, or zeros."""
    outside = np.zeros((7, h.shape[1])) if stored is None else stored
    return np.array([h[_ROW[v]] if _ROW[v] >= 0 else outside[v] for v in nodes])


_SCORERS = {
    "distmult": (nm.distmult_rows, ref.distmult_chain),
    "transe": (
        lambda *args: nm.transe_rows(*args, margin=1.5),
        lambda *args: ref.transe_chain(*args, margin=1.5),
    ),
}


@pytest.mark.parametrize("with_stored", [True, False])
def test_node_rows_reads_scope_rows_then_stored_rows_or_zeros(with_stored):
    h, stored, _, probe = _scorer_case(0)
    stored = stored if with_stored else None
    kept = None if stored is None else stored.copy()
    out = nm.node_rows(h, _ROW, stored, _SRC)
    assert out.data.tobytes() == _rows_by_hand(h.data, stored, _SRC).tobytes()
    probe = probe[:, None] * np.arange(1.0, 4.0)

    def f(p):
        return ref.sum_all(ref.mul(nm.node_rows(p["h"], _ROW, stored, _SRC), nm.constant(probe)))

    assert nm.grad_check(f, {"h": h}) < 1e-8
    # only the rows read from h get a gradient, each its probe rows
    want = np.zeros_like(h.data)
    for e, v in enumerate(_SRC):
        if _ROW[v] >= 0:
            want[_ROW[v]] += probe[e]
    assert np.allclose(h.grad, want, rtol=0, atol=1e-12)
    assert stored is None or stored.tobytes() == kept.tobytes()
    # a node array that reads no row of h gives no gradient
    h.grad = None
    nm.backward(ref.sum_all(nm.node_rows(h, _ROW, stored, np.array([0, 3]))))
    assert h.grad is None


@pytest.mark.parametrize("with_stored", [True, False])
@pytest.mark.parametrize("kind", ["distmult", "transe"])
def test_scorer_op_values_and_gradients(kind, with_stored):
    h, stored, w, probe = _scorer_case(1)
    stored = stored if with_stored else None
    op = _SCORERS[kind][0]
    s, t = _rows_by_hand(h.data, stored, _SRC), _rows_by_hand(h.data, stored, _TGT)
    if kind == "distmult":
        want = (s * w.data * t).sum(axis=1)
    else:
        want = 1.5 - np.linalg.norm(s + w.data - t, axis=1)
    assert np.allclose(op(h, _ROW, stored, w, _SRC, _TGT).data, want, rtol=0, atol=1e-12)

    def f(p):
        return ref.sum_all(ref.mul(op(p["h"], _ROW, stored, p["w"], _SRC, _TGT), nm.constant(probe)))

    # finite differences vary h, not `stored`: a gradient that a read of node 0, 3 or 5
    # sent into some row of h would show here
    assert nm.grad_check(f, {"h": h, "w": w}) < 1e-6


@pytest.mark.parametrize("with_stored", [True, False])
@pytest.mark.parametrize("kind", ["distmult", "transe"])
def test_scorer_ops_give_the_bytes_of_the_op_chains_through_the_tape(kind, with_stored):
    """Three groups over one h, each a loss term, as in the pretraining loss: h's
    gradient sums two scatters per group in tape order, which the one-op scorers keep."""
    op, chain = _SCORERS[kind]
    grads = []
    for score in (op, chain):
        h, stored, _, _ = _scorer_case(2)
        stored = stored if with_stored else None
        rng = np.random.default_rng(3)
        loss, logits, ws = nm.constant(np.array(0.0)), [], []
        for shift in range(3):
            w = nm.param(_values(10 + shift, 3))
            src, tgt = np.roll(_SRC, shift), np.roll(_TGT, -shift)
            logits.append(score(h, _ROW, stored, w, src, tgt))
            term = nm.bce_with_logits(logits[-1], (rng.random(len(src)) > 0.5).astype(float))
            loss, ws = nm.add(loss, nm.scale(term, 0.3 + shift)), ws + [w]
        nm.backward(loss)
        grads.append([x.data.tobytes() for x in logits] + [h.grad.tobytes()] + [w.grad.tobytes() for w in ws])
    assert grads[0] == grads[1]


def test_scorer_transe_gradient_is_zero_at_an_exact_translation():
    h = nm.param(np.array([[0.5, -1.0], [0.75, -0.5]]))
    w = nm.param(np.array([0.25, 0.5]))  # row 0 + w == row 1, exactly
    nm.backward(ref.sum_all(nm.transe_rows(h, np.arange(2), None, w, [0], [1], margin=1.0)))
    assert not h.grad.any() and not w.grad.any()


@pytest.mark.parametrize("bad", [np.array([0.0, 1.0]), np.array([True, False])])
def test_row_ops_reject_a_non_integer_node_array(bad):
    h, stored, w, _ = _scorer_case(4)
    good = np.array([1, 2])
    with pytest.raises(IndexError):
        nm.node_rows(h, _ROW, stored, bad)
    for op in (nm.distmult_rows, _SCORERS["transe"][0]):
        for src, tgt in ((bad, good), (good, bad)):
            with pytest.raises(IndexError):
                op(h, _ROW, stored, w, src, tgt)


# -- matmul with a constant operand -----------------------------------------------------


def test_matmul_skips_the_gradient_of_a_constant_operand():
    rng = np.random.default_rng(5)
    x = nm.constant(rng.normal(size=(6, 4)))
    w = nm.param(rng.normal(size=(4, 3)))
    probe = rng.normal(size=(6, 3))
    out = nm.matmul(x, w)
    grad_x, _ = out._grad_fn(probe)
    assert grad_x is None  # no product is spent on the constant's gradient
    nm.backward(ref.sum_all(ref.mul(out, nm.constant(probe))))
    assert x.grad is None
    assert w.grad.tobytes() == (x.data.T @ probe).tobytes()

    w2 = nm.param(w.data.copy())
    nm.backward(ref.sum_all(ref.mul(nm.matmul(w2.data.T.copy(), w2), nm.constant(probe[:3]))))
    assert w2.grad.tobytes() == (w2.data @ probe[:3]).tobytes()

    square = {"a": nm.param(rng.normal(size=(3, 3)))}
    assert nm.grad_check(lambda p: ref.sum_all(nm.matmul(p["a"], p["a"])), square) < 1e-8


# -- fused Adam against the per-parameter update -----------------------------------------


def _reference_adam(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-parameter Adam the flat update replaced, kept here as its oracle."""
    state["step"] += 1
    t = state["step"]
    for name, p in params.items():
        g = np.asarray(grads.get(name, np.zeros_like(p.data)), dtype=np.float64)
        m = state["m"].get(name, np.zeros_like(p.data))
        v = state["v"].get(name, np.zeros_like(p.data))
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        state["m"][name] = m
        state["v"][name] = v
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)


def test_fused_adam_is_bit_identical_to_the_per_parameter_update():
    rng = np.random.default_rng(11)
    init = {"s": np.array(0.7), "vec": rng.normal(size=5), "mat": rng.normal(size=(3, 4)), "idle": rng.normal(size=2)}
    fused = {name: nm.param(x.copy()) for name, x in init.items()}
    ref = {name: nm.param(x.copy()) for name, x in init.items()}
    ref_state = {"m": {}, "v": {}, "step": 0}
    state = None
    held = fused["vec"].data
    for step in range(25):
        # "idle" never has a gradient; the others get a fresh, widely scaled one
        grads = {name: rng.normal(size=x.shape) * 10.0 ** rng.integers(-6, 3) for name, x in init.items() if name != "idle"}
        for name, grad in grads.items():
            fused[name].grad = grad
        state = nm.adam_step(fused, state, lr=0.01 * (1 + step % 3))
        _reference_adam(ref, grads, ref_state, lr=0.01 * (1 + step % 3))
        for name in init:
            assert fused[name].data.shape == init[name].shape
            assert fused[name].data.tobytes() == ref[name].data.tobytes(), (step, name)
    assert state.step == 25
    assert held.tobytes() == init["vec"].tobytes()  # a new array each step, never written in place


def test_fused_adam_state_is_fixed_to_its_parameters():
    p = {"w": nm.param(np.ones(3)), "b": nm.param(np.zeros(2))}
    state = nm.adam_step(p, None, lr=0.1)
    with pytest.raises(ShapeMismatch):
        nm.adam_step({"w": p["w"]}, state, lr=0.1)
    with pytest.raises(ShapeMismatch):
        nm.adam_step({"w": p["w"], "c": nm.param(np.zeros(2))}, state, lr=0.1)
    with pytest.raises(ShapeMismatch):
        nm.adam_step({"w": p["w"], "b": nm.param(np.zeros(3))}, state, lr=0.1)
    with pytest.raises(ShapeMismatch):
        nm.adam_step({"w": p["w"], "b": nm.param(np.zeros((1, 2)))}, state, lr=0.1)
    # the same names in another order address the same moments
    p["w"].grad = np.ones(3)
    nm.adam_step({"b": p["b"], "w": p["w"]}, state, lr=0.1)
    assert state.step == 2


# -- in-place Adam over one parameter buffer ------------------------------------------------


def test_a_warm_adam_step_allocates_less_than_one_block():
    rng = np.random.default_rng(5)
    params = {"w": nm.param(rng.normal(size=(1024, 1024))), "b": nm.param(rng.normal(size=1024))}
    state = nm.adam_step(params, None, lr=0.01)  # the first step builds the buffers
    for p in params.values():
        p.grad = rng.normal(size=p.data.shape)
    tracemalloc.start()
    try:
        nm.adam_step(params, state, lr=0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < nm._BLOCK * 8, peak  # one parameter-sized array would be 8 MB


def test_adam_updates_views_of_one_buffer_in_place():
    rng = np.random.default_rng(6)
    init = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4), "s": np.array(0.5)}
    params = {name: nm.param(x.copy()) for name, x in init.items()}
    before = {name: p.data for name, p in params.items()}
    state = nm.adam_step(params, None, lr=0.1)
    views = {name: p.data for name, p in params.items()}
    assert all(np.shares_memory(data, state.p) and data is not before[name] for name, data in views.items())
    assert np.concatenate([data.ravel() for data in views.values()]).tobytes() == state.p.tobytes()
    for p in params.values():
        p.grad = rng.normal(size=p.data.shape)
    nm.adam_step(params, state, lr=0.1)
    assert all(p.data is views[name] for name, p in params.items())
    assert not np.array_equal(views["w"], init["w"])
    assert all(before[name].tobytes() == x.tobytes() for name, x in init.items())  # never written


def test_a_rebound_data_is_copied_in_and_never_written():
    rng = np.random.default_rng(7)
    init = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}
    fused = {name: nm.param(x.copy()) for name, x in init.items()}
    ref = {name: nm.param(x.copy()) for name, x in init.items()}
    ref_state = {"m": {}, "v": {}, "step": 0}
    grads = {name: rng.normal(size=x.shape) for name, x in init.items()}
    for name, grad in grads.items():
        fused[name].grad = grad
    state = nm.adam_step(fused, None, lr=0.1)
    _reference_adam(ref, grads, ref_state, lr=0.1)
    view, stepped = fused["w"].data, fused["w"].data.copy()
    fresh = rng.normal(size=(3, 4))
    kept = fresh.copy()
    fused["w"].data, ref["w"].data = fresh, fresh.copy()
    # a refused step rebinds nothing
    fused["b"].grad = np.ones(5)
    with pytest.raises(ShapeMismatch):
        nm.adam_step(fused, state, lr=0.1)
    assert fused["w"].data is fresh and state.step == 1
    grads = {name: rng.normal(size=x.shape) for name, x in init.items()}
    for name, grad in grads.items():
        fused[name].grad = grad
    nm.adam_step(fused, state, lr=0.1)
    _reference_adam(ref, grads, ref_state, lr=0.1)
    assert fused["w"].data is view and fresh.tobytes() == kept.tobytes()
    assert not np.array_equal(view, stepped)
    for name in init:
        assert fused[name].data.tobytes() == ref[name].data.tobytes(), name


def test_adam_state_rejects_one_tensor_under_two_names():
    t = nm.param(np.ones(3))
    t.grad = np.ones(3)
    with pytest.raises(ValueError, match="'a' and 'b' are the same tensor"):
        nm.adam_step({"a": t, "b": t}, None, lr=0.1)
    assert np.array_equal(t.data, np.ones(3)) and np.array_equal(t.grad, np.ones(3))
