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
        return nm.mul(p["x"], p["x"])

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
        h2 = nm.concat_cols([h, nm.mul(h, p["w"])])
        score = nm.rowsum(nm.matmul(h2, p["W2"]))
        part = nm.gather_rows(h2, idx)
        loss_a = nm.bce_with_logits(score, labels)
        loss_b = nm.mse(nm.l2norm_rows(part), y[idx])
        asm = nm.assemble_rows(6, 6, [(np.array([1, 3, 5]), part), (np.array([0]), np.ones((1, 6)))])
        loss_c = ref.mean(nm.sigmoid(asm))
        return nm.add(nm.add(loss_a, loss_b), loss_c)

    assert nm.grad_check(f, params) < 1e-6


def test_l2norm_rows_values_and_zero_row():
    t = nm.constant([[3.0, 4.0], [0.0, 0.0]])
    out = nm.l2norm_rows(t)
    assert np.allclose(out.data, [5.0, 0.0])
    p = nm.param(np.array([[0.0, 0.0]]))
    loss = ref.sum_all(nm.l2norm_rows(p))
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
    y = nm.add(nm.mul(x, x), nm.scale(x, 3.0))  # x^2 + 3x -> dy/dx = 2x + 3 = 7
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
    loss = nm.mul(p["x"], p["x"])
    nm.backward(loss)
    nm.adam_step(p, None, lr=0.1)
    assert p["x"].data < 1.0


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(3)
        p = {"w": nm.param(rng.normal(size=(4,)))}
        state = None
        for _ in range(25):
            loss = ref.sum_all(nm.mul(p["w"], p["w"]))
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
    nm.backward(ref.sum_all(nm.mul(p["w"], p["w"])))
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
        return ref.sum_all(nm.mul(ref.segment_sum(p["a"], rows, segments, weights, 5), nm.constant(probe)))

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
    nm.backward(ref.sum_all(nm.mul(nm.gather_rows(p, rows), nm.constant(probe))))
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
        nm.assemble_rows(3, 2, [(np.array([-1]), t)])
    with pytest.raises(IndexError):
        nm.assemble_rows(3, 2, [(np.array([3]), np.zeros((1, 2)))])
    # a repeated row keeps one block row but would hand its gradient to both
    with pytest.raises(ValueError):
        nm.assemble_rows(3, 2, [(np.array([1, 1]), nm.param(np.ones((2, 2))))])
    with pytest.raises(ValueError):
        nm.assemble_rows(3, 2, [(np.array([0, 1]), np.zeros((2, 2))), (np.array([1]), t)])
    with pytest.raises(ValueError):  # each piece's rows in increasing order
        nm.assemble_rows(3, 2, [(np.array([2, 0]), np.zeros((2, 2)))])
    out = nm.assemble_rows(3, 2, [(np.array([2]), t), (np.array([0]), np.full((1, 2), 2.0))])
    assert np.array_equal(out.data, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_assemble_rows_rejects_a_block_of_the_wrong_shape():
    # a (1, 3) block at two rows would broadcast into both and hand back a (2, 3) gradient
    for block in (nm.param(np.ones((1, 3))), np.ones((1, 3)), np.ones((3, 3)), np.ones((2, 2)), np.ones(3)):
        with pytest.raises(ShapeMismatch):
            nm.assemble_rows(3, 3, [(np.array([0, 2]), block)])
    with pytest.raises(ShapeMismatch):
        nm.assemble_rows(3, 3, [(np.array([1]), np.ones(3))])


def test_non_integer_row_indices_raise_and_empty_ones_pass():
    a = nm.param(np.arange(6.0).reshape(3, 2))
    for idx in (np.array([True, False, True]), np.array([0.0, 2.0]), np.array([0.9])):
        with pytest.raises(IndexError):  # numpy would cast them to rows 1, 0, 1 / 0, 2 / 0
            nm.gather_rows(a, idx)
        with pytest.raises(IndexError):
            nm.assemble_rows(3, 2, [(idx, np.ones((len(idx), 2)))])
    assert nm.gather_rows(a, np.asarray([])).shape == (0, 2)  # np.asarray([]) is float64
    assert not nm.assemble_rows(3, 2, [(np.asarray([]), np.ones((0, 2)))]).data.any()
    assert np.array_equal(nm.gather_rows(a, np.array([2, 0], dtype=np.uint8)).data, [[4.0, 5.0], [0.0, 1.0]])


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
        return ref.sum_all(nm.mul(layer(p), nm.constant(probe)))

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


# -- matmul with a constant operand -----------------------------------------------------


def test_matmul_skips_the_gradient_of_a_constant_operand():
    rng = np.random.default_rng(5)
    x = nm.constant(rng.normal(size=(6, 4)))
    w = nm.param(rng.normal(size=(4, 3)))
    probe = rng.normal(size=(6, 3))
    out = nm.matmul(x, w)
    grad_x, _ = out._grad_fn(probe)
    assert grad_x is None  # no product is spent on the constant's gradient
    nm.backward(ref.sum_all(nm.mul(out, nm.constant(probe))))
    assert x.grad is None
    assert w.grad.tobytes() == (x.data.T @ probe).tobytes()

    w2 = nm.param(w.data.copy())
    nm.backward(ref.sum_all(nm.mul(nm.matmul(w2.data.T.copy(), w2), nm.constant(probe[:3]))))
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
