"""Primitive-level autodiff checks: examples, finite differences, invariants."""

import math
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import erf

from altup import tensor as T
from altup.tensor import _INV_SQRT2, _INV_SQRT2PI, Graph, Tensor, backward, grad_check

from tape_oracles import (gather_cols, log_softmax, mean_all, relu, reshape, scalar_mul, softmax,
                          sub, sum_all)


def t(data, rg=False, name=None):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg, name=name)


def test_matmul_identity():
    a = t([[1.0, 2.0], [3.0, 4.0]])
    eye = t(np.eye(2))
    out = T.matmul(a, eye)
    assert np.array_equal(out.data, a.data)


def test_relu_definition():
    out = relu(t([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_softmax_symmetry():
    out = softmax(t([0.0, 0.0]))
    assert np.array_equal(out.data, [0.5, 0.5])


def test_backward_sum_linear():
    x = t([1.0, 2.0, 3.0], rg=True)
    with Graph() as g:
        loss = sum_all(x)
    backward(g, loss)
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_quadratic():
    x = t([1.0, 2.0], rg=True)
    with Graph() as g:
        loss = sum_all(T.mul(x, x))
    backward(g, loss)
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_matmul_vs_finite_differences():
    rng = np.random.default_rng(0)
    a = t(rng.standard_normal((3, 4)), rg=True, name="a")
    b = t(rng.standard_normal((4, 2)), rg=True, name="b")

    def f(params):
        return sum_all(T.matmul(params[0], params[1]))

    err = grad_check(f, [a, b], eps=1e-5)
    assert err < 1e-6


def test_backward_errors():
    x = t([1.0, 2.0], rg=True)
    with Graph() as g:
        y = T.mul(x, x)
    with pytest.raises(T.GraphError):
        backward(g, y)  # not scalar
    with Graph() as g2:
        loss = sum_all(T.mul(x, x))
    foreign = t(0.0)
    with pytest.raises(T.GraphError):
        backward(g2, foreign)


def test_gradient_accumulation_across_fanout():
    # Using a tensor twice must yield the sum of both path gradients.
    x = t([1.5, -2.0, 0.5], rg=True)
    with Graph() as g:
        loss = sum_all(T.add(T.mul(x, x), x))
    backward(g, loss)
    assert np.allclose(x.grad, 2.0 * x.data + 1.0)


def _gelu_square_graph():
    rng = np.random.default_rng(13)
    x = t(rng.standard_normal((4, 6)), rg=True, name="x")
    w = t(rng.standard_normal((6, 3)), rg=True, name="w")
    with Graph() as g:
        z = T.matmul(x, w)
        h = T.gelu(z)
        loss = sum_all(T.mul(h, h))
    return g, loss, x, w, z, h


def test_backward_consumes_the_graph():
    g, loss, x, w, z, h = _gelu_square_graph()
    activation = weakref.ref(h.data)
    del h
    backward(g, loss)
    assert g.nodes == []
    # nothing but the dropped caller reference held the gelu output
    assert activation() is None
    # intermediate tensors the caller still holds keep no gradient
    assert z.grad is None and loss.grad is None


def test_consumed_backward_leaves_leaf_grads_bitwise():
    g, loss, x, w, z, h = _gelu_square_graph()
    backward(g, loss)
    # the same arithmetic in the same order as the reverse tape walk
    zd = x.data @ w.data
    cdf = 0.5 * (1.0 + erf(zd * _INV_SQRT2))
    hd = zd * cdf
    ones = np.full(hd.shape, 1.0)
    gh = np.array(ones * hd, copy=True) + ones * hd
    gz = gh * (cdf + zd * (_INV_SQRT2PI * np.exp(-0.5 * zd * zd)))
    assert np.array_equal(x.grad, gz @ w.data.swapaxes(-1, -2))
    assert np.array_equal(w.grad, x.data.swapaxes(-1, -2) @ gz)


def test_leaf_grads_accumulate_across_graphs():
    x = t([1.5, -2.0, 0.5], rg=True)
    for _ in range(2):
        with Graph() as g:
            loss = sum_all(T.mul(x, x))
        backward(g, loss)
    assert np.array_equal(x.grad, 4.0 * x.data)


def test_second_backward_on_a_graph_raises():
    g, loss, x, w, z, h = _gelu_square_graph()
    backward(g, loss)
    first = x.grad.copy()
    with pytest.raises(T.GraphError, match="backward consumes the graph"):
        backward(g, loss)
    assert np.array_equal(x.grad, first)


def test_shape_errors_name_primitive():
    with pytest.raises(T.ShapeError) as ei:
        T.matmul(t([[1.0, 2.0]]), t([[1.0, 2.0]]))
    assert "matmul" in str(ei.value)
    with pytest.raises(T.ShapeError) as ei:
        T.add(t([[1.0, 2.0]]), t([[1.0], [2.0]]))
    assert "add" in str(ei.value)


def test_leading_batch_broadcast_only():
    x = t(np.ones((3, 4)))
    bias = t(np.arange(4.0))
    out = T.add(x, bias)
    assert out.data.shape == (3, 4)
    with pytest.raises(T.ShapeError):
        T.add(t(np.ones((3, 4))), t(np.ones((3, 1))))


def test_broadcast_gradient_reduces():
    x = t(np.ones((3, 4)), rg=True, name="x")
    bias = t(np.zeros(4), rg=True, name="bias")
    with Graph() as g:
        loss = sum_all(T.mul(T.add(x, bias), x))
    backward(g, loss)
    assert bias.grad.shape == (4,)
    assert np.allclose(bias.grad, 3.0)


def _random_tensor(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def swap_outer_axes(x):
    return T.transpose(x, -3, -2)


UNARY_CASES = [
    ("relu", relu, (5,)),
    ("gelu", T.gelu, (6,)),
    ("swap_outer_axes", swap_outer_axes, (3, 3, 2)),
    ("softmax", softmax, (3, 5)),
    ("log_softmax", log_softmax, (2, 7)),
    ("transpose", T.transpose, (4, 4)),
    ("sum_all", sum_all, (4, 3)),
    ("mean_all", mean_all, (2, 6)),
]


@pytest.mark.parametrize("name,op,shape", UNARY_CASES)
def test_unary_primitives_match_finite_differences(name, op, shape):
    # 1e-4 for gelu near zero, 1e-5 otherwise.
    tol = 1e-4 if name == "gelu" else 1e-5
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        x = _random_tensor(rng, shape)
        if name == "relu":
            # keep entries away from the kink, where finite differences lie
            x.data[np.abs(x.data) < 1e-3] += 0.01

        def f(params, op=op):
            return mean_all(T.mul(op(params[0]), params[0]))

        worst = max(worst, grad_check(f, [x], eps=1e-5))
    assert worst < tol, f"{name}: max rel err {worst}"


def test_layer_norm_matches_finite_differences():
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(3000 + trial)
        x = _random_tensor(rng, (3, 8))
        scale = Tensor(rng.uniform(0.5, 1.5, size=8), requires_grad=True)

        def f(params):
            return mean_all(T.mul(T.layer_norm(params[0], params[1]), params[0]))

        worst = max(worst, grad_check(f, [x, scale], eps=1e-5))
    assert worst < 1e-5


def test_structural_primitives_match_finite_differences():
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(4000 + trial)
        x = _random_tensor(rng, (5, 6))
        idx = rng.integers(0, 5, size=4)
        cols = rng.integers(0, 6, size=(5, 1))
        s = _random_tensor(rng, (6,))

        def f(params):
            xx, ss = params
            a = T.gather_rows(xx, idx)
            b = T.scatter_rows(a, np.arange(4), 7)
            c = gather_cols(xx, cols)
            d = T.mul(xx, ss)
            e = T.concat_last([T.slice_last(xx, 1, 3), T.slice_last(xx, 0, 3)])
            r = reshape(e, (6, 5))
            return T.add(T.add(T.add(sum_all(b), sum_all(c)), mean_all(d)),
                         sum_all(T.mul(r, r)))

        worst = max(worst, grad_check(f, [x, s], eps=1e-5))
    assert worst < 1e-5


def test_binary_primitives_match_finite_differences():
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        a = _random_tensor(rng, (4, 3))
        b = _random_tensor(rng, (4, 3))
        w = _random_tensor(rng, (3, 5))

        def f(params):
            aa, bb, ww = params
            y = T.matmul(T.add(T.mul(aa, bb), sub(aa, bb)), ww)
            return mean_all(T.mul(y, y))

        worst = max(worst, grad_check(f, [a, b, w], eps=1e-5))
    assert worst < 1e-5


BATCHED_MATMUL_SHAPES = [
    ((2, 3, 4), (2, 4, 5)),        # equal leading shapes
    ((3, 4), (2, 4, 5)),           # 2-D left operand shared across the batch
    ((2, 3, 4), (4, 5)),           # 2-D right operand shared across the batch
    ((2, 2, 3, 4), (2, 2, 4, 1)),
]


@pytest.mark.parametrize("sa,sb", BATCHED_MATMUL_SHAPES)
def test_batched_matmul_matches_numpy_and_finite_differences(sa, sb):
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(6000 + trial)
        a, b = _random_tensor(rng, sa), _random_tensor(rng, sb)
        assert np.array_equal(T.matmul(a, b).data, a.data @ b.data)

        def f(params):
            y = T.matmul(params[0], params[1])
            return mean_all(T.mul(y, y))

        worst = max(worst, grad_check(f, [a, b], eps=1e-5))
    assert worst < 1e-5


def test_batched_matmul_counts_every_leading_product():
    T.reset_mac_count()
    out = T.matmul(t(np.ones((2, 3, 4, 5))), t(np.ones((5, 6))))
    assert out.data.shape == (2, 3, 4, 6)
    assert T.mac_count() == 2 * 3 * 4 * 5 * 6
    with pytest.raises(T.ShapeError):
        T.matmul(t(np.ones((2, 3, 4))), t(np.ones((3, 4, 5))))


def test_batched_structural_primitives_match_finite_differences():
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(7000 + trial)
        x = _random_tensor(rng, (2, 5, 6))
        idx = rng.integers(0, 5, size=4)
        cols = rng.integers(0, 6, size=(2, 5, 1))

        def f(params):
            (xx,) = params
            a = T.gather_rows(xx, idx)                       # (2, 4, 6)
            b = T.scatter_rows(a, np.array([6, 0, 2, 3]), 7)  # (2, 7, 6)
            c = gather_cols(xx, cols)                        # (2, 5, 1)
            r = T.transpose(reshape(xx, (2, 5, 2, 3)), -3, -2)
            return T.add(T.add(sum_all(T.mul(b, b)), sum_all(c)),
                         sum_all(T.mul(r, T.transpose(T.transpose(r)))))

        worst = max(worst, grad_check(f, [x], eps=1e-5))
    assert worst < 1e-5


def test_gather_rows_indexes_axis_minus_two():
    x = np.arange(24.0).reshape(2, 4, 3)
    assert np.array_equal(T.gather_rows(t(x), [3, 0]).data, x[:, [3, 0], :])
    table = np.arange(12.0).reshape(4, 3)
    ids = np.array([[1, 2], [3, 3]])
    assert np.array_equal(T.gather_rows(t(table), ids).data, table[ids])
    placed = T.scatter_rows(t(x), [4, 1, 0, 2], 5).data
    assert np.array_equal(placed[:, [4, 1, 0, 2]], x) and not placed[:, 3].any()


def test_backward_is_deterministic():
    def run():
        rng = np.random.default_rng(99)
        x = Tensor(rng.standard_normal((6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((6, 6)), requires_grad=True)
        with Graph() as g:
            h = T.gelu(T.matmul(x, w))
            loss = mean_all(T.mul(h, softmax(h)))
        backward(g, loss)
        return x.grad.copy(), w.grad.copy()

    g1, w1 = run()
    g2, w2 = run()
    assert np.array_equal(g1, g2) and np.array_equal(w1, w2)


def test_grad_check_constant_function():
    x = t([1.0, 2.0], rg=True, name="x")

    def f(params):
        return sum_all(scalar_mul(params[0], 0.0))

    assert grad_check(f, [x], eps=1e-4) == 0.0


def test_grad_check_analytic_quadratic():
    x = t([1.0, 2.0, 3.0], rg=True, name="x")

    def f(params):
        return sum_all(T.mul(params[0], params[0]))

    assert grad_check(f, [x], eps=1e-4) < 1e-6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grad_check_reports_nonfinite_parameter():
    x = t([1.0, -1.0], rg=True, name="badparam")

    def f(params):
        return sum_all(scalar_mul(params[0], np.inf))

    with pytest.raises(T.NonFiniteError) as ei:
        grad_check(f, [x], eps=1e-5)
    assert "badparam" in str(ei.value) or "loss" in str(ei.value)


def test_no_recording_outside_graph():
    x = t([1.0, 2.0], rg=True)
    y = T.mul(x, x)
    assert not y.requires_grad  # eval mode: nothing to backprop through


def test_mac_counter_counts_matmul_only():
    T.reset_mac_count()
    a = t(np.ones((3, 4)))
    b = t(np.ones((4, 5)))
    T.matmul(a, b)
    relu(a)
    T.add(a, a)
    assert T.mac_count() == 3 * 4 * 5


# The primitives below must reproduce numpy's own expression of the same rule
# bit for bit, zero-length axes included: the tape's metrics bytes depend on it.

_SIDES = dict(min_side=0, max_side=4)


def _recorded(op, x, *args):
    """Output and backward rule of one primitive applied to ``x`` on a tape."""
    with Graph() as g:
        out = op(x, *args)
    assert len(g.nodes) == 1
    return out.data, g.nodes[0].backward_fn


def _floats(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


@settings(max_examples=80, deadline=None)
@given(lead=hnp.array_shapes(min_dims=1, max_dims=3, **_SIDES), m=st.integers(1, 5),
       k=st.integers(1, 3), fortran=st.booleans(), seed=st.integers(0, 2**16))
def test_gather_cols_is_bitwise_take_and_put_along_axis(lead, m, k, fortran, seed):
    # k distinct picks per row, as top-k routing makes; k = 1 with a trailing
    # axis added to (..., T) targets, as cross_entropy makes
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(lead + (m,))
    k = min(k, m)
    idx = np.argsort(rng.random(lead + (m,)), axis=-1)[..., :k]
    if fortran:  # batches of targets picked by fancy indexing arrive in this order
        idx = np.asfortranarray(idx[..., 0])[..., None] if k == 1 else np.asfortranarray(idx)
    out, bw = _recorded(gather_cols, t(x, rg=True), idx)
    want = np.take_along_axis(x, idx, axis=-1)
    assert out.shape == want.shape and np.array_equal(out, want)
    # the memory order decides the summation order of a reduction over it
    assert out.size == 0 or out.strides == want.strides
    g = rng.standard_normal(want.shape)
    (gx,) = bw(g)
    want_gx = np.zeros_like(x)
    np.put_along_axis(want_gx, idx, g, axis=-1)
    assert gx.shape == x.shape and np.array_equal(gx, want_gx)


def test_gather_cols_rejects_a_row_that_picks_one_column_twice():
    # put_along_axis would keep one of the two picks' gradients
    x = t(np.zeros((2, 5)))
    assert gather_cols(x, [[4, 0], [1, 3]]).data.shape == (2, 2)
    with pytest.raises(ValueError, match="picks one column twice"):
        gather_cols(x, [[4, 0], [3, 3]])
    with pytest.raises(T.ShapeError):
        gather_cols(x, [4, 0])


@settings(max_examples=80, deadline=None)
@given(shape=hnp.array_shapes(min_dims=2, max_dims=4, **_SIDES), data=st.data(),
       seed=st.integers(0, 2**16))
def test_transpose_is_bitwise_swapaxes(shape, data, seed):
    axes = st.integers(-len(shape), len(shape) - 1)
    axis1, axis2 = data.draw(axes), data.draw(axes)
    x = _floats(shape, seed)
    out, bw = _recorded(T.transpose, t(x, rg=True), axis1, axis2)
    want = np.swapaxes(x, axis1, axis2)
    assert out.shape == want.shape and np.array_equal(out, want)
    g = _floats(want.shape, seed + 1)
    (gx,) = bw(g)
    assert gx.shape == x.shape and np.array_equal(gx, np.swapaxes(g, axis1, axis2))


@settings(max_examples=80, deadline=None)
@given(lead=hnp.array_shapes(min_dims=0, max_dims=2, **_SIDES),
       mkn=st.tuples(*[st.integers(0, 4)] * 3), seed=st.integers(0, 2**16))
def test_matmul_backward_is_bitwise_numpy(lead, mkn, seed):
    m, k, n = mkn
    a, b = _floats(lead + (m, k), seed), _floats(lead + (k, n), seed + 1)
    with Graph() as graph:
        out = T.matmul(t(a, rg=True), t(b, rg=True))
    assert np.array_equal(out.data, a @ b)
    g = _floats(out.data.shape, seed + 2)
    ga, gb = graph.nodes[0].backward_fn(g)
    assert np.array_equal(ga, g @ np.swapaxes(b, -1, -2))
    assert np.array_equal(gb, np.swapaxes(a, -1, -2) @ g)


@settings(max_examples=80, deadline=None)
@given(shape=hnp.array_shapes(min_dims=0, max_dims=4, **_SIDES), data=st.data(),
       seed=st.integers(0, 2**16))
def test_reshape_is_bitwise_numpy_and_checks_size(shape, data, seed):
    target = tuple(data.draw(st.permutations(shape + (1,) * data.draw(st.integers(0, 2)))))
    x = _floats(shape, seed)
    out, bw = _recorded(reshape, t(x, rg=True), target)
    assert np.array_equal(out, x.reshape(target)) and out.shape == target
    g = _floats(target, seed + 1)
    (gx,) = bw(g)
    assert np.array_equal(gx, g.reshape(shape)) and gx.shape == shape
    wrong = target + (2,) if x.size else (1,)
    assert math.prod(wrong) != x.size
    with pytest.raises(T.ShapeError):
        reshape(t(x), wrong)


def test_graphs_do_not_see_other_threads():
    x = t([1.0, 2.0], rg=True)
    opened, recorded = threading.Event(), threading.Event()
    seen = {}

    def worker():
        seen["fresh"] = T.active_graph()
        with Graph() as own:
            opened.set()
            seen["waited"] = recorded.wait(timeout=10)
            relu(x)
        seen["own"] = [node.op for node in own.nodes]
        seen["untracked"] = not T.mul(x, x).requires_grad

    with Graph() as main:
        thread = threading.Thread(target=worker)
        thread.start()
        assert opened.wait(timeout=10)
        scalar_mul(x, 2.0)  # while the worker's graph is open
        recorded.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == {"fresh": None, "waited": True, "own": ["relu"], "untracked": True}
    assert [node.op for node in main.nodes] == ["scalar_mul"]
    assert T.active_graph() is None



@pytest.mark.parametrize("op,call", [
    ("gather_rows", lambda idx: T.gather_rows(t(np.zeros((5, 4))), idx)),
    ("scatter_rows", lambda idx: T.scatter_rows(t(np.zeros((6, 4))), np.reshape(idx, -1), 5)),
    ("gather_cols", lambda idx: gather_cols(t(np.zeros((2, 5))), idx)),
], ids=["gather_rows", "scatter_rows", "gather_cols"])
def test_index_errors_name_the_bad_value_and_its_position(op, call):
    # the first index outside [0, 5) in row-major order, either side
    for idx, bad, pos in (([[0, 1, 2], [2, 7, -1]], 7, 4), ([[0, -1, 2], [2, 9, 1]], -1, 1)):
        with pytest.raises(IndexError) as ei:
            call(np.array(idx))
        assert str(ei.value) == f"{op}: index {bad} at position {pos} out of range [0, 5)"


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
def test_size_one_losses_backward_item_and_grad_check(shape):
    # backward accepts every size-1 loss shape, so item and grad_check must too
    rng = np.random.default_rng(60)
    a = t(rng.standard_normal((1, 3)), rg=True)
    b = t(rng.standard_normal((3, 1)), rg=True)

    def f(params):
        return reshape(T.matmul(*params), shape)

    with Graph() as g:
        loss = f([a, b])
    backward(g, loss)
    assert loss.item() == (a.data @ b.data)[0, 0]
    assert np.array_equal(a.grad, b.data.T) and np.array_equal(b.grad, a.data.T)
    assert grad_check(f, [a, b]) < 1e-8


# -- fused expert --------------------------------------------------------------

def _expert_instance(n=5, d=4, r=3, seed=40):
    rng = np.random.default_rng(seed)
    return (t(rng.standard_normal((n, d)), rg=True, name="x"),
            t(rng.standard_normal((d, r)), rg=True, name="u"),
            t(rng.standard_normal((r, d)), rg=True, name="v"),
            rng.standard_normal((n, d)))


def test_fused_expert_matches_finite_differences():
    x, u, v, c = _expert_instance()

    def f(params):
        # row 1 is used twice, row 3 not at all
        picked = T.gather_rows(params[0], [0, 1, 1, 4])
        out = T.matmul_relu_matmul(picked, params[1], params[2])
        return sum_all(T.mul(out, picked))

    assert grad_check(f, [x, u, v], eps=1e-6) < 1e-6
    assert np.array_equal(x.grad[3], np.zeros(4))


def test_fused_expert_is_bitwise_the_composed_path():
    grads = []
    for fused in (True, False):
        x, u, v, c = _expert_instance()
        with Graph() as g:
            if fused:
                out = T.matmul_relu_matmul(x, u, v)
            else:
                out = T.matmul(relu(T.matmul(x, u)), v)
            loss = sum_all(T.mul(out, t(c)))
        backward(g, loss)
        grads.append((out.data, x.grad, u.grad, v.grad))
    for fused, composed in zip(*grads):
        assert np.array_equal(fused, composed)
    with pytest.raises(T.ShapeError):
        T.matmul_relu_matmul(x, v, u)


def test_fused_expert_counts_the_macs_of_its_two_products():
    n, d, r = 7, 6, 3
    x, u, v, _ = _expert_instance(n, d, r)
    T.reset_mac_count()
    T.matmul_relu_matmul(x, u, v)
    assert T.mac_count() == 2 * n * d * r


def _composed_attention(q, k, v, n_heads):
    """The head split, scores, mask, softmax, value mix and merge as separate
    primitives: the oracle ``causal_attention`` must match bit for bit."""
    *lead, n, d = q.data.shape
    dh = d // n_heads

    def split(x):
        return T.transpose(reshape(x, (*lead, n, n_heads, dh)), -3, -2)

    qh, kh, vh = split(q), split(k), split(v)
    scores = scalar_mul(T.matmul(qh, T.transpose(kh)), 1.0 / np.sqrt(dh))
    scores = T.add(scores, t(np.triu(np.full((n, n), -1e30), k=1)))
    mixed = T.transpose(T.matmul(softmax(scores), vh), -3, -2)
    return reshape(mixed, (*lead, n, d))


@settings(max_examples=120, deadline=None)
@given(lead=st.sampled_from([(), (1,), (2,), (3,)]), n=st.integers(1, 9),
       heads=st.sampled_from([1, 2, 4]), dh=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_causal_attention_is_bitwise_the_composed_path(lead, n, heads, dh, seed):
    shape = lead + (n, heads * dh)
    rng = np.random.default_rng(seed)
    qkv, g = [rng.standard_normal(shape) for _ in range(3)], rng.standard_normal(shape)
    results = []
    for attention in (T.causal_attention, _composed_attention):
        inputs = [t(a, rg=True) for a in qkv]
        T.reset_mac_count()
        with Graph() as graph:
            out = attention(*inputs, heads)
            loss = sum_all(T.mul(out, t(g)))
        macs = T.mac_count()
        backward(graph, loss)
        results.append([out.data] + [x.grad for x in inputs] + [macs])
    fused, composed = results
    assert fused[-1] == composed[-1] == 2 * math.prod(shape) * n
    for a, b in zip(fused[:-1], composed[:-1]):
        # the layout decides the summation order of the products downstream
        assert np.array_equal(a, b) and a.strides == b.strides


def test_causal_attention_is_one_node_and_checks_shapes():
    q, k, v = (t(np.ones((2, 3, 4)), rg=True) for _ in range(3))
    with Graph() as g:
        T.causal_attention(q, k, v, 2)
    assert [node.op for node in g.nodes] == ["causal_attention"]
    for args in [(q, k, t(np.ones((2, 3, 2))), 2), (q, k, v, 3), (q, k, v, 0),
                 (t(np.ones(4)), t(np.ones(4)), t(np.ones(4)), 1)]:
        with pytest.raises(T.ShapeError, match="causal_attention"):
            T.causal_attention(*args)


def test_causal_attention_matches_finite_differences():
    rng = np.random.default_rng(8)
    params = [t(rng.standard_normal((2, 5, 4)), rg=True, name=name) for name in "qkv"]
    c = t(rng.standard_normal((2, 5, 4)))

    def f(params):
        return sum_all(T.mul(T.causal_attention(*params, 2), c))

    assert grad_check(f, params, eps=1e-6) < 1e-6
