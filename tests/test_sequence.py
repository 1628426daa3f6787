"""Sequence-axis predict-compute-correct and the strided/pooled baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altup import sequence as seq
from altup import tensor as T
from altup import transformer as tr
from altup.tensor import Graph, Tensor, backward, grad_check


def _inner(d=4, ffn=8, heads=1, seed=0):
    return tr.LayerParams(d, ffn, heads, np.random.default_rng(seed), prefix="inner")


def _x(t, d, seed=1):
    return Tensor(np.random.default_rng(seed).standard_normal((t, d)))


def test_stride_one_unit_gain_equals_plain_layer():
    inner = _inner(seed=2)
    p = seq.SeqAltUpParams(stride=1)
    p.a1.data[...] = 0.7
    p.a2.data[...] = -1.3  # arbitrary: prediction cancels algebraically
    x = _x(5, 4, seed=3)
    out = seq.seq_altup_forward(x, inner, p)
    ref = tr.layer_forward(x, inner)
    assert np.array_equal(out.data, ref.data)


def test_zero_gain_skips_layer_entirely():
    inner = _inner(seed=4)
    p = seq.SeqAltUpParams(stride=2)
    p.b.data[...] = 0.0
    x = _x(6, 4, seed=5)
    out = seq.seq_altup_forward(x, inner, p)
    assert np.array_equal(out.data, x.data)


def test_hand_example_identity_layer():
    # T=3, k=2, identity layer, a1=0, a2=1, b=1 -> (x0, x0, x2)
    inner = _inner(seed=6).zero_all()
    p = seq.SeqAltUpParams(stride=2)
    p.a1.data[...] = 0.0
    p.a2.data[...] = 1.0
    x = _x(3, 4, seed=7)
    out = seq.seq_altup_forward(x, inner, p)
    expected = np.stack([x.data[0], x.data[0], x.data[2]])
    assert np.array_equal(out.data, expected)


def _composed_seq_altup(x, inner, p):
    """Predict and correct as separate primitives: the oracle the predict and
    correct nodes must match bit for bit."""
    t, k = x.data.shape[-2], p.stride
    anchors = (np.arange(t) // k) * k
    y_hat = T.add(T.mul(p.a1, x), T.mul(p.a2, T.gather_rows(x, anchors)))
    y_sub = tr.layer_forward(T.gather_rows(x, np.arange(0, t, k)), inner)
    y_comp = T.gather_rows(y_sub, anchors // k)
    y_hat_anchor = T.gather_rows(y_hat, anchors)
    return T.add(T.sub(y_hat, T.mul(p.b, y_hat_anchor)), T.mul(p.b, y_comp))


@settings(max_examples=120, deadline=None)
@given(lead=st.sampled_from([(), (1,), (2,), (3,)]), n=st.integers(1, 9),
       stride=st.integers(1, 4), d=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_predict_and_correct_nodes_are_bitwise_the_composed_path(lead, n, stride, d, seed):
    rng = np.random.default_rng(seed)
    x, c = rng.standard_normal((2, *lead, n, d))
    scalars = rng.standard_normal((3, 1, 1))
    results = []
    for forward in (seq.seq_altup_forward, _composed_seq_altup):
        inner = _inner(d=d, seed=5)
        p = seq.SeqAltUpParams(stride)
        for q, value in zip(p.params(), scalars):
            q.data[...] = value
        x_in = Tensor(x, requires_grad=True)
        T.reset_mac_count()
        with Graph() as graph:
            out = forward(x_in, inner, p)
            ops = [node.op for node in graph.nodes]
            loss = T.sum_all(T.mul(out, Tensor(c)))
        macs = T.mac_count()
        backward(graph, loss)
        results.append(([out.data, x_in.grad] + [q.grad for q in p.params() + inner.params()],
                        macs, ops))
    (fused, fused_macs, fused_ops), (composed, composed_macs, _) = results
    assert fused_ops[:2] == ["seq_predict", "gather_rows"] and fused_ops[-1] == "seq_correct"
    assert len(fused_ops) == 17  # the layer's 14 between them
    assert fused_macs == composed_macs
    for a, b in zip(fused, composed):
        assert np.array_equal(a, b) and a.strides == b.strides


def test_empty_sequence_rejected():
    inner = _inner()
    with pytest.raises(ValueError):
        seq.seq_altup_forward(Tensor(np.zeros((0, 4))), inner, seq.SeqAltUpParams(2))
    with pytest.raises(ValueError):
        seq.stride_and_skip_forward(Tensor(np.zeros((0, 4))), inner, 2)


def test_inner_layer_sees_subsampled_length(layer_calls):
    inner = _inner(seed=8)
    p = seq.SeqAltUpParams(stride=4)
    seq.seq_altup_forward(_x(10, 4, seed=9), inner, p)
    assert layer_calls == [3]  # ceil(10/4)
    layer_calls.clear()
    seq.stride_and_skip_forward(_x(10, 4, seed=10), inner, 4)
    assert layer_calls == [3]


def test_gradients_through_mix_and_gain_scalars():
    inner = _inner(seed=11)
    p = seq.SeqAltUpParams(stride=2)
    x = _x(5, 4, seed=12)

    def f(ps):
        out = seq.seq_altup_forward(x, inner, p)
        return T.mean_all(T.mul(out, out))

    assert grad_check(f, p.params() + inner.params(), eps=1e-5) < 1e-4


def test_contextual_information_reaches_skipped_tokens():
    # perturbing a sampled token must move some unsampled output under
    # sequence predict-compute-correct, and never under stride-and-skip
    inner = _inner(seed=13)
    p = seq.SeqAltUpParams(stride=2)
    x = np.random.default_rng(14).standard_normal((6, 4))
    bumped = x.copy()
    bumped[0] += 0.5

    sampled = np.arange(0, 6, 2)
    unsampled = np.setdiff1d(np.arange(6), sampled)

    base = seq.seq_altup_forward(Tensor(x), inner, p).data
    moved = seq.seq_altup_forward(Tensor(bumped), inner, p).data
    diff = np.abs(moved[unsampled] - base[unsampled]).max(axis=1)
    assert (diff > 0).any()

    base_s = seq.stride_and_skip_forward(Tensor(x), inner, 2).data
    moved_s = seq.stride_and_skip_forward(Tensor(bumped), inner, 2).data
    assert np.array_equal(base_s[unsampled], moved_s[unsampled])


def test_stride_and_skip_basics():
    inner = _inner(seed=15)
    x = _x(4, 4, seed=16)
    out = seq.stride_and_skip_forward(x, inner, 1)
    ref = tr.layer_forward(x, inner)
    assert np.array_equal(out.data, ref.data)

    identity = _inner(seed=17).zero_all()
    out2 = seq.stride_and_skip_forward(x, identity, 2)
    assert np.array_equal(out2.data, x.data)

    out3 = seq.stride_and_skip_forward(x, inner, 2)
    assert np.array_equal(out3.data[[1, 3]], x.data[[1, 3]])


def test_average_pool():
    x = _x(4, 3, seed=18)
    assert np.array_equal(seq.average_pool_seq(x, 1).data, x.data)
    pooled = seq.average_pool_seq(x, 2).data
    assert np.array_equal(pooled[0], (x.data[0] + x.data[1]) / 2)
    assert np.array_equal(pooled[1], (x.data[2] + x.data[3]) / 2)
    const = Tensor(np.tile([[1.0, 2.0, 3.0]], (5, 1)))
    pooled_c = seq.average_pool_seq(const, 2).data
    assert np.allclose(pooled_c, [[1.0, 2.0, 3.0]] * 3)


def test_pooled_target_positions():
    assert seq.pooled_target_positions(5, 2).tolist() == [1, 3, 4]
    assert seq.pooled_target_positions(4, 4).tolist() == [3]


def _pool_by_loop(t, k):
    """The pool matrix and target positions window by window, as an oracle."""
    t_out = -(-t // k)
    pool = np.zeros((t_out, t))
    for j in range(t_out):
        lo, hi = j * k, min((j + 1) * k, t)
        pool[j, lo:hi] = 1.0 / (hi - lo)
    targets = np.array([min((j + 1) * k, t) - 1 for j in range(t_out)], dtype=np.int64)
    return pool, targets


@pytest.mark.parametrize("t", range(1, 21))
def test_pooling_arrays_equal_the_window_loop(t):
    # the identity input makes the pooled output the pool matrix itself
    for k in range(1, t + 2):
        pool, targets = _pool_by_loop(t, k)
        pooled = seq.average_pool_seq(Tensor(np.eye(t)), k).data
        assert pooled.tobytes() == pool.tobytes(), k
        got = seq.pooled_target_positions(t, k)
        assert got.dtype == targets.dtype and np.array_equal(got, targets), k
