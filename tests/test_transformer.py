"""Baseline layer checks: examples, residual identity, masking, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from altup import tensor as T
from altup import transformer as tr
from altup.tensor import Graph, Tensor, backward, grad_check


def test_model_config_validation():
    with pytest.raises(ValueError):
        tr.ModelConfig(d_model=6, n_layers=1, n_heads=4, ffn_hidden=8, vocab_size=10, max_seq_len=8)
    with pytest.raises(ValueError):
        tr.ModelConfig(d_model=8, n_layers=0, n_heads=2, ffn_hidden=8, vocab_size=10, max_seq_len=8)


def test_embed_basic_rows():
    table = Tensor(np.eye(2))
    out = tr.embed([0], table)
    assert np.array_equal(out.data, [[1.0, 0.0]])
    out = tr.embed([1, 1], table)
    assert np.array_equal(out.data[0], out.data[1])


def test_embed_range_error_names_position_and_id():
    table = Tensor(np.eye(2))
    with pytest.raises(IndexError) as ei:
        tr.embed([0, 5], table)
    msg = str(ei.value)
    assert "5" in msg and "position 1" in msg


def test_embed_gradient_marks_looked_up_rows():
    rng = np.random.default_rng(0)
    table = Tensor(rng.standard_normal((4, 3)), requires_grad=True, name="table")
    ids = [1, 3, 1]

    def f(params):
        return T.sum_all(tr.embed(ids, params[0]))

    assert grad_check(f, [table], eps=1e-5) < 1e-6
    with Graph() as g:
        loss = T.sum_all(tr.embed(ids, table))
    table.grad = None
    backward(g, loss)
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    assert np.array_equal(table.grad, expected)


def _layer(d=8, ffn=16, heads=2, seed=0, prefix="l0"):
    return tr.LayerParams(d, ffn, heads, np.random.default_rng(seed), prefix=prefix)


def test_residual_identity_with_zeroed_sublayers():
    params = _layer().zero_all()
    x = Tensor(np.random.default_rng(1).standard_normal((4, 8)))
    out = tr.layer_forward(x, params)
    assert np.array_equal(out.data, x.data)


def _layer_norm(x, scale):
    xc = x - x.mean(axis=-1, keepdims=True)
    return xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-6) * scale


def test_single_position_causal():
    params = _layer(seed=3)
    x = np.random.default_rng(2).standard_normal((1, 8))
    out = tr.layer_forward(Tensor(x), params)
    # one position attends only to itself, with weight 1: Attn(h) = h Wv Wo
    x1 = x + _layer_norm(x, params.ln_attn.data) @ params.wv.data @ params.wo.data
    h2 = _layer_norm(x1, params.ln_ffn.data)
    up = h2 @ params.w_gate.data
    gated = 0.5 * up * (1.0 + erf(up / np.sqrt(2.0))) * (h2 @ params.w_up.data)
    ref = x1 + gated @ params.w_down.data
    assert np.allclose(out.data, ref, rtol=1e-12, atol=1e-12)
    assert out.data.shape == (1, 8)


def test_causal_masking_blocks_future():
    params = _layer(seed=5)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((5, 8))
    base = tr.layer_forward(Tensor(x), params).data
    for t in range(4):
        perturbed = x.copy()
        perturbed[t + 1:] += rng.standard_normal(perturbed[t + 1:].shape)
        out = tr.layer_forward(Tensor(perturbed), params).data
        assert np.array_equal(out[: t + 1], base[: t + 1]), f"future leak at position {t}"


def test_attention_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    probs = T.softmax(Tensor(rng.standard_normal((6, 6)))).data
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-12)


def test_layer_gradients_match_finite_differences():
    params = _layer(d=8, ffn=16, heads=2, seed=11)
    x = Tensor(np.random.default_rng(12).standard_normal((4, 8)))

    def f(ps):
        out = tr.layer_forward(x, params)
        return T.mean_all(T.mul(out, out))

    err = grad_check(f, params.params(), eps=1e-5)
    assert err < 1e-4


def test_lm_head_matches_plain_matmul():
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((2, 2)))
    table = Tensor(rng.standard_normal((3, 2)))
    logits = tr.lm_head(x, table)
    assert np.allclose(logits.data, x.data @ table.data.T)


def test_lm_head_row_of_table_and_zero_input():
    table = Tensor(np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]]))
    x = Tensor(table.data[1:2].copy())
    logits = tr.lm_head(x, table)
    assert np.isclose(logits.data[0, 1], np.sum(table.data[1] ** 2))
    zero = tr.lm_head(Tensor(np.zeros((2, 2))), table)
    assert np.array_equal(zero.data, np.zeros((2, 3)))
    probs = T.softmax(Tensor(zero.data))
    assert np.allclose(probs.data, 1.0 / 3.0)


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((3, 4)))
    loss = tr.cross_entropy(logits, [0, 1, 2])
    assert np.isclose(loss.item(), np.log(4.0))


def test_cross_entropy_saturated_logit():
    logits = np.zeros((2, 5))
    logits[0, 3] = 1e3
    logits[1, 1] = 1e3
    loss = tr.cross_entropy(Tensor(logits), [3, 1])
    assert loss.item() < 1e-6


def test_cross_entropy_matches_bruteforce():
    rng = np.random.default_rng(21)
    logits = rng.standard_normal((5, 7))
    targets = rng.integers(0, 7, size=5)
    loss = tr.cross_entropy(Tensor(logits), targets).item()
    ref = 0.0
    for i in range(5):
        p = np.exp(logits[i]) / np.exp(logits[i]).sum()
        ref -= np.log(p[targets[i]])
    assert np.isclose(loss, ref / 5)


def test_cross_entropy_target_range_error():
    with pytest.raises(IndexError):
        tr.cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])


def _composed_cross_entropy(logits, targets):
    """The loss as separate primitives: the oracle the one loss node must
    match bit for bit."""
    picked = T.gather_cols(T.log_softmax(logits), np.asarray(targets)[..., None])
    return T.scalar_mul(T.mean_all(picked), -1.0)


@settings(max_examples=120, deadline=None)
@given(lead=st.sampled_from([(), (1,), (2,), (3,)]), n=st.integers(1, 9),
       v=st.integers(1, 12), scale=st.sampled_from([1.0, 30.0]), seed=st.integers(0, 2**16))
def test_cross_entropy_node_is_bitwise_the_composed_path(lead, n, v, scale, seed):
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal((*lead, n, v))
    targets = rng.integers(0, v, size=(*lead, n))
    results = []
    for loss_fn in (tr.cross_entropy, _composed_cross_entropy):
        logits = Tensor(x, requires_grad=True)
        T.reset_mac_count()
        with Graph() as graph:
            loss = loss_fn(logits, targets)
        ops = [node.op for node in graph.nodes]
        backward(graph, loss)
        results.append((loss.data, logits.grad, T.mac_count(), ops))
    (loss, grad, macs, ops), (want_loss, want_grad, want_macs, _) = results
    assert ops == ["cross_entropy"]
    assert macs == want_macs == 0
    assert np.array_equal(loss, want_loss) and loss.shape == want_loss.shape
    assert np.array_equal(grad, want_grad) and grad.strides == want_grad.strides


def test_cross_entropy_checks_target_shapes():
    with pytest.raises(T.ShapeError, match="cross_entropy"):
        tr.cross_entropy(Tensor(np.zeros((2, 3))), [0, 1, 2])
    with pytest.raises(T.ShapeError, match="cross_entropy"):
        tr.cross_entropy(Tensor(np.zeros(3)), 0)
    with pytest.raises(IndexError, match="cross_entropy: index -1 at position 1"):
        tr.cross_entropy(Tensor(np.zeros((2, 2, 3))), [[0, -1], [2, 1]])


def test_end_to_end_two_layer_gradcheck():
    # 2-layer, d=8, N=4, |V|=11 toy LM
    rng = np.random.default_rng(31)
    cfg = tr.ModelConfig(d_model=8, n_layers=2, n_heads=2, ffn_hidden=12, vocab_size=11, max_seq_len=4)
    table = Tensor(rng.normal(0, 1 / np.sqrt(8), (11, 8)), requires_grad=True, name="embed.table")
    layers = [tr.LayerParams(8, 12, 2, rng, prefix=f"l{i}") for i in range(2)]
    ids = [1, 4, 7, 2]
    targets = [4, 7, 2, 9]

    def f(ps):
        x = tr.embed(ids, table)
        for lp in layers:
            x = tr.layer_forward(x, lp)
        return tr.cross_entropy(tr.lm_head(x, table), targets)

    params = [table] + [p for lp in layers for p in lp.params()]
    assert grad_check(f, params, eps=1e-5) < 1e-4


def test_layer_call_log_tracks_lengths(layer_calls):
    # the spy the compute-contract tests use sees the sequence length of a
    # single sequence and of a batch alike
    params = _layer(seed=41)
    tr.layer_forward(Tensor(np.zeros((5, 8))), params)
    tr.layer_forward(Tensor(np.zeros((2, 3, 8))), params)
    assert layer_calls == [5, 3]
