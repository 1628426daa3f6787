"""Block-wise predict-compute-correct: degeneracies, hand examples, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altup import alternating as alt
from altup import costs
from altup import tensor as T
from altup import transformer as tr
from altup.tensor import Graph, Tensor, backward, grad_check

from tape_oracles import mean_all, reshape, scalar_mul, sub, sum_all


def _altup_params(k, d, seed=0, ffn=8, heads=1):
    inner = tr.LayerParams(d, ffn, heads, np.random.default_rng(seed), prefix="inner")
    return alt.AltUpLayerParams(k, inner)


def test_select_block_alternating_cycles():
    assert [alt.select_block(i, 2, "alternating") for i in range(4)] == [0, 1, 0, 1]


def test_select_block_same_is_fixed():
    assert [alt.select_block(i, 3, "same") for i in range(5)] == [0] * 5


def test_select_block_k1_degenerate():
    assert [alt.select_block(i, 1, "alternating") for i in range(3)] == [0, 0, 0]


def test_select_block_rejects_negative_layer():
    with pytest.raises(ValueError):
        alt.select_block(-1, 2, "alternating")


def test_select_block_rejects_unknown_selection():
    with pytest.raises(KeyError):
        alt.select_block(0, 2, "bogus")


def test_alternating_visits_every_block_equally():
    visits = [alt.select_block(i, 4, "alternating") for i in range(8)]
    for j in range(4):
        assert visits.count(j) == 2


def test_k1_degenerates_to_plain_layer_bitwise():
    params = _altup_params(1, 4, seed=7)
    x = Tensor(np.random.default_rng(8).standard_normal((3, 4)))
    out = alt.altup_layer_forward(x, params, j_star=0)
    ref = tr.layer_forward(x, params.inner)
    assert np.array_equal(out.data, ref.data)


def test_identity_p_zero_g_is_passthrough():
    params = _altup_params(3, 4, seed=9)
    params.g.data[...] = 0.0
    x = Tensor(np.random.default_rng(10).standard_normal((2, 12)))
    out = alt.altup_layer_forward(x, params, j_star=1)
    assert np.array_equal(out.data, x.data)


def test_hand_example_identity_inner():
    # k=2, d=2, N=1, identity layer, p=I, g=(0.5, 2): computed delta is zero
    params = _altup_params(2, 2, seed=11)
    params.g.data[:, 0] = [0.5, 2.0]
    a, b = [1.0, -2.0], [3.0, 0.5]
    x = Tensor(np.array([a + b]))
    out = alt.altup_layer_forward(x, params, j_star=0, inner_fn=lambda z: z)
    assert np.array_equal(out.data, x.data)


def test_hand_example_doubling_inner():
    # same setup with L(z) = 2z: x_new = [a + 0.5a, b + 2a]
    params = _altup_params(2, 2, seed=12)
    params.g.data[:, 0] = [0.5, 2.0]
    a = np.array([1.0, -2.0])
    b = np.array([3.0, 0.5])
    x = Tensor(np.concatenate([a, b])[None, :])
    out = alt.altup_layer_forward(x, params, j_star=0,
                                  inner_fn=lambda z: scalar_mul(z, 2.0))
    expected = np.concatenate([a + 0.5 * a, b + 2.0 * a])[None, :]
    assert np.allclose(out.data, expected, rtol=0, atol=1e-15)


def test_full_formula_against_hand_combination():
    # arbitrary p, g, real layer: wire-level check of the three formulas
    rng = np.random.default_rng(13)
    params = _altup_params(2, 4, seed=14, ffn=8, heads=2)
    params.p.data[...] = rng.standard_normal((2, 2))
    params.g.data[...] = rng.standard_normal((2, 1))
    x = Tensor(rng.standard_normal((3, 8)))
    j_star = 1
    out = alt.altup_layer_forward(x, params, j_star=j_star)

    blocks = [x.data[:, :4], x.data[:, 4:]]
    hats = [params.p.data[i, 0] * blocks[0] + params.p.data[i, 1] * blocks[1] for i in range(2)]
    y = tr.layer_forward(Tensor(blocks[j_star]), params.inner).data
    expected = np.concatenate(
        [hats[i] + params.g.data[i, 0] * (y - hats[j_star]) for i in range(2)], axis=1)
    assert np.allclose(out.data, expected, rtol=1e-12, atol=1e-12)


def test_single_inner_invocation_per_forward(layer_calls):
    params = _altup_params(4, 2, seed=15)
    x = Tensor(np.random.default_rng(16).standard_normal((3, 8)))
    alt.altup_layer_forward(x, params, j_star=2)
    assert layer_calls == [3]


@pytest.mark.parametrize("k", [2, 4])
def test_gradients_through_p_g_and_inner(k):
    params = _altup_params(k, 4, seed=20 + k)
    x = Tensor(np.random.default_rng(21).standard_normal((3, 4 * k)))

    def f(ps):
        out = alt.altup_layer_forward(x, params, j_star=k - 1)
        return mean_all(T.mul(out, out))

    assert grad_check(f, params.params(), eps=1e-5) < 1e-4


def test_width_mismatch_raises():
    params = _altup_params(2, 4, seed=22)
    with pytest.raises(T.ShapeError):
        alt.altup_layer_forward(Tensor(np.zeros((2, 9))), params, j_star=0)


def _composed_altup_layer(x_old, params, j_star):
    """Predict and correct as separate primitives on the (..., T, K, d) view:
    the oracle the one predict/correct node must match bit for bit."""
    k, d = params.k, params.d
    *lead, _ = x_old.data.shape
    block = T.slice_last(x_old, j_star * d, d)
    x_hat = T.matmul(params.p, reshape(x_old, (*lead, k, d)))
    y = tr.layer_forward(block, params.inner)
    hat_star = T.gather_rows(x_hat, [j_star])
    base = sub(x_hat, T.matmul(params.g, hat_star))
    x_new = T.add(base, T.matmul(params.g, reshape(y, (*lead, 1, d))))
    return reshape(x_new, x_old.data.shape)


@settings(max_examples=120, deadline=None)
@given(lead=st.sampled_from([(), (1,), (2,), (3,)]), n=st.integers(1, 9),
       k=st.sampled_from([1, 2, 4]), d=st.integers(1, 4), data=st.data())
def test_predict_correct_node_is_bitwise_the_composed_path(lead, n, k, d, data):
    j_star = data.draw(st.integers(0, k - 1), label="j_star")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    x, c = rng.standard_normal((2, *lead, n, k * d))
    p, g = rng.standard_normal((k, k)), rng.standard_normal((k, 1))
    results = []
    for forward in (alt.altup_layer_forward, _composed_altup_layer):
        params = _altup_params(k, d, seed=3)
        params.p.data[...], params.g.data[...] = p, g
        x_old = Tensor(x, requires_grad=True)
        T.reset_mac_count()
        with Graph() as graph:
            out = forward(x_old, params, j_star)
            ops = [node.op for node in graph.nodes]
            loss = sum_all(T.mul(out, Tensor(c)))
        macs = T.mac_count()
        backward(graph, loss)
        results.append(([out.data, x_old.grad] + [q.grad for q in params.params()], macs, ops))
    (fused, fused_macs, fused_ops), (composed, composed_macs, _) = results
    assert fused_ops[0] == "slice_last" and fused_ops[-1] == "altup_predict_correct"
    assert len(fused_ops) == 16  # the layer's 14 between them
    assert fused_macs == composed_macs
    for a, b in zip(fused, composed):
        assert np.array_equal(a, b) and a.strides == b.strides


def _extra_params(model, variant, k):
    """(per-layer, embedding) parameters a block variant adds over dense."""
    dense = costs.count_params(model, "dense")
    wide = costs.count_params(model, variant, altup={"k": k})
    per_layer = (wide.non_embedding_params - dense.non_embedding_params) // model.n_layers
    return per_layer, wide.embedding_params - dense.embedding_params


def test_param_count_formulas():
    model = tr.ModelConfig(d_model=8, n_layers=2, n_heads=2, ffn_hidden=16,
                           vocab_size=100, max_seq_len=16)
    per_layer, emb = _extra_params(model, "altup", 2)
    assert per_layer == 6
    assert emb == 1 * 100 * 8
    assert _extra_params(model, "altup", 1) == (2, 0)
    assert _extra_params(model, "recycled_altup", 2) == (6, 0)


def test_param_count_matches_scalar_census():
    for k in (1, 2, 4):
        params = _altup_params(k, 4, seed=30 + k)
        extra = sum(p.size for p in (params.p, params.g))
        per_layer, _ = _extra_params(tr.ModelConfig(4, 1, 1, 8, 10, 8), "altup", k)
        assert extra == per_layer


def test_sum_consume():
    # the summation baseline folds its extra embedding in with T.add
    x = Tensor(np.array([[1.0, 2.0]]))
    assert np.array_equal(T.add(x, Tensor(np.zeros((1, 2)))).data, x.data)
    out = T.add(x, Tensor(np.array([[3.0, 4.0]])))
    assert np.array_equal(out.data, [[4.0, 6.0]])
    with pytest.raises(T.ShapeError):
        T.add(x, Tensor(np.zeros((2, 2))))


def test_sum_consume_gradients_reach_both_tables():
    rng = np.random.default_rng(31)
    base = Tensor(rng.standard_normal((5, 3)), requires_grad=True, name="base")
    extra = Tensor(rng.standard_normal((5, 3)), requires_grad=True, name="extra")
    ids = [0, 2, 2]
    with Graph() as g:
        s = T.add(tr.embed(ids, base), tr.embed(ids, extra))
        loss = sum_all(T.mul(s, s))
    backward(g, loss)
    assert np.abs(base.grad).sum() > 0 and np.abs(extra.grad).sum() > 0

    def f(ps):
        s = T.add(tr.embed(ids, base), tr.embed(ids, extra))
        return sum_all(T.mul(s, s))

    assert grad_check(f, [base, extra], eps=1e-5) < 1e-6


def _recycled_embed(ids, table, k):
    return alt.widen(tr.embed(ids, table), k)


def test_recycled_embed_replicates_lookup():
    rng = np.random.default_rng(32)
    table = Tensor(rng.standard_normal((6, 3)))
    out = _recycled_embed([4], table, k=2)
    r = table.data[4]
    assert np.array_equal(out.data, np.concatenate([r, r])[None, :])
    assert np.array_equal(_recycled_embed([1, 5], table, 1).data,
                          tr.embed([1, 5], table).data)
    with pytest.raises(IndexError):
        _recycled_embed([6], table, 2)


def test_recycled_embed_gradient_is_k_at_rows():
    table = Tensor(np.random.default_rng(33).standard_normal((5, 3)),
                   requires_grad=True, name="table")
    with Graph() as g:
        loss = sum_all(_recycled_embed([2], table, k=3))
    backward(g, loss)
    expected = np.zeros((5, 3))
    expected[2] = 3.0
    assert np.array_equal(table.grad, expected)

    def f(ps):
        return sum_all(_recycled_embed([2], table, k=3))

    table.grad = None
    assert grad_check(f, [table], eps=1e-5) < 1e-6


def test_recycled_downproject():
    a = np.array([[1.0, 2.0]])
    b = np.array([[10.0, -3.0]])
    x = Tensor(np.concatenate([a, b], axis=1))
    assert np.array_equal(alt.recycled_downproject(x, 2).data, a + b)
    r = np.array([[0.5, 1.5, -2.0]])
    rr = Tensor(np.concatenate([r, r], axis=1))
    assert np.array_equal(alt.recycled_downproject(rr, 2).data, 2 * r)
    with pytest.raises(T.ShapeError):
        alt.recycled_downproject(Tensor(np.zeros((1, 5))), 2)


def test_recycled_round_trip_and_linearity():
    rng = np.random.default_rng(34)
    table = Tensor(rng.standard_normal((7, 4)))
    ids = [3, 0, 6]
    down = alt.recycled_downproject(_recycled_embed(ids, table, 3), 3)
    assert np.allclose(down.data, 3 * table.data[ids])
    x = rng.standard_normal((4, 8))
    alpha = 2.75
    lhs = alt.recycled_downproject(Tensor(alpha * x), 2).data
    rhs = alpha * alt.recycled_downproject(Tensor(x), 2).data
    assert np.allclose(lhs, rhs, rtol=1e-14)
