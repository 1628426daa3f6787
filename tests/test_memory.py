"""Partial experts and the four lookup functions."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altup import costs
from altup import memory as mem
from altup import models
from altup import tensor as T
from altup.tensor import Graph, Tensor, backward
from altup.transformer import ModelConfig


def test_expert_forward_zero_weights():
    table = mem.MemoryTable(n=2, d=4, rank=2, rng=np.random.default_rng(0), constant=False)
    table.u.data[1] = 0.0
    table.v.data[1] = 0.0
    out = mem.expert_forward(Tensor(np.ones((1, 4))), table.experts[1])
    assert np.array_equal(out.data, np.zeros((1, 4)))


def test_expert_forward_rank_one_relu_gate():
    table = mem.MemoryTable(n=1, d=3, rank=1, rng=np.random.default_rng(1), constant=False)
    table.u.data[...] = 0.0
    table.v.data[...] = 0.0
    table.u.data[0, 0, 0] = 1.0  # U = e1
    table.v.data[0, 0, 1] = 1.0  # V = e2, stored as V^T
    e = table.experts[0]
    out = mem.expert_forward(Tensor(np.array([[3.0, 0.0, 0.0]])), e)
    assert np.allclose(out.data, [[0.0, 3.0, 0.0]])
    out_neg = mem.expert_forward(Tensor(np.array([[-3.0, 0.0, 0.0]])), e)
    assert np.array_equal(out_neg.data, np.zeros((1, 3)))


def test_expert_stores_v_transposed_and_applies_it_bitwise():
    n, d, rank = 3, 6, 2
    table = mem.MemoryTable(n=n, d=d, rank=rank, rng=np.random.default_rng(8), constant=False)
    assert table.u.data.shape == (n, d, rank) and table.v.data.shape == (n, rank, d)
    # row-major like a per-expert V^T, so each product has the per-expert layout
    assert table.u.data.flags.c_contiguous and table.v.data.flags.c_contiguous
    # expert after expert: U_i, then V_i drawn as (d, rank) and stored transposed
    rng = np.random.default_rng(8)
    x = np.random.default_rng(9).standard_normal((5, d))
    for i, e in enumerate(table.experts):
        u = rng.normal(0, 1 / np.sqrt(d), (d, rank))
        v = rng.normal(0, 1 / np.sqrt(rank), (d, rank))
        assert np.array_equal(table.u.data[i], u) and np.array_equal(table.v.data[i], v.T)
        # the handle views the table's slices and is no parameter
        assert e[0].data.base is table.u.data and e[1].data.base is table.v.data
        assert not (e[0].requires_grad or e[1].requires_grad)
        out = mem.expert_forward(Tensor(x), e)
        assert np.array_equal(out.data, np.maximum(x @ u, 0.0) @ v.T)
    with pytest.raises(T.ShapeError):
        mem.expert_forward(Tensor(np.ones(d)), table.experts[0])


@pytest.mark.parametrize("n,d,rank", [(5, 6, 2), (16, 32, 4), (64, 32, 8), (258, 64, 4)])
def test_table_draw_is_bitwise_the_per_expert_loop(n, d, rank):
    rng = np.random.default_rng(n)
    table = mem.MemoryTable(n=n, d=d, rank=rank, rng=rng, constant=False)
    ref_rng = np.random.default_rng(n)
    u, v = np.empty((n, d, rank)), np.empty((n, rank, d))
    for i in range(n):
        u[i] = ref_rng.normal(0, 1 / np.sqrt(d), (d, rank))
        v[i] = ref_rng.normal(0, 1 / np.sqrt(rank), (d, rank)).T
    assert table.u.data.tobytes() == u.tobytes() and table.v.data.tobytes() == v.tobytes()
    assert table.u.data.flags.c_contiguous and table.v.data.flags.c_contiguous
    # the generator is left where the loop leaves it
    assert rng.standard_normal(3).tobytes() == ref_rng.standard_normal(3).tobytes()


def test_expert_param_count():
    table = mem.MemoryTable(n=3, d=8, rank=4, rng=np.random.default_rng(2), constant=False)
    assert [(p.name, p.data.shape) for p in table.params()] == [
        ("table.u", (3, 8, 4)), ("table.v", (3, 4, 8))]
    assert sum(p.size for p in table.params()) == 3 * 2 * 4 * 8
    c = mem.MemoryTable(n=3, d=8, rank=0, rng=np.random.default_rng(2), constant=True,
                        prefix="layers.1.table")
    assert [(p.name, p.data.shape) for p in c.params()] == [("layers.1.table.b", (3, 8))]
    assert sum(p.size for p in c.params()) == 3 * 8
    assert np.array_equal(
        mem.expert_forward(Tensor(np.ones((2, 8))), c.experts[2]).data, np.zeros((2, 8)))


def test_table_param_census_matches_formula():
    rng = np.random.default_rng(3)
    table = mem.MemoryTable(n=128, d=64, rank=16, rng=rng, constant=False)
    census = sum(p.size for p in table.params())
    assert census == costs.memory_params_per_layer(128, 16, 64, "lsh", constant=False) == 262144
    small = mem.MemoryTable(n=5, d=6, rank=2, rng=rng, constant=False)
    assert sum(p.size for p in small.params()) == 2 * 2 * 5 * 6
    constant = mem.MemoryTable(n=5, d=6, rank=2, rng=rng, constant=True)
    assert (sum(p.size for p in constant.params())
            == costs.memory_params_per_layer(5, 2, 6, "lsh", constant=True) == 5 * 6)


def test_softmax_route_uniform_when_router_zero():
    r = mem.RouterParams(w=Tensor(np.zeros((4, 3))), k=1, jitter_eps=0.0)
    idx, probs = mem.softmax_route(Tensor(np.ones(3)), r)
    assert idx == [0]  # tie-break toward lowest index
    assert np.isclose(probs[0], 0.25)


def test_softmax_route_known_logits():
    # h = (ln 3, ln 1) -> probs (0.75, 0.25)
    w = np.array([[np.log(3.0)], [0.0]])
    r = mem.RouterParams(w=Tensor(w), k=2, jitter_eps=0.0)
    idx, probs = mem.softmax_route(Tensor(np.array([1.0])), r)
    assert idx == [0, 1]
    assert np.allclose(probs, [0.75, 0.25])


def test_softmax_route_probs_sum_to_one():
    rng = np.random.default_rng(4)
    for trial in range(20):
        r = mem.RouterParams(w=Tensor(rng.standard_normal((8, 5))), k=8, jitter_eps=0.0)
        _, probs = mem.softmax_route(Tensor(rng.standard_normal(5)), r)
        assert abs(sum(probs) - 1.0) < 1e-12


def test_softmax_route_topk_matches_full_sort():
    rng = np.random.default_rng(5)
    for trial in range(20):
        r = mem.RouterParams(w=Tensor(rng.standard_normal((9, 4))), k=3, jitter_eps=0.0)
        x = Tensor(rng.standard_normal(4))
        idx, probs = mem.softmax_route(x, r)
        h = r.w.data @ x.data
        p = np.exp(h - h.max())
        p /= p.sum()
        assert list(np.sort(probs)[::-1]) == sorted(probs, reverse=True)
        assert idx == np.argsort(-p, kind="stable")[:3].tolist()


# rows of exact ties (a few distinct values, -0.0 beside 0.0, infinities) and
# rows with NaN, beside rows of distinct draws
_TOPK_VALUES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -1.0, np.inf, -np.inf, np.nan])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 9), rows=st.integers(1, 5), ties=st.booleans())
def test_top_k_is_the_prefix_of_a_stable_descending_sort(data, n, rows, ties):
    values = _TOPK_VALUES if ties else st.floats(-1e3, 1e3, allow_nan=False)
    p = np.array(data.draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                    min_size=rows, max_size=rows)), dtype=np.float64)
    want = np.argsort(-p, axis=-1, kind="stable")
    for k in range(1, n + 1):
        got = mem.top_k(p, k)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want[:, :k])


def test_softmax_route_deterministic_without_jitter():
    rng = np.random.default_rng(6)
    r = mem.RouterParams(w=Tensor(rng.standard_normal((6, 4))), k=2, jitter_eps=0.01)
    x = Tensor(rng.standard_normal(4))
    a = mem.softmax_route(x, r, training=False)
    b = mem.softmax_route(x, r, training=False)
    assert a == b
    # jitter path requires an rng and moves the probabilities
    j1 = mem.softmax_route(x, r, training=True, rng=np.random.default_rng(7))
    j2 = mem.softmax_route(x, r, training=True, rng=np.random.default_rng(7))
    assert j1 == j2
    with pytest.raises(ValueError):
        mem.softmax_route(x, r, training=True)


def test_softmax_lookup_routes_rows_as_if_one_at_a_time():
    rng = np.random.default_rng(16)
    router = mem.RouterParams.create(n=6, d=5, rng=rng, k=2, jitter_eps=0.1)
    router.w.data *= 20.0
    xs = rng.standard_normal((7, 5))
    order, weights = mem.softmax_lookup(router, training=True, rng=np.random.default_rng(3))(
        Tensor(xs), range(7))
    assert order.shape == weights.data.shape == (7, 2)
    # one (N, d) jitter draw is the N row draws in order
    q = mem.softmax_lookup(router, training=True, rng=np.random.default_rng(3))
    for i, x in enumerate(xs):
        one_order, one_weights = q(Tensor(x[None]), [i])
        assert one_order.tolist() == order[i:i + 1].tolist()
        assert np.abs(weights.data[i] - one_weights.data[0]).max() <= 1e-15
    assert mem.softmax_route(Tensor(xs[2]), router)[0] == \
        mem.softmax_lookup(router)(Tensor(xs), range(7))[0][2].tolist()


def test_token_id_lookup():
    q = mem.token_id_fixed_lookup(10)
    x = Tensor(np.ones((1, 3)))
    assert q(x, 0)[0].tolist() == [[0]] and q(x, 7)[0].tolist() == [[7]]
    with pytest.raises(IndexError):
        q(x, 10)
    # layer/position independent: the id is the answer, whatever the input
    assert q(Tensor(-x.data), 3)[0].tolist() == q(x, 3)[0].tolist() == [[3]]


def test_token_id_fixed_lookup_names_an_out_of_range_id_and_its_position():
    q = mem.token_id_fixed_lookup(10)
    ids = np.array([[1, 4, 7], [2, 9, 0]])
    indices, weights = q(Tensor(np.zeros((6, 2))), ids)
    assert weights is None and indices.tolist() == [[i] for i in ids.reshape(-1)]
    ids[1, 1] = 12
    with pytest.raises(IndexError, match=r"id_fixed_lookup: index 12 at position 4 out of "
                                         r"range \[0, 10\)"):
        q(Tensor(np.zeros((6, 2))), ids)
    ids[1, 1] = -1
    with pytest.raises(IndexError, match="index -1 at position 4"):
        q(Tensor(np.zeros((6, 2))), ids)


def test_hyperplane_lsh_cell_arithmetic():
    p = mem.HyperplaneLshParams(directions=np.array([[1.0]]),
                                offsets=np.array([0.0]), width=1.0, n=64)
    b_half = mem.hyperplane_lsh_lookup(np.array([0.5]), p)
    b_nine = mem.hyperplane_lsh_lookup(np.array([0.9]), p)
    b_big = mem.hyperplane_lsh_lookup(np.array([1.5]), p)
    assert b_half == b_nine
    assert b_half != b_big


def test_hyperplane_lsh_deterministic_and_stable():
    p = mem.HyperplaneLshParams.create(d=8, n=32, seed=11)
    x = np.random.default_rng(12).standard_normal(8)
    first = mem.hyperplane_lsh_lookup(x, p)
    for _ in range(5):
        assert mem.hyperplane_lsh_lookup(x, p) == first
    assert 0 <= first < 32
    # same seed, fresh params object: same bucket
    p2 = mem.HyperplaneLshParams.create(d=8, n=32, seed=11)
    assert mem.hyperplane_lsh_lookup(x, p2) == first


def _lsh_reference(x, p):
    """The bucket of one vector, hashed on Python ints one cell at a time."""
    cells = np.floor((p.directions @ x + p.offsets) / p.width).astype(np.int64)
    h = mem._LSH_SEED_CONST
    for c in cells:
        h = mem._splitmix64(h ^ (int(c) & mem._M64))
    return int(h % p.n)


def test_hyperplane_lsh_rows_match_python_int_reference():
    p = mem.HyperplaneLshParams.create(d=8, n=37, seed=3)
    xs = 3.0 * np.random.default_rng(15).standard_normal((60, 8))
    got = mem.hyperplane_lsh_lookup(xs, p)
    assert got.shape == (60,) and got.dtype == np.int64
    assert got.tolist() == [_lsh_reference(x, p) for x in xs]
    assert [mem.hyperplane_lsh_lookup(x, p) for x in xs] == got.tolist()
    assert np.array_equal(mem.hyperplane_lsh_lookup(Tensor(xs.reshape(6, 10, 8)), p),
                          got.reshape(6, 10))
    indices, weights = mem.lsh_lookup(p)(Tensor(xs), range(60))
    assert weights is None and np.array_equal(indices, got[:, None])


def test_hyperplane_collision_monotone_in_angle():
    # collision rate of two unit vectors decreases as the angle grows
    rng = np.random.default_rng(13)
    angles = [0.1, 0.6, 1.2]
    rates = []
    for theta in angles:
        hits = 0
        trials = 3000
        for t in range(trials):
            p = mem.HyperplaneLshParams.create(d=6, n=512, seed=(t * 7919 + int(theta * 1e4)))
            u = rng.standard_normal(6)
            u /= np.linalg.norm(u)
            r = rng.standard_normal(6)
            r -= (r @ u) * u
            r /= np.linalg.norm(r)
            v = np.cos(theta) * u + np.sin(theta) * r
            hits += mem.hyperplane_lsh_lookup(u, p) == mem.hyperplane_lsh_lookup(v, p)
        rates.append(hits / trials)
    assert rates[0] > rates[1] > rates[2]


def test_minhash_singleton_and_subset():
    assert mem.minhash_lookup({5}, perm_seed=1) == 5
    rng = np.random.default_rng(14)
    for trial in range(200):
        b = set(rng.integers(0, 1000, size=12).tolist())
        a = set(list(b)[:6])
        seed = int(rng.integers(0, 2**31))
        hb = mem.minhash_lookup(b, seed)
        if hb in a:
            assert mem.minhash_lookup(a, seed) == hb
    with pytest.raises(ValueError):
        mem.minhash_lookup(set(), perm_seed=0)


def _minhash_reference(token_ids, perm_seed):
    """Min-hash choice on Python ints, one id at a time."""
    ids = set(int(i) for i in token_ids)
    base = mem._splitmix64(int(perm_seed) & mem._M64)
    return min(ids, key=lambda i: (mem._splitmix64(base ^ i), i))


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=80),
       st.integers(-2**63, 2**64 - 1))
def test_minhash_matches_python_int_reference(ids, perm_seed):
    want = _minhash_reference(ids, perm_seed)
    assert mem.minhash_lookup(ids, perm_seed) == want
    # a sequence row of ids, repeats included, picks the same member
    row = np.array(sorted(ids) * 2, dtype=np.int64)
    assert mem.minhash_lookup(row, perm_seed) == want


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 12), st.integers(0, 2**62), st.data())
def test_minhash_prefix_members_match_minhash_of_each_prefix(b, t, perm_seed, data):
    ids = np.array(data.draw(st.lists(st.integers(0, 20), min_size=b * t, max_size=b * t)),
                   dtype=np.int64).reshape(b, t)
    got = mem.minhash_prefix_members(ids, perm_seed)
    assert got.tolist() == [[mem.minhash_lookup(row[:i + 1], perm_seed) for i in range(t)]
                            for row in ids]
    # the lookup routes the B*T rows in row-major order, each to its prefix bucket
    q = mem.minhash_sequence_lookup(ids, perm_seed, n=7)
    indices, weights = q(Tensor(np.zeros((b * t, 2))), ids.reshape(-1))
    assert weights is None and indices.tolist() == [[m % 7] for m in got.reshape(-1)]
    with pytest.raises(T.ShapeError):
        q(Tensor(np.zeros((b * t + 1, 2))), None)


def test_minhash_collision_matches_jaccard():
    a = set(range(0, 30))
    b = set(range(15, 45))
    jac = len(a & b) / len(a | b)
    trials = 10000
    hits = sum(mem.minhash_lookup(a, s) == mem.minhash_lookup(b, s) for s in range(trials))
    p_hat = hits / trials
    stderr = np.sqrt(jac * (1 - jac) / trials)
    assert abs(p_hat - jac) < 3 * stderr


def _table(n=3, d=4, rank=2, seed=20, constant=False):
    return mem.MemoryTable(n=n, d=d, rank=rank, rng=np.random.default_rng(seed),
                           constant=constant)


def test_memory_forward_empty_selection_is_inner_output():
    table = _table()
    inner = Tensor(np.random.default_rng(21).standard_normal((1, 4)))
    out = mem.memory_augmented_forward(
        Tensor(np.ones((1, 4))), 0, inner, lambda x, tid: ([], None), table)
    assert np.array_equal(out.data, inner.data)


def test_memory_forward_zero_experts_is_inner_output():
    table = _table()
    table.u.data[...] = 0.0
    table.v.data[...] = 0.0
    x = Tensor(np.random.default_rng(22).standard_normal((1, 4)))
    inner = Tensor(np.random.default_rng(23).standard_normal((1, 4)))
    for lookup in (mem.token_id_fixed_lookup(3),
                   mem.lsh_lookup(mem.HyperplaneLshParams.create(4, 3, seed=1)),
                   mem.minhash_sequence_lookup([2], perm_seed=3, n=3)):
        out = mem.memory_augmented_forward(x, 1, inner, lookup, table)
        assert np.array_equal(out.data, inner.data)


def test_memory_forward_single_expert_forced_probability():
    table = _table(n=1)
    router = mem.RouterParams.create(n=1, d=4, rng=np.random.default_rng(24), k=1,
                                     jitter_eps=0.0)
    x = Tensor(np.random.default_rng(25).standard_normal((1, 4)))
    inner = Tensor(np.zeros((1, 4)))
    out = mem.memory_augmented_forward(x, 0, inner, mem.softmax_lookup(router), table)
    expected = mem.expert_forward(x, table.experts[0]).data
    assert np.allclose(out.data, expected)


def test_memory_forward_index_out_of_range():
    table = _table(n=2)
    with pytest.raises(IndexError):
        mem.memory_augmented_forward(Tensor(np.ones((1, 4))), 0, Tensor(np.zeros((1, 4))),
                                     lambda x, tid: ([5], None), table)


def test_lsh_lookup_ignores_call_order():
    p = mem.HyperplaneLshParams.create(d=5, n=16, seed=30)
    xs = [np.random.default_rng(s).standard_normal(5) for s in range(6)]
    forward = [mem.hyperplane_lsh_lookup(x, p) for x in xs]
    backward_order = [mem.hyperplane_lsh_lookup(x, p) for x in reversed(xs)]
    assert forward == backward_order[::-1]


@pytest.mark.parametrize("lookup", ["softmax", "token_id", "lsh", "minhash"])
@pytest.mark.parametrize("batch,t_len", [(1, 1), (2, 1), (3, 5)])
def test_lookups_route_a_batch_like_its_rows(lookup, batch, t_len):
    # a (B, T, d) input is routed as its B*T rows in row-major order; softmax
    # weights are bitwise equal under the same training jitter draw
    d, n = 5, 7
    rng = np.random.default_rng(40)
    ids = rng.integers(0, n, (batch, t_len))
    xs = 3.0 * rng.standard_normal((batch, t_len, d))
    router = mem.RouterParams.create(n, d, rng, k=2, jitter_eps=0.1)
    router.w.data *= 20.0
    lsh = mem.HyperplaneLshParams.create(d, n, seed=41)
    make = {"softmax": lambda: mem.softmax_lookup(router, training=True,
                                                  rng=np.random.default_rng(42)),
            "token_id": lambda: mem.token_id_fixed_lookup(n),
            "lsh": lambda: mem.lsh_lookup(lsh),
            "minhash": lambda: mem.minhash_sequence_lookup(ids, perm_seed=43, n=n)}[lookup]
    got, got_w = make()(Tensor(xs), ids.reshape(-1))
    want, want_w = make()(Tensor(xs.reshape(-1, d)), ids.reshape(-1))
    assert got.shape == want.shape == (batch * t_len, 2 if lookup == "softmax" else 1)
    assert np.array_equal(got, want)
    if lookup == "softmax":
        assert got_w.data.shape == want_w.data.shape == (batch * t_len, 2)
        assert np.array_equal(got_w.data, want_w.data)
    else:
        assert got_w is None and want_w is None


@pytest.mark.parametrize("constant", [False, True], ids=["matrix", "constant"])
def test_per_position_rows_call_no_primitive_but_the_expert_product(monkeypatch, constant):
    # each position's row is arithmetic on constants: inside a graph it
    # reaches the tape only through expert_forward's fused product, which
    # records nothing on constant inputs and keeps the MAC count
    cfg = ModelConfig(d_model=6, n_layers=1, n_heads=1, ffn_hidden=8, vocab_size=11,
                      max_seq_len=5)
    model = models.Model(cfg, "dense", seed=1, memory={"n": 4, "rank": 3, "lookup": "softmax",
                                                       "k": 2, "constant": constant})
    ops, inside = [], []
    record, per_position = T.record, models.memory_augmented_forward

    def recording(op, *args):
        if inside:
            ops.append(op)
        return record(op, *args)

    def marked(*args):
        inside.append(True)
        try:
            return per_position(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(T, "record", recording)
    monkeypatch.setattr(models, "memory_augmented_forward", marked)
    ids = np.array([[1, 4, 7, 2, 9], [3, 0, 9, 5, 5]])
    with Graph() as g:
        model.loss(ids, ids, training=True, rng=np.random.default_rng(0))
    assert ops == ([] if constant else ["matmul_relu_matmul"] * 2 * ids.size)
    assert [node.op for node in g.nodes].count("gather_cols") == 1  # the route's


# -- one node per memory layer against the per-row tape ------------------------

def _per_row_memory_augment(slot, x_in, inner_out, ids, training, rng):
    """The memory layer as a per-row tape: each position's selected experts
    are gathered from the stacked table and applied, on the graph, to its own
    gathered row, each with its own entry of the (N, k) probability weights."""
    table = slot["table"]
    indices, weights = models._lookup(slot, ids, training, rng)(x_in, ids.reshape(-1).tolist())
    x_rows = T.reshape(x_in, (ids.size, x_in.data.shape[-1]))
    inner_rows = T.reshape(inner_out, x_rows.data.shape)

    def expert_slice(p, i):
        flat = T.reshape(p, (table.n, p.data[0].size))
        return T.reshape(T.gather_rows(flat, [i]), p.data.shape[1:])

    rows = []
    for r, route in enumerate(indices.tolist()):
        x = T.gather_rows(x_rows, [r])
        out = T.gather_rows(inner_rows, [r])
        for j, i in enumerate(route):
            if table.constant:
                e_out = T.add(T.scalar_mul(x, 0.0), T.gather_rows(table.b, [i]))
            else:
                e_out = T.matmul_relu_matmul(x, expert_slice(table.u, i),
                                             expert_slice(table.v, i))
            out = T.add(out, e_out if weights is None
                        else T.mul(T.slice_last(T.gather_rows(weights, [r]), j, 1), e_out))
        rows.append(out)
    return T.reshape(T.concat_last(rows), x_in.data.shape)


@settings(max_examples=60, deadline=None)
@given(lookup=st.sampled_from(["softmax", "token_id", "lsh", "minhash"]),
       k=st.sampled_from([1, 2]), constant=st.booleans(), batch=st.sampled_from([1, 2, 3]),
       t_len=st.sampled_from([1, 5]), training=st.booleans(), seed=st.integers(0, 2**16),
       size=st.just((6, 4)))
# the smoke model's width and an (N, k) = (32, 2) route over 16 experts
@example(lookup="softmax", k=2, constant=False, batch=2, t_len=16, training=True, seed=5,
         size=(32, 16))
def test_memory_layer_node_is_bitwise_the_per_row_tape(lookup, k, constant, batch, t_len,
                                                       training, seed, size):
    (d, n), vocab = size, 11
    cfg = ModelConfig(d_model=d, n_layers=1, n_heads=1, ffn_hidden=8, vocab_size=vocab,
                      max_seq_len=t_len)
    memory = {"n": vocab if lookup == "token_id" else n, "rank": 3, "lookup": lookup,
              "constant": constant, "k": k if lookup == "softmax" else 1}
    slot = models.Model(cfg, "dense", seed=seed, memory=memory)._mem[0]
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, vocab, (batch, t_len))
    cotangent = rng.standard_normal((batch, t_len, d))
    runs = []
    for layer in (models._memory_augment, _per_row_memory_augment):
        params = [slot["router"].w] if "router" in slot else []
        params += slot["table"].params()
        for p in params:
            p.grad = None
        x_in = Tensor(np.random.default_rng(seed + 1).standard_normal((batch, t_len, d)),
                      requires_grad=True)
        inner = Tensor(np.random.default_rng(seed + 2).standard_normal((batch, t_len, d)),
                       requires_grad=True)
        with Graph() as g:
            out = layer(slot, x_in, inner, ids, training, np.random.default_rng(seed + 3))
            loss = T.sum_all(T.mul(out, Tensor(cotangent)))
        backward(g, loss)
        runs.append([out.data, x_in.grad, inner.grad] + [p.grad for p in params])
    for got, want in zip(*runs):
        assert (got is None) == (want is None)
        assert got is None or np.array_equal(got, want)
