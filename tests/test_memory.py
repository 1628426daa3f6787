"""Partial experts and the four lookup functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altup import costs
from altup import memory as mem
from altup import tensor as T
from altup.tensor import Graph, Tensor, backward, grad_check


def test_expert_forward_zero_weights():
    e = mem.PartialExpert(4, rank=2, rng=np.random.default_rng(0))
    e.u.data[...] = 0.0
    e.v.data[...] = 0.0
    out = mem.expert_forward(Tensor(np.ones(4)), e)
    assert np.array_equal(out.data, np.zeros(4))


def test_expert_forward_rank_one_relu_gate():
    e = mem.PartialExpert(3, rank=1, rng=np.random.default_rng(1))
    e.u.data[...] = 0.0
    e.v.data[...] = 0.0
    e.u.data[0, 0] = 1.0  # U = e1
    e.v.data[1, 0] = 1.0  # V = e2
    out = mem.expert_forward(Tensor(np.array([3.0, 0.0, 0.0])), e)
    assert np.allclose(out.data, [0.0, 3.0, 0.0])
    out_neg = mem.expert_forward(Tensor(np.array([-3.0, 0.0, 0.0])), e)
    assert np.array_equal(out_neg.data, np.zeros(3))


def test_expert_param_count():
    e = mem.PartialExpert(8, rank=4, rng=np.random.default_rng(2))
    assert e.param_count() == 2 * 4 * 8
    c = mem.PartialExpert(8, constant=True)
    assert c.param_count() == 8
    assert np.array_equal(
        mem.expert_forward(Tensor(np.ones((2, 8))), c).data, np.zeros((2, 8)))


def test_table_param_census_matches_formula():
    rng = np.random.default_rng(3)
    table = mem.MemoryTable(n=128, d=64, rank=16, rng=rng)
    assert table.param_count() == costs.memory_params_per_layer(128, 16, 64, "lsh")
    assert table.param_count() == 262144
    small = mem.MemoryTable(n=5, d=6, rank=2, rng=rng)
    assert small.param_count() == 2 * 2 * 5 * 6
    assert sum(p.size for p in small.params()) == small.param_count()
    constant = mem.MemoryTable(n=5, d=6, rank=2, rng=rng, constant=True)
    assert constant.param_count() == costs.memory_params_per_layer(5, 2, 6, "lsh", constant=True)
    assert sum(p.size for p in constant.params()) == constant.param_count() == 5 * 6


def test_softmax_route_uniform_when_router_zero():
    r = mem.RouterParams(w=Tensor(np.zeros((4, 3))), k=1)
    idx, probs = mem.softmax_route(Tensor(np.ones(3)), r)
    assert idx == [0]  # tie-break toward lowest index
    assert np.isclose(probs[0], 0.25)


def test_softmax_route_known_logits():
    # h = (ln 3, ln 1) -> probs (0.75, 0.25)
    w = np.array([[np.log(3.0)], [0.0]])
    r = mem.RouterParams(w=Tensor(w), k=2)
    idx, probs = mem.softmax_route(Tensor(np.array([1.0])), r)
    assert idx == [0, 1]
    assert np.allclose(probs, [0.75, 0.25])


def test_softmax_route_probs_sum_to_one():
    rng = np.random.default_rng(4)
    for trial in range(20):
        r = mem.RouterParams(w=Tensor(rng.standard_normal((8, 5))), k=8)
        _, probs = mem.softmax_route(Tensor(rng.standard_normal(5)), r)
        assert abs(sum(probs) - 1.0) < 1e-12


def test_softmax_route_topk_matches_full_sort():
    rng = np.random.default_rng(5)
    for trial in range(20):
        r = mem.RouterParams(w=Tensor(rng.standard_normal((9, 4))), k=3)
        x = Tensor(rng.standard_normal(4))
        idx, probs = mem.softmax_route(x, r)
        h = r.w.data @ x.data
        p = np.exp(h - h.max())
        p /= p.sum()
        assert list(np.sort(probs)[::-1]) == sorted(probs, reverse=True)
        assert set(idx) == set(np.argsort(-p)[:3].tolist())


def test_softmax_route_deterministic_without_jitter():
    rng = np.random.default_rng(6)
    r = mem.RouterParams(w=Tensor(rng.standard_normal((6, 4))), k=2)
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


def test_token_id_lookup():
    assert mem.token_id_lookup(0, 10) == 0
    assert mem.token_id_lookup(7, 10) == 7
    with pytest.raises(IndexError):
        mem.token_id_lookup(10, 10)
    # layer/position independent: the id is the answer, always
    assert mem.token_id_lookup(3, 10) == mem.token_id_lookup(3, 10)


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
    inner = Tensor(np.random.default_rng(21).standard_normal(4))
    out = mem.memory_augmented_forward(
        Tensor(np.ones(4)), 0, inner, lambda x, tid: [], table)
    assert np.array_equal(out.data, inner.data)


def test_memory_forward_zero_experts_is_inner_output():
    table = _table()
    for e in table.experts:
        e.u.data[...] = 0.0
        e.v.data[...] = 0.0
    x = Tensor(np.random.default_rng(22).standard_normal(4))
    inner = Tensor(np.random.default_rng(23).standard_normal(4))
    for lookup in (mem.token_id_fixed_lookup(3),
                   mem.lsh_lookup(mem.HyperplaneLshParams.create(4, 3, seed=1)),
                   mem.minhash_sequence_lookup([1, 2], perm_seed=3, n=3)):
        out = mem.memory_augmented_forward(x, 1, inner, lookup, table)
        assert np.array_equal(out.data, inner.data)


def test_memory_forward_single_expert_forced_probability():
    table = _table(n=1)
    router = mem.RouterParams.create(n=1, d=4, rng=np.random.default_rng(24), k=1)
    x = Tensor(np.random.default_rng(25).standard_normal(4))
    inner = Tensor(np.zeros(4))
    out = mem.memory_augmented_forward(x, 0, inner, mem.softmax_lookup(router), table)
    expected = mem.expert_forward(x, table.experts[0]).data
    assert np.allclose(out.data, expected)


def test_memory_forward_index_out_of_range():
    table = _table(n=2)
    with pytest.raises(IndexError):
        mem.memory_augmented_forward(Tensor(np.ones(4)), 0, Tensor(np.zeros(4)),
                                     lambda x, tid: [5], table)


def test_gradient_flows_into_router_through_probabilities():
    rng = np.random.default_rng(26)
    table = _table(n=3, d=4, rank=2, seed=27)
    router = mem.RouterParams.create(n=3, d=4, rng=rng, k=2)
    router.w.data *= 25.0  # separate the top-k margins for finite differences
    x = Tensor(rng.standard_normal(4))
    inner = Tensor(rng.standard_normal(4))

    def f(ps):
        out = mem.memory_augmented_forward(x, 0, inner,
                                           mem.softmax_lookup(router), table)
        return T.sum_all(T.mul(out, out))

    params = [router.w] + table.params()
    assert grad_check(f, params, eps=1e-5) < 1e-4

    router.w.grad = None
    with Graph() as g:
        loss = f(None)
    backward(g, loss)
    assert router.w.grad is not None and np.abs(router.w.grad).sum() > 0


def test_lsh_lookup_ignores_call_order():
    p = mem.HyperplaneLshParams.create(d=5, n=16, seed=30)
    xs = [np.random.default_rng(s).standard_normal(5) for s in range(6)]
    forward = [mem.hyperplane_lsh_lookup(x, p) for x in xs]
    backward_order = [mem.hyperplane_lsh_lookup(x, p) for x in reversed(xs)]
    assert forward == backward_order[::-1]
