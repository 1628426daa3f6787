"""Variant model assembly: forwards, determinism, memory attachment."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altup import costs, models, tensor as T, transformer as tr
from altup.tensor import Graph, backward


def _cfg(d=8, L=2, heads=2, ffn=16, v=11, n=12):
    return tr.ModelConfig(d_model=d, n_layers=L, n_heads=heads, ffn_hidden=ffn,
                          vocab_size=v, max_seq_len=n)


ALL_VARIANTS = [
    ("dense", {}),
    ("altup", {"altup": {"k": 2}}),
    ("altup", {"altup": {"k": 4}}),
    ("altup", {"altup": {"k": 3, "selection": "same"}}),
    ("recycled_altup", {"altup": {"k": 2}}),
    ("sum_baseline", {}),
    ("seq_altup", {"seq": {"stride": 2}}),
    ("stride_skip", {"seq": {"stride": 2}}),
    ("avg_pool", {"seq": {"stride": 2}}),
]


@pytest.mark.parametrize("variant,kwargs", ALL_VARIANTS)
def test_every_variant_forwards_and_backwards(variant, kwargs):
    cfg = _cfg(L=3)
    model = models.Model(cfg, variant, seed=1, **kwargs)
    ids = [1, 4, 7, 2, 9, 0]
    targets = [4, 7, 2, 9, 0, 3]
    model.zero_grad()
    with Graph() as g:
        loss = model.loss(ids, targets)
    assert np.isfinite(loss.item())
    backward(g, loss)
    grads = [p for p in model.parameters() if p.grad is not None and np.abs(p.grad).sum() > 0]
    assert len(grads) > 0


MEMORY_LOOKUPS = [("softmax", 6), ("token_id", 11), ("lsh", 5), ("minhash", 4)]


def _max_rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("variant,kwargs", ALL_VARIANTS + [
    ("dense", {"memory": {"n": n, "rank": 2, "lookup": lookup, "k": 1}})
    for lookup, n in MEMORY_LOOKUPS])
def test_batched_forward_matches_per_example(variant, kwargs):
    model = models.Model(_cfg(L=3), variant, seed=12, **kwargs)
    rng = np.random.default_rng(13)
    ids = rng.integers(0, 11, size=(3, 6))
    targets = rng.integers(0, 11, size=(3, 6))
    logits, positions = model.forward(ids)
    for b in range(3):
        one, one_positions = model.forward(ids[b])
        assert np.array_equal(positions, one_positions)
        assert _max_rel(logits.data[b], one.data) <= 1e-12
    per_example = np.mean([model.loss(ids[b], targets[b]).item() for b in range(3)])
    assert abs(model.loss(ids, targets).item() - per_example) <= 1e-12 * per_example


# The decoder-only contract at model level: a logit row never reads an input
# position after the one whose target it predicts. Min-hash memory holds it
# because each position hashes only the ids of its prefix.
CAUSAL_MODELS = [
    ("dense", {}),
    ("altup", {"altup": {"k": 2}}),
    ("recycled_altup", {"altup": {"k": 2}}),
    ("sum_baseline", {}),
    ("seq_altup", {"seq": {"stride": 2}}),
    ("stride_skip", {"seq": {"stride": 3}}),
    ("avg_pool", {"seq": {"stride": 3}}),
] + [("dense", {"memory": {"n": n, "rank": 2, "lookup": lookup}})
     for lookup, n in MEMORY_LOOKUPS]


@pytest.mark.parametrize("variant,kwargs", CAUSAL_MODELS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_logits_never_read_later_inputs(variant, kwargs, data):
    model = models.Model(_cfg(L=3), variant, seed=14, **kwargs)
    b = data.draw(st.sampled_from([1, 2]), label="batch")
    t_len = data.draw(st.integers(2, 12), label="T")
    t = data.draw(st.integers(1, t_len - 1), label="first changed position")
    ids_st = st.lists(st.integers(0, 10), min_size=b * t_len, max_size=b * t_len)
    ids = np.array(data.draw(ids_st, label="ids")).reshape(b, t_len)
    other = np.array(data.draw(ids_st, label="new ids")).reshape(b, t_len)
    changed = np.where(np.arange(t_len) >= t, other, ids)
    if b == 1 and data.draw(st.booleans(), label="unbatched"):
        ids, changed = ids[0], changed[0]
    logits, positions = model.forward(ids)
    logits2, _ = model.forward(changed)
    kept = positions < t
    assert np.array_equal(logits.data[..., kept, :], logits2.data[..., kept, :])


@pytest.mark.parametrize("variant,kwargs", CAUSAL_MODELS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_sequence_in_a_batch_gets_its_logits_alone(variant, kwargs, data):
    model = models.Model(_cfg(L=3), variant, seed=15, **kwargs)
    b = data.draw(st.integers(2, 3), label="batch")
    t_len = data.draw(st.integers(1, 12), label="T")
    ids = np.array(data.draw(st.lists(st.integers(0, 10), min_size=b * t_len,
                                      max_size=b * t_len), label="ids")).reshape(b, t_len)
    logits, _ = model.forward(ids)
    for i in range(b):
        alone, _ = model.forward(ids[i])
        assert _max_rel(logits.data[i], alone.data) <= 1e-12


# One training step of the smoke model at seq 16 records the same tape for
# any batch size; the AltUp block's nodes do not depend on K either. A
# transformer layer is 14 nodes, attention from its q/k/v products to its
# `wo` product one `causal_attention` node. An AltUp layer adds its block's
# slice and one predict/correct node, a seq-AltUp layer its predict node, the
# subsample's gather and its correct node, and the loss is one node.
SMOKE_NODES = [
    ("dense", {}, 48),
    ("altup", {"altup": {"k": 2}}, 55),
    ("altup", {"altup": {"k": 4}}, 55),
    ("recycled_altup", {"altup": {"k": 2}}, 58),
    ("seq_altup", {"seq": {"stride": 4}}, 51),
]
SMOKE_IDS = ["dense", "altup-k2", "altup-k4", "recycled_altup-k2", "seq_altup-s4"]

# A step's nodes by op, so a change in the total shows which op moved.
DENSE_SMOKE_OPS = {"gather_rows": 2, "add": 7, "layer_norm": 6, "matmul": 22,
                   "causal_attention": 3, "gelu": 3, "mul": 3, "transpose": 1,
                   "cross_entropy": 1}
ALTUP_SMOKE_OPS = {**DENSE_SMOKE_OPS, "concat_last": 1, "slice_last": 3,
                   "altup_predict_correct": 3}
SEQ_SMOKE_OPS = {**DENSE_SMOKE_OPS, "gather_rows": 3, "seq_predict": 1, "seq_correct": 1}
SMOKE_OPS = {"dense": DENSE_SMOKE_OPS, "altup": ALTUP_SMOKE_OPS, "seq_altup": SEQ_SMOKE_OPS}


# A memory layer records the same tape for any batch size too: one node
# (expert_rows) for all its rows, in the layer's (B, T, d) shape. Softmax
# routing adds 6 more per layer at any top-k count: the router's transpose,
# the reshape of the input to rows, the jitter, the logits product, the
# softmax and the one pick of the (N, k) probability weights.
MEMORY_SMOKE_NODES = [("softmax", 64, 1, 69), ("softmax", 64, 2, 69),
                      ("token_id", 258, 1, 51), ("lsh", 64, 1, 51), ("minhash", 64, 1, 51)]

SMOKE_CFG = tr.ModelConfig(d_model=32, n_layers=3, n_heads=2, ffn_hidden=64,
                           vocab_size=258, max_seq_len=20)


def _step_ops(model, batch, rng):
    ids, targets = rng.integers(0, 258, size=(2, batch, 16))
    with Graph() as g:
        model.loss(ids, targets, training=True, rng=rng)
    return Counter(node.op for node in g.nodes)


@pytest.mark.parametrize("variant,kwargs,nodes", SMOKE_NODES, ids=SMOKE_IDS)
def test_tape_nodes_per_step_do_not_grow_with_batch(variant, kwargs, nodes):
    model = models.Model(SMOKE_CFG, variant, seed=1, **kwargs)
    rng = np.random.default_rng(2)
    for batch in (1, 8):
        ops = _step_ops(model, batch, rng)
        assert ops.total() == nodes, f"batch {batch}"
        if variant in SMOKE_OPS:
            assert ops == SMOKE_OPS[variant], f"batch {batch}"


# The gradient contract at the smoke size: <grad f, v> for a random unit
# direction v against the Richardson extrapolation (4 D(h/2) - D(h)) / 3 of
# the central differences D(h) = (f(p + h v) - f(p - h v)) / 2h, whose error
# is O(h^4). The bound is relative to |grad f| over v's parameters, the
# largest a directional derivative along them can be. v spans all parameters,
# except under the softmax and lsh lookups, whose routes read the layer input:
# there v spans the last layer's inner weights and table, which no route
# reads, as the benchmark's gradient check does.
SMOKE_GRAD_VARIANTS = [
    ("dense", {}),
    ("altup", {"altup": {"k": 2}}),
    ("recycled_altup", {"altup": {"k": 2}}),
    ("sum_baseline", {}),
    ("seq_altup", {"seq": {"stride": 4}}),
    ("stride_skip", {"seq": {"stride": 4}}),
    ("avg_pool", {"seq": {"stride": 4}}),
] + [("dense", {"memory": {"n": n, "rank": 4, "lookup": lookup}})
     for lookup, n in [("softmax", 64), ("token_id", 258), ("lsh", 64), ("minhash", 64)]]
SMOKE_GRAD_IDS = [kwargs["memory"]["lookup"] + "_memory" if "memory" in kwargs else variant
                  for variant, kwargs in SMOKE_GRAD_VARIANTS]
DIRECTIONAL_STEP = 1e-3
DIRECTIONAL_TOLERANCE = 1e-7


def _directional_params(model):
    if model.memory is None or model.memory["lookup"] not in ("softmax", "lsh"):
        return model.parameters()
    last = f"layers.{model.cfg.n_layers - 1}."
    return [p for name, p in model.named_parameters()
            if name.startswith(last) and ".router." not in name]


@pytest.mark.parametrize("variant,kwargs", SMOKE_GRAD_VARIANTS, ids=SMOKE_GRAD_IDS)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_smoke_gradient_matches_directional_differences(variant, kwargs, seed):
    model = models.Model(SMOKE_CFG, variant, seed=1, **kwargs)
    ids, targets = np.random.default_rng(7).integers(0, 258, size=(2, 2, 16))
    params = _directional_params(model)
    model.zero_grad()
    with Graph() as g:
        loss = model.loss(ids, targets)
    backward(g, loss)
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]
    rng = np.random.default_rng(seed)
    v = [rng.standard_normal(p.data.shape) for p in params]
    norm = math.sqrt(sum(float((x * x).sum()) for x in v))
    v = [x / norm for x in v]
    analytic = sum(float((gr * x).sum()) for gr, x in zip(grads, v))
    grad_norm = math.sqrt(sum(float((gr * gr).sum()) for gr in grads))
    base = [p.data.copy() for p in params]

    def central(h):
        values = []
        for step in (h, -h):
            for p, b, x in zip(params, base, v):
                p.data[...] = b + step * x
            values.append(model.loss(ids, targets).item())
        return (values[0] - values[1]) / (2 * h)

    h = DIRECTIONAL_STEP
    numeric = (4 * central(h / 2) - central(h)) / 3
    assert abs(analytic - numeric) <= DIRECTIONAL_TOLERANCE * grad_norm, (analytic, numeric)


def test_memory_tables_are_stacked_tensors():
    # each table is its u (n, d, rank) and v (n, rank, d): 2 parameter tensors
    # per layer where one per expert matrix made 1577 for this model
    memory = {"n": 258, "rank": 4, "lookup": "token_id"}
    model = models.Model(SMOKE_CFG, "dense", seed=1, memory=memory)
    named = model.named_parameters()
    assert len(named) == 35
    assert [(name, p.data.shape) for name, p in named if ".table." in name] == [
        (f"layers.{i}.table.{m}", shape) for i in range(3)
        for m, shape in (("u", (258, 32, 4)), ("v", (258, 4, 32)))]
    report = costs.count_params(SMOKE_CFG, "dense", memory=memory)
    assert model.census() == report.embedding_params + report.non_embedding_params == 237952


@pytest.mark.parametrize("lookup,n,k,nodes", MEMORY_SMOKE_NODES,
                         ids=[f"{lookup}-{n}" + (f"-k{k}" if k > 1 else "")
                              for lookup, n, k, nodes in MEMORY_SMOKE_NODES])
def test_memory_tape_nodes_per_step(lookup, n, k, nodes):
    model = models.Model(SMOKE_CFG, "dense", seed=1,
                         memory={"n": n, "rank": 4, "lookup": lookup, "k": k})
    rng = np.random.default_rng(2)
    for batch in (1, 8):
        assert _step_ops(model, batch, rng).total() == nodes, f"batch {batch}"


# One training step of the smoke model at B=8, T=16. Backward frees each node
# once it has propagated, so its peak stays near what the forward left on the
# tape (1.1-1.3x here; about 2x when the whole tape lived through backward),
# and afterwards only the parameters' gradients are left.
STEP_PEAK_MODELS = [
    ("dense", {}),
    ("altup", {"altup": {"k": 4}}),
    ("dense", {"memory": {"n": 64, "rank": 4, "lookup": "softmax"}}),
]


@pytest.mark.parametrize("variant,kwargs", STEP_PEAK_MODELS,
                         ids=["dense", "altup_k4", "softmax_memory"])
def test_backward_peak_stays_near_what_the_tape_holds(variant, kwargs):
    model = models.Model(SMOKE_CFG, variant, seed=1, **kwargs)
    rng = np.random.default_rng(2)
    ids, targets = rng.integers(0, 258, size=(2, 8, 16))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Graph() as g:
            loss = model.loss(ids, targets, training=True, rng=rng)
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        backward(g, loss)
        peak = tracemalloc.get_traced_memory()[1] - base
        # array buffers only: the interpreter's free lists of small objects
        # (tuples, closures' cell tuples) are not the tape
        arrays = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        left = sum(trace.size for trace in arrays.traces)
    finally:
        tracemalloc.stop()
    grads = sum(p.grad.nbytes for p in model.parameters() if p.grad is not None)
    assert peak <= 1.5 * held, f"peak {peak} vs held {held}"
    assert left <= grads + 64 * 1024, f"left {left} vs grads {grads}"


def test_same_seed_same_parameters():
    cfg = _cfg()
    a = models.Model(cfg, "altup", altup={"k": 2}, seed=7)
    b = models.Model(cfg, "altup", altup={"k": 2}, seed=7)
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)
    c = models.Model(cfg, "altup", altup={"k": 2}, seed=8)
    assert not np.array_equal(a.embed_table.data, c.embed_table.data)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        models.Model(_cfg(), "bogus")


def test_altup_model_runs_inner_on_subblocks(layer_calls, monkeypatch):
    cfg = _cfg(d=4, L=4)
    model = models.Model(cfg, "altup", altup={"k": 2}, seed=2)
    stars = []
    original = models.altup_layer_forward

    def spy(x, params, j_star):
        stars.append(j_star)
        return original(x, params, j_star)

    monkeypatch.setattr(models, "altup_layer_forward", spy)
    model.forward([1, 2, 3])
    assert layer_calls == [3, 3, 3, 3]  # one d-wide inner call per layer
    assert stars == [0, 1, 0, 1]


def test_seq_variants_wrap_interior_layers_only(layer_calls):
    cfg = _cfg(L=4)
    model = models.Model(cfg, "seq_altup", seq={"stride": 2}, seed=3)
    model.forward([1, 2, 3, 4, 5, 6])
    assert layer_calls == [6, 3, 3, 6]


def test_avg_pool_shortens_logits_and_maps_targets():
    cfg = _cfg(L=2)
    model = models.Model(cfg, "avg_pool", seq={"stride": 2}, seed=4)
    logits, out_pos = model.forward([1, 2, 3, 4, 5])
    assert logits.data.shape == (3, cfg.vocab_size)
    assert out_pos.tolist() == [1, 3, 4]
    loss = model.loss([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert np.isfinite(loss.item())


def test_recycled_head_uses_downprojection():
    cfg = _cfg(d=4)
    model = models.Model(cfg, "recycled_altup", altup={"k": 3}, seed=5)
    assert model.embed_table.data.shape == (cfg.vocab_size, 4)
    logits, _ = model.forward([1, 2])
    assert logits.data.shape == (2, cfg.vocab_size)


def test_sum_baseline_has_two_tables_and_gradients_in_both():
    cfg = _cfg()
    model = models.Model(cfg, "sum_baseline", seed=6)
    assert model.extra_table is not None
    model.zero_grad()
    with Graph() as g:
        loss = model.loss([1, 2, 3], [2, 3, 4])
    backward(g, loss)
    assert np.abs(model.embed_table.grad).sum() > 0
    assert np.abs(model.extra_table.grad).sum() > 0


@pytest.mark.parametrize("lookup,n", MEMORY_LOOKUPS)
def test_memory_attaches_to_every_layer(lookup, n):
    cfg = _cfg(L=2)
    model = models.Model(cfg, "dense", seed=7,
                         memory={"n": n, "rank": 2, "lookup": lookup, "k": 1})
    ids = [1, 3, 5]
    rng = np.random.default_rng(0)
    with Graph() as g:
        loss = model.loss(ids, [3, 5, 7], training=(lookup == "softmax"), rng=rng)
    assert np.isfinite(loss.item())
    backward(g, loss)
    if lookup == "softmax":
        router = model._mem[0]["router"].w
        assert router.grad is not None and np.abs(router.grad).sum() > 0


READ_ONLY_GRAD_MODELS = ALL_VARIANTS + [
    ("dense", {"memory": {"n": n, "rank": 2, "lookup": lookup,
                          "k": 2 if lookup == "softmax" else 1}})
    for lookup, n in MEMORY_LOOKUPS] + [
    ("dense", {"memory": {"n": 4, "rank": 2, "lookup": "minhash", "constant": True}})]


@pytest.mark.parametrize("variant,kwargs", READ_ONLY_GRAD_MODELS)
def test_training_step_never_writes_a_gradient_in_place(variant, kwargs):
    # backward stores a tensor's first gradient without a copy, so .grad may
    # share its array with another's; that holds only if no backward writes
    # the gradient it is handed
    model = models.Model(_cfg(L=3), variant, seed=5, **kwargs)
    rng = np.random.default_rng(6)
    ids, targets = rng.integers(0, 11, size=(2, 2, 6))
    model.zero_grad()
    with Graph() as g:
        loss = model.loss(ids, targets, training=True, rng=rng)

    def read_only(fn):
        def bw(grad):
            if isinstance(grad, np.ndarray):  # a numpy scalar is immutable
                grad.flags.writeable = False
            return fn(grad)
        return bw

    for node in g.nodes:
        node.backward_fn = read_only(node.backward_fn)
    backward(g, loss)
    assert all(p.grad is not None for p in model.parameters())


def test_memory_zero_experts_is_plain_dense_model():
    cfg = _cfg(L=2)
    mem_model = models.Model(cfg, "dense", seed=9,
                             memory={"n": 5, "rank": 2, "lookup": "lsh"})
    for slot in mem_model._mem:
        slot["table"].u.data[...] = 0.0
        slot["table"].v.data[...] = 0.0
    plain = models.Model(cfg, "dense", seed=9)
    # embedding/pos/inner draws happen before memory draws, so they coincide
    for (name, p), (name2, p2) in zip(plain.named_parameters(), mem_model.named_parameters()):
        if name == name2:
            p2.data[...] = p.data
    ids = [1, 2, 3, 4]
    a, _ = plain.forward(ids)
    b, _ = mem_model.forward(ids)
    assert np.array_equal(a.data, b.data)


def test_token_id_lookup_requires_vocab_sized_table():
    with pytest.raises(ValueError):
        models.Model(_cfg(v=11), "dense", seed=1,
                     memory={"n": 7, "rank": 1, "lookup": "token_id"})
    with pytest.raises(ValueError):
        models.Model(_cfg(), "altup", altup={"k": 2}, seed=1,
                     memory={"n": 11, "rank": 1, "lookup": "token_id"})


def test_sequence_too_long_rejected():
    model = models.Model(_cfg(n=4), "dense", seed=1)
    with pytest.raises(ValueError):
        model.forward([1, 2, 3, 4, 5])
