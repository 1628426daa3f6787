"""Cost model vs instrumented counters and constructed-model censuses."""

import numpy as np
import pytest

from altup import costs, models, sequence, tensor as T, transformer as tr


def test_layer_flops_scaling_structure():
    attn1, ffn1 = costs.layer_flops(8, 16, 64)
    attn2, ffn2 = costs.layer_flops(8, 32, 128)
    assert 2 * ffn1 <= ffn2 <= 4 * ffn1  # quadratic in width when ffn tracks d
    attn_n, _ = costs.layer_flops(16, 16, 64)
    # the n^2 attention term quadruples exactly when n doubles
    assert (attn_n - 4 * 16 * 16 * 16) == 4 * (attn1 - 4 * 8 * 16 * 16)


@pytest.mark.parametrize("n,d,ffn,heads", [(4, 8, 16, 2), (8, 16, 32, 4), (3, 8, 8, 1), (1, 4, 8, 2)])
def test_layer_flops_match_instrumented_counter(n, d, ffn, heads):
    params = tr.LayerParams(d, ffn, heads, np.random.default_rng(0))
    x = T.Tensor(np.random.default_rng(1).standard_normal((n, d)))
    T.reset_mac_count()
    tr.layer_forward(x, params)
    attn, f = costs.layer_flops(n, d, ffn)
    assert T.mac_count() == attn + f


def _forward_macs_per_example(cfg, variant, k, t):
    """Closed-form matrix-product MACs of one forward pass over t tokens."""
    attn, ffn = costs.layer_flops(t, cfg.d_model, cfg.ffn_hidden)
    if variant == "dense":
        return cfg.n_layers * (attn + ffn) + t * cfg.d_model * cfg.vocab_size
    # predict (K x K) and two K-gain corrections per position, per layer
    per_layer = attn + ffn + k * k * t * cfg.d_model + 2 * k * t * cfg.d_model
    return cfg.n_layers * per_layer + t * k * cfg.d_model * cfg.vocab_size


@pytest.mark.parametrize("variant,k", [("dense", 1), ("altup", 1), ("altup", 2), ("altup", 4)])
@pytest.mark.parametrize("batch", [1, 3])
def test_batched_forward_macs_are_batch_times_per_example(variant, k, batch):
    cfg = _cfg(L=3, n=6)
    model = models.Model(cfg, variant, altup={"k": k} if variant == "altup" else None, seed=4)
    ids = np.random.default_rng(5).integers(0, cfg.vocab_size, size=(batch, 6))
    T.reset_mac_count()
    model.forward(ids)
    assert T.mac_count() == batch * _forward_macs_per_example(cfg, variant, k, 6)


@pytest.mark.parametrize("lookup", ["softmax", "token_id", "lsh", "minhash"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("constant", [False, True], ids=["matrix", "constant"])
@pytest.mark.parametrize("batch", [1, 3])
def test_memory_forward_macs_are_dense_plus_experts_plus_router(lookup, k, constant, batch):
    # an untaped forward adds, per layer and row, one rank-r expert product
    # pair per selected slot (none for constant experts) and, for softmax,
    # the (d, n) logits product; only softmax routes to more than one slot
    cfg, t, rank = _cfg(L=3, n=6), 6, 3
    n = cfg.vocab_size if lookup == "token_id" else 6
    ids = np.random.default_rng(7).integers(0, cfg.vocab_size, size=(batch, t))
    T.reset_mac_count()
    models.Model(cfg, "dense", seed=4).forward(ids)
    dense = T.mac_count()
    model = models.Model(cfg, "dense", seed=4, memory={"n": n, "rank": rank, "lookup": lookup,
                                                       "k": k, "constant": constant})
    T.reset_mac_count()
    model.forward(ids)
    rows, slots = batch * t, k if lookup == "softmax" else 1
    experts = 0 if constant else slots * 2 * cfg.d_model * rank
    router = n * cfg.d_model if lookup == "softmax" else 0
    assert T.mac_count() == dense + cfg.n_layers * rows * (experts + router)


def test_batched_layer_macs_are_batch_times_layer_flops():
    params = tr.LayerParams(8, 16, 2, np.random.default_rng(0))
    x = T.Tensor(np.random.default_rng(1).standard_normal((4, 5, 8)))
    T.reset_mac_count()
    tr.layer_forward(x, params)
    assert T.mac_count() == 4 * sum(costs.layer_flops(5, 8, 16))


def test_altup_overhead_examples():
    assert costs.altup_overhead(16, 1) == 3 * 16
    # quadratic in k: doubling k approaches a factor of 4
    ratio = costs.altup_overhead(64, 32) / costs.altup_overhead(64, 16)
    assert 3.5 < ratio < 4.0
    # negligible next to the FFN at production-like widths
    _, ffn = costs.layer_flops(1, 512, 2048)
    assert costs.altup_overhead(512, 2) / ffn < 0.01


def test_activation_memory_formula():
    s, b, h, L, a = 512, 8, 512, 12, 8
    dense = costs.activation_memory(s, b, h, L, a, "dense")
    assert dense == s * b * h * L * 74.0
    wide = costs.activation_memory(s, b, h, L, a, "altup_k2")
    assert wide - dense == 3.0 * s * b * h * L
    # the widened-representation delta stays under 10% whenever a*s >= h
    for (aa, ss, hh) in [(8, 512, 512), (4, 128, 512), (2, 256, 512), (8, 64, 512)]:
        if aa * ss >= hh:
            d0 = costs.activation_memory(ss, 2, hh, 6, aa, "dense")
            d1 = costs.activation_memory(ss, 2, hh, 6, aa, "altup_k2")
            assert (d1 - d0) / d0 < 0.10
    # linear in h at a fixed a*s/h ratio
    base = costs.activation_memory(128, 2, 64, 3, 4, "dense")
    doubled = costs.activation_memory(256, 2, 128, 3, 4, "dense")
    assert doubled == 2 * 2 * base  # s and h both doubled keeps the ratio


def _cfg(d=8, L=2, heads=2, ffn=16, v=11, n=8):
    return tr.ModelConfig(d_model=d, n_layers=L, n_heads=heads, ffn_hidden=ffn,
                          vocab_size=v, max_seq_len=n)


CENSUS_GRID = [
    ("dense", {}, {}),
    ("dense", {}, {"d": 16, "L": 1, "heads": 4, "ffn": 8}),
    ("altup", {"altup": {"k": 2}}, {}),
    ("altup", {"altup": {"k": 4}}, {"L": 4}),
    ("recycled_altup", {"altup": {"k": 2}}, {}),
    ("recycled_altup", {"altup": {"k": 4}}, {"d": 4, "heads": 1}),
    ("sum_baseline", {}, {}),
    ("seq_altup", {"seq": {}}, {"L": 4}),
    ("seq_altup", {"seq": {}}, {"L": 2}),  # interior wrap covers no layers here
    ("stride_skip", {"seq": {}}, {"L": 3}),
    ("avg_pool", {"seq": {}}, {}),
    ("dense", {"memory": {"n": 6, "rank": 2, "lookup": "softmax"}}, {}),
    ("dense", {"memory": {"n": 11, "rank": 3, "lookup": "token_id"}}, {}),
    ("dense", {"memory": {"n": 5, "rank": 2, "lookup": "lsh"}}, {}),
    ("dense", {"memory": {"n": 4, "rank": 1, "lookup": "minhash"}}, {}),
    ("dense", {"memory": {"n": 4, "rank": 1, "lookup": "lsh", "constant": True}}, {}),
]


@pytest.mark.parametrize("variant,kwargs,cfg_over", CENSUS_GRID)
def test_closed_form_census_matches_constructed_model(variant, kwargs, cfg_over):
    cfg = _cfg(**cfg_over)
    model = models.Model(cfg, variant, seed=3, **kwargs)
    report = costs.count_params(cfg, variant, **kwargs)
    assert report.embedding_params + report.non_embedding_params == model.census(), (
        f"{variant} {cfg_over} {kwargs}")


def test_embedding_accounting_ratios():
    cfg = _cfg(v=100)
    dense = costs.count_params(cfg, "dense")
    wide = costs.count_params(cfg, "altup", altup={"k": 2})
    recycled = costs.count_params(cfg, "recycled_altup", altup={"k": 2})
    assert wide.embedding_params / dense.embedding_params == 2.0
    assert wide.embedding_params - dense.embedding_params == (2 - 1) * 100 * cfg.d_model
    assert recycled.embedding_params == dense.embedding_params
    # untied view doubles both sides the same way
    assert wide.embedding_params_untied / dense.embedding_params_untied == 2.0


def test_memory_table_extra_params():
    cfg = _cfg()
    base = costs.count_params(cfg, "dense")
    with_mem = costs.count_params(cfg, "dense",
                                  memory={"n": 6, "rank": 2, "lookup": "lsh"})
    per_layer = 2 * 2 * 6 * cfg.d_model
    assert with_mem.non_embedding_params - base.non_embedding_params == cfg.n_layers * per_layer


def test_seq_altup_inner_compute_is_subsampled_exactly(layer_calls):
    d, ffn, heads = 8, 16, 2
    inner = tr.LayerParams(d, ffn, heads, np.random.default_rng(5))
    p = sequence.SeqAltUpParams(stride=3)
    x = T.Tensor(np.random.default_rng(6).standard_normal((10, d)))
    t_sub = -(-10 // 3)  # ceil

    T.reset_mac_count()
    sequence.seq_altup_forward(x, inner, p)
    assert layer_calls == [t_sub]
    attn, f = costs.layer_flops(t_sub, d, ffn)
    assert T.mac_count() == attn + f

    # position-linear work scales exactly by ceil(T/k)/T; attention is even cheaper
    lin_full = 4 * 10 * d * d + 3 * 10 * d * ffn
    lin_sub = 4 * t_sub * d * d + 3 * t_sub * d * ffn
    assert lin_sub * 10 == lin_full * t_sub
    attn_full, _ = costs.layer_flops(10, d, ffn)
    assert attn * 10 <= attn_full * t_sub


def test_count_params_flop_fields():
    cfg = _cfg(d=8, L=2, ffn=16, n=8)
    rep = costs.count_params(cfg, "altup", altup={"k": 2})
    attn, ffn = costs.layer_flops(8, 8, 16)
    assert rep.flops_per_token_per_layer == (attn + ffn) // 8
    assert rep.altup_overhead_flops_per_token == costs.altup_overhead(8, 2)
    assert costs.count_params(cfg, "dense").altup_overhead_flops_per_token == 0


@pytest.mark.parametrize("variant", ["altup", "recycled_altup"])
def test_activation_memory_assumption_names_the_k2_only_term(variant):
    cfg = _cfg()

    def noted(report):
        return [a for a in report.assumptions if a.startswith("activation memory:")]

    dense = costs.count_params(cfg, "dense")
    k2 = costs.count_params(cfg, variant, altup={"k": 2})
    k4 = costs.count_params(cfg, variant, altup={"k": 4})
    assert noted(dense) == [] and noted(k2) == []
    assert len(noted(k4)) == 1 and "dense figure" in noted(k4)[0]
    # the figure the entry describes
    assert k4.activation_memory_entries == dense.activation_memory_entries
    assert k2.activation_memory_entries > dense.activation_memory_entries
