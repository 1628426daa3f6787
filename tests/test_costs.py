"""Cost model vs instrumented counters and constructed-model censuses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altup import costs, models, schema, sequence, tensor as T, transformer as tr
from altup.schema import ConfigError


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


def _assert_counter_is_batch_times_forward_macs(cfg, variant, sections, batch, t):
    model = models.Model(cfg, variant, seed=4, **sections)
    ids = np.random.default_rng(5).integers(0, cfg.vocab_size, size=(batch, t))
    T.reset_mac_count()
    model.forward(ids)
    terms = costs.forward_macs(cfg, variant, seq_len=t, **sections)
    assert list(terms) == ["attention", "ffn", "predict_correct", "pooling", "router",
                           "experts", "head"]
    assert T.mac_count() == batch * sum(terms.values()), terms


@st.composite
def _model_cases(draw):
    """A small model in any variant, with its section, or dense with a memory
    table; strides reach past the sequence length."""
    cfg = _cfg(L=draw(st.integers(1, 3)), n=8)
    variant = draw(st.sampled_from([*schema.VARIANTS, "memory"]))
    if variant == "memory":
        lookup = draw(st.sampled_from(schema.LOOKUPS))
        memory = {"n": cfg.vocab_size if lookup == "token_id" else 6, "lookup": lookup,
                  "rank": draw(st.integers(1, 3)), "constant": draw(st.booleans()),
                  "k": draw(st.integers(1, 2)) if lookup == "softmax" else 1}
        return cfg, "dense", {"memory": memory}
    section = schema.VARIANTS[variant]
    if section == "altup":
        return cfg, variant, {"altup": {"k": draw(st.integers(1, 4)), "selection": draw(
            st.sampled_from(schema.SELECTION_MODES))}}
    if section == "seq":
        return cfg, variant, {"seq": {"stride": draw(st.integers(1, 9)),
                                      "wrap": draw(st.sampled_from(schema.WRAP_MODES))}}
    return cfg, variant, {}


@settings(max_examples=300, deadline=None)
@given(case=_model_cases(), batch=st.sampled_from([1, 3]), t=st.sampled_from([1, 5, 8]))
def test_forward_mac_counter_is_batch_times_the_closed_form_terms(case, batch, t):
    cfg, variant, sections = case
    _assert_counter_is_batch_times_forward_macs(cfg, variant, sections, batch, t)


@pytest.mark.parametrize("variant,k", [("dense", 1), ("altup", 1), ("altup", 2), ("altup", 4)])
@pytest.mark.parametrize("batch", [1, 3])
def test_batched_forward_macs_are_batch_times_per_example(variant, k, batch):
    sections = {"altup": {"k": k}} if variant == "altup" else {}
    _assert_counter_is_batch_times_forward_macs(_cfg(L=3, n=6), variant, sections, batch, 6)


@pytest.mark.parametrize("lookup", ["softmax", "token_id", "lsh", "minhash"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("constant", [False, True], ids=["matrix", "constant"])
@pytest.mark.parametrize("batch", [1, 3])
def test_memory_forward_macs_are_dense_plus_experts_plus_router(lookup, k, constant, batch):
    cfg = _cfg(L=3, n=6)
    n = cfg.vocab_size if lookup == "token_id" else 6
    sections = {"memory": {"n": n, "rank": 3, "lookup": lookup, "k": k, "constant": constant}}
    if k > 1 and lookup != "softmax":
        # only softmax routes to more than one slot, so the model and the
        # closed form both refuse a k that would do nothing
        for build in (models.Model, costs.forward_macs):
            with pytest.raises(ConfigError, match="memory.k"):
                build(cfg, "dense", **sections)
        return
    _assert_counter_is_batch_times_forward_macs(cfg, "dense", sections, batch, 6)


SMOKE = tr.ModelConfig(d_model=32, n_layers=3, n_heads=2, ffn_hidden=64, vocab_size=258,
                       max_seq_len=16)


@pytest.mark.parametrize("variant,sections,per_token", [
    ("dense", {}, 42048),
    ("altup", {"altup": {"k": 2}}, 51072),
    ("altup", {"altup": {"k": 4}}, 69120),
    ("recycled_altup", {"altup": {"k": 2}}, 42816),
    ("seq_altup", {"seq": {"stride": 4}}, 33408),
    ("stride_skip", {"seq": {"stride": 4}}, 33408),
    ("avg_pool", {"seq": {"stride": 4}}, 10064),
    ("dense", {"memory": {"n": 16, "rank": 4, "lookup": "softmax"}}, 44352),
])
def test_smoke_forward_macs_per_token(variant, sections, per_token):
    assert sum(costs.forward_macs(SMOKE, variant, **sections).values()) == 16 * per_token


@pytest.mark.parametrize("seq_len", [0, 17])
def test_forward_macs_rejects_a_length_the_model_cannot_run(seq_len):
    with pytest.raises(ValueError, match="sequence length"):
        costs.forward_macs(SMOKE, "dense", seq_len=seq_len)


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
