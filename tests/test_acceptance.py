"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Budgets: gradient suite < 1 minute, collision Monte Carlo
< 2 minutes, smoke training matrix < 10 minutes.
"""

import time

import numpy as np
import pytest

from altup import alternating as alt
from altup import checkpoint as ckpt
from altup import checks, collisions, costs, memory as mem, models
from altup import sequence as seq
from altup import tensor as T
from altup import transformer as tr
from altup.data import make_demo_corpus
from altup.tensor import Tensor
from altup.train import config_from_dict, train

WORKERS = 2


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# -- 1: gradient suite -------------------------------------------------------

def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    results = checks.run_gradcheck_suite()
    elapsed = time.perf_counter() - started
    worst = max(err for _, err in results)
    for name, err in results:
        print(f"  gradcheck {name:26s} {err:.3e}")
    covered = {name.split("_")[0] for name, _ in results}
    assert {"dense", "altup", "recycled", "seq", "stride", "avg", "sum", "memory"} <= covered
    _report(1, "gradient suite", worst < 1e-4 and elapsed < 60.0,
            f"worst {worst:.2e}, {elapsed:.1f}s")


# -- 2: degeneracy identities -------------------------------------------------

def test_criterion_2_degeneracy_identities():
    rng = np.random.default_rng(0)

    inner = tr.LayerParams(4, 8, 1, np.random.default_rng(1))
    params = alt.AltUpLayerParams(1, inner)
    x = Tensor(rng.standard_normal((3, 4)))
    k1_exact = np.array_equal(alt.altup_layer_forward(x, params, 0).data,
                              tr.layer_forward(x, inner).data)

    wide = alt.AltUpLayerParams(3, tr.LayerParams(4, 8, 1, np.random.default_rng(2)))
    wide.g.data[...] = 0.0
    xw = Tensor(rng.standard_normal((2, 12)))
    passthrough_exact = np.array_equal(
        alt.altup_layer_forward(xw, wide, 1).data, xw.data)

    inner_s = tr.LayerParams(4, 8, 1, np.random.default_rng(3))
    p = seq.SeqAltUpParams(stride=1)
    p.a1.data[...] = -0.37
    p.a2.data[...] = 2.11
    xs = Tensor(rng.standard_normal((5, 4)))
    got = seq.seq_altup_forward(xs, inner_s, p).data
    ref = tr.layer_forward(xs, inner_s).data
    seq_rel = np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300))

    table = mem.MemoryTable(n=3, d=4, rank=2, rng=np.random.default_rng(4), constant=False)
    table.u.data[...] = 0.0
    table.v.data[...] = 0.0
    x1 = Tensor(rng.standard_normal((1, 4)))
    inner_out = Tensor(rng.standard_normal((1, 4)))
    mem_exact = np.array_equal(
        mem.memory_augmented_forward(x1, 1, inner_out,
                                     mem.token_id_fixed_lookup(3), table).data,
        inner_out.data)

    _report(2, "degeneracy identities",
            k1_exact and passthrough_exact and seq_rel < 1e-12 and mem_exact,
            f"k1 bitwise={k1_exact}, passthrough={passthrough_exact}, "
            f"seq rel={seq_rel:.1e}, memory bitwise={mem_exact}")


# -- 3: parameter accounting ---------------------------------------------------

def test_criterion_3_parameter_accounting():
    cfg = tr.ModelConfig(d_model=8, n_layers=2, n_heads=2, ffn_hidden=16,
                         vocab_size=11, max_seq_len=8)
    checks_ok = []

    def extra_params(variant, k):
        """(per-layer, embedding) parameters a block variant adds over dense."""
        dense = costs.count_params(cfg, "dense")
        wide = costs.count_params(cfg, variant, altup={"k": k})
        return ((wide.non_embedding_params - dense.non_embedding_params) // cfg.n_layers,
                wide.embedding_params - dense.embedding_params)

    for k in (1, 2, 4):
        per_layer, emb_extra = extra_params("altup", k)
        checks_ok.append(per_layer == k * k + k)
        checks_ok.append(emb_extra == (k - 1) * 11 * 8)
        params = alt.AltUpLayerParams(k, tr.LayerParams(8, 16, 2, np.random.default_rng(k)))
        checks_ok.append(params.p.size + params.g.size == per_layer)
    checks_ok.append(extra_params("altup", 2)[0] == 6)

    dense = models.Model(cfg, "dense", seed=1)
    wide = models.Model(cfg, "altup", altup={"k": 2}, seed=1)
    recycled = models.Model(cfg, "recycled_altup", altup={"k": 2}, seed=1)
    checks_ok.append(wide.embed_table.size / dense.embed_table.size == 2.0)
    checks_ok.append(wide.embed_table.size - dense.embed_table.size == 1 * 11 * 8)
    checks_ok.append(recycled.embed_table.size == dense.embed_table.size)
    checks_ok.append(extra_params("recycled_altup", 2)[1] == 0)

    table = mem.MemoryTable(n=128, d=64, rank=16, rng=np.random.default_rng(9),
                             constant=False)
    formula = costs.memory_params_per_layer(128, 16, 64, "lsh", constant=False)
    checks_ok.append(sum(p.size for p in table.params()) == formula == 2 * 16 * 128 * 64)
    constant = mem.MemoryTable(n=128, d=64, rank=16, rng=np.random.default_rng(9), constant=True)
    formula = costs.memory_params_per_layer(128, 16, 64, "lsh", constant=True)
    checks_ok.append(sum(p.size for p in constant.params()) == formula == 128 * 64)

    grid = 0
    for variant, kwargs in [("dense", {}), ("altup", {"altup": {"k": 2}}),
                            ("altup", {"altup": {"k": 4}}),
                            ("recycled_altup", {"altup": {"k": 2}}),
                            ("sum_baseline", {}), ("avg_pool", {"seq": {}}),
                            ("dense", {"memory": {"n": 5, "rank": 2, "lookup": "lsh"}})]:
        model = models.Model(cfg, variant, seed=2, **kwargs)
        rep = costs.count_params(cfg, variant, **kwargs)
        checks_ok.append(model.census() == rep.embedding_params + rep.non_embedding_params)
        grid += 1

    _report(3, "parameter accounting", all(checks_ok),
            f"{len(checks_ok)} exact checks incl. {grid} censused models")


# -- 4: compute accounting ----------------------------------------------------

def test_criterion_4_compute_accounting(layer_calls):
    ok = []
    for (n, d, ffn, heads) in [(4, 8, 16, 2), (8, 16, 32, 4), (6, 12, 24, 3), (1, 16, 8, 2)]:
        params = tr.LayerParams(d, ffn, heads, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).standard_normal((n, d)))
        T.reset_mac_count()
        tr.layer_forward(x, params)
        attn, f = costs.layer_flops(n, d, ffn)
        ok.append(T.mac_count() == attn + f)

    _, ffn_flops = costs.layer_flops(1, 512, 2048)
    ratio = costs.altup_overhead(512, 2) / ffn_flops
    ok.append(ratio < 0.01)

    t_len, k = 10, 4
    t_sub = -(-t_len // k)
    inner = tr.LayerParams(8, 16, 2, np.random.default_rng(2))
    p = seq.SeqAltUpParams(stride=k)
    x = Tensor(np.random.default_rng(3).standard_normal((t_len, 8)))
    layer_calls.clear()
    T.reset_mac_count()
    seq.seq_altup_forward(x, inner, p)
    ok.append(layer_calls == [t_sub])
    attn_sub, ffn_sub = costs.layer_flops(t_sub, 8, 16)
    ok.append(T.mac_count() == attn_sub + ffn_sub)
    lin_full = 4 * t_len * 8 * 8 + 3 * t_len * 8 * 16
    lin_sub = 4 * t_sub * 8 * 8 + 3 * t_sub * 8 * 16
    ok.append(lin_sub * t_len == lin_full * t_sub)  # exactly ceil(T/k)/T of full

    s, b, h, L, a = 512, 8, 512, 12, 8
    dense_mem = costs.activation_memory(s, b, h, L, a, "dense")
    ok.append(dense_mem == s * b * h * L * (34 + 5 * a * s / h))
    delta = costs.activation_memory(s, b, h, L, a, "altup_k2") - dense_mem
    ok.append(delta == 3 * s * b * h * L)
    for (aa, ss, hh) in [(8, 512, 512), (8, 128, 512), (4, 256, 1024), (16, 64, 512)]:
        if aa * ss >= hh:
            d0 = costs.activation_memory(ss, 4, hh, 8, aa, "dense")
            ok.append(3 * ss * 4 * hh * 8 / d0 < 0.10)

    _report(4, "compute accounting", all(ok), f"{len(ok)} exact/threshold checks")


# -- 5: collision Monte Carlo --------------------------------------------------

def test_criterion_5_collision_monte_carlo():
    started = time.perf_counter()
    n, l, d, trials, seed = 1024, 64, 64, 50000, 2024

    ok = []
    detail = []
    for f in (0.1, 0.25, 0.5):
        est = collisions.estimate_collision("minhash", n, l, f, d, trials, seed,
                                            workers=WORKERS)
        tol = 3 * est.stderr if est.stderr > 0 else 1e-12
        ok.append(abs(est.probability - f) <= tol)
        detail.append(f"tokenid(f={f})={est.probability:.4f}")

    report = collisions.verify_ordering(n, l, 0.1, d, trials, seed, workers=WORKERS)
    ok.append(report.pass_flag and report.in_regime)
    es = report.estimates
    detail.append("ordering " + " > ".join(
        f"{s}:{es[s].probability:.5f}" for s in ("minhash", "spherical", "hyperplane")))

    # min-hash collision rate over fresh permutations equals the exact Jaccard
    for f_int in (0.25, 0.5):
        pair = collisions.gen_sentence_pair(l, f_int, d, seed=5, with_embeddings=False)
        a, b = set(pair.ids1.tolist()), set(pair.ids2.tolist())
        jac = len(a & b) / len(a | b)
        perms = 10000
        hits = sum(mem.minhash_lookup(a, s) == mem.minhash_lookup(b, s)
                   for s in range(perms))
        p_hat = hits / perms
        se = np.sqrt(jac * (1 - jac) / perms)
        ok.append(abs(p_hat - jac) <= 3 * se)
        detail.append(f"minhash-jaccard(f={f_int}) {p_hat:.4f}~{jac:.4f}")

    elapsed = time.perf_counter() - started
    ok.append(elapsed < 120.0)
    _report(5, "collision Monte Carlo", all(ok),
            "; ".join(detail) + f"; {elapsed:.0f}s")


# -- 6: directional context test -----------------------------------------------

def test_criterion_6_contextual_information():
    inner = tr.LayerParams(8, 16, 2, np.random.default_rng(11))
    p = seq.SeqAltUpParams(stride=3)
    x = np.random.default_rng(12).standard_normal((9, 8))
    bumped = x.copy()
    bumped[3] += 0.25  # a sampled position (3 = stride anchor)
    sampled = np.arange(0, 9, 3)
    unsampled = np.setdiff1d(np.arange(9), sampled)

    moved = (seq.seq_altup_forward(Tensor(bumped), inner, p).data -
             seq.seq_altup_forward(Tensor(x), inner, p).data)
    reached = int((np.abs(moved[unsampled]).max(axis=1) > 0).sum())

    skipped = (seq.stride_and_skip_forward(Tensor(bumped), inner, 3).data -
               seq.stride_and_skip_forward(Tensor(x), inner, 3).data)
    leak = float(np.abs(skipped[unsampled]).max())

    _report(6, "contextual information",
            reached >= 1 and leak == 0.0,
            f"sequence variant reached {reached} unsampled positions; "
            f"stride-and-skip leak {leak}")


# -- 7: smoke training matrix ---------------------------------------------------

SMOKE_VARIANTS = [
    ("dense", {}),
    ("altup", {"altup": {"k": 2}}),
    ("recycled_altup", {"altup": {"k": 2}}),
    ("sum_baseline", {}),
    ("seq_altup", {"seq": {"stride": 4}}),
    ("stride_skip", {"seq": {"stride": 4}}),
    ("avg_pool", {"seq": {"stride": 4}}),
]


def test_criterion_7_smoke_training_matrix(tmp_path):
    started = time.perf_counter()
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(make_demo_corpus(6000, seed=1))

    def run(variant, extra, task, run_seed, out):
        raw = {
            "model": {"d_model": 32, "n_layers": 3, "n_heads": 2, "ffn_hidden": 64,
                      "vocab_size": 258, "max_seq_len": 20},
            "variant": variant,
            "task": {"name": task, "seq_len": 16,
                     **({"corpus_path": str(corpus)} if task == "char_lm" else {})},
            "optimizer": {"learning_rate": 0.05, "steps": 500, "batch_size": 2},
            "seed": run_seed, "eval_interval": 250,
        }
        raw.update(extra)
        return train(config_from_dict(raw), out)

    ok = []
    for task in ("copy", "char_lm"):
        for variant, extra in SMOKE_VARIANTS:
            reductions = []
            for run_seed in (1, 2, 3):
                s = run(variant, extra, task, run_seed,
                        tmp_path / f"{task}_{variant}_{run_seed}")
                reductions.append(s["loss_reduction"])
            mean_red = float(np.mean(reductions))
            print(f"  smoke {task:8s} {variant:15s} mean reduction {mean_red:6.1%}")
            ok.append(mean_red >= 0.5)

    # identical (config, seed) -> byte-identical metrics
    run("dense", {}, "copy", 1, tmp_path / "det_a")
    run("dense", {}, "copy", 1, tmp_path / "det_b")
    identical = ((tmp_path / "det_a" / "metrics.csv").read_bytes()
                 == (tmp_path / "det_b" / "metrics.csv").read_bytes())
    ok.append(identical)

    elapsed = time.perf_counter() - started
    ok.append(elapsed < 600.0)
    _report(7, "smoke training matrix", all(ok),
            f"14 variant/task cells x 3 seeds, byte-identical reruns={identical}, "
            f"{elapsed:.0f}s")


# -- 8: checkpoint round trip ----------------------------------------------------

def test_criterion_8_checkpoint_round_trip(tmp_path):
    cfg = tr.ModelConfig(d_model=8, n_layers=2, n_heads=2, ffn_hidden=16,
                         vocab_size=11, max_seq_len=8)
    model = models.Model(cfg, "altup", altup={"k": 2}, seed=21)
    path = tmp_path / "m.ckpt"
    ckpt.save_model(model, path)
    clone = models.Model(cfg, "altup", altup={"k": 2}, seed=22)
    ckpt.load_model(clone, path)
    bitwise = all(np.array_equal(a.data, b.data)
                  for (_, a), (_, b) in zip(model.named_parameters(),
                                            clone.named_parameters()))

    blob = path.read_bytes()
    (tmp_path / "t.ckpt").write_bytes(blob[:-8])
    with pytest.raises(ckpt.CheckpointTruncatedError):
        ckpt.load_checkpoint(tmp_path / "t.ckpt")
    corrupt = bytearray(blob)
    corrupt[4] = 77
    (tmp_path / "v.ckpt").write_bytes(bytes(corrupt))
    with pytest.raises(ckpt.CheckpointVersionError):
        ckpt.load_checkpoint(tmp_path / "v.ckpt")
    other = models.Model(cfg, "altup", altup={"k": 4}, seed=23)
    with pytest.raises(ckpt.CheckpointShapeError) as ei:
        ckpt.load_model(other, path)
    named = "embed.table" in str(ei.value) or "layers." in str(ei.value)

    _report(8, "checkpoint round trip", bitwise and named,
            f"bitwise={bitwise}, structured errors named tensors={named}")
