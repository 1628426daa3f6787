"""Gradient-check suite over the full layer-variant matrix, and the
fingerprint of the arithmetic a run's bytes depend on.

Small instances (block width <= 8, sequence <= 4, vocab 11) of every variant,
each checked end to end against central finite differences, on one sequence
and, for the batched instances, on a batch of two. Used by the acceptance
tests and the ``gradcheck`` CLI command. :func:`arith_fingerprint` goes into
each run's ``summary.json``.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from .models import Model
from .tensor import grad_check
from .transformer import ModelConfig

GRADCHECK_TOLERANCE = 1e-4

_IDS = [1, 4, 7, 2]
_TARGETS = [4, 7, 2, 9]
_BATCH_IDS = [_IDS, [3, 0, 9, 5]]
_BATCH_TARGETS = [_TARGETS, [0, 9, 5, 1]]
_JITTER_SEED = 54


def _cfg(d=8, L=2, heads=2, ffn=8):
    return ModelConfig(d_model=d, n_layers=L, n_heads=heads, ffn_hidden=ffn,
                       vocab_size=11, max_seq_len=4)


def _wrap_all(stride):
    return {"stride": stride, "wrap": "all"}


def suite_instances():
    """(name, model builder, batched, training) tuples covering the variant
    matrix.

    Batched instances (names ending ``_b2``) take a (2, T) batch, so the
    backward of every batched product and row gather/scatter is checked too.
    Memory instances cover each of the four lookups, constant experts, and
    batches whose rows share experts. A training instance runs every loss in
    training mode with a fresh jitter rng of one fixed seed, so the softmax
    router's jitter is the same draw at every perturbation.
    """
    instances = [(name, builder, False, False) for name, builder in [
        ("dense", lambda: Model(_cfg(), "dense", seed=11)),
        ("recycled_altup_k2", lambda: Model(_cfg(d=4, heads=1), "recycled_altup",
                                            altup={"k": 2}, seed=13)),
        ("seq_altup_k1", lambda: Model(_cfg(L=1), "seq_altup", seq=_wrap_all(1), seed=14)),
        ("seq_altup_k2", lambda: Model(_cfg(L=1), "seq_altup", seq=_wrap_all(2), seed=15)),
        ("seq_altup_k4", lambda: Model(_cfg(L=1), "seq_altup", seq=_wrap_all(4), seed=16)),
        ("stride_skip", lambda: Model(_cfg(L=1), "stride_skip", seq=_wrap_all(2), seed=17)),
        ("memory_softmax_top1", lambda: Model(
            _cfg(d=4, L=1, heads=1), "dense", seed=18,
            memory={"n": 3, "rank": 2, "lookup": "softmax", "k": 1})),
        ("memory_softmax_top2", lambda: Model(
            _cfg(d=4, L=1, heads=1), "dense", seed=19,
            memory={"n": 3, "rank": 2, "lookup": "softmax", "k": 2})),
        ("memory_token_id", lambda: Model(
            _cfg(d=4, L=1, heads=1), "dense", seed=41,
            memory={"n": 11, "rank": 2, "lookup": "token_id"})),
        ("memory_lsh", lambda: Model(
            _cfg(d=4, L=1, heads=1), "dense", seed=42,
            memory={"n": 3, "rank": 2, "lookup": "lsh"})),
        ("memory_minhash", lambda: Model(
            _cfg(d=4, L=1, heads=1), "dense", seed=43,
            memory={"n": 3, "rank": 2, "lookup": "minhash"})),
        ("memory_minhash_constant", lambda: Model(
            _cfg(d=4, L=1, heads=1), "dense", seed=44,
            memory={"n": 3, "rank": 2, "lookup": "minhash", "constant": True})),
        ("avg_pool_s2", lambda: Model(_cfg(L=1), "avg_pool", seq={"stride": 2}, seed=46)),
        ("sum_baseline", lambda: Model(_cfg(d=4, heads=1), "sum_baseline", seed=47)),
        ("altup_k2_h2", lambda: Model(_cfg(d=4), "altup", altup={"k": 2}, seed=48)),
    ]]
    for k in (1, 2, 4):
        for selection in ("same", "alternating"):
            name = f"altup_k{k}_{selection}"
            instances.append((name, lambda k=k, s=selection: Model(
                _cfg(d=4, heads=1), "altup", altup={"k": k, "selection": s},
                seed=20 + k), False, False))
    instances += [(name, builder, True, False) for name, builder in [
        ("dense_b2", lambda: Model(_cfg(), "dense", seed=31)),
        ("altup_k2_b2", lambda: Model(_cfg(d=4, heads=1), "altup", altup={"k": 2}, seed=32)),
        ("seq_altup_k2_b2", lambda: Model(_cfg(L=1), "seq_altup", seq=_wrap_all(2), seed=33)),
        # the wrapped layer sees positions 0 and 3, so attention's score
        # gradient is not zero, and the last window {3} is shorter than the stride
        ("seq_altup_k3_b2", lambda: Model(_cfg(L=1), "seq_altup", seq=_wrap_all(3), seed=55)),
        ("stride_skip_b2", lambda: Model(_cfg(L=1), "stride_skip", seq=_wrap_all(2), seed=34)),
        ("memory_softmax_top2_b2", lambda: Model(
            _cfg(d=4, L=1, heads=1), "dense", seed=45,
            memory={"n": 3, "rank": 2, "lookup": "softmax", "k": 2})),
        ("avg_pool_s3_b2", lambda: Model(_cfg(L=1), "avg_pool", seq={"stride": 3}, seed=49)),
        ("sum_baseline_b2", lambda: Model(_cfg(d=4, heads=1), "sum_baseline", seed=50)),
        # 8 rows into 3 experts, so rows share experts in the table's scatter-add
        ("memory_lsh_b2", lambda: Model(
            _cfg(d=4, L=1, heads=1), "dense", seed=51,
            memory={"n": 3, "rank": 2, "lookup": "lsh"})),
        ("memory_minhash_constant_b2", lambda: Model(
            _cfg(d=4, L=1, heads=1), "dense", seed=52,
            memory={"n": 3, "rank": 2, "lookup": "minhash", "constant": True})),
    ]]
    # training mode, the only one that puts the router's jitter multiply on the tape
    instances.append(("memory_softmax_jitter_b2", lambda: Model(
        _cfg(d=4, L=1, heads=1), "dense", seed=53,
        memory={"n": 3, "rank": 2, "lookup": "softmax", "k": 2, "jitter_eps": 0.1}), True, True))
    return instances


def run_gradcheck_suite(eps: float = 1e-5):
    """Run every instance; yields (name, max relative error)."""
    results = []
    for name, builder, batched, training in suite_instances():
        model = builder()
        ids, targets = (_BATCH_IDS, _BATCH_TARGETS) if batched else (_IDS, _TARGETS)

        def f(params, model=model, ids=ids, targets=targets, training=training):
            rng = np.random.default_rng(_JITTER_SEED) if training else None
            return model.loss(ids, targets, training=training, rng=rng)

        results.append((name, grad_check(f, model.parameters(), eps=eps)))
    return results


# (a, b) operand shapes of the fingerprint's products, at the smoke model's
# (B=2, T=16, d=32, 2 heads, V=258, expert rank 4): a projection, the stacked
# attention scores, the batched head and a stacked expert slice. Some BLAS
# kernels sum the last two in another order while keeping the first two.
_PROBE_PRODUCTS = (((16, 32), (32, 32)), ((8, 2, 16, 16), (8, 2, 16, 16)),
                   ((2, 16, 32), (32, 258)), ((16, 1, 32), (16, 32, 4)))


@functools.cache
def arith_fingerprint() -> str:
    """16 hex digits of the sha256 of fixed-seed probe outputs: the
    ``_PROBE_PRODUCTS`` matrix products and exp, log and erf of one draw,
    plus the numpy version and the BLAS name and version. Runs whose
    fingerprints differ may sum their products in different orders, so
    their metrics bytes may differ. Computed once per process."""
    from scipy.special import erf  # here, so importing this module loads no scipy

    rng = np.random.default_rng(0)
    digest = hashlib.sha256()
    for a, b in _PROBE_PRODUCTS:
        digest.update((rng.standard_normal(a) @ rng.standard_normal(b)).tobytes())
    x = rng.standard_normal(256)
    for out in (np.exp(x), np.log(np.abs(x)), erf(x)):
        digest.update(out.tobytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest.update(f"numpy {np.__version__}; {blas['name']} {blas['version']}".encode())
    return digest.hexdigest()[:16]
