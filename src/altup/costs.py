"""Closed-form parameter, multiply-accumulate, and activation-memory accounting.

The ``flops`` of :func:`layer_flops` are multiply-accumulates (MACs) of
matrix products only (softmax, layer norm and activations excluded), which
is what the MAC counter in the tensor module instruments, so closed forms
and counters can be compared exactly. :func:`forward_macs` sums them over a
whole model's untaped forward: the layers, AltUp's predict/correct products,
average pooling's averaging product, a memory layer's router and experts,
and the output head. Sequence AltUp's predict and correct, stride-and-skip's
placement and the memory lookups other than softmax are elementwise or index
work and count 0. :func:`altup_overhead` is the paper's operation count
instead.
Parameter counts must match the census of an actually constructed model,
entry for entry. :func:`count_params` and :func:`forward_macs` take the same
variant and sections as ``models.Model`` and resolve them through
``schema.resolve``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .schema import resolve
from .transformer import ModelConfig


@dataclass
class CostReport:
    embedding_params: int
    non_embedding_params: int
    embedding_params_untied: int
    flops_per_token_per_layer: int
    altup_overhead_flops_per_token: int
    activation_memory_entries: float
    activation_memory_bytes: int
    assumptions: list = field(default_factory=list)


def layer_flops(n: int, d_model: int, ffn_hidden: int):
    """Exact multiply-accumulate counts of one layer on an n-token sequence.

    Attention: 4 projections (4*n*d^2) plus scores and value mixing (2*n^2*d
    summed over heads, whatever their count). FFN: gate, up, down (3*n*d*ffn).
    """
    if min(n, d_model, ffn_hidden) < 1:
        raise ValueError("layer_flops: arguments must be positive")
    attention = 4 * n * d_model * d_model + 2 * n * n * d_model
    ffn = 3 * n * d_model * ffn_hidden
    return attention, ffn


def altup_overhead(d: int, k: int) -> int:
    """Extra per-token work of the predict and correct steps, as the paper
    counts operations (not multiply-accumulates).

    Predict: k mixtures of k d-vectors, k*(2k-1)*d ops. Correct: one
    multiply-add per block element, 2*k*d ops. Quadratic in k, linear in d.
    The MAC counter sees k*k*d + 2*k*d of it.
    """
    if k < 1 or d < 1:
        raise ValueError("altup_overhead: arguments must be positive")
    return k * (2 * k - 1) * d + 2 * k * d


def activation_memory(s: int, b: int, h: int, n_layers: int, a: int,
                      variant: str = "dense") -> float:
    """Training activation footprint in stored entries: s*b*h*L*(34 + 5*a*s/h),
    plus 3*s*b*h*L for the K=2 widened-representation variant."""
    if min(s, b, h, n_layers, a) < 1:
        raise ValueError("activation_memory: arguments must be positive")
    base = s * b * h * n_layers * (34.0 + 5.0 * a * s / h)
    if variant == "dense":
        return base
    if variant == "altup_k2":
        return base + 3.0 * s * b * h * n_layers
    raise ValueError(f"unknown activation variant {variant!r}")


def _per_layer_params(d: int, ffn_hidden: int) -> int:
    # q, k, v, o, gate, up, down, two LN scale vectors
    return 4 * d * d + 3 * d * ffn_hidden + 2 * d


def wrapped_layers(n_layers: int, wrap: str) -> range:
    """Indices of the layers the sequence-stride variants wrap: all of them,
    or all but the first and the last."""
    if wrap == "all":
        return range(n_layers)
    if wrap == "interior":
        return range(1, n_layers - 1)
    raise ValueError(f"unknown wrap mode {wrap!r}")


def forward_macs(cfg: ModelConfig, variant: str, altup: dict | None = None,
                 seq: dict | None = None, memory: dict | None = None,
                 seq_len: int | None = None) -> dict:
    """Matrix-product MACs of one untaped forward over one sequence of
    ``seq_len`` tokens (default ``max_seq_len``), by term, each summed over
    the layers and 0 where the variant has none.

    The layers ``wrapped_layers`` picks run at T' = ceil(T/stride) positions
    for ``seq_altup`` and ``stride_skip``; ``avg_pool`` runs every layer and
    the head at T' and averages with a (T', T) product. AltUp's predict and
    correct are K*K + 2*K products of T*d per layer, and its head is K*d
    wide. A softmax memory layer's router is T*d*n, and its experts are
    T*k*2*d*rank (0 for constant experts). A batch of B sequences costs B
    times this.
    """
    altup, seq, memory = resolve(variant, cfg.vocab_size, altup, seq, memory)
    t = cfg.max_seq_len if seq_len is None else seq_len
    if not 1 <= t <= cfg.max_seq_len:
        raise ValueError(f"sequence length {t} outside [1, max_seq_len = {cfg.max_seq_len}]")
    d, L = cfg.d_model, cfg.n_layers
    # T' = ceil(T/stride); without a seq section T' = T, so every layer runs at T
    short = t if seq is None else -(-t // seq["stride"])
    wrapped = (wrapped_layers(L, seq["wrap"]) if seq is not None and variant != "avg_pool"
               else range(L))
    layers = [layer_flops(short if i in wrapped else t, d, cfg.ffn_hidden) for i in range(L)]
    k = 1 if altup is None else altup["k"]
    out = short if variant == "avg_pool" else t
    macs = {"attention": sum(a for a, _ in layers), "ffn": sum(f for _, f in layers),
            "predict_correct": 0, "pooling": 0, "router": 0, "experts": 0,
            "head": out * (k * d if variant == "altup" else d) * cfg.vocab_size}
    if altup is not None:
        macs["predict_correct"] = L * (k * k + 2 * k) * t * d
    if variant == "avg_pool":
        macs["pooling"] = out * t * d
    if memory is not None:
        if memory["lookup"] == "softmax":
            macs["router"] = L * t * d * memory["n"]
        if not memory["constant"]:
            macs["experts"] = L * t * memory["k"] * 2 * d * memory["rank"]
    return macs


def memory_params_per_layer(n: int, rank: int, d: int, lookup: str, constant: bool) -> int:
    table = n * d if constant else 2 * rank * n * d
    router = n * d if lookup == "softmax" else 0
    return table + router


def count_params(cfg: ModelConfig, variant: str, altup: dict | None = None,
                 seq: dict | None = None, memory: dict | None = None) -> CostReport:
    """Closed-form parameter split for a model variant.

    The sections are those ``Model`` takes, resolved by ``schema.resolve``, so
    a count exists exactly for the models that can be built.
    Embedding params count the vocabulary table(s) under the weight-tied
    convention used by the constructed models; the untied view adds a
    separate output table at the head's input width. Learned position
    embeddings (always d-wide; tiled, not widened) count as non-embedding.
    """
    altup, seq, memory = resolve(variant, cfg.vocab_size, altup, seq, memory)
    d, v, L = cfg.d_model, cfg.vocab_size, cfg.n_layers
    assumptions = [
        "weight-tied input/output embedding; untied view adds one output table",
        "position embeddings are d-wide (tiled across sub-blocks) and counted as non-embedding",
        "flops_per_token_per_layer counts matrix-product multiply-accumulates only",
        "altup_overhead_flops_per_token is the paper's operation count k(2k-1)d + 2kd",
    ]

    k = altup["k"] if altup is not None else 1
    head_width = k * d if variant == "altup" else d
    emb = 2 * v * d if variant == "sum_baseline" else v * head_width
    per_layer_extra = k * k + k if altup is not None else 0

    non_emb = cfg.max_seq_len * d + L * (_per_layer_params(d, cfg.ffn_hidden) + per_layer_extra)
    if variant == "seq_altup":
        non_emb += 3 * len(wrapped_layers(L, seq["wrap"]))
    if memory is not None:
        non_emb += L * memory_params_per_layer(
            memory["n"], memory["rank"], d, memory["lookup"], memory["constant"])
        assumptions.append("memory: one table (and router, for softmax lookup) per layer")

    attn, ffn = layer_flops(cfg.max_seq_len, d, cfg.ffn_hidden)
    per_token = (attn + ffn) // cfg.max_seq_len
    overhead = altup_overhead(d, k) if altup is not None else 0

    act_variant = "altup_k2" if altup is not None and k == 2 else "dense"
    if altup is not None and k != 2:
        assumptions.append("activation memory: the widened-stream term is modelled for "
                           f"K = 2 only; K = {k} reports the dense figure")
    entries = activation_memory(cfg.max_seq_len, 1, d, L, cfg.n_heads, act_variant)

    return CostReport(
        embedding_params=emb,
        non_embedding_params=non_emb,
        embedding_params_untied=emb + v * head_width,
        flops_per_token_per_layer=per_token,
        altup_overhead_flops_per_token=overhead,
        activation_memory_entries=entries,
        activation_memory_bytes=int(entries * 8),
        assumptions=assumptions,
    )
