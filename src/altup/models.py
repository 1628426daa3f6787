"""Assembly of trainable models for every layer variant.

One class covers the variant matrix: dense baseline, block-wise alternating
updates (plain and recycled), the summation baseline, sequence-axis
alternating updates, stride-and-skip, and average pooling, optionally with a
memory table attached to each layer. ``Model`` takes the ``altup``, ``seq``
and ``memory`` sections as dicts and completes and checks them with
``schema.resolve``, the resolver the config parser and the cost model use.
Parameter creation order is fixed by construction so checkpoints and the
parameter census are deterministic. Each layer is built once, as a pair of
its parameters and its forward step, and ``forward`` runs the steps in order.
``forward`` and ``loss`` take token ids of shape (T,) or (B, T) through the
same code, and every layer, a memory layer too, maps a (..., T, d) activation
to one of the same shape. A memory layer routes all B*T rows of its input at
once (one lookup call, returning an (N, k) index array and weights that are
None or one (N, k) Tensor), then makes one ``memory_augmented_forward`` call
per position, which computes on arrays and records nothing. The rows they
return are the layer's output, recorded as one ``memory.expert_rows`` node,
which gives the stacked table and the weights their gradients. So a memory
layer records 1 tape node at any batch size, and softmax routing adds 1 at
any k, the ``softmax_router`` node that gives the weights. Around its inner
layer, an AltUp layer records its block's slice and one predict/correct
node, and a seq-AltUp layer a predict node, the subsample's gather and a
correct node; the loss is one ``cross_entropy`` node. A smoke step (d=32,
L=3, T=16) records 48 nodes dense and 55 with AltUp K=2.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .alternating import (AltUpLayerParams, altup_layer_forward, recycled_downproject,
                          select_block, widen)
from .costs import wrapped_layers
from .memory import (HyperplaneLshParams, MemoryTable, RouterParams, expert_rows,
                     lsh_lookup, memory_augmented_forward,
                     minhash_sequence_lookup, softmax_lookup,
                     token_id_fixed_lookup)
from .schema import resolve
from .sequence import (SeqAltUpParams, average_pool_seq, pooled_target_positions,
                       seq_altup_forward, stride_and_skip_forward)
from .tensor import Tensor
from .transformer import LayerParams, ModelConfig, cross_entropy, embed, layer_forward, lm_head


def _lookup(slot, ids, training, rng):
    """The memory slot's lookup for this batch of token ids."""
    kind = slot["kind"]
    if kind == "softmax":
        return softmax_lookup(slot["router"], training=training, rng=rng)
    if kind == "token_id":
        return token_id_fixed_lookup(slot["table"].n)
    if kind == "lsh":
        return lsh_lookup(slot["lsh"])
    return minhash_sequence_lookup(ids, slot["perm_seed"], slot["table"].n)


def _memory_augment(slot, x_in, inner_out, ids, training, rng):
    """``inner_out`` plus the memory slot's expert outputs at every position.

    All B*T rows are routed at once. Then each position's
    ``memory_augmented_forward`` call takes its own row and looks up its
    precomputed route, its k indices and its (1, k) weight row; the rows they
    return are the layer's output, recorded as one ``expert_rows`` node. The
    positions are walked in one pass over (N, 1, d) views, whose items are the
    (1, d) rows.
    """
    table = slot["table"]
    tokens = ids.reshape(-1).tolist()
    indices, weights = _lookup(slot, ids, training, rng)(x_in, tokens)
    d = x_in.data.shape[-1]
    weight_rows = [None] * ids.size if weights is None else map(Tensor, weights.data[:, None])
    rows = [memory_augmented_forward(Tensor(x), token, Tensor(inner), _route(i, w), table)
            for x, token, inner, i, w in zip(x_in.data.reshape(-1, 1, d), tokens,
                                             inner_out.data.reshape(-1, 1, d),
                                             indices.tolist(), weight_rows)]
    return expert_rows(x_in, inner_out, indices, weights, table, rows)


def _route(indices, weights):
    """The lookup of one position whose route is already known."""
    return lambda x, token_id: (indices, weights)


class Model:
    """A decoder-only LM in one of the variant configurations."""

    def __init__(self, cfg: ModelConfig, variant: str = "dense", altup: dict | None = None,
                 seq: dict | None = None, memory: dict | None = None, seed: int = 0):
        self.altup, self.seq, self.memory = resolve(variant, cfg.vocab_size, altup, seq, memory)
        self.cfg = cfg
        self.variant = variant
        self.seed = seed
        d, v = cfg.d_model, cfg.vocab_size
        rng = np.random.default_rng(np.random.SeedSequence([seed]))

        emb_width = self.altup["k"] * d if variant == "altup" else d
        emb_std = 1.0 / np.sqrt(d)
        self.embed_table = Tensor(rng.normal(0, emb_std, (v, emb_width)),
                                  requires_grad=True, name="embed.table")
        self.extra_table = None
        if variant == "sum_baseline":
            self.extra_table = Tensor(rng.normal(0, emb_std, (v, d)),
                                      requires_grad=True, name="embed.extra")
        self.pos_table = Tensor(rng.normal(0, emb_std, (cfg.max_seq_len, d)),
                                requires_grad=True, name="pos.table")

        # every draw of the layer weights precedes every draw of the memory
        # tables; the wrappers around each layer draw nothing
        inners = [LayerParams(d, cfg.ffn_hidden, cfg.n_heads, rng, prefix=f"layers.{i}")
                  for i in range(cfg.n_layers)]
        self._mem = []
        if self.memory is not None:
            self._init_memory(self.memory, rng)
        self.layers = [self._build_layer(i, inner) for i, inner in enumerate(inners)]

    def _init_memory(self, memory, rng):
        d, n, lookup = self.cfg.d_model, memory["n"], memory["lookup"]
        for i in range(self.cfg.n_layers):
            slot = {"kind": lookup}
            if lookup == "softmax":
                slot["router"] = RouterParams.create(
                    n, d, rng, k=memory["k"], jitter_eps=memory["jitter_eps"],
                    name=f"layers.{i}.router.w")
            elif lookup == "lsh":
                slot["lsh"] = HyperplaneLshParams.create(
                    d, n, seed=np.random.SeedSequence([self.seed, 7, i]))
            elif lookup == "minhash":
                slot["perm_seed"] = int(np.random.default_rng(
                    np.random.SeedSequence([self.seed, 11, i])).integers(0, 2**62))
            slot["table"] = MemoryTable(n, d, memory["rank"], rng, constant=memory["constant"],
                                        prefix=f"layers.{i}.table")
            self._mem.append(slot)

    def _build_layer(self, i, inner):
        """Layer i as (its parameters in checkpoint order, its forward step
        ``(x, ids, training, rng) -> x``).

        The steps look the layer functions up in this module when they run, so
        a function patched here after construction is the one that runs.
        """
        if self.altup is not None:
            k = self.altup["k"]
            block = AltUpLayerParams(k, inner, prefix=f"layers.{i}.altup")
            j_star = select_block(i, k, self.altup["selection"])
            return block.params(), lambda x, *_: altup_layer_forward(x, block, j_star)
        wrapped = self.seq is not None and i in wrapped_layers(self.cfg.n_layers,
                                                                self.seq["wrap"])
        if wrapped and self.variant == "seq_altup":
            seq = SeqAltUpParams(self.seq["stride"], prefix=f"layers.{i}.seq")
            return (seq.params() + inner.params(),
                    lambda x, *_: seq_altup_forward(x, inner, seq))
        if wrapped and self.variant == "stride_skip":
            stride = self.seq["stride"]
            return inner.params(), lambda x, *_: stride_and_skip_forward(x, inner, stride)
        if not self._mem:
            return inner.params(), lambda x, *_: layer_forward(x, inner)
        slot = self._mem[i]
        router = [slot["router"].w] if "router" in slot else []
        # the step holds no reference to the model, so a dropped model is freed
        # at once rather than by the cycle collector
        return (inner.params() + router + slot["table"].params(),
                lambda x, ids, training, rng: _memory_augment(
                    slot, x, layer_forward(x, inner), ids, training, rng))

    # -- parameters ---------------------------------------------------------

    def parameters(self):
        tables = [self.embed_table, self.extra_table, self.pos_table]
        return ([t for t in tables if t is not None]
                + [p for params, _ in self.layers for p in params])

    def named_parameters(self):
        return [(p.name, p) for p in self.parameters()]

    # Routing state drawn from the seed but not trained; checkpoints carry it
    # so a reloaded model routes like the saved one whatever its own seed.

    def named_buffers(self):
        """Each lsh layer's hyperplane directions and offsets, by name."""
        return [(f"layers.{i}.lsh.{field}", getattr(slot["lsh"], field))
                for i, slot in enumerate(self._mem) if "lsh" in slot
                for field in ("directions", "offsets")]

    def perm_seeds(self) -> dict:
        """Each min-hash layer's permutation seed, by name."""
        return {f"layers.{i}.perm_seed": slot["perm_seed"]
                for i, slot in enumerate(self._mem) if "perm_seed" in slot}

    def set_perm_seeds(self, seeds: dict):
        for i, slot in enumerate(self._mem):
            if "perm_seed" in slot:
                slot["perm_seed"] = seeds[f"layers.{i}.perm_seed"]

    def census(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    # -- forward ------------------------------------------------------------

    def _input_stream(self, ids):
        t = ids.shape[-1]
        if t > self.cfg.max_seq_len:
            raise ValueError(f"sequence length {t} exceeds max_seq_len {self.cfg.max_seq_len}")
        pos = T.gather_rows(self.pos_table, np.arange(t))
        x = embed(ids, self.embed_table)
        if self.extra_table is not None:
            x = T.add(x, embed(ids, self.extra_table))
        x = T.add(x, widen(pos, x.data.shape[-1] // self.cfg.d_model))
        return widen(x, self.altup["k"]) if self.variant == "recycled_altup" else x

    def forward(self, ids, training: bool = False, rng=None):
        """Token ids (T,) or (B, T) -> (logits (..., T', V), the target
        positions the T' logit rows predict)."""
        ids = np.asarray(ids, dtype=np.int64)
        t = ids.shape[-1]
        x = self._input_stream(ids)
        out_positions = np.arange(t)
        if self.variant == "avg_pool":
            x = average_pool_seq(x, self.seq["stride"])
            out_positions = pooled_target_positions(t, self.seq["stride"])

        for _, step in self.layers:
            x = step(x, ids, training, rng)

        if self.variant == "recycled_altup":
            x = recycled_downproject(x, self.altup["k"])
        return lm_head(x, self.embed_table), out_positions

    def loss(self, ids, targets, training: bool = False, rng=None):
        """Mean cross-entropy over every predicted position of every sequence."""
        logits, out_positions = self.forward(ids, training=training, rng=rng)
        targets = np.asarray(targets, dtype=np.int64)
        return cross_entropy(logits, targets[..., out_positions])

