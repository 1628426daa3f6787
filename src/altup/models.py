"""Assembly of trainable models for every layer variant.

One class covers the variant matrix: dense baseline, block-wise alternating
updates (plain and recycled), the summation baseline, sequence-axis
alternating updates, stride-and-skip, and average pooling, optionally with a
memory table attached to each layer. ``Model`` takes the ``altup``, ``seq``
and ``memory`` sections as dicts and completes and checks them with
``schema.resolve``, the resolver the config parser and the cost model use.
Parameter creation order is fixed by construction so checkpoints and the
parameter census are deterministic.
``forward`` and ``loss`` take token ids of shape (T,) or (B, T) through the
same code; only the memory lookups visit positions one at a time, each
lookup returning ``(indices, weights | None)``. Each position hands its (1, d)
row to the lookup and the experts unchanged: 6 tape nodes (11 with softmax).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .alternating import (AltUpConfig, AltUpLayerParams, altup_layer_forward,
                          recycled_downproject, select_block, sum_consume, widen)
from .costs import wrapped_layers
from .memory import (HyperplaneLshParams, MemoryTable, RouterParams,
                     lsh_lookup, memory_augmented_forward,
                     minhash_sequence_lookup, softmax_lookup,
                     token_id_fixed_lookup)
from .schema import resolve
from .sequence import (SeqAltUpParams, average_pool_seq, pooled_target_positions,
                       seq_altup_forward, stride_and_skip_forward)
from .tensor import Tensor
from .transformer import LayerParams, ModelConfig, cross_entropy, embed, layer_forward, lm_head


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

        self.altup_cfg = None if self.altup is None else AltUpConfig(d=d, **self.altup)

        emb_width = self.altup_cfg.k * d if variant == "altup" else d
        emb_std = 1.0 / np.sqrt(d)
        self.embed_table = Tensor(rng.normal(0, emb_std, (v, emb_width)),
                                  requires_grad=True, name="embed.table")
        self.extra_table = None
        if variant == "sum_baseline":
            self.extra_table = Tensor(rng.normal(0, emb_std, (v, d)),
                                      requires_grad=True, name="embed.extra")
        self.pos_table = Tensor(rng.normal(0, emb_std, (cfg.max_seq_len, d)),
                                requires_grad=True, name="pos.table")

        self.layers = []
        for i in range(cfg.n_layers):
            prefix = f"layers.{i}"
            entry = {}
            inner = LayerParams(d, cfg.ffn_hidden, cfg.n_heads, rng, prefix=prefix)
            if self.altup_cfg is not None:
                entry["altup"] = AltUpLayerParams(self.altup_cfg, inner, prefix=f"{prefix}.altup")
                entry["j_star"] = select_block(i, self.altup_cfg)
            else:
                entry["inner"] = inner
                if variant in ("seq_altup", "stride_skip"):
                    entry["wrapped"] = i in wrapped_layers(cfg.n_layers, self.seq["wrap"])
                    if variant == "seq_altup" and entry["wrapped"]:
                        entry["seq"] = SeqAltUpParams(self.seq["stride"], prefix=f"{prefix}.seq")
            self.layers.append(entry)

        self._mem = []
        if self.memory is not None:
            self._init_memory(self.memory, rng)

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

    # -- parameters ---------------------------------------------------------

    def parameters(self):
        params = [self.embed_table]
        if self.extra_table is not None:
            params.append(self.extra_table)
        params.append(self.pos_table)
        for i, entry in enumerate(self.layers):
            if "altup" in entry:
                params.extend(entry["altup"].params())
            else:
                if "seq" in entry:
                    params.extend(entry["seq"].params())
                params.extend(entry["inner"].params())
            if self._mem:
                slot = self._mem[i]
                if "router" in slot:
                    params.append(slot["router"].w)
                params.extend(slot["table"].params())
        return params

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
        if self.variant == "altup":
            return T.add(embed(ids, self.embed_table), widen(pos, self.altup_cfg.k))
        if self.variant == "recycled_altup":
            return widen(T.add(embed(ids, self.embed_table), pos), self.altup_cfg.k)
        if self.variant == "sum_baseline":
            mixed = sum_consume(embed(ids, self.embed_table),
                                embed(ids, self.extra_table))
            return T.add(mixed, pos)
        return T.add(embed(ids, self.embed_table), pos)

    def _memory_augment(self, slot, x_in, inner_out, ids, training, rng):
        kind, table = slot["kind"], slot["table"]
        t, d = ids.shape[-1], x_in.data.shape[-1]
        if kind == "minhash":
            # one bucket per sequence, from the set of its token ids
            lookups = [minhash_sequence_lookup(s, slot["perm_seed"], table.n)
                       for s in ids.reshape(-1, t)]
        else:
            if kind == "softmax":
                lookup = softmax_lookup(slot["router"], training=training, rng=rng)
            elif kind == "token_id":
                lookup = token_id_fixed_lookup(table.n)
            else:
                lookup = lsh_lookup(slot["lsh"])
            lookups = [lookup] * (ids.size // t)
        x_rows = T.reshape(x_in, (ids.size, d))
        inner_rows = T.reshape(inner_out, (ids.size, d))
        rows = [memory_augmented_forward(T.gather_rows(x_rows, [pos]), int(token),
                                         T.gather_rows(inner_rows, [pos]),
                                         lookups[pos // t], table)
                for pos, token in enumerate(ids.reshape(-1))]
        return T.reshape(T.concat_last(rows), x_in.data.shape)

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

        for i, entry in enumerate(self.layers):
            if "altup" in entry:
                x = altup_layer_forward(x, entry["altup"], entry["j_star"], causal=True)
            elif self.variant == "seq_altup" and entry.get("wrapped"):
                x = seq_altup_forward(x, entry["inner"], entry["seq"], causal=True)
            elif self.variant == "stride_skip" and entry.get("wrapped"):
                x = stride_and_skip_forward(x, entry["inner"], self.seq["stride"],
                                            causal=True)
            else:
                x_in = x
                x = layer_forward(x, entry["inner"], causal=True)
                if self._mem:
                    x = self._memory_augment(self._mem[i], x_in, x, ids, training, rng)

        if self.variant == "recycled_altup":
            x = recycled_downproject(x, self.altup_cfg.k)
        return lm_head(x, self.embed_table), out_positions

    def loss(self, ids, targets, training: bool = False, rng=None):
        """Mean cross-entropy over every predicted position of every sequence."""
        logits, out_positions = self.forward(ids, training=training, rng=rng)
        targets = np.asarray(targets, dtype=np.int64)
        return cross_entropy(logits, targets[..., out_positions])

