"""Baseline width-d transformer pieces: embedding, pre-LN layer, LM head.

The layer is the unit every widened/strided variant wraps: pre-layer-norm
residual attention followed by a gated-GELU feedforward block. Every function
takes activations of shape (..., T, d): one sequence (T, d) or a batch
(B, T, d) run through the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

@dataclass
class ModelConfig:
    d_model: int
    n_layers: int
    n_heads: int
    ffn_hidden: int
    vocab_size: int
    max_seq_len: int

    def __post_init__(self):
        for field in ("d_model", "n_layers", "n_heads", "ffn_hidden", "vocab_size", "max_seq_len"):
            if getattr(self, field) < 1:
                raise ValueError(f"ModelConfig.{field} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )


class LayerParams:
    """Projection and FFN weights for one transformer layer of width d."""

    def __init__(self, d: int, ffn_hidden: int, n_heads: int, rng: np.random.Generator, prefix: str = "layer"):
        self.d = d
        self.n_heads = n_heads

        def w(rows, cols, name):
            return Tensor(rng.normal(0.0, 1.0 / np.sqrt(rows), size=(rows, cols)),
                          requires_grad=True, name=f"{prefix}.{name}")

        self.wq = w(d, d, "attn.wq")
        self.wk = w(d, d, "attn.wk")
        self.wv = w(d, d, "attn.wv")
        self.wo = w(d, d, "attn.wo")
        self.w_gate = w(d, ffn_hidden, "ffn.gate")
        self.w_up = w(d, ffn_hidden, "ffn.up")
        self.w_down = w(ffn_hidden, d, "ffn.down")
        self.ln_attn = Tensor(np.ones(d), requires_grad=True, name=f"{prefix}.ln_attn")
        self.ln_ffn = Tensor(np.ones(d), requires_grad=True, name=f"{prefix}.ln_ffn")

    def params(self):
        return [self.wq, self.wk, self.wv, self.wo,
                self.w_gate, self.w_up, self.w_down, self.ln_attn, self.ln_ffn]


def embed(token_ids, table: Tensor) -> Tensor:
    """Rows of ``table`` selected by token id; ids of shape (T,) or (B, T).
    An id outside the table raises ``gather_rows``'s IndexError."""
    return T.gather_rows(table, token_ids)


def layer_forward(x: Tensor, params: LayerParams) -> Tensor:
    """One pre-LN residual layer on (..., T, d): x + Attn(LN(x)), then + FFN(LN(.)).

    Attention is causal: position t attends to positions 0..t only. The q, k
    and v products feed one ``tensor.causal_attention`` node, which splits,
    mixes and merges the heads, so a layer records 14 tape nodes.
    """
    if x.data.shape[-1] != params.d:
        raise T.ShapeError("layer_forward", x.data.shape, (params.d,))
    h = T.layer_norm(x, params.ln_attn)
    mixed = T.causal_attention(T.matmul(h, params.wq), T.matmul(h, params.wk),
                               T.matmul(h, params.wv), params.n_heads)
    attn = T.matmul(mixed, params.wo)
    x1 = T.add(x, attn)

    h2 = T.layer_norm(x1, params.ln_ffn)
    gated = T.mul(T.gelu(T.matmul(h2, params.w_gate)), T.matmul(h2, params.w_up))
    ffn = T.matmul(gated, params.w_down)
    return T.add(x1, ffn)


def lm_head(x: Tensor, table: Tensor) -> Tensor:
    """Logits = x @ table.T (weight-tied output projection)."""
    if x.data.shape[-1] != table.data.shape[-1]:
        raise T.ShapeError("lm_head", x.data.shape, table.data.shape)
    return T.matmul(x, T.transpose(table))


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean over all positions of -log softmax(logits)[target], max-shifted for
    stability, as one tape node; logits (..., T, V) and targets (..., T).

    Forward and backward run the array operations of the composition
    ``scalar_mul(mean_all(gather_cols(log_softmax(logits), targets)), -1)``
    in its order, so the loss and the logits' gradient are bitwise that
    composition's. The composition, of ops kept in ``tests/tape_oracles.py``,
    is the tests' oracle. A target outside the vocabulary raises
    ``IndexError``, and targets whose shape is not the logits' leading shape
    ``ShapeError``.
    """
    x = logits.data
    idx = np.asarray(targets, dtype=np.int64)[..., None]
    if x.ndim < 2 or idx.shape[:-1] != x.shape[:-1]:
        raise T.ShapeError("cross_entropy", x.shape, idx.shape)
    T._check_range("cross_entropy", idx, x.shape[-1])
    shifted = x - x.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    inv = 1.0 / idx.size

    def bw(g):
        g_log_probs = np.zeros(x.shape)
        np.put_along_axis(g_log_probs, idx, np.full(idx.shape, float(g * -1.0) * inv), axis=-1)
        return (g_log_probs - np.exp(log_probs) * g_log_probs.sum(axis=-1, keepdims=True),)

    loss = np.take_along_axis(log_probs, idx, axis=-1).mean() * -1.0
    return T.record("cross_entropy", [logits], loss, bw)
