"""Predict-compute-correct along the sequence axis, plus strided baselines.

Only every k-th position is processed by the wrapped transformer layer; the
remaining positions are predicted from a two-scalar linear mix and corrected
with the computed delta of their anchor position. The stride-and-skip
baseline runs the layer on the same subsample but passes skipped positions
through untouched, and average pooling shortens the sequence outright. All
of them act on the sequence axis -2 of (..., T, d) activations.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .transformer import LayerParams, layer_forward


class SeqAltUpParams:
    """Prediction mix scalars a1, a2, correction gain b, and the stride."""

    def __init__(self, stride: int, prefix: str = "seq"):
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.stride = stride
        self.a1 = Tensor(np.ones((1, 1)), requires_grad=True, name=f"{prefix}.a1")
        self.a2 = Tensor(np.zeros((1, 1)), requires_grad=True, name=f"{prefix}.a2")
        self.b = Tensor(np.ones((1, 1)), requires_grad=True, name=f"{prefix}.b")

    def params(self):
        return [self.a1, self.a2, self.b]


def _sampled_positions(t: int, k: int) -> np.ndarray:
    return np.arange(0, t, k, dtype=np.int64)


def seq_altup_forward(x: Tensor, inner: LayerParams, p: SeqAltUpParams) -> Tensor:
    """Sequence-axis predict-compute-correct with stride ``p.stride``.

    Prediction: y_hat_i = a1*x_i + a2*x_anchor(i),  anchor(i) = floor(i/k)*k.
    Computation: the inner layer runs once on the subsampled positions
    {0, k, 2k, ...}; its attention spans only those positions, in order.
    Correction: y_i = y_hat_i + b*(y_computed_anchor(i) - y_hat_anchor(i)).
    """
    t = x.data.shape[-2]
    if t < 1:
        raise ValueError("seq_altup_forward: empty sequence")
    k = p.stride
    anchors = (np.arange(t, dtype=np.int64) // k) * k
    sampled = _sampled_positions(t, k)

    y_hat = T.add(T.mul(p.a1, x), T.mul(p.a2, T.gather_rows(x, anchors)))
    y_sub = layer_forward(T.gather_rows(x, sampled), inner)
    y_comp = T.gather_rows(y_sub, anchors // k)
    y_hat_anchor = T.gather_rows(y_hat, anchors)

    # Same cancellation-exact ordering as the block-wise correction: b = 0
    # returns the prediction bitwise; k = 1, b = 1 returns the layer output
    # bitwise.
    return T.add(T.sub(y_hat, T.mul(p.b, y_hat_anchor)), T.mul(p.b, y_comp))


def stride_and_skip_forward(x: Tensor, inner: LayerParams, k: int) -> Tensor:
    """Run the layer on every k-th position; other positions pass through."""
    t = x.data.shape[-2]
    if t < 1:
        raise ValueError("stride_and_skip_forward: empty sequence")
    if k < 1:
        raise ValueError("stride must be >= 1")
    sampled = _sampled_positions(t, k)
    y_sub = layer_forward(T.gather_rows(x, sampled), inner)
    placed = T.scatter_rows(y_sub, sampled, t)
    keep = np.ones(x.data.shape[-2:])
    keep[sampled] = 0.0
    return T.add(placed, T.mul(x, Tensor(keep)))


def average_pool_seq(x: Tensor, k: int) -> Tensor:
    """Mean-pool disjoint windows of k positions; output length ceil(T/k)."""
    t = x.data.shape[-2]
    if t < 1:
        raise ValueError("average_pool_seq: empty sequence")
    if k < 1:
        raise ValueError("stride must be >= 1")
    t_out = -(-t // k)
    pool = np.zeros((t_out, t))
    for j in range(t_out):
        lo, hi = j * k, min((j + 1) * k, t)
        pool[j, lo:hi] = 1.0 / (hi - lo)
    return T.matmul(Tensor(pool), x)


def pooled_target_positions(t: int, k: int) -> np.ndarray:
    """Original position whose target each pooled position predicts (last in window)."""
    t_out = -(-t // k)
    return np.array([min((j + 1) * k, t) - 1 for j in range(t_out)], dtype=np.int64)
