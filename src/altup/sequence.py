"""Predict-compute-correct along the sequence axis, plus strided baselines.

Only every k-th position is processed by the wrapped transformer layer; the
remaining positions are predicted from a two-scalar linear mix and corrected
with the computed delta of their anchor position. The stride-and-skip
baseline runs the layer on the same subsample but passes skipped positions
through untouched, and average pooling shortens the sequence outright. All
of them act on the sequence axis -2 of (..., T, d) activations. Sequence
AltUp's predict and correct steps are one tape node each, with hand-written
backwards that are bitwise the composition of primitives they replace.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .transformer import LayerParams, layer_forward


class SeqAltUpParams:
    """Prediction mix scalars a1, a2, correction gain b, and the stride."""

    def __init__(self, stride: int, prefix: str = "seq"):
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

    The layer records a ``"seq_predict"`` node, the subsample's
    ``gather_rows``, the compute step and a ``"seq_correct"`` node.
    """
    t = x.data.shape[-2]
    if t < 1:
        raise ValueError("seq_altup_forward: empty sequence")
    k = p.stride
    anchors = (np.arange(t, dtype=np.int64) // k) * k
    y_hat = _predict(x, p.a1, p.a2, anchors)
    y_sub = layer_forward(T.gather_rows(x, _sampled_positions(t, k)), inner)
    return _correct(y_hat, p.b, y_sub, anchors, k)


def _predict(x: Tensor, a1: Tensor, a2: Tensor, anchors) -> Tensor:
    """a1*x + a2*x[anchors] as one tape node with inputs [x, x, a1, a2].

    Forward and backward run the array operations of the composition of
    ``mul``, ``gather_rows`` and ``add`` in its order. ``x`` is listed twice
    so that its gradient adds up as that tape's does: the first entry carries
    the anchors' scatter-add, the second the a1 term. Recorded before the
    subsample's gather, x's gradient is ((subsample + anchors) + a1 term).
    """
    xd, a1d, a2d = x.data, a1.data, a2.data
    at = np.s_[..., anchors, :]
    x_anchor = xd[at]
    out = a1d * xd + a2d * x_anchor

    def bw(g):
        gx = np.zeros(xd.shape)
        np.add.at(gx, at, g * a2d)
        return (gx, g * a1d, T._unbroadcast(g * xd, a1d.shape),
                T._unbroadcast(g * x_anchor, a2d.shape))

    return T.record("seq_predict", [x, x, a1, a2], out, bw)


def _correct(y_hat: Tensor, b: Tensor, y_sub: Tensor, anchors, k: int) -> Tensor:
    """(y_hat - b*y_hat[anchors]) + b*y_sub[anchors // k] as one tape node with
    inputs [y_hat, b, y_sub].

    The ordering is cancellation-exact, as in the block-wise correction:
    b = 0 returns the prediction bitwise, and k = 1, b = 1 returns the layer
    output bitwise. Forward and backward run the array operations of the
    composition of ``gather_rows``, ``mul``, ``sub`` and ``add`` in its
    order (``sub`` is kept in ``tests/tape_oracles.py``, and the composition
    is the tests' oracle); b's gradient is its two terms' sum, in the
    composition's order, so it is bitwise the composition's when b.grad
    starts empty.
    """
    hd, bd, sd = y_hat.data, b.data, y_sub.data
    at_hat, at_sub = np.s_[..., anchors, :], np.s_[..., anchors // k, :]
    hat_anchor, computed = hd[at_hat], sd[at_sub]
    out = (hd - bd * hat_anchor) + bd * computed

    def bw(g):
        neg = -g
        gb = T._unbroadcast(g * computed, bd.shape) + T._unbroadcast(neg * hat_anchor, bd.shape)
        g_hat = np.zeros(hd.shape)
        np.add.at(g_hat, at_hat, neg * bd)
        g_sub = np.zeros(sd.shape)
        np.add.at(g_sub, at_sub, g * bd)
        return (g + g_hat, gb, g_sub)

    return T.record("seq_correct", [y_hat, b, y_sub], out, bw)


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
    window = np.arange(t) // k
    sizes = np.bincount(window)  # k each, but the last window may be shorter
    pool = np.equal.outer(np.arange(sizes.size), window) / sizes[:, None]
    return T.matmul(Tensor(pool), x)


def pooled_target_positions(t: int, k: int) -> np.ndarray:
    """Original position whose target each pooled position predicts (last in window)."""
    return np.minimum(np.arange(k, t + k, k, dtype=np.int64), t) - 1
