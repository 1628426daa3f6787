"""Alternating updates over a widened token representation.

The representation is widened from d to K*d, split into K contiguous d-wide
sub-blocks. Each layer runs the real transformer layer on one selected block
and reconstructs the rest with a predict-compute-correct scheme driven by
K*K + K trainable scalars. Predict and correct are one tape node with a
hand-written backward, bitwise the composition of primitives it replaces,
so a layer adds two nodes (the block's slice and that node) to its inner
layer's. The layers take plain values (K, the inner layer, the selection
rule); the resolved ``altup`` config section of :mod:`altup.schema` owns their
defaults and bounds. Also provides ``widen``, which the model's input stream
uses to tile d-wide embeddings, and the down-projection that ends the
embedding-recycling path. The closed-form parameter counts of these variants
live in :mod:`altup.costs`.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .transformer import LayerParams, layer_forward


class AltUpLayerParams:
    """Per-layer prediction matrix p (k x k), correction gains g (k,), and the
    inner layer, whose width ``inner.d`` is the sub-block width d.

    Initialization: p = identity, g = ones, so at init every block receives the
    computed delta and the k=1 case is exactly the plain layer.
    """

    def __init__(self, k: int, inner: LayerParams, prefix: str = "altup"):
        self.k, self.d = k, inner.d
        self.inner = inner
        self.p = Tensor(np.eye(k), requires_grad=True, name=f"{prefix}.p")
        self.g = Tensor(np.ones((k, 1)), requires_grad=True, name=f"{prefix}.g")

    def params(self):
        return [self.p, self.g] + self.inner.params()


def select_block(layer_index: int, k: int, selection: str) -> int:
    """Which sub-block the computation step runs on at a given layer.

    'same' always picks block 0; 'alternating' cycles layer_index mod k
    (zero-based layer indices). The blocks are exchangeable at init, so which
    one 'same' picks does not change the model's distribution.
    """
    if layer_index < 0:
        raise ValueError("layer_index must be >= 0")
    return {"same": 0, "alternating": layer_index % k}[selection]


def altup_layer_forward(x_old: Tensor, params: AltUpLayerParams, j_star: int,
                        inner_fn=None) -> Tensor:
    """Predict-compute-correct over the K sub-blocks of ``x_old`` (..., T, K*d).

    Predict  x_hat_i = sum_j p[i, j] * block_j,
    Compute  y = inner(block_{j_star})        (the single real layer call),
    Correct  x_new_i = x_hat_i + g_i * (y - x_hat_{j_star}).

    The layer records the block's ``slice_last``, the compute step and one
    ``"altup_predict_correct"`` node for predict and correct together.
    ``inner_fn`` overrides the compute step (any (..., T, d) -> (..., T, d)
    map); by default the wrapped transformer layer runs.
    """
    k, d = params.k, params.d
    *lead, width = x_old.data.shape
    if not lead or width != k * d:
        raise T.ShapeError("altup_layer_forward", x_old.data.shape, (*lead, k * d))
    if not (0 <= j_star < k):
        raise ValueError(f"j_star {j_star} out of range [0, {k})")

    block = T.slice_last(x_old, j_star * d, d)
    y = layer_forward(block, params.inner) if inner_fn is None else inner_fn(block)
    if y.data.shape != block.data.shape:
        raise T.ShapeError("altup_layer_forward", y.data.shape, block.data.shape)
    return _predict_correct(x_old, params.p, params.g, y, j_star)


def _predict_correct(x_old: Tensor, p: Tensor, g: Tensor, y: Tensor, j_star: int) -> Tensor:
    """x_new from ``x_old`` (..., T, K*d) and the layer output ``y`` (..., T, d)
    as one tape node with inputs [x_old, p, g, y].

    The stream is viewed as (..., T, K, d), so predict and correct are each a
    product with p or g over the K axis: x_hat = p @ x, then
    (x_hat - g @ x_hat[..., [j_star], :]) + g @ y. With g = 0 the output is
    exactly x_hat, and with g_i = 1, i = j_star the layer output passes
    through bitwise (x - x cancels exactly), which the degeneracy identities
    rely on. Forward and backward run the array operations of the composition
    of ``matmul``, ``gather_rows``, ``sub``, ``add`` and ``reshape`` in its
    order, and count its K*K*N*d + 2*K*N*d MACs for N token positions. g's
    gradient is its two products' sum, in the composition's order, so all
    gradients are bitwise the composition's when g.grad starts empty, as in
    every training step.
    """
    shape = x_old.data.shape
    pd, gd = p.data, g.data
    k, d = pd.shape[0], y.data.shape[-1]
    x4 = x_old.data.reshape(*shape[:-1], k, d)
    y4 = y.data.reshape(*shape[:-1], 1, d)
    x_hat = pd @ x4
    star = np.s_[..., [j_star], :]
    hat_star = x_hat[star]
    out = (x_hat - gd @ hat_star) + gd @ y4
    T.count_macs(x_hat.size * (k + 2))
    # matmul's backward for a 2-D operand shared across the other's leading axes
    axes = (*range(x_hat.ndim - 2), x_hat.ndim - 1)

    def bw(g_out):
        grad = g_out.reshape(x_hat.shape)
        neg = -grad
        g_grad = (np.tensordot(grad, y4, axes=(axes, axes))
                  + np.tensordot(neg, hat_star, axes=(axes, axes)))
        scatter = np.zeros(x_hat.shape)
        np.add.at(scatter, star, gd.T @ neg)
        hat_grad = grad + scatter
        return ((pd.T @ hat_grad).reshape(shape), np.tensordot(hat_grad, x4, axes=(axes, axes)),
                g_grad, (gd.T @ grad).reshape(y.data.shape))

    return T.record("altup_predict_correct", [x_old, p, g, y], out.reshape(shape), bw)


def widen(x: Tensor, k: int) -> Tensor:
    """k copies of x side by side along the last axis; x itself when k = 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return x if k == 1 else T.concat_last([x] * k)


def recycled_downproject(x: Tensor, k: int) -> Tensor:
    """Sum the k contiguous d-wide sub-blocks back down to width d."""
    width = x.data.shape[-1]
    if k < 1 or width % k != 0:
        raise T.ShapeError("recycled_downproject", x.data.shape, (k,))
    d = width // k
    out = T.slice_last(x, 0, d)
    for j in range(1, k):
        out = T.add(out, T.slice_last(x, j * d, d))
    return out
