"""Alternating updates over a widened token representation.

The representation is widened from d to K*d, split into K contiguous d-wide
sub-blocks. Each layer runs the real transformer layer on one selected block
and reconstructs the rest with a predict-compute-correct scheme driven by
K*K + K trainable scalars. Also provides ``widen``, which the model's input
stream uses to tile d-wide embeddings, and the down-projection that ends the
embedding-recycling path. The closed-form parameter counts of these variants
live in :mod:`altup.costs`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .schema import DEFAULTS, SELECTION_MODES
from .tensor import Tensor
from .transformer import LayerParams, layer_forward


@dataclass
class AltUpConfig:
    k: int
    d: int
    selection: str = DEFAULTS["altup"]["selection"]
    j_fixed: int = DEFAULTS["altup"]["j_fixed"]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("expansion factor k must be >= 1")
        if self.selection not in SELECTION_MODES:
            raise ValueError(f"selection must be one of {SELECTION_MODES}")
        if not (0 <= self.j_fixed < self.k):
            raise ValueError("j_fixed must lie in [0, k)")


class AltUpLayerParams:
    """Per-layer prediction matrix p (k x k), correction gains g (k,), inner layer.

    Initialization: p = identity, g = ones, so at init every block receives the
    computed delta and the k=1 case is exactly the plain layer.
    """

    def __init__(self, cfg: AltUpConfig, inner: LayerParams, prefix: str = "altup"):
        if inner.d != cfg.d:
            raise ValueError(f"inner layer width {inner.d} != sub-block width {cfg.d}")
        self.cfg = cfg
        self.inner = inner
        self.p = Tensor(np.eye(cfg.k), requires_grad=True, name=f"{prefix}.p")
        self.g = Tensor(np.ones((cfg.k, 1)), requires_grad=True, name=f"{prefix}.g")

    def params(self):
        return [self.p, self.g] + self.inner.params()


def select_block(layer_index: int, cfg: AltUpConfig) -> int:
    """Which sub-block the computation step runs on at a given layer.

    'same' always picks j_fixed; 'alternating' cycles layer_index mod k
    (zero-based layer indices).
    """
    if layer_index < 0:
        raise ValueError("layer_index must be >= 0")
    if cfg.selection == "same":
        return cfg.j_fixed
    return layer_index % cfg.k


def altup_layer_forward(x_old: Tensor, params: AltUpLayerParams, j_star: int,
                        inner_fn=None) -> Tensor:
    """Predict-compute-correct over the K sub-blocks of ``x_old`` (..., T, K*d).

    Predict  x_hat_i = sum_j p[i, j] * block_j,
    Compute  y = inner(block_{j_star})        (the single real layer call),
    Correct  x_new_i = x_hat_i + g_i * (y - x_hat_{j_star}).

    The stream is viewed as (..., T, K, d), so predict and correct are each one
    product with p or g over the K axis. ``inner_fn`` overrides the compute
    step (any (..., T, d) -> (..., T, d) map); by default the wrapped
    transformer layer runs.
    """
    k, d = params.cfg.k, params.cfg.d
    *lead, width = x_old.data.shape
    if width != k * d:
        raise T.ShapeError("altup_layer_forward", x_old.data.shape, (*lead, k * d))
    if not (0 <= j_star < k):
        raise ValueError(f"j_star {j_star} out of range [0, {k})")

    block = T.slice_last(x_old, j_star * d, d)
    x_hat = T.matmul(params.p, T.reshape(x_old, (*lead, k, d)))
    y = layer_forward(block, params.inner) if inner_fn is None else inner_fn(block)
    hat_star = T.gather_rows(x_hat, [j_star])

    # Evaluated as (x_hat_i - g_i*x_hat_star) + g_i*y: with g = 0 the output is
    # exactly x_hat, and with g_i = 1, i = j_star the layer output passes
    # through bitwise (x - x cancels exactly), which the degeneracy identities
    # rely on.
    base = T.sub(x_hat, T.matmul(params.g, hat_star))
    x_new = T.add(base, T.matmul(params.g, T.reshape(y, (*lead, 1, d))))
    return T.reshape(x_new, x_old.data.shape)


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
