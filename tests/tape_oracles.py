"""Tape ops and a layer helper that only the tests use.

The fused nodes (``causal_attention``, ``matmul_relu_matmul``, AltUp's and
seq-AltUp's predict/correct and ``cross_entropy``) run the array operations
of compositions of primitives in their order. The six ops here, which no
layer of the program records, complete those compositions, which the tests
keep as bitwise oracles, and serve as scalar losses. Each records through
``tensor.record`` under the shape rules of ``altup.tensor``. ``zero_all``
turns a transformer layer into an identity map.
"""

from __future__ import annotations

import numpy as np

from altup.tensor import Tensor, _check_elementwise, _unbroadcast, record


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("sub", a, b)
    out = a.data - b.data

    def bw(g):
        return (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape))

    return record("sub", [a, b], out, bw)


def scalar_mul(a: Tensor, c: float) -> Tensor:
    out = a.data * c

    def bw(g):
        return (g * c,)

    return record("scalar_mul", [a], out, bw)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    mask = a.data > 0.0

    def bw(g):
        return (g * mask,)

    return record("relu", [a], out, bw)


def log_softmax(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse

    def bw(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return record("log_softmax", [a], out, bw)


def sum_all(x: Tensor) -> Tensor:
    out = x.data.sum()
    xshape = x.data.shape

    def bw(g):
        return (np.full(xshape, float(g)),)

    return record("sum_all", [x], out, bw)


def mean_all(x: Tensor) -> Tensor:
    out = x.data.mean()
    xshape = x.data.shape
    inv = 1.0 / x.data.size

    def bw(g):
        return (np.full(xshape, float(g) * inv),)

    return record("mean_all", [x], out, bw)


def zero_all(layer):
    """Zero every sublayer weight of a ``transformer.LayerParams``, keeping
    the LN scales, which makes the layer an identity map; returns the layer."""
    for p in (layer.wq, layer.wk, layer.wv, layer.wo, layer.w_gate, layer.w_up, layer.w_down):
        p.data[...] = 0.0
    return layer
