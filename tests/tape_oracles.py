"""Tape ops and a layer helper that only the tests use.

The fused nodes (``causal_attention``, ``matmul_relu_matmul``, AltUp's and
seq-AltUp's predict/correct, ``cross_entropy`` and the memory layers'
softmax router) run the array operations of compositions of primitives in
their order. The nine ops here, which no layer of the program records,
complete those compositions, which the tests keep as bitwise oracles, and
serve as scalar losses. Each records through ``tensor.record`` under the
shape rules of ``altup.tensor``. ``zero_all`` turns a transformer layer into
an identity map.
"""

from __future__ import annotations

import math

import numpy as np

from altup.tensor import (ShapeError, Tensor, _check_elementwise, _check_range, _unbroadcast,
                          record)


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


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max subtraction."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return record("softmax", [a], y, bw)


def log_softmax(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse

    def bw(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return record("log_softmax", [a], out, bw)


def gather_cols(x: Tensor, indices) -> Tensor:
    """Pick k elements per row along the last axis: for ``indices`` of shape
    (..., k), the (..., k) array ``np.take_along_axis(x, indices, -1)``, in
    its memory order, which fixes the summation order of any reduction over
    it. Backward is ``np.put_along_axis``, so a row's k indices must differ."""
    idx = np.asarray(indices, dtype=np.int64)
    if x.data.ndim < 2 or idx.shape[:-1] != x.data.shape[:-1]:
        raise ShapeError("gather_cols", x.data.shape, idx.shape)
    _check_range("gather_cols", idx, x.data.shape[-1])
    if idx.shape[-1] > 1 and (np.diff(np.sort(idx, axis=-1), axis=-1) == 0).any():
        raise ValueError("gather_cols: a row picks one column twice")
    out = np.take_along_axis(x.data, idx, axis=-1)
    xshape = x.data.shape

    def bw(g):
        gx = np.zeros(xshape, dtype=np.float64)
        np.put_along_axis(gx, idx, g, axis=-1)
        return (gx,)

    return record("gather_cols", [x], out, bw)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if math.prod(shape) != x.data.size:
        raise ShapeError("reshape", x.data.shape, shape)
    out = x.data.reshape(shape)
    xshape = x.data.shape

    def bw(g):
        return (g.reshape(xshape),)

    return record("reshape", [x], out, bw)


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
