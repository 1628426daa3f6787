"""Dense float64 tensors with reverse-mode automatic differentiation.

Operations record onto the active :class:`Graph` (a tape) when any input
requires gradients and a graph is active; otherwise they evaluate eagerly
with no tracking. :func:`backward` consumes the graph it is given: each node
is dropped once it has propagated, with the arrays its closure holds and its
output's gradient, so a graph runs backward once. Only leaves (tensors no
node of the graph produced, such as parameters and inputs) keep ``.grad``,
and leaf gradients accumulate across graphs. A node's output is one tensor.
:func:`record` adds a node; modules outside this one use it for fused nodes
whose backward they own: a whole memory layer, the softmax router, AltUp's
and seq-AltUp's predict/correct steps and the cross-entropy loss. Such a
node adds its matrix products' MACs through :func:`count_macs`. The ops
that no layer records but the fused nodes' reference compositions use
(``sub``, ``scalar_mul``, ``relu``, ``softmax``, ``log_softmax``,
``reshape``, ``gather_cols``, ``sum_all``, ``mean_all``) live in
``tests/tape_oracles.py``. Broadcasting is deliberately restricted: operand
shapes must match exactly, or the smaller shape must be a trailing suffix of
the larger (leading-batch expansion), or one operand must be scalar-shaped.
Anything else raises :class:`ShapeError` rather than silently expanding. Gradient arrays are never written in place,
so a ``.grad`` may share its array with another tensor's. Importing this
module does not load scipy: :func:`gelu` imports ``scipy.special.erf`` at
its first call, so a process that never runs a forward never pays for it.
"""

from __future__ import annotations

import threading

import numpy as np

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327
_LN_EPS = 1e-6


class ShapeError(ValueError):
    """Raised when operand shapes do not conform to a primitive's rule."""

    def __init__(self, op, *shapes):
        self.op = op
        self.shapes = shapes
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(tuple(s)) for s in shapes)}")


class GraphError(RuntimeError):
    """Raised on invalid backward calls (non-scalar loss, a loss that is not
    on the tape, including a second backward on a consumed graph)."""


class NonFiniteError(FloatingPointError):
    """Raised when a gradient check encounters NaN/inf; carries the parameter name."""

    def __init__(self, where):
        self.where = where
        super().__init__(f"non-finite value encountered at {where}")


# Multiply-accumulate counter for matrix products. Only the nodes that run
# matrix products count, through count_macs: the primitives matmul,
# matmul_relu_matmul and causal_attention, AltUp's predict/correct node in
# ``alternating`` and the softmax router in ``memory``. Elementwise ops, normalizations and activations are excluded
# so the counter matches the closed forms of ``costs.layer_flops`` and
# ``costs.forward_macs`` exactly.
_mac_count = 0


def reset_mac_count():
    global _mac_count
    _mac_count = 0


def mac_count() -> int:
    return _mac_count


def count_macs(n: int):
    """Add ``n`` multiply-accumulates to the counter."""
    global _mac_count
    _mac_count += n


class Tensor:
    """A named, row-major float64 array, optionally carrying a gradient."""

    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op, inputs, output, backward_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class _GraphState(threading.local):
    """Per-thread stack of open graphs; each thread starts with an empty one."""

    def __init__(self):
        self.stack = []


_state = _GraphState()


def _graph_stack():
    return _state.stack


def active_graph():
    stack = _state.stack
    return stack[-1] if stack else None


class Graph:
    """Tape of primitive applications, rebuilt per forward pass.

    Use as a context manager around a forward computation, then call
    :func:`backward` on the scalar loss once: backward empties ``nodes``.
    """

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        _graph_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _graph_stack().pop()
        return False


def record(op, inputs, out_data, backward_fn) -> Tensor:
    """``out_data`` as a Tensor, recorded as a node of the innermost open
    graph when any input requires gradients.

    ``backward_fn(g)`` maps the output's gradient to one gradient (or None)
    per input, in the order of ``inputs``.
    """
    stack = _state.stack
    if stack:
        for t in inputs:
            if t.requires_grad:
                out = Tensor(out_data, requires_grad=True)
                stack[-1].nodes.append(_Node(op, inputs, out, backward_fn))
                return out
    return Tensor(out_data)


def backward(graph: Graph, loss: Tensor):
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every leaf on the tape.

    Consumes the graph: nodes are popped in reverse tape order, and once a
    node has propagated it is dropped, with the arrays its closure holds,
    and its output's ``.grad`` is reset to None. The peak is then what the
    tape still needs, not the whole tape plus every intermediate gradient.
    Leaves (tensors no node of this graph produced) keep their gradients,
    which accumulate additively across fan-out and across graphs; callers
    reset parameter grads between steps. Accumulation order is the fixed
    reverse tape order, so results are bitwise deterministic.

    A tensor's first gradient is stored as the array its consumer's backward
    returned, not a copy, and later ones are added out of place. So ``.grad``
    may share its array with another tensor's (``add`` hands one array to
    both inputs), and no backward function and no caller may write a
    gradient in place.
    """
    if loss.data.shape not in ((), (1,), (1, 1)):
        raise GraphError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    nodes = graph.nodes
    if not any(node.output is loss for node in nodes):
        raise GraphError("backward: loss was not produced by this graph "
                         "(backward consumes the graph, so it runs once per graph)")
    if loss.grad is None:
        loss.grad = np.zeros_like(loss.data)
    loss.grad = loss.grad + np.ones_like(loss.data)
    while nodes:
        node = nodes.pop()
        out = node.output
        gout, out.grad = out.grad, None
        if gout is None:
            continue
        grads = node.backward_fn(gout)
        for t, g in zip(node.inputs, grads):
            if g is None or not t.requires_grad:
                continue
            if t.grad is None:
                t.grad = g
            else:
                t.grad = t.grad + g


# ---------------------------------------------------------------------------
# Broadcasting helpers (exact match, trailing suffix, or scalar operand only)
# ---------------------------------------------------------------------------


def _is_scalar_shape(shape):
    return all(d == 1 for d in shape)


def _check_elementwise(op, a, b):
    sa, sb = a.data.shape, b.data.shape
    if sa == sb or _is_scalar_shape(sa) or _is_scalar_shape(sb):
        return
    small, large = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    if large[len(large) - len(small):] != small:
        raise ShapeError(op, sa, sb)


def _unbroadcast(g, shape):
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, td) in enumerate(zip(g.shape, shape)) if td == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("add", a, b)
    out = a.data + b.data

    def bw(g):
        return (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape))

    return record("add", [a, b], out, bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("mul", a, b)
    out = a.data * b.data
    ad, bd = a.data, b.data

    def bw(g):
        return (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape))

    return record("mul", [a, b], out, bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, (..., m, k) @ (..., k, n).

    Leading (batch) shapes must be equal, or one operand must be 2-D, in which
    case it is shared across the other's leading axes. Counts prod(lead)*m*n*k
    multiply-accumulates.
    """
    ad, bd = a.data, b.data
    if (ad.ndim < 2 or bd.ndim < 2 or ad.shape[-1] != bd.shape[-2]
            or (ad.ndim > 2 and bd.ndim > 2 and ad.shape[:-2] != bd.shape[:-2])):
        raise ShapeError("matmul", ad.shape, bd.shape)
    out = ad @ bd
    count_macs(out.size * ad.shape[-1])
    # a 2-D operand shared across leading axes sums its gradient over them,
    # as one product over the flattened leading and row axes
    lead = tuple(range(out.ndim - 2))
    cols = (out.ndim - 1,)

    def bw(g):
        if ad.ndim == bd.ndim:
            return (g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g)
        if ad.ndim == 2:
            return (np.tensordot(g, bd, axes=(lead + cols, lead + cols)), ad.T @ g)
        return (g @ bd.T, ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1]))

    return record("matmul", [a, b], out, bw)


def matmul_relu_matmul(x: Tensor, u: Tensor, v: Tensor) -> Tensor:
    """relu(x @ u) @ v for 2-D operands, (N, d) @ (d, r) then (N, r) @ (r, e),
    as one tape node.

    Forward and backward compute the products of ``matmul``, ``relu``,
    ``matmul`` in the same order, so values and gradients are bitwise equal
    to that composition, the tests' oracle; the forward's ``ndarray.dot`` gives the bits of
    ``@`` on these 2-D operands, at less call overhead. Counts the
    composition's N*r*d + N*e*r multiply-accumulates.
    """
    xd, ud, vd = x.data, u.data, v.data
    if (xd.ndim != 2 or ud.ndim != 2 or vd.ndim != 2
            or xd.shape[1] != ud.shape[0] or ud.shape[1] != vd.shape[0]):
        raise ShapeError("matmul_relu_matmul", xd.shape, ud.shape, vd.shape)
    h = xd.dot(ud)
    a = np.maximum(h, 0.0)
    out = a.dot(vd)
    count_macs(h.size * xd.shape[1] + out.size * ud.shape[1])

    def bw(g):
        gh = (g @ vd.swapaxes(-1, -2)) * (h > 0.0)
        return (gh @ ud.swapaxes(-1, -2), xd.swapaxes(-1, -2) @ gh,
                a.swapaxes(-1, -2) @ g)

    return record("matmul_relu_matmul", [x, u, v], out, bw)


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Causal multi-head attention of (..., T, d) projections as one tape node:
    heads of width d/H, softmax(q k^T / sqrt(d/H) + mask) @ v with the mask
    -1e30 above the diagonal, merged back to (..., T, d). Forward and backward
    run the array operations of that composition of primitives in its order,
    so values, gradients and MACs are bitwise those of the composition."""
    shape = q.data.shape
    if (len(shape) < 2 or k.data.shape != shape or v.data.shape != shape
            or n_heads < 1 or shape[-1] % n_heads):
        raise ShapeError("causal_attention", shape, k.data.shape, v.data.shape, (n_heads,))
    *lead, n, d = shape
    heads, c = (*lead, n, n_heads, d // n_heads), 1.0 / np.sqrt(d // n_heads)
    qh, kh, vh = (a.reshape(heads).swapaxes(-3, -2).copy() for a in (q.data, k.data, v.data))
    kt = kh.swapaxes(-2, -1).copy()
    scores = (qh @ kt) * c + np.triu(np.full((n, n), -1e30), k=1)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    mixed = y @ vh
    count_macs(2 * mixed.size * n)

    def bw(g):
        go = g.reshape(heads).swapaxes(-3, -2)
        gy = go @ vh.swapaxes(-1, -2)
        gs = y * (gy - (gy * y).sum(axis=-1, keepdims=True)) * c
        grads = (gs @ kt.swapaxes(-1, -2), (qh.swapaxes(-1, -2) @ gs).swapaxes(-2, -1),
                 y.swapaxes(-1, -2) @ go)
        return tuple(a.swapaxes(-3, -2).reshape(shape) for a in grads)

    return record("causal_attention", [q, k, v], mixed.swapaxes(-3, -2).copy().reshape(shape), bw)


def transpose(a: Tensor, axis1: int = -2, axis2: int = -1) -> Tensor:
    """Swap two axes (by default the last two)."""
    if a.data.ndim < 2:
        raise ShapeError("transpose", a.data.shape)
    out = a.data.swapaxes(axis1, axis2).copy()

    def bw(g):
        return (g.swapaxes(axis1, axis2),)

    return record("transpose", [a], out, bw)


def gelu(a: Tensor) -> Tensor:
    """Exact erf-based GELU: 0.5 * x * (1 + erf(x / sqrt(2))).

    ``erf`` is scipy's, imported here rather than at module import: loading
    ``scipy.special`` is most of a process's start-up, and only a forward
    needs it. After the first call the import is a ``sys.modules`` lookup.
    """
    from scipy.special import erf

    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = x * cdf

    def bw(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
        return (g * (cdf + x * pdf),)

    return record("gelu", [a], out, bw)


def layer_norm(x: Tensor, scale: Tensor, eps: float = _LN_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale."""
    if x.data.shape[-1] != scale.data.shape[-1] or scale.data.ndim != 1:
        raise ShapeError("layer_norm", x.data.shape, scale.data.shape)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * scale.data
    sdata = scale.data

    def bw(g):
        gxhat = g * sdata
        m1 = gxhat.mean(axis=-1, keepdims=True)
        m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (gxhat - m1 - xhat * m2)
        gscale = _unbroadcast(g * xhat, sdata.shape)
        return (gx, gscale)

    return record("layer_norm", [x, scale], out, bw)


def _check_range(op, idx, n):
    """Raise IndexError naming the first index outside [0, n) and its
    row-major position; the min/max test is the fast path."""
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        flat = idx.reshape(-1)
        bad = int(np.argmax((flat < 0) | (flat >= n)))
        raise IndexError(f"{op}: index {int(flat[bad])} at position {bad} out of range [0, {n})")


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows (axis -2) of ``x`` by integer index; backward scatter-adds.

    A 2-D ``x`` (a table) takes indices of any shape, giving
    ``indices.shape + (x.shape[-1],)``; otherwise indices are 1-D.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if x.data.ndim < 2 or (x.data.ndim > 2 and idx.ndim != 1):
        raise ShapeError("gather_rows", x.data.shape, idx.shape)
    _check_range("gather_rows", idx, x.data.shape[-2])
    at = (Ellipsis, idx, slice(None))
    out = x.data[at]
    xshape = x.data.shape

    def bw(g):
        gx = np.zeros(xshape, dtype=np.float64)
        np.add.at(gx, at, g)
        return (gx,)

    return record("gather_rows", [x], out, bw)


def scatter_rows(x: Tensor, indices, n_rows: int) -> Tensor:
    """Place rows (axis -2) of ``x`` at the given indices of a zero tensor
    with ``n_rows`` rows."""
    idx = np.asarray(indices, dtype=np.int64)
    if x.data.ndim < 2 or idx.shape != x.data.shape[-2:-1]:
        raise ShapeError("scatter_rows", x.data.shape, idx.shape)
    _check_range("scatter_rows", idx, n_rows)
    at = (Ellipsis, idx, slice(None))
    out = np.zeros(x.data.shape[:-2] + (n_rows,) + x.data.shape[-1:], dtype=np.float64)
    np.add.at(out, at, x.data)

    def bw(g):
        return (g[at],)

    return record("scatter_rows", [x], out, bw)


def concat_last(tensors) -> Tensor:
    tensors = list(tensors)
    lead = tensors[0].data.shape[:-1]
    for t in tensors[1:]:
        if t.data.shape[:-1] != lead:
            raise ShapeError("concat_last", tensors[0].data.shape, t.data.shape)
    sizes = [t.data.shape[-1] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=-1)
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        return tuple(g[..., offsets[i]:offsets[i + 1]] for i in range(len(sizes)))

    return record("concat_last", tensors, out, bw)


def slice_last(x: Tensor, start: int, size: int) -> Tensor:
    if start < 0 or start + size > x.data.shape[-1]:
        raise ShapeError("slice_last", x.data.shape, (start, size))
    out = x.data[..., start:start + size].copy()
    xshape = x.data.shape

    def bw(g):
        gx = np.zeros(xshape, dtype=np.float64)
        gx[..., start:start + size] = g
        return (gx,)

    return record("slice_last", [x], out, bw)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def grad_check(f, params, eps: float = 1e-5) -> float:
    """Compare reverse-mode gradients of ``f(params)`` to central differences.

    Returns the max over all parameter entries of
    ``|ad - fd| / max(1e-8, |fd| + |ad|)``. ``f`` must be deterministic and
    return a scalar Tensor. Raises :class:`NonFiniteError` (naming the
    parameter) if any value or gradient is NaN/inf.
    """
    if eps <= 0:
        raise ValueError("grad_check: eps must be positive")
    for p in params:
        p.grad = None
    with Graph() as graph:
        loss = f(params)
    if not np.isfinite(loss.data).all():
        raise NonFiniteError("loss")
    backward(graph, loss)

    analytic = []
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise NonFiniteError(p.name or "unnamed parameter")
        analytic.append(np.array(g, copy=True))

    max_err = 0.0
    for p, ad in zip(params, analytic):
        flat = p.data.reshape(-1)
        ad_flat = ad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = f(params).item()
            flat[i] = orig - eps
            f_minus = f(params).item()
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NonFiniteError(f"{p.name or 'unnamed parameter'}[{i}]")
            fd = (f_plus - f_minus) / (2.0 * eps)
            denom = max(1e-8, abs(fd) + abs(ad_flat[i]))
            err = abs(ad_flat[i] - fd) / denom
            if err > max_err:
                max_err = err
    return max_err
