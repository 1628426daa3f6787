"""Memory-augmented layers: a stacked table of partial experts plus four lookups.

A table of n small experts sits beside a layer; a lookup function maps the
layer input (and/or its token id) to table indices, and the selected experts'
outputs are added to the layer output. Lookups: learned softmax top-k routing,
token-id indexing, hyperplane LSH bucketing, and min-hash over the token-id
set of each position's prefix. A lookup takes any (..., d) layer input, routes
its N rows at once in row-major order and returns ``(indices, weights)``: an
(N, k) int array, and None (unit weights) for token-id, lsh and min-hash or
one (N, k) Tensor of probabilities for softmax. ``memory_augmented_forward``
adds the selected experts to one row on arrays and records nothing. A model
runs it once per position and records a layer's output, in the layer's
(..., T, d) shape, as one ``expert_rows`` node, whose backward handles all
rows at once and gives the table and the weights their gradients. The table,
router and hyperplane classes take the values of a resolved ``memory`` config
section and re-check none of the rules its resolver enforces.
"""

from __future__ import annotations

from collections.abc import Sized
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .tensor import Tensor

_M64 = (1 << 64) - 1
_LSH_SEED_CONST = 0x8445D61A4E774912
_SPLITMIX = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_SPLITMIX_U64 = tuple(np.uint64(c) for c in _SPLITMIX)
_SHIFTS_U64 = tuple(np.uint64(k) for k in (30, 27, 31))


def _splitmix64(z):
    """SplitMix64 finalizer of a Python int in [0, 2**64), or elementwise of a
    uint64 array with the same bits. Array arithmetic wraps mod 2**64, so that
    path needs no masks; it steps in place on one new array, and the caller's
    array is left as it was."""
    if isinstance(z, int):
        gamma, mul1, mul2 = _SPLITMIX
        z = (z + gamma) & _M64
        z = ((z ^ (z >> 30)) * mul1) & _M64
        z = ((z ^ (z >> 27)) * mul2) & _M64
        return z ^ (z >> 31)
    gamma, mul1, mul2 = _SPLITMIX_U64
    s1, s2, s3 = _SHIFTS_U64
    z = z + gamma
    z ^= z >> s1
    z *= mul1
    z ^= z >> s2
    z *= mul2
    z ^= z >> s3
    return z


class MemoryTable:
    """n partial experts sharing d and rank, stacked in one indexed table.

    A matrix expert is the rank-limited ReLU network f_i(x) = V_i relu(U_i^T x),
    stored as ``u`` (n, d, rank) and ``v`` (n, rank, d), which holds each V_i
    transposed so a row x maps to relu(x U_i) V_i^T; a constant expert is its
    output b_i, stored as ``b`` (n, d). ``experts[i]`` is expert i's handle,
    the tuple ``(u[i], v[i])`` or ``(b[i],)`` of Tensors viewing the table,
    built once, so its identity is stable; handles are not parameters.
    ``n`` >= 1, and ``rank`` >= 1 for matrix experts, as the config resolver
    requires of a memory section; ``rank`` is unused for constant experts.
    """

    def __init__(self, n: int, d: int, rank: int, rng: np.random.Generator,
                 constant: bool, prefix: str = "table"):
        self.n = n
        self.constant = constant
        if constant:
            self.b = Tensor(np.zeros((n, d)), requires_grad=True, name=f"{prefix}.b")
            self.experts = [(Tensor(b),) for b in self.b.data]
            return
        # LeCun-normal, std 1/sqrt(fan_in), drawn expert by expert: U_i, then
        # V_i as (d, rank). One draw in that order, scaled as rng.normal
        # scales (loc + scale * z), gives the bits of a per-expert loop.
        # Scaling in place keeps the peak at z plus the two tables.
        z = rng.standard_normal((n, 2, d, rank))
        z[:, 0] *= 1 / np.sqrt(d)
        z[:, 1] *= 1 / np.sqrt(rank)
        u = z[:, 0] + 0.0
        v = np.add(z[:, 1].swapaxes(-1, -2), 0.0, out=np.empty((n, rank, d)))
        self.u = Tensor(u, requires_grad=True, name=f"{prefix}.u")
        self.v = Tensor(v, requires_grad=True, name=f"{prefix}.v")
        self.experts = [(Tensor(u_i), Tensor(v_i)) for u_i, v_i in zip(u, v)]

    def params(self):
        return [self.b] if self.constant else [self.u, self.v]


@dataclass
class RouterParams:
    """Learned softmax router: logits h(x) = W x, probabilities by softmax.

    ``k`` (in [1, n] for an (n, d) ``w``) and ``jitter_eps`` (>= 0) are the
    resolved memory section's, as the config resolver checks them.
    """

    w: Tensor
    k: int
    jitter_eps: float

    @classmethod
    def create(cls, n: int, d: int, rng: np.random.Generator, k: int, jitter_eps: float,
               name: str = "router.w"):
        w = Tensor(rng.normal(0, 2e-2, (n, d)), requires_grad=True, name=name)
        return cls(w=w, k=k, jitter_eps=jitter_eps)


@dataclass
class HyperplaneLshParams:
    """Grid of randomly oriented, equispaced hyperplanes mapped onto n buckets."""

    directions: np.ndarray  # (m, d) unit Gaussian draws
    offsets: np.ndarray     # (m,) uniform in [0, w)
    width: float
    n: int

    @classmethod
    def create(cls, d: int, n: int, seed):
        """lsh_projections(n) directions and offsets of unit-width cells."""
        m = lsh_projections(n)
        rng = np.random.default_rng(seed)
        directions = rng.standard_normal((m, d))
        offsets = rng.uniform(0.0, 1.0, m)
        return cls(directions=directions, offsets=offsets, width=1.0, n=n)


def lsh_projections(n: int) -> int:
    """Projections of a hyperplane LSH hash onto n buckets: max(1, ceil(log2 n))."""
    return max(1, int(np.ceil(np.log2(n))))


def expert_forward(x: Tensor, expert) -> Tensor:
    """V relu(U^T x) for each row of an (N, d) input, or the constant b on
    every row, for a table's expert handle ``(u, v)`` or ``(b,)``. The
    handle's Tensors are constants to the tape; ``matmul_relu_matmul`` checks
    a matrix expert's shapes."""
    if len(expert) == 2:
        return T.matmul_relu_matmul(x, *expert)
    b = expert[0].data
    if x.data.ndim != 2 or x.data.shape[1] != b.shape[0]:
        raise T.ShapeError("expert_forward", x.data.shape, (-1, b.shape[0]))
    # constant output b on every row, a constant to the tape
    return Tensor(x.data * 0.0 + b)


def softmax_route(x: Tensor, r: RouterParams, training: bool = False,
                  rng: np.random.Generator | None = None):
    """Top-k routing of one input: ``softmax_lookup``'s rule run off the tape
    on x as one row. Returns (indices, probabilities as floats)."""
    q = softmax_lookup(replace(r, w=Tensor(r.w.data)), training, rng)
    indices, weights = q(Tensor(x.data), [0])
    return indices[0].tolist(), weights.data[0].tolist()


def lsh_cell_hash(cells: np.ndarray) -> np.ndarray:
    """Fixed 64-bit mix of integer cell coordinates along the last axis: the
    splitmix chain h <- splitmix(h ^ c_j) from a seed constant, on uint64
    arrays (a negative coordinate enters as its two's complement bits)."""
    cells = np.asarray(cells, dtype=np.int64)
    # 2-D, so the chain runs on arrays (scalar uint64 arithmetic warns on wrap)
    flat = cells.reshape(-1, cells.shape[-1]).view(np.uint64)
    h = np.full(flat.shape[0], _LSH_SEED_CONST, dtype=np.uint64)
    for j in range(flat.shape[1]):
        h = _splitmix64(h ^ flat[:, j])
    return h.reshape(cells.shape[:-1])


def hyperplane_lsh_lookup(x, p: HyperplaneLshParams):
    """Bucket of the grid cell containing x: floor((g_j . x + o_j) / w) per
    projection, then ``lsh_cell_hash`` of the cell coordinates, mod n.

    One vector (d,) gives an int; rows (..., d) give an int64 array (...).
    Each row is projected by its own matrix-vector product, so its bucket
    does not depend on the rows hashed with it.
    """
    xv = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    proj = (p.directions @ xv[..., None])[..., 0]
    cells = np.floor((proj + p.offsets) / p.width)
    buckets = (lsh_cell_hash(cells) % np.uint64(p.n)).astype(np.int64)
    return int(buckets) if xv.ndim == 1 else buckets


def _minhash_priorities(ids: np.ndarray, perm_seed: int) -> np.ndarray:
    """Seeded pseudo-random uint64 priority of each int64 id: splitmix of the
    id xor a seeded base, a bijection of the id's 64 bits."""
    base = np.uint64(_splitmix64(int(perm_seed) & _M64))
    return _splitmix64(base ^ ids.view(np.uint64))


def minhash_lookup(token_ids, perm_seed: int) -> int:
    """Member of the set of int64 ids with the smallest seeded pseudo-random
    priority. Distinct ids never tie.
    """
    if isinstance(token_ids, np.ndarray):
        ids = np.asarray(token_ids, dtype=np.int64)
    else:
        count = len(token_ids) if isinstance(token_ids, Sized) else -1
        ids = np.fromiter(token_ids, dtype=np.int64, count=count)
    if ids.size == 0:
        raise ValueError("minhash_lookup: empty set")
    return int(ids[np.argmin(_minhash_priorities(ids, perm_seed))])


def minhash_prefix_members(ids, perm_seed: int) -> np.ndarray:
    """``minhash_lookup`` of every prefix along the last axis: entry t is the
    member of ids[..., :t+1] with the smallest priority, for all rows at once."""
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    priority = _minhash_priorities(ids, perm_seed)
    # a prefix's member sits at the last position up to t whose priority
    # equals the running minimum
    held = priority == np.minimum.accumulate(priority, axis=-1)
    at = np.maximum.accumulate(np.where(held, np.arange(ids.shape[-1]), 0), axis=-1)
    return np.take_along_axis(ids, at, axis=-1)


def memory_augmented_forward(x: Tensor, token_id: int, inner_out: Tensor,
                             lookup, table: MemoryTable, weights=None) -> Tensor:
    """inner_out + sum_j w_j * expert_{i_j}(x) over the looked-up indices of one row.

    ``lookup(x, token_id)`` returns ``(indices, weights)`` for the (1, d) row
    x: k indices (a list, or a lookup's (1, k) array), and weights None for
    unit weights (token-id, lsh and min-hash lookups) or one (1, k) Tensor
    (softmax probabilities); explicit ``weights`` override them. A
    unit-weight expert output is added as is. With no selected index the row
    is the inner output. The row is computed on arrays and returned as a
    constant: a layer's gradients come from ``expert_rows``.
    """
    indices, w = lookup(x, token_id)
    w = w if weights is None else weights
    if type(indices) is not list:
        indices = np.ravel(indices).tolist()
    if w is not None:
        # a float times the expert row: the bits of the (1, 1) weight slice's product
        w = w.data.ravel().tolist()
        if len(w) != len(indices):
            raise ValueError("memory_augmented_forward: weights/indices length mismatch")
    out = inner_out.data
    for j, i in enumerate(indices):
        if not (0 <= i < table.n):
            raise IndexError(f"memory_augmented_forward: index {i} out of range [0, {table.n})")
        e_out = expert_forward(x, table.experts[i]).data
        out = out + (e_out if w is None else w[j] * e_out)
    return Tensor(out)


def expert_rows(x_in: Tensor, inner_out: Tensor, indices, weights, table: MemoryTable,
                rows) -> Tensor:
    """The output of a memory layer on ``x_in`` and ``inner_out``, both
    (..., d), as one tape node of their shape whose row i, in row-major
    order, is ``rows[i]``.

    ``rows[i]`` is the (1, d) ``memory_augmented_forward`` result for row i of
    ``x_in`` and ``inner_out`` with the route ``indices[i]`` (an (N, k)
    array) and the weights ``weights``: None (unit weights) or one (N, k)
    Tensor. The node's inputs are ``x_in``, ``inner_out``, the weights, if
    any, and the table's parameters, whose gradients cover the whole table
    and are zero at every expert no row selected.

    Backward recomputes the selected experts' products for all rows at once
    as stacked matmuls whose 2-D slices have the shapes and memory layouts of
    the per-row products, and scatter-adds the expert gradients into the
    table in the per-row tape's reverse (position, slot) order, so every
    gradient is bitwise that of the per-row composition.
    """
    shape = x_in.data.shape
    xd = x_in.data.reshape(-1, shape[-1])
    out = np.concatenate([r.data for r in rows])
    if out.shape != xd.shape:
        raise T.ShapeError("expert_rows", out.shape, xd.shape)
    idx = np.asarray(indices, dtype=np.int64)
    w = [] if weights is None else [weights]
    params = table.params()
    constant = table.constant

    def bw(g_out):
        n_rows, d = xd.shape
        g = g_out.reshape(n_rows, d)
        x3 = xd.reshape(n_rows, 1, d)
        gx, gw, gps = None, np.empty(idx.shape), []
        # slots in reverse order: the per-row tape sums a row's expert
        # gradients into x from its last slot to its first
        for j in reversed(range(idx.shape[1])):
            s = idx[:, j]
            if constant:
                e_out = table.b.data[s]
            else:
                uj, vj = table.u.data[s], table.v.data[s]
                h = x3 @ uj
                a = np.maximum(h, 0.0)
                e_out = (a @ vj).reshape(n_rows, d)
            ge = g
            if w:
                gw[:, j] = (g * e_out).sum(axis=1)
                ge = g * weights.data[:, j:j + 1]
            if constant:
                # expert_forward adds b to x * 0.0
                gx_j, gp = ge * 0.0, (ge,)
            else:
                ge3 = ge.reshape(n_rows, 1, d)
                gh = (ge3 @ vj.swapaxes(-1, -2)) * (h > 0.0)
                gx_j = (gh @ uj.swapaxes(-1, -2)).reshape(n_rows, d)
                gp = (x3.swapaxes(-1, -2) @ gh, a.swapaxes(-1, -2) @ ge3)
            gx = gx_j if gx is None else gx + gx_j
            gps.append(gp)
        # gps runs over slots last to first; np.add.at adds in index order,
        # so order the contributions by position, then slot, both reversed
        at = idx[::-1, ::-1].reshape(-1)
        table_grads = []
        for p, part in zip(params, zip(*gps)):
            contrib = np.stack(part, axis=1)[::-1].reshape((-1,) + part[0].shape[1:])
            acc = np.zeros(p.data.shape)
            np.add.at(acc, at, contrib)
            table_grads.append(acc)
        return (gx.reshape(shape), g_out, *([gw] if w else []), *table_grads)

    return T.record("expert_rows", [x_in, inner_out, *w, *params], out.reshape(shape), bw)


# Lookup factories. A factory returns a lookup ``q(x, token_ids)`` that routes
# the N rows of an (..., d) input at once, row-major, and returns ``(indices,
# weights)``: an (N, k) int array, and None (unit weights) or one (N, k) Tensor.


def softmax_lookup(router: RouterParams, training: bool = False,
                   rng: np.random.Generator | None = None):
    """Lookup routing by learned softmax top-k, with differentiable weights.

    A call routes the N rows of its (..., d) input as one ``softmax_router``
    tape node with inputs x and W, whose output is the (N, k) probability
    weights; the top-k selection itself is discrete and carries no gradient.
    In training mode each row is scaled elementwise by multiplicative jitter
    drawn uniformly from [1-eps, 1+eps], one (N, d) draw, row after row. The
    logits are one product with W^T, transposed once per lookup, then come a
    max-shifted softmax and the top-k pick, whose ties break toward the
    lowest index. Forward and backward run the array operations of the
    composition transpose, reshape, mul, matmul, softmax, gather_cols in its
    order, so the route, weights and gradients are bitwise the composition's,
    the tests' oracle.
    """
    w_t = router.w.data.swapaxes(-2, -1).copy()

    def q(x: Tensor, token_ids):
        shape = x.data.shape
        rows = x.data.reshape(-1, shape[-1])
        jitter = None
        if training and router.jitter_eps > 0:
            if rng is None:
                raise ValueError("softmax_lookup: training jitter requires an rng")
            jitter = rng.uniform(1.0 - router.jitter_eps, 1.0 + router.jitter_eps, rows.shape)
            rows = rows * jitter
        logits = rows @ w_t
        T.count_macs(logits.size * rows.shape[1])
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        order = top_k(probs, router.k)

        def bw(g):
            gp = np.zeros(probs.shape)
            np.put_along_axis(gp, order, g, axis=-1)
            gl = probs * (gp - (gp * probs).sum(axis=-1, keepdims=True))
            gx = gl @ w_t.swapaxes(-1, -2)
            if jitter is not None:
                gx = gx * jitter
            return gx.reshape(shape), (rows.swapaxes(-1, -2) @ gl).swapaxes(-2, -1)

        weights = np.take_along_axis(probs, order, axis=-1)
        return order, T.record("softmax_router", [x, router.w], weights, bw)

    return q


def top_k(p: np.ndarray, k: int) -> np.ndarray:
    """The column indices of each row's k largest entries of an (N, n) array,
    largest first: ``np.argsort(-p, axis=-1, kind="stable")[:, :k]``, so ties
    go to the lowest index and NaN entries come after every number.

    Picked by k argmax passes, each of which masks the entries it picked.
    """
    work = np.fmax(p, -np.inf)  # a copy with NaN as -inf
    rows = np.arange(p.shape[0])
    order = np.empty((p.shape[0], k), dtype=np.intp)
    for j in range(k):
        i = work.argmax(axis=-1)
        tail = work[rows, i] == -np.inf
        if tail.any():
            # where only -inf, NaN and picked entries are left, argmax cannot
            # tell them apart: take the -inf entries, then the NaN, by index
            rank = np.where(np.isnan(p), 1, 2)
            np.put_along_axis(rank, order[:, :j], 0, axis=-1)
            i = np.where(tail, rank.argmax(axis=-1), i)
        order[:, j] = i
        work[rows, i] = -np.inf
    return order


def token_id_fixed_lookup(n: int):
    """Lookup: index = token id, unit weight; ignores the layer input entirely.
    Token ids may be one id or any array of them, routed in row-major order."""

    def q(x: Tensor, token_ids):
        ids = np.asarray(token_ids, dtype=np.int64).reshape(-1, 1)
        T._check_range("token_id_fixed_lookup", ids, n)
        return ids, None

    return q


def lsh_lookup(params: HyperplaneLshParams):
    """Lookup: hyperplane LSH bucket of each row of the layer input, unit weight."""

    def q(x: Tensor, token_ids):
        return np.reshape(hyperplane_lsh_lookup(x, params), (-1, 1)), None

    return q


def minhash_sequence_lookup(sequence_ids, perm_seed: int, n: int):
    """Lookup routing each position to the min-hash bucket of its prefix.

    ``sequence_ids`` is (T,) or (B, T). Position t of a sequence takes the
    member of its ids at positions 0..t with the smallest priority, mod n, so
    no position reads a later id. The lookup routes the B*T rows of a
    (..., d) input in row-major order.
    """
    buckets = (minhash_prefix_members(sequence_ids, perm_seed) % n).reshape(-1, 1)

    def q(x: Tensor, token_ids):
        if np.prod(x.data.shape[:-1]) != len(buckets):
            raise T.ShapeError("minhash_sequence_lookup", x.data.shape, buckets.shape)
        return buckets, None

    return q
