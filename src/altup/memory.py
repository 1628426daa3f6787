"""Memory-augmented layers: partial experts plus four lookup functions.

A table of n small experts sits beside a layer; a lookup function maps the
layer input (and/or its token id) to table indices, and the selected experts'
outputs are added to the layer output. Lookups: learned softmax top-k routing,
token-id indexing, hyperplane LSH bucketing, and min-hash over token-id sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tensor

_M64 = (1 << 64) - 1
_LSH_SEED_CONST = 0x8445D61A4E774912


def _splitmix64(z):
    """SplitMix64 finalizer of a Python int in [0, 2**64), or elementwise of a
    uint64 array with the same bits (array arithmetic wraps mod 2**64)."""
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class PartialExpert:
    """Rank-limited two-matrix ReLU network f(x) = V relu(U^T x), or a constant."""

    def __init__(self, d: int, rank: int = 0, rng: np.random.Generator | None = None,
                 constant: bool = False, prefix: str = "expert"):
        self.d = d
        self.constant = constant
        if constant:
            self.rank = 0
            self.b = Tensor(np.zeros(d), requires_grad=True, name=f"{prefix}.b")
        else:
            if rank < 1:
                raise ValueError("matrix expert rank must be >= 1")
            self.rank = rank
            rng = rng or np.random.default_rng(0)
            # LeCun-normal: std 1/sqrt(fan_in)
            self.u = Tensor(rng.normal(0, 1 / np.sqrt(d), (d, rank)),
                            requires_grad=True, name=f"{prefix}.u")
            self.v = Tensor(rng.normal(0, 1 / np.sqrt(rank), (d, rank)),
                            requires_grad=True, name=f"{prefix}.v")

    def params(self):
        return [self.b] if self.constant else [self.u, self.v]

    def param_count(self) -> int:
        return self.d if self.constant else 2 * self.rank * self.d


class MemoryTable:
    """Indexed collection of n partial experts sharing d and rank."""

    def __init__(self, n: int, d: int, rank: int, rng: np.random.Generator,
                 constant: bool = False, prefix: str = "table"):
        if n < 1:
            raise ValueError("table size must be >= 1")
        self.n = n
        self.d = d
        self.rank = rank
        self.experts = [PartialExpert(d, rank, rng, constant=constant,
                                      prefix=f"{prefix}.expert{i}")
                        for i in range(n)]

    def params(self):
        return [p for e in self.experts for p in e.params()]

    def param_count(self) -> int:
        return sum(e.param_count() for e in self.experts)


@dataclass
class RouterParams:
    """Learned softmax router: logits h(x) = W x, probabilities by softmax."""

    w: Tensor
    k: int = 1
    jitter_eps: float = 0.01

    def __post_init__(self):
        if self.k > self.w.data.shape[0]:
            raise ValueError("top-k count exceeds table size")
        if self.jitter_eps < 0:
            raise ValueError("jitter_eps must be >= 0")

    @classmethod
    def create(cls, n: int, d: int, rng: np.random.Generator, k: int = 1,
               jitter_eps: float = 0.01, name: str = "router.w"):
        w = Tensor(rng.normal(0, 2e-2, (n, d)), requires_grad=True, name=name)
        return cls(w=w, k=k, jitter_eps=jitter_eps)


@dataclass
class HyperplaneLshParams:
    """Grid of randomly oriented, equispaced hyperplanes mapped onto n buckets."""

    directions: np.ndarray  # (m, d) unit Gaussian draws
    offsets: np.ndarray     # (m,) uniform in [0, w)
    width: float
    n: int

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("bucket width must be > 0")
        if self.directions.shape[0] < 1:
            raise ValueError("need at least one projection")

    @classmethod
    def create(cls, d: int, n: int, seed, m: int | None = None, width: float = 1.0):
        # default projection count scales with the bucket budget
        if m is None:
            m = max(1, int(np.ceil(np.log2(n))))
        rng = np.random.default_rng(seed)
        directions = rng.standard_normal((m, d))
        offsets = rng.uniform(0.0, width, m)
        return cls(directions=directions, offsets=offsets, width=width, n=n)


def expert_forward(x: Tensor, e: PartialExpert) -> Tensor:
    """V relu(U^T x) for a d-vector (or row-batched (N, d)) input."""
    vec = x.data.ndim == 1
    if x.data.shape[-1] != e.d:
        raise T.ShapeError("expert_forward", x.data.shape, (e.d,))
    if e.constant:
        # constant output b, broadcast over rows; no gradient reaches x
        return T.add(T.scalar_mul(x, 0.0), e.b)
    x2 = T.reshape(x, (1, e.d)) if vec else x
    out = T.matmul(T.relu(T.matmul(x2, e.u)), T.transpose(e.v))
    return T.reshape(out, (e.d,)) if vec else out


def softmax_route(x: Tensor, r: RouterParams, training: bool = False,
                  rng: np.random.Generator | None = None):
    """Top-k routing by softmax(W x): returns (indices, probabilities).

    In training mode the input is scaled elementwise by multiplicative jitter
    drawn uniformly from [1-eps, 1+eps]^d. Ties break toward the lowest index.
    """
    xv = np.asarray(x.data, dtype=np.float64).reshape(-1)
    if training and r.jitter_eps > 0:
        if rng is None:
            raise ValueError("softmax_route: training jitter requires an rng")
        xv = xv * rng.uniform(1.0 - r.jitter_eps, 1.0 + r.jitter_eps, xv.shape)
    h = r.w.data @ xv
    h = h - h.max()
    p = np.exp(h)
    p /= p.sum()
    order = np.argsort(-p, kind="stable")[: r.k]
    return [int(i) for i in order], [float(p[i]) for i in order]


def token_id_lookup(token_id: int, n: int) -> int:
    """The token's own vocabulary index; ignores the layer input entirely."""
    if not (0 <= token_id < n):
        raise IndexError(f"token_id_lookup: id {token_id} out of range [0, {n})")
    return int(token_id)


def hyperplane_lsh_lookup(x, p: HyperplaneLshParams) -> int:
    """Bucket of the grid cell containing x: floor((g_j . x + o_j) / w) per
    projection, then a fixed 64-bit mix of the cell coordinates, mod n."""
    xv = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64).reshape(-1)
    cells = np.floor((p.directions @ xv + p.offsets) / p.width).astype(np.int64)
    h = _LSH_SEED_CONST
    for c in cells:
        h = _splitmix64(h ^ (int(c) & _M64))
    return int(h % p.n)


def minhash_lookup(token_ids, perm_seed: int) -> int:
    """Member of the set of int64 ids with the smallest seeded pseudo-random
    priority.

    The priority, splitmix of the id xor a seeded base, is a bijection of the
    id's 64 bits, so distinct ids never tie.
    """
    ids = (np.asarray(token_ids, dtype=np.int64) if isinstance(token_ids, np.ndarray)
           else np.fromiter(token_ids, dtype=np.int64))
    if ids.size == 0:
        raise ValueError("minhash_lookup: empty set")
    base = np.uint64(_splitmix64(int(perm_seed) & _M64))
    return int(ids[np.argmin(_splitmix64(base ^ ids.view(np.uint64)))])


def memory_augmented_forward(x: Tensor, token_id: int, inner_out: Tensor,
                             lookup, table: MemoryTable, weights=None) -> Tensor:
    """inner_out + sum_i w_i * expert_i(x) for the looked-up indices.

    ``lookup(x, token_id)`` returns indices, or (indices, weights); explicit
    ``weights`` override. Weights may be floats (fixed, e.g. 1.0 for
    token-id/LSH/min-hash lookups) or scalar Tensors (differentiable softmax
    probabilities). With no selected index the inner output passes through
    untouched.
    """
    res = lookup(x, token_id)
    if isinstance(res, tuple):
        indices, w = res
    else:
        indices, w = res, None
    if weights is not None:
        w = weights
    if w is None:
        w = [1.0] * len(indices)
    if len(w) != len(indices):
        raise ValueError("memory_augmented_forward: weights/indices length mismatch")
    out = inner_out
    for i, wi in zip(indices, w):
        if not (0 <= i < table.n):
            raise IndexError(f"memory_augmented_forward: index {i} out of range [0, {table.n})")
        e_out = expert_forward(x, table.experts[i])
        if isinstance(wi, Tensor):
            out = T.add(out, T.mul(wi, e_out))
        else:
            out = T.add(out, T.scalar_mul(e_out, float(wi)))
    return out


def softmax_lookup(router: RouterParams, training: bool = False,
                   rng: np.random.Generator | None = None):
    """Lookup closure for memory_augmented_forward with differentiable weights.

    Builds the routing probabilities inside the active graph so gradients
    reach W through the probability weighting; the top-k selection itself is
    discrete and carries no gradient.
    """

    def q(x: Tensor, token_id: int):
        d = x.data.shape[-1]
        xg = T.reshape(x, (1, d)) if x.data.ndim == 1 else x
        if training and router.jitter_eps > 0:
            if rng is None:
                raise ValueError("softmax_lookup: training jitter requires an rng")
            jitter = rng.uniform(1.0 - router.jitter_eps, 1.0 + router.jitter_eps, (1, d))
            xg = T.mul(xg, Tensor(jitter))
        probs = T.softmax(T.matmul(xg, T.transpose(router.w)))
        order = np.argsort(-probs.data[0], kind="stable")[: router.k]
        weights = [T.reshape(T.gather_cols(probs, [int(i)]), (1,)) for i in order]
        return [int(i) for i in order], weights

    return q


def token_id_fixed_lookup(n: int):
    """Lookup closure: index = token id, unit weight."""

    def q(x: Tensor, token_id: int):
        return [token_id_lookup(token_id, n)], [1.0]

    return q


def lsh_lookup(params: HyperplaneLshParams):
    """Lookup closure: hyperplane LSH bucket of the layer input, unit weight."""

    def q(x: Tensor, token_id: int):
        return [hyperplane_lsh_lookup(x, params)], [1.0]

    return q


def minhash_sequence_lookup(sequence_ids, perm_seed: int, n: int):
    """Lookup closure hashing the whole sequence's token-id set to one bucket."""
    bucket = minhash_lookup(sequence_ids, perm_seed) % n

    def q(x: Tensor, token_id: int):
        return [bucket], [1.0]

    return q
