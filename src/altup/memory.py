"""Memory-augmented layers: partial experts plus four lookup functions.

A table of n small experts sits beside a layer; a lookup function maps the
layer input (and/or its token id) to table indices, and the selected experts'
outputs are added to the layer output. Lookups: learned softmax top-k routing,
token-id indexing, hyperplane LSH bucketing, and min-hash over token-id sets.
Lookups return ``(indices, weights)``: weights is None (unit weights) for
token-id, lsh and min-hash, and scalar probability Tensors for softmax.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .schema import DEFAULTS
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
            # stored as V^T, (rank, d), so a row x maps to relu(x U) V^T
            self.v = Tensor(rng.normal(0, 1 / np.sqrt(rank), (d, rank)).T.copy(),
                            requires_grad=True, name=f"{prefix}.v")

    def params(self):
        return [self.b] if self.constant else [self.u, self.v]


class MemoryTable:
    """Indexed collection of n partial experts sharing d and rank."""

    def __init__(self, n: int, d: int, rank: int, rng: np.random.Generator,
                 constant: bool = DEFAULTS["memory"]["constant"], prefix: str = "table"):
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
        return sum(p.size for p in self.params())


@dataclass
class RouterParams:
    """Learned softmax router: logits h(x) = W x, probabilities by softmax."""

    w: Tensor
    k: int = DEFAULTS["memory"]["k"]
    jitter_eps: float = DEFAULTS["memory"]["jitter_eps"]

    def __post_init__(self):
        if self.k > self.w.data.shape[0]:
            raise ValueError("top-k count exceeds table size")
        if self.jitter_eps < 0:
            raise ValueError("jitter_eps must be >= 0")

    @classmethod
    def create(cls, n: int, d: int, rng: np.random.Generator,
               k: int = DEFAULTS["memory"]["k"],
               jitter_eps: float = DEFAULTS["memory"]["jitter_eps"], name: str = "router.w"):
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


def expert_forward(x: Tensor, e: PartialExpert) -> Tensor:
    """V relu(U^T x) for each row of an (N, d) input."""
    if x.data.ndim != 2 or x.data.shape[1] != e.d:
        raise T.ShapeError("expert_forward", x.data.shape, (-1, e.d))
    if e.constant:
        # constant output b, broadcast over rows; no gradient reaches x
        return T.add(T.scalar_mul(x, 0.0), e.b)
    return T.matmul(T.relu(T.matmul(x, e.u)), e.v)


def softmax_route(x: Tensor, r: RouterParams, training: bool = False,
                  rng: np.random.Generator | None = None):
    """Top-k routing of one input: ``softmax_lookup``'s closure run off the
    tape on x as a (1, d) row. Returns (indices, probabilities as floats)."""
    q = softmax_lookup(replace(r, w=Tensor(r.w.data)), training, rng)
    indices, weights = q(Tensor(x.data.reshape(1, -1)), 0)
    return indices, [w.item() for w in weights]


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

    ``lookup(x, token_id)`` returns ``(indices, weights)``, with weights None
    for unit weights (token-id, lsh and min-hash lookups) or a list of scalar
    Tensors (differentiable softmax probabilities); explicit ``weights``
    override them. A unit-weight expert output is added as is. With no
    selected index the inner output passes through untouched.
    """
    indices, w = lookup(x, token_id)
    if weights is not None:
        w = weights
    if w is not None and len(w) != len(indices):
        raise ValueError("memory_augmented_forward: weights/indices length mismatch")
    out = inner_out
    for j, i in enumerate(indices):
        if not (0 <= i < table.n):
            raise IndexError(f"memory_augmented_forward: index {i} out of range [0, {table.n})")
        e_out = expert_forward(x, table.experts[i])
        out = T.add(out, e_out if w is None else T.mul(w[j], e_out))
    return out


def softmax_lookup(router: RouterParams, training: bool = False,
                   rng: np.random.Generator | None = None):
    """Lookup closure for memory_augmented_forward with differentiable weights.

    Builds the routing probabilities inside the active graph so gradients
    reach W through the probability weighting; the top-k selection itself is
    discrete and carries no gradient. W is transposed once per closure, so
    every position's logits share one (d, n) tape node. Rows are (1, d), weights (1, 1).
    In training mode a row is scaled elementwise by multiplicative jitter drawn
    uniformly from [1-eps, 1+eps]; top-k ties break toward the lowest index.
    """
    w_t = T.transpose(router.w)

    def q(x: Tensor, token_id: int):
        if training and router.jitter_eps > 0:
            if rng is None:
                raise ValueError("softmax_lookup: training jitter requires an rng")
            x = T.mul(x, Tensor(rng.uniform(1.0 - router.jitter_eps, 1.0 + router.jitter_eps,
                                            x.data.shape)))
        probs = T.softmax(T.matmul(x, w_t))
        order = np.argsort(-probs.data[0], kind="stable")[: router.k]
        weights = [T.gather_cols(probs, [int(i)]) for i in order]
        return [int(i) for i in order], weights

    return q


def token_id_fixed_lookup(n: int):
    """Lookup closure: index = token id, unit weight."""

    def q(x: Tensor, token_id: int):
        return [token_id_lookup(token_id, n)], None

    return q


def lsh_lookup(params: HyperplaneLshParams):
    """Lookup closure: hyperplane LSH bucket of the layer input, unit weight."""

    def q(x: Tensor, token_id: int):
        return [hyperplane_lsh_lookup(x, params)], None

    return q


def minhash_sequence_lookup(sequence_ids, perm_seed: int, n: int):
    """Lookup closure hashing the whole sequence's token-id set to one bucket."""
    bucket = minhash_lookup(sequence_ids, perm_seed) % n

    def q(x: Tensor, token_id: int):
        return [bucket], None

    return q
