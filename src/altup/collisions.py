"""Monte-Carlo collision analysis of the lookup schemes.

Models two equal-length sentences sharing an exact fraction f of wordpieces,
each wordpiece embedded as a random unit vector. After attention has mixed a
sentence, its representation is taken to be the average of its token
embeddings; sentence-level lookups (hyperplane LSH, spherical LSH realized as
top-1 softmax routing over random unit rows) hash that mixed vector, while
token-id lookup collides per token. Collision probabilities are estimated
with fresh pairs and fresh hash randomness per trial.

Trials are seeded in blocks of ``_TRIAL_BLOCK``. Each kind of draw (the
overlap's Bernoulli, the walk cosines, the frame, the hyperplane hash, the
router, the token-id position) is a stream, and each (seed, block, stream)
keys one counter-based Philox generator. A stream is drawn trial-major and
NumPy fills arrays in order, so a call for the first k trials of a block
draws only their values, and trial t's randoms depend on (seed, t) alone:
not on the trial count, the batching or the worker count. A generator costs
about 4 us, so seeding costs well under 1 us per trial.

Both vector schemes are rotation invariant, so a trial draws only the pair's
geometry, never its d-dimensional vocabulary. With S the sum of the s shared
unit vectors and P1, P2 the sums of the l-s private ones of each sentence,
the mixes are S + P1 and S + P2 up to scale. Each norm is a random walk: a
unit vector at cosine c to a sum of norm r gives norm sqrt(r^2 + 2rc + 1),
with (1 + c)/2 ~ Beta((d-1)/2, (d-1)/2). The three directions are independent
and uniform, so in a frame of their span S lies along e1, P1 in span(e1, e2)
at such a cosine c1, and P2 along (g1, g2, sqrt(q)) with g1, g2 standard
normal and q chi-square with d-2 degrees of freedom. Both mixes are formed by
the same arithmetic, so at f = 1 they are bitwise equal and always collide.

A hyperplane trial projects the two 3-vector mixes on m Gaussian directions
in that frame, which has the law of projecting the d-dimensional mixes. Each
run of trials then hashes all its grid cells (both mixes, every swept
width) in one uint64 pass of the splitmix chain of
``memory.hyperplane_lsh_lookup``.

A spherical trial draws only the sufficient statistics of each router row:
for an isotropic Gaussian row g in the ambient d dimensions and two unit
mixes spanning the plane (e1, e2), g = a e1 + b e2 + g_perp with a, b
standard normal and |g_perp|^2 chi-square with d-2 degrees of freedom, all
independent. The row's angle to either mix, and so the top-1 routing, depends
on (a, b, |g|) alone. A run's trials are routed in one argmax.

A pass of trials runs as a few runs of whole blocks, each one vectorized
call. A run holds at most one worker's share of the pass, and more than one
block only while its arrays stay under an element budget: a token-id or
hyperplane pass is one run per worker, a spherical run at large n one block.
Calls that share runs out over several workers use one process pool per
process, built on first use and kept for later calls of the same size, so
only the first pays for starting it. ``close_pool`` (also run at exit)
terminates it. A child made by ``os.fork`` neither uses nor terminates its
parent's pool: it builds its own on its first pooled call.
"""

from __future__ import annotations

import atexit
import csv
import os
import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .memory import lsh_cell_hash, lsh_projections
# unused here; the benchmark tracer patches both names in this module
from .memory import hyperplane_lsh_lookup, softmax_route  # noqa: F401

SCHEMES = ("hyperplane", "spherical", "minhash")

#: two-sided 99% normal quantile
Z99 = 2.5758293035489004

#: hyperplane bucket widths swept; the width with the highest collision rate
#: on the near pairs is reported, since the scheme's constants hide the choice
LSH_WIDTH_SWEEP = (0.5, 1.0, 2.0)


@dataclass
class SentencePair:
    """Two token sequences of length l sharing exactly round(f*l) wordpieces.

    Shared wordpieces carry ids 0..s-1 in both sentences; the remainder are
    disjoint across the two. Embeddings are random unit vectors, identical
    for shared ids.
    """

    l: int
    f: float
    d: int
    ids1: np.ndarray
    ids2: np.ndarray
    shared: int
    emb1: np.ndarray | None = None
    emb2: np.ndarray | None = None


def _shared_count(l: int, f: float) -> int:
    s = f * l
    if abs(s - round(s)) > 1e-9:
        raise ValueError(f"f*l must be integral, got f={f}, l={l}")
    return int(round(s))


def _validate_pair_args(l: int, f: float, d: int):
    if l < 1:
        raise ValueError("sentence length must be >= 1")
    if d < 2:
        raise ValueError("embedding dim must be >= 2")
    if not (0.0 <= f <= 1.0):
        raise ValueError("overlap fraction must lie in [0, 1]")


def gen_sentence_pair(l: int, f: float, d: int, seed, with_embeddings: bool = True) -> SentencePair:
    """Build one sentence pair; ids are deterministic, embeddings seeded.

    Requires f*l to be integral; the Monte-Carlo estimators additionally
    support fractional f*l by randomizing the shared count across trials.
    """
    _validate_pair_args(l, f, d)
    s = _shared_count(l, f)
    ids1 = np.arange(l, dtype=np.int64)
    ids2 = np.concatenate([np.arange(s, dtype=np.int64),
                           np.arange(l, 2 * l - s, dtype=np.int64)])
    emb1 = emb2 = None
    if with_embeddings:
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        vocab = rng.standard_normal((2 * l - s, d))
        vocab /= np.linalg.norm(vocab, axis=1, keepdims=True)
        emb1 = vocab[ids1]
        emb2 = vocab[ids2]
    return SentencePair(l=l, f=f, d=d, ids1=ids1, ids2=ids2, shared=s,
                        emb1=emb1, emb2=emb2)


def _split_overlap(l: int, f: float):
    """floor(f*l) and the fraction with which a trial shares one more word.

    Randomized rounding makes the expected overlap exactly f. A trial draws
    its Bernoulli from the overlap stream, and draws none for integral f*l.
    """
    exact = f * l
    s = int(np.floor(exact))
    frac = exact - s
    return s, (frac if frac > 1e-9 else 0.0)


@dataclass
class CollisionEstimate:
    scheme: str
    n: int
    l: int
    f: float
    d: int
    trials: int
    probability: float
    stderr: float = field(init=False)
    selected_width: float | None = field(init=False, default=None)
    theory: "TheoryConstants | None" = field(init=False, default=None)

    def __post_init__(self):
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability must lie in [0, 1]")
        self.stderr = float(np.sqrt(self.probability * (1.0 - self.probability) / self.trials))

    @property
    def ci_low(self) -> float:
        return max(0.0, self.probability - Z99 * self.stderr)

    @property
    def ci_high(self) -> float:
        return min(1.0, self.probability + Z99 * self.stderr)


@dataclass
class TheoryConstants:
    """Reference constants of the nearby/far-away collision framework."""

    r1: float
    r2: float
    p1: float
    p2: float

    @property
    def c(self) -> float:
        return self.r2 / self.r1

    @property
    def rho(self) -> float:
        return np.log(1.0 / self.p1) / np.log(1.0 / self.p2)


#: trials per seeding block. It depends on neither the trial count nor the
#: worker count, so neither moves a trial's randoms. Work is cut into runs of
#: whole blocks, and 50 splits a count in hundreds evenly over 2 or 4 workers.
_TRIAL_BLOCK = 50

#: array elements a run of more than one block may hold (see ``_trial_elements``):
#: 1 MiB of float64. A spherical block at n = 1024 is over it and runs alone,
#: since longer spherical runs there timed no faster, and 16 blocks slower
_RUN_ELEMENTS = 1 << 17

#: the kinds of draw of a trial; each (seed, block, stream) keys one generator
_STREAMS = ("overlap", "walk", "frame_cos", "frame_dir", "frame_rest",
            "lsh_directions", "lsh_offsets", "router_plane", "router_rest", "position")


class _PhiloxKey(ISeedSequence):
    """Hands ``np.random.Philox`` its two key words as they are.

    Philox is counter-based: each key gives its own stream, independent of
    every other key's by design, so a key needs no hashing. This makes a
    generator in about 4 us; ``Philox(key=...)`` takes about 10 us, since it
    also gathers OS entropy for a seed it then ignores.
    """

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array(self.words, dtype=np.uint64).view(dtype)


def _stream(seed: int, block: int, stream: str) -> np.random.Generator:
    """The generator of one stream of one block of trials, keyed by (seed,
    block * 256 + the stream's index): no two of them share a key."""
    key = (seed, block * 256 + _STREAMS.index(stream))
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


def _draw(seed: int, start: int, stop: int, stream: str, sample) -> np.ndarray:
    """One stream's values for trials start..stop-1, trial along axis 0.

    ``start`` must open a block. For each block, ``sample(rng, i, j)`` draws
    the values of this range's trials i..j-1, the block's first trials,
    trial-major from the block's generator. NumPy fills an array in order,
    so those are the first values of any longer draw: trial t's values
    depend only on (seed, t), and a short call draws only what it uses.
    """
    if start % _TRIAL_BLOCK:
        raise ValueError(f"trial {start} does not open a block of {_TRIAL_BLOCK}")
    parts = [sample(_stream(seed, (start + i) // _TRIAL_BLOCK, stream), i,
                    min(i + _TRIAL_BLOCK, stop - start))
             for i in range(0, stop - start, _TRIAL_BLOCK)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _shared_counts(l: int, f: float, seed: int, start: int, stop: int) -> np.ndarray:
    """The shared wordpiece counts of trials start..stop-1 (see ``_split_overlap``)."""
    base, frac = _split_overlap(l, f)
    if not frac:
        return np.full(stop - start, base)
    return base + (_draw(seed, start, stop, "overlap", lambda rng, i, j: rng.random(j - i)) < frac)


def _unit(v: np.ndarray) -> np.ndarray:
    """v scaled to unit length along its last axis; a (near-)zero v is kept."""
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / np.where(norm < 1e-12, 1.0, norm)


def _walk_norms(cos: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Norms of sums of ``count`` independent uniform unit vectors.

    The first vector sets the norm to 1 (0 for an empty sum); vector j + 2
    meets the sum of the first j + 1 at cosine c = ``cos[..., j]`` and moves
    its norm r to sqrt((r + c)^2 + 1 - c^2) = sqrt(r^2 + 2rc + 1), whose terms
    are never negative. Steps from ``count - 1`` on take c = 0 and add 0,
    which leaves r exactly as it is.
    """
    live = np.arange(cos.shape[-1]) < count[..., None] - 1
    # step-major copies, so each step reads contiguous rows
    c = np.moveaxis(np.where(live, cos, 0.0), -1, 0).copy()
    rest = np.moveaxis(np.where(live, 1.0 - cos * cos, 0.0), -1, 0).copy()
    r = (count >= 1).astype(np.float64)
    for c_j, rest_j in zip(c, rest):
        r += c_j
        r *= r
        r += rest_j
        np.sqrt(r, out=r)
    return r


def _frame_mixes(r: np.ndarray, c1: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Unit mixes (..., 2, 3) of S + P1 and S + P2 in a frame of their span.

    ``r`` holds (|S|, |P1|, |P2|) on its last axis; S lies along e1, P1 along
    (c1, sqrt(1 - c1^2), 0) and P2 along g. Both mixes take the same
    arithmetic, so equal inputs give bitwise-equal mixes.
    """
    d1 = np.stack([c1, np.sqrt(1.0 - c1 * c1), np.zeros_like(c1)], axis=-1)
    d2 = g / np.linalg.norm(g, axis=-1, keepdims=True)
    e1 = np.array([1.0, 0.0, 0.0])
    return _unit(r[..., :1, None] * e1 + r[..., 1:, None] * np.stack([d1, d2], axis=-2))


def _pair_mixes(l: int, f: float, d: int, seed: int, start: int, stop: int) -> np.ndarray:
    """Unit mixes (T, 2, 3) of trials start..stop-1, each drawn from the
    sufficient statistics of its sentence pair."""
    half = 0.5 * (d - 1)  # (1 + c)/2 ~ Beta(half, half) for c a uniform unit vector's coordinate
    shared = _shared_counts(l, f, seed, start, stop)
    count = np.stack([shared, l - shared, l - shared], axis=1)
    live = np.arange(max(l - 1, 0)) < count[..., None] - 1
    steps = live.sum(axis=(1, 2))
    # a block's walk is one exact-length run, trial by trial: the steps of
    # the shared sum, then of each private sum
    beta = np.zeros(live.shape)
    beta[live] = _draw(seed, start, stop, "walk",
                       lambda rng, i, j: rng.beta(half, half, steps[i:j].sum()))
    c1 = _draw(seed, start, stop, "frame_cos", lambda rng, i, j: rng.beta(half, half, j - i))
    g = np.zeros((stop - start, 3))
    g[:, :2] = _draw(seed, start, stop, "frame_dir",
                     lambda rng, i, j: rng.standard_normal((j - i, 2)))
    if d > 2:
        g[:, 2] = np.sqrt(_draw(seed, start, stop, "frame_rest",
                                lambda rng, i, j: rng.chisquare(d - 2, j - i)))
    return _frame_mixes(_walk_norms(2.0 * beta - 1.0, count), 2.0 * c1 - 1.0, g)


def _lsh_buckets(u: np.ndarray, directions: np.ndarray, unit_offsets: np.ndarray,
                 n: int) -> np.ndarray:
    """Hyperplane LSH buckets (T, 2, widths) of mixes u (T, 2, k), trial t
    hashed with ``directions[t]`` (m, k) and offsets ``unit_offsets[t] * w``.

    Same cells and ``memory.lsh_cell_hash`` chain as
    ``memory.hyperplane_lsh_lookup``.
    """
    proj = (u[:, :, None, :] * directions[:, None, :, :]).sum(axis=-1)  # (T, 2, m)
    w = np.array(LSH_WIDTH_SWEEP)[:, None]
    cells = np.floor((proj[:, :, None, :] + unit_offsets[:, None, None, :] * w) / w)
    return lsh_cell_hash(cells) % n


def _hyperplane_hits(u: np.ndarray, n: int, m: int, seed: int, start: int) -> np.ndarray:
    """Per-width hits (T, widths) of the trials from ``start`` with unit mixes u."""
    stop = start + len(u)
    directions = _draw(seed, start, stop, "lsh_directions",
                       lambda rng, i, j: rng.standard_normal((j - i, m, 3)))
    unit_offsets = _draw(seed, start, stop, "lsh_offsets",
                         lambda rng, i, j: rng.random((j - i, m)))
    buckets = _lsh_buckets(u, directions, unit_offsets, n)
    return buckets[:, 0] == buckets[:, 1]


def _plane_basis(m1: np.ndarray, m2: np.ndarray):
    """Orthonormal (e1, e2) whose span holds both mixes (m1 nonzero), along
    the last axis.

    When m2 is parallel to m1 (or zero), e2 is any unit vector orthogonal to e1.
    """
    def dot(x, y):
        return (x * y).sum(axis=-1, keepdims=True)

    e1 = m1 / np.sqrt(dot(m1, m1))
    e2 = m2 - dot(m2, e1) * e1
    e2 -= dot(e2, e1) * e1  # second Gram-Schmidt pass restores orthogonality
    # the standard axis least aligned with e1 leaves a residual >= sqrt(1/2)
    j = np.argmin(np.abs(e1), axis=-1)[..., None]
    axis = np.arange(e1.shape[-1]) == j
    fallback = axis - np.take_along_axis(e1, j, axis=-1) * e1
    e2 = np.where(dot(e2, e2) <= 1e-24 * dot(m2, m2), fallback, e2)
    return e1, e2 / np.sqrt(dot(e2, e2))


def _spherical_bucket(x, y, a: np.ndarray, b: np.ndarray, norms: np.ndarray):
    """First row maximizing g_i . m / |g_i| for a mix m = x e1 + y e2 and rows
    g_i = a_i e1 + b_i e2 + g_perp_i, the rows along the last axis.

    Bitwise-equal mixes get bitwise-equal scores, so they always collide.
    """
    scores = a * x
    scores += b * y
    scores /= norms
    return np.argmax(scores, axis=-1)


def _spherical_hits(u: np.ndarray, n: int, d: int, seed: int, start: int) -> np.ndarray:
    """Hits (T,) of the trials from ``start`` with unit mixes u.

    Top-1 softmax routing over n isotropic unit rows is the nearest row in
    angle: softmax is monotone and the stable top-1 is the first maximum.
    """
    stop = start + len(u)
    e1, e2 = _plane_basis(u[:, 0], u[:, 1])
    x = (u * e1[:, None]).sum(axis=-1)[..., None]  # (T, 2, 1) in-plane coordinates of the mixes
    y = (u * e2[:, None]).sum(axis=-1)[..., None]
    ab = _draw(seed, start, stop, "router_plane",
               lambda rng, i, j: rng.standard_normal((j - i, 2, n)))
    a, b = ab[:, :1], ab[:, 1:]  # (T, 1, n)
    sq_norms = a * a + b * b
    if d > 2:
        sq_norms += _draw(seed, start, stop, "router_rest",
                          lambda rng, i, j: rng.chisquare(d - 2, (j - i, 1, n)))
    buckets = _spherical_bucket(x, y, a, b, np.sqrt(sq_norms, out=sq_norms))
    return buckets[:, 0] == buckets[:, 1]


def _token_id_hits(l: int, f: float, seed: int, start: int, stop: int) -> np.ndarray:
    """Hits (T,) of trials start..stop-1: whether a uniform position of
    sentence 1 holds a shared wordpiece.

    Sentence 1 holds ids 0..l-1 and shares exactly ids 0..s-1, so position
    pos hits when pos < s.
    """
    pos = _draw(seed, start, stop, "position", lambda rng, i, j: rng.integers(0, l, j - i))
    return pos < _shared_counts(l, f, seed, start, stop)


def _trial_hits(scheme, n, l, f, d, seed, start, stop, m=None) -> np.ndarray:
    """Hits (T, columns) of trials start..stop-1 of one scheme: a column per
    swept width for hyperplane, one column otherwise."""
    if scheme == "minhash":
        return _token_id_hits(l, f, seed, start, stop)[:, None]
    u = _pair_mixes(l, f, d, seed, start, stop)
    if scheme == "hyperplane":
        return _hyperplane_hits(u, n, m, seed, start)
    return _spherical_hits(u, n, d, seed, start)[:, None]


def _run_hits(args) -> np.ndarray:
    """Integer hit counts per column of one run's trials (one scheme)."""
    return _trial_hits(*args).sum(axis=0)


def _trial_elements(scheme, n, l, m) -> int:
    """About how many array elements one trial of a scheme holds at once: the
    walk of the pair's mixes (3l), then spherical's router statistics (3n) or
    hyperplane's projections and grid cells (10m); token-id holds a few."""
    if scheme == "minhash":
        return 4
    return 3 * l + (10 * m if scheme == "hyperplane" else 3 * n)


def _runs(scheme, n, l, m, trials, workers) -> list:
    """(start, stop) of each run of one pass: whole blocks from trial 0, at
    most one worker's share of the pass, and more than one block only while
    the run stays under ``_RUN_ELEMENTS``."""
    blocks = -(-trials // _TRIAL_BLOCK)
    fit = _RUN_ELEMENTS // (_TRIAL_BLOCK * _trial_elements(scheme, n, l, m))
    size = max(1, min(-(-blocks // workers), fit)) * _TRIAL_BLOCK
    return [(a, min(a + size, trials)) for a in range(0, trials, size)]


class _SharedPool:
    """The one worker pool of this process, reused by every pooled call.

    A call that needs another size replaces it. A pool whose map raises is
    terminated, so the next call starts clean. Calls hold a lock while they
    map, so threads take turns on the pool. A forked child forgets the pool
    it inherits (see ``forget_in_child``) and builds its own.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._pool = None
        self._size = 0

    def map(self, fn, args: list, size: int) -> list:
        with self._lock:
            if self._pool is not None and self._size != size:
                self._drop()
            if self._pool is None:
                import multiprocessing

                self._pool = multiprocessing.Pool(size)
                self._size = size
            try:
                return self._pool.map(fn, args)
            except BaseException:
                self._drop()
                raise

    def close(self):
        with self._lock:
            self._drop()

    def _drop(self):
        """Terminate and reap the pool, and forget it."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    def forget_in_child(self):
        """Run in a forked child: forget the parent's pool without touching it.

        The child's copy of ``multiprocessing.process._children`` lists the
        parent's workers, and ``multiprocessing`` terminates every daemonic
        process in that set when the child exits. Dropping them from it leaves
        the parent's workers alive whatever the child does. The lock is new
        too, since one that another thread held at the fork stays held here.
        """
        self._lock = threading.Lock()
        pool, self._pool = self._pool, None
        if pool is not None:
            from multiprocessing import process

            process._children.difference_update(pool._pool)


_POOL = _SharedPool()
os.register_at_fork(after_in_child=_POOL.forget_in_child)


def close_pool():
    """Terminate this process's collision worker pool, if it has one.

    Later pooled calls build a new pool. Runs at interpreter exit as well.
    """
    _POOL.close()


atexit.register(close_pool)


def _run_trials(scheme, n, l, d, trials, passes, m=None, workers=1) -> list:
    """Summed per-trial hit counts of each (f, seed) pass.

    Each pass runs as the runs of ``_runs``, one vectorized ``_trial_hits``
    call each. One worker, or a call of a single run, runs them in this
    process; more share them out over this process's reused pool (see ``_SharedPool``),
    one run per task, cut down to the machine's CPU count. A trial's randoms
    depend only on (seed, t) and the summed counts are integers, so the
    result is bitwise-identical for any worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(int(workers), os.cpu_count() or 1)
    runs = _runs(scheme, n, l, m, trials, workers)
    args = [(scheme, n, l, f, d, seed, a, b, m) for f, seed in passes for a, b in runs]
    if workers == 1 or len(args) == 1:
        parts = [_run_hits(a) for a in args]
    else:
        parts = _POOL.map(_run_hits, args, workers)
    k = len(runs)
    return [np.sum(parts[i:i + k], axis=0) for i in range(0, len(parts), k)]


def _calibration_seed(seed: int) -> int:
    # independent trial stream for the width-calibration pass
    return (int(seed) * 1000003 + 573259391) % (2 ** 63)


def estimate_collision(scheme: str, n: int, l: int, f: float, d: int,
                       trials: int, seed: int, workers: int = 1) -> CollisionEstimate:
    """Collision probability of the given scheme on f-overlapping pairs.

    hyperplane/spherical: fraction of trials in which the two mixed (and
    unit-normalized) sentence vectors land in the same bucket, with fresh
    pairs and fresh hash randomness per trial. minhash: the token-id view,
    the chance a uniformly random token of sentence 1 also occurs in
    sentence 2.

    The hyperplane width sweep is gated by a calibration pass at f = 0: a
    width whose far-pair collision rate exceeds the n-bucket hashing floor
    (1/n, within noise) is not implementing n buckets, so its inflated
    collision rate is not comparable at fixed n and it is excluded. Among the
    calibrated widths the highest near-pair rate is reported.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if n < 1:
        raise ValueError("bucket count n must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    _validate_pair_args(l, f, d)

    if scheme == "hyperplane":
        far, near = (hits / trials for hits in _run_trials(
            scheme, n, l, d, trials, [(0.0, _calibration_seed(seed)), (f, seed)],
            m=lsh_projections(n), workers=workers))
        se_far = np.sqrt(np.maximum(far * (1.0 - far), 1e-12) / trials)
        eligible = np.nonzero(far <= 1.0 / n + 3.0 * se_far)[0]
        if eligible.size == 0:
            eligible = np.array([int(np.argmin(far))])
        best = eligible[int(np.argmax(near[eligible]))]
        est = CollisionEstimate(scheme, n, l, f, d, trials, float(near[best]))
        est.selected_width = LSH_WIDTH_SWEEP[best]
        if 0.0 < f < 1.0 and 0.0 < near[best] < 1.0 and 0.0 < far[best] < 1.0:
            # reference constants: unit-normalized mixes sit at distance
            # ~sqrt(2(1-f)) for near pairs and ~sqrt(2) for disjoint ones
            est.theory = TheoryConstants(r1=float(np.sqrt(2.0 * (1.0 - f))),
                                         r2=float(np.sqrt(2.0)),
                                         p1=float(near[best]), p2=float(far[best]))
        return est

    hits = int(_run_trials(scheme, n, l, d, trials, [(f, seed)], workers=workers)[0][0])
    return CollisionEstimate(scheme, n, l, f, d, trials, hits / trials)


@dataclass
class OrderingReport:
    """Collision estimates for all three schemes on shared pairs, ordered."""

    estimates: dict
    pass_flag: bool
    in_regime: bool


def verify_ordering(n: int, l: int, f: float, d: int, trials: int, seed: int,
                    workers: int = 1, known: dict | None = None) -> OrderingReport:
    """Estimate all three schemes on shared pairs and test the efficacy order.

    Schemes in ``known`` (name -> estimate at these arguments) are not
    estimated again. The pass flag asserts token-id >= spherical >= hyperplane
    with non-overlapping 99% confidence intervals; it is only meaningful in the
    large-n, small-f regime, which ``in_regime`` reports (n >= 64, f <= 0.5).
    """
    known = known or {}
    estimates = {s: known[s] if s in known
                 else estimate_collision(s, n, l, f, d, trials, seed, workers=workers)
                 for s in SCHEMES}
    mh, sph, hyp = estimates["minhash"], estimates["spherical"], estimates["hyperplane"]
    pass_flag = mh.ci_low > sph.ci_high and sph.ci_low > hyp.ci_high
    return OrderingReport(estimates=estimates, pass_flag=pass_flag,
                          in_regime=n >= 64 and f <= 0.5)


def exponent_diagnostic(scheme: str, l: int, f: float, d: int, trials: int,
                        seed: int, n_grid=(64, 256, 1024), workers: int = 1) -> dict:
    """Informational log-log slope of collision probability vs bucket count.

    No pass/fail contract: constants in the collision exponents are hidden,
    so only the sign/rough magnitude of the slope is interpretable.
    """
    points = []
    for n in n_grid:
        est = estimate_collision(scheme, n, l, f, d, trials, seed, workers=workers)
        points.append((n, max(est.probability, 0.5 / trials)))
    logs_n = np.log([p[0] for p in points])
    logs_p = np.log([p[1] for p in points])
    slope = float(np.polyfit(logs_n, logs_p, 1)[0])
    return {"scheme": scheme, "f": f, "points": points, "slope": slope}


def write_estimates_csv(estimates, path):
    """CSV rows: scheme,n,l,f,d,trials,probability,stderr,ci_low,ci_high."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "n", "l", "f", "d", "trials",
                         "probability", "stderr", "ci_low", "ci_high"])
        for e in estimates:
            writer.writerow([e.scheme, e.n, e.l, repr(e.f), e.d, e.trials,
                             repr(e.probability), repr(e.stderr),
                             repr(e.ci_low), repr(e.ci_high)])
