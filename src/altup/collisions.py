"""Monte-Carlo collision analysis of the lookup schemes.

Models two equal-length sentences sharing an exact fraction f of wordpieces,
each wordpiece embedded as a random unit vector. After attention has mixed a
sentence, its representation is taken to be the average of its token
embeddings; sentence-level lookups (hyperplane LSH, spherical LSH realized as
top-1 softmax routing over random unit rows) hash that mixed vector, while
token-id lookup collides per token. Collision probabilities are estimated
with fresh pairs and fresh hash randomness per trial, seeded per trial by
counter so results are independent of batching or worker count.

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
chunk of trials then hashes all its grid cells (both mixes, every swept
width) in one uint64 pass of the splitmix chain of
``memory.hyperplane_lsh_lookup``.

A spherical trial draws only the sufficient statistics of each router row:
for an isotropic Gaussian row g in the ambient d dimensions and two unit
mixes spanning the plane (e1, e2), g = a e1 + b e2 + g_perp with a, b
standard normal and |g_perp|^2 chi-square with d-2 degrees of freedom, all
independent. The row's angle to either mix, and so the top-1 routing, depends
on (a, b, |g|) alone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .memory import _LSH_SEED_CONST, _splitmix64
# unused here; the benchmark tracer patches both names in this module
from .memory import hyperplane_lsh_lookup, softmax_route  # noqa: F401

SCHEMES = ("hyperplane", "spherical", "minhash")
_SCHEME_SALT = {"hyperplane": 1, "spherical": 2, "minhash": 3}

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
    its Bernoulli first from its pair stream, and draws none for integral f*l.
    """
    exact = f * l
    s = int(np.floor(exact))
    frac = exact - s
    return s, (frac if frac > 1e-9 else 0.0)


def mix(embeddings: np.ndarray) -> np.ndarray:
    """Post-attention stand-in: the mean of the sentence's token embeddings."""
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] < 1:
        raise ValueError("mix: need a non-empty (l, d) embedding stack")
    return emb.mean(axis=0)


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


def _pair_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(trial)]))


def _hash_rng(seed: int, trial: int, scheme: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), int(trial), _SCHEME_SALT[scheme]]))


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
    c = np.where(live, cos, 0.0)
    rest = np.where(live, 1.0 - cos * cos, 0.0)
    r = (count >= 1).astype(np.float64)
    for j in range(cos.shape[-1]):
        r = np.sqrt((r + c[..., j]) ** 2 + rest[..., j])
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
    sufficient statistics of its sentence pair on its own pair stream."""
    base, frac = _split_overlap(l, f)
    half = 0.5 * (d - 1)  # (1 + c)/2 ~ Beta(half, half) for c a uniform unit vector's coordinate
    shared, steps, frame = [], [], []
    for t in range(start, stop):
        rng = _pair_rng(seed, t)
        s = base + int(frac > 0 and rng.random() < frac)
        shared.append(s)
        # walk steps of the shared sum, then of each private sum
        steps.append(rng.beta(half, half, max(s - 1, 0) + 2 * max(l - s - 1, 0)))
        frame.append((rng.beta(half, half), *rng.standard_normal(2),
                      np.sqrt(rng.chisquare(d - 2)) if d > 2 else 0.0))
    shared = np.array(shared)
    count = np.stack([shared, l - shared, l - shared], axis=1)
    beta = np.zeros((len(shared), 3, max(l - 1, 0)))
    beta[np.arange(beta.shape[-1]) < count[..., None] - 1] = np.concatenate(steps)
    frame = np.array(frame)
    return _frame_mixes(_walk_norms(2.0 * beta - 1.0, count), 2.0 * frame[:, 0] - 1.0,
                        frame[:, 1:])


def _lsh_buckets(u: np.ndarray, directions: np.ndarray, unit_offsets: np.ndarray,
                 n: int) -> np.ndarray:
    """Hyperplane LSH buckets (T, 2, widths) of mixes u (T, 2, k), trial t
    hashed with ``directions[t]`` (m, k) and offsets ``unit_offsets[t] * w``.

    Same cells and splitmix chain as ``memory.hyperplane_lsh_lookup``, on
    uint64 arrays.
    """
    proj = (u[:, :, None, :] * directions[:, None, :, :]).sum(axis=-1)  # (T, 2, m)
    w = np.array(LSH_WIDTH_SWEEP)[:, None]
    cells = np.floor((proj[:, :, None, :] + unit_offsets[:, None, None, :] * w) / w)
    cells = cells.astype(np.int64).view(np.uint64)
    h = np.full(cells.shape[:-1], _LSH_SEED_CONST, dtype=np.uint64)
    for j in range(cells.shape[-1]):
        h = _splitmix64(h ^ cells[..., j])
    return h % n


def _hyperplane_hits(u: np.ndarray, n: int, m: int, seed: int, start: int) -> np.ndarray:
    """Per-width hit counts of the trials from ``start`` with unit mixes u."""
    directions = np.empty((len(u), m, 3))
    unit_offsets = np.empty((len(u), m))
    for i in range(len(u)):
        rng = _hash_rng(seed, start + i, "hyperplane")
        directions[i] = rng.standard_normal((m, 3))
        unit_offsets[i] = rng.uniform(0.0, 1.0, m)
    buckets = _lsh_buckets(u, directions, unit_offsets, n)
    return (buckets[:, 0] == buckets[:, 1]).sum(axis=0)


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


def _spherical_bucket(x: float, y: float, a: np.ndarray, b: np.ndarray,
                      norms: np.ndarray) -> int:
    """First row maximizing g_i . m / |g_i| for a mix m = x e1 + y e2 and rows
    g_i = a_i e1 + b_i e2 + g_perp_i.

    Bitwise-equal mixes get bitwise-equal scores, so they always collide.
    """
    return int(np.argmax((a * x + b * y) / norms))


def _spherical_hits(u: np.ndarray, n: int, d: int, seed: int, start: int) -> int:
    """Hits of the trials from ``start`` with unit mixes u.

    Top-1 softmax routing over n isotropic unit rows is the nearest row in
    angle: softmax is monotone and the stable top-1 is the first maximum.
    """
    e1, e2 = _plane_basis(u[:, 0], u[:, 1])
    x = (u * e1[:, None]).sum(axis=-1)  # (T, 2) in-plane coordinates of the mixes
    y = (u * e2[:, None]).sum(axis=-1)
    hits = 0
    for i in range(len(u)):
        rng = _hash_rng(seed, start + i, "spherical")
        a, b = rng.standard_normal((2, n))
        rest = rng.chisquare(d - 2, n) if d > 2 else 0.0
        norms = np.sqrt(a * a + b * b + rest)
        hits += (_spherical_bucket(x[i, 0], y[i, 0], a, b, norms)
                 == _spherical_bucket(x[i, 1], y[i, 1], a, b, norms))
    return hits


def _token_id_hits(l: int, f: float, seed: int, start: int, stop: int) -> int:
    """Trials whose uniform position of sentence 1 holds a shared wordpiece.

    Sentence 1 holds ids 0..l-1 and shares exactly ids 0..s-1, so position
    pos hits when pos < s.
    """
    base, frac = _split_overlap(l, f)
    hits = 0
    for t in range(start, stop):
        s = base + int(frac > 0 and _pair_rng(seed, t).random() < frac)
        hits += int(_hash_rng(seed, t, "minhash").integers(0, l)) < s
    return hits


def _hits_chunk(args) -> np.ndarray:
    """Integer hit counts for one contiguous trial range (one scheme)."""
    scheme, n, l, f, d, seed, start, stop, m = args
    if scheme == "minhash":
        return np.array([_token_id_hits(l, f, seed, start, stop)], dtype=np.int64)
    u = _pair_mixes(l, f, d, seed, start, stop)
    if scheme == "hyperplane":
        return _hyperplane_hits(u, n, m, seed, start)
    return np.array([_spherical_hits(u, n, d, seed, start)], dtype=np.int64)


#: most trials in one chunk, which bounds a chunk's arrays for any trial count
_MAX_CHUNK = 1000


def _run_trials(scheme, n, l, d, trials, passes, m=None, workers=1) -> list:
    """Summed per-trial hit counts of each (f, seed) pass, over one process pool.

    Per-trial seeds are derived by counter and the summed counts are
    integers, so the result is bitwise-identical for any worker count.
    """
    workers = max(1, int(workers))
    # a pool gets four chunks per worker to balance its load; a serial run one
    chunk = min(_MAX_CHUNK, -(-trials // (4 * workers)) if workers > 1 else trials)
    starts = range(0, trials, chunk)
    args = [(scheme, n, l, f, d, seed, a, min(a + chunk, trials), m)
            for f, seed in passes for a in starts]
    if workers == 1 or len(args) == 1:
        parts = [_hits_chunk(a) for a in args]
    else:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            parts = pool.map(_hits_chunk, args)
    k = len(starts)
    return [np.sum(parts[i:i + k], axis=0) for i in range(0, len(parts), k)]


def _calibration_seed(seed: int) -> int:
    # independent trial stream for the width-calibration pass
    return (int(seed) * 1000003 + 573259391) % (2 ** 63)


def estimate_collision(scheme: str, n: int, l: int, f: float, d: int,
                       trials: int, seed: int, lsh_m: int | None = None,
                       workers: int = 1) -> CollisionEstimate:
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
    _validate_pair_args(l, f, d)

    if scheme == "hyperplane":
        m = lsh_m if lsh_m is not None else max(1, int(np.ceil(np.log2(n))))
        far, near = (hits / trials for hits in _run_trials(
            scheme, n, l, d, trials, [(0.0, _calibration_seed(seed)), (f, seed)],
            m=m, workers=workers))
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

    def rows(self):
        order = ["minhash", "spherical", "hyperplane"]
        return [self.estimates[s] for s in order]


def verify_ordering(n: int, l: int, f: float, d: int, trials: int, seed: int,
                    workers: int = 1) -> OrderingReport:
    """Estimate all three schemes on shared pairs and test the efficacy order.

    The pass flag asserts token-id >= spherical >= hyperplane with
    non-overlapping 99% confidence intervals; it is only meaningful in the
    large-n, small-f regime, which ``in_regime`` reports (n >= 64, f <= 0.5).
    """
    estimates = {s: estimate_collision(s, n, l, f, d, trials, seed, workers=workers)
                 for s in SCHEMES}
    mh, sph, hyp = estimates["minhash"], estimates["spherical"], estimates["hyperplane"]
    pass_flag = mh.ci_low > sph.ci_high and sph.ci_low > hyp.ci_high
    return OrderingReport(estimates=estimates, pass_flag=pass_flag,
                          in_regime=n >= 64 and f <= 0.5)


def exponent_diagnostic(scheme: str, l: int, f: float, d: int, trials: int,
                        seed: int, n_grid=(64, 256, 1024)) -> dict:
    """Informational log-log slope of collision probability vs bucket count.

    No pass/fail contract: constants in the collision exponents are hidden,
    so only the sign/rough magnitude of the slope is interpretable.
    """
    points = []
    for n in n_grid:
        est = estimate_collision(scheme, n, l, f, d, trials, seed)
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
