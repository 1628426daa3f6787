"""Monte-Carlo collision analysis of the lookup schemes.

Models two equal-length sentences sharing an exact fraction f of wordpieces,
each wordpiece embedded as a random unit vector. After attention has mixed a
sentence, its representation is taken to be the average of its token
embeddings; sentence-level lookups (hyperplane LSH, spherical LSH realized as
top-1 softmax routing over random unit rows) hash that mixed vector, while
token-id lookup collides per token. Collision probabilities are estimated
with fresh pairs and fresh hash randomness per trial, seeded per trial by
counter so results are independent of batching or worker count.

A spherical trial draws only the sufficient statistics of each router row:
for an isotropic Gaussian row g and two unit mixes spanning the plane
(e1, e2), g = a e1 + b e2 + g_perp with a, b standard normal and |g_perp|^2
chi-square with d-2 degrees of freedom, all independent. The row's angle to
either mix, and so the top-1 routing, depends on (a, b, |g|) alone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

# softmax_route is unused here; the benchmark tracer patches both names in this module
from .memory import HyperplaneLshParams, hyperplane_lsh_lookup, softmax_route  # noqa: F401

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


def _build_pair(l: int, f: float, s: int, d: int, rng, with_embeddings: bool) -> SentencePair:
    ids1 = np.arange(l, dtype=np.int64)
    ids2 = np.concatenate([np.arange(s, dtype=np.int64),
                           np.arange(l, 2 * l - s, dtype=np.int64)])
    emb1 = emb2 = None
    if with_embeddings:
        vocab = rng.standard_normal((2 * l - s, d))
        vocab /= np.linalg.norm(vocab, axis=1, keepdims=True)
        emb1 = vocab[ids1]
        emb2 = vocab[ids2]
    return SentencePair(l=l, f=f, d=d, ids1=ids1, ids2=ids2, shared=s,
                        emb1=emb1, emb2=emb2)


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
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return _build_pair(l, f, s, d, rng, with_embeddings)


def _gen_trial_pair(l: int, f: float, d: int, rng, with_embeddings: bool = True) -> SentencePair:
    """Per-trial pair with randomized rounding of the shared count.

    For fractional f*l the shared count is floor(f*l) plus a Bernoulli on the
    fraction, so the expected overlap is exactly f; for integral f*l this is
    the deterministic construction, draw for draw.
    """
    _validate_pair_args(l, f, d)
    exact = f * l
    s = int(np.floor(exact))
    frac = exact - s
    if frac > 1e-9:
        s += int(rng.random() < frac)
    return _build_pair(l, f, s, d, rng, with_embeddings)


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
    norm = np.linalg.norm(v)
    return v if norm < 1e-12 else v / norm


def _hyperplane_trial(pair: SentencePair, rng: np.random.Generator, n: int,
                      m: int, widths) -> np.ndarray:
    m1 = _unit(mix(pair.emb1))
    m2 = _unit(mix(pair.emb2))
    directions = rng.standard_normal((m, pair.d))
    unit_offsets = rng.uniform(0.0, 1.0, m)
    hits = np.zeros(len(widths), dtype=np.int64)
    for wi, w in enumerate(widths):
        params = HyperplaneLshParams(directions=directions, offsets=unit_offsets * w,
                                     width=w, n=n)
        hits[wi] = hyperplane_lsh_lookup(m1, params) == hyperplane_lsh_lookup(m2, params)
    return hits


def _plane_basis(m1: np.ndarray, m2: np.ndarray):
    """Orthonormal (e1, e2) whose span holds both mixes (m1 nonzero).

    When m2 is parallel to m1 (or zero), e2 is any unit vector orthogonal to e1.
    """
    e1 = m1 / np.linalg.norm(m1)
    e2 = m2 - (m2 @ e1) * e1
    e2 -= (e2 @ e1) * e1  # second Gram-Schmidt pass restores orthogonality
    if np.linalg.norm(e2) <= 1e-12 * np.linalg.norm(m2):
        # the standard axis least aligned with e1 leaves a residual >= sqrt(1/2)
        j = int(np.argmin(np.abs(e1)))
        e2 = -e1[j] * e1
        e2[j] += 1.0
    return e1, e2 / np.linalg.norm(e2)


def _spherical_bucket(m: np.ndarray, e1: np.ndarray, e2: np.ndarray,
                      a: np.ndarray, b: np.ndarray, norms: np.ndarray) -> int:
    """First row maximizing g_i . m / |g_i| for rows g_i = a_i e1 + b_i e2 + g_perp_i.

    Bitwise-equal mixes get bitwise-equal scores, so they always collide.
    """
    return int(np.argmax((a * (m @ e1) + b * (m @ e2)) / norms))


def _spherical_trial(pair: SentencePair, rng: np.random.Generator, n: int) -> bool:
    # top-1 softmax routing over n isotropic unit rows = nearest row in angle;
    # softmax is monotone and the stable top-1 is the first maximum
    m1 = _unit(mix(pair.emb1))
    m2 = _unit(mix(pair.emb2))
    e1, e2 = _plane_basis(m1, m2)
    a, b = rng.standard_normal((2, n))
    rest = rng.chisquare(pair.d - 2, n) if pair.d > 2 else 0.0
    norms = np.sqrt(a * a + b * b + rest)
    return (_spherical_bucket(m1, e1, e2, a, b, norms)
            == _spherical_bucket(m2, e1, e2, a, b, norms))


def _token_id_trial(pair: SentencePair, rng: np.random.Generator) -> bool:
    pos = int(rng.integers(0, pair.l))
    return int(pair.ids1[pos]) in set(pair.ids2.tolist())


def _hits_chunk(args) -> np.ndarray:
    """Integer hit counts for one contiguous trial range (one scheme)."""
    scheme, n, l, f, d, seed, start, stop, m = args
    if scheme == "minhash":
        hits = 0
        for t in range(start, stop):
            pair = _gen_trial_pair(l, f, d, _pair_rng(seed, t), with_embeddings=False)
            hits += _token_id_trial(pair, _hash_rng(seed, t, scheme))
        return np.array([hits], dtype=np.int64)
    if scheme == "hyperplane":
        hits = np.zeros(len(LSH_WIDTH_SWEEP), dtype=np.int64)
        for t in range(start, stop):
            pair = _gen_trial_pair(l, f, d, _pair_rng(seed, t))
            hits += _hyperplane_trial(pair, _hash_rng(seed, t, scheme), n, m, LSH_WIDTH_SWEEP)
        return hits
    hits = 0
    for t in range(start, stop):
        pair = _gen_trial_pair(l, f, d, _pair_rng(seed, t))
        hits += _spherical_trial(pair, _hash_rng(seed, t, scheme), n)
    return np.array([hits], dtype=np.int64)


def _run_trials(scheme, n, l, f, d, trials, seed, m=None, workers=1) -> np.ndarray:
    """Sum per-trial hit counts, optionally over a process pool.

    Per-trial seeds are derived by counter and the summed counts are
    integers, so the result is bitwise-identical for any worker count.
    """
    workers = max(1, int(workers))
    chunk = max(1, -(-trials // (workers * 4)))
    ranges = [(s, min(s + chunk, trials)) for s in range(0, trials, chunk)]
    args = [(scheme, n, l, f, d, seed, a, b, m) for a, b in ranges]
    if workers == 1 or len(args) == 1:
        parts = [_hits_chunk(a) for a in args]
    else:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            parts = pool.map(_hits_chunk, args)
    return np.sum(parts, axis=0)


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

    if scheme == "minhash":
        hits = int(_run_trials(scheme, n, l, f, d, trials, seed, workers=workers)[0])
        return CollisionEstimate(scheme, n, l, f, d, trials, hits / trials)

    if scheme == "hyperplane":
        m = lsh_m if lsh_m is not None else max(1, int(np.ceil(np.log2(n))))
        far = _run_trials(scheme, n, l, 0.0, d, trials, _calibration_seed(seed),
                          m=m, workers=workers) / trials
        se_far = np.sqrt(np.maximum(far * (1.0 - far), 1e-12) / trials)
        eligible = np.nonzero(far <= 1.0 / n + 3.0 * se_far)[0]
        if eligible.size == 0:
            eligible = np.array([int(np.argmin(far))])
        near = _run_trials(scheme, n, l, f, d, trials, seed, m=m, workers=workers) / trials
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

    hits = int(_run_trials(scheme, n, l, f, d, trials, seed, workers=workers)[0])
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
