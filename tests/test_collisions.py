"""Sentence-pair model and collision estimators (reduced trial counts here;
the acceptance suite runs the full-scale configuration)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from altup import collisions as col
from altup import memory as mem


def test_pair_full_overlap_identical():
    pair = col.gen_sentence_pair(8, 1.0, 4, seed=0)
    assert np.array_equal(pair.ids1, pair.ids2)
    assert np.array_equal(pair.emb1, pair.emb2)


def test_pair_zero_overlap_disjoint():
    pair = col.gen_sentence_pair(8, 0.0, 4, seed=1)
    assert not set(pair.ids1.tolist()) & set(pair.ids2.tolist())


def test_pair_shared_count_exact_and_unit_norms():
    pair = col.gen_sentence_pair(16, 0.25, 8, seed=2)
    assert pair.shared == 4
    shared = set(pair.ids1.tolist()) & set(pair.ids2.tolist())
    assert len(shared) == 4
    for emb in (pair.emb1, pair.emb2):
        norms = np.linalg.norm(emb, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-12)


def test_pair_rejects_non_integral_overlap():
    with pytest.raises(ValueError):
        col.gen_sentence_pair(10, 0.15, 4, seed=3)
    with pytest.raises(ValueError):
        col.gen_sentence_pair(0, 0.0, 4, seed=3)
    with pytest.raises(ValueError):
        col.gen_sentence_pair(4, 0.5, 1, seed=3)


def test_mixed_vectors_correlate_with_overlap():
    # the f*l shared unit vectors contribute f*l to the dot of the two sums,
    # so l * <mix(s1), mix(s2)> and the cosine both concentrate near f
    l, f, d = 16, 0.5, 32
    dots, cosines = [], []
    for t in range(1000):
        pair = col.gen_sentence_pair(l, f, d, seed=np.random.default_rng([4, t]))
        m1, m2 = col.mix(pair.emb1), col.mix(pair.emb2)
        dots.append(np.dot(m1, m2) * l)
        cosines.append(np.dot(m1, m2) / (np.linalg.norm(m1) * np.linalg.norm(m2)))
    assert abs(np.mean(dots) - f) < 0.05
    assert abs(np.mean(cosines) - f) < 0.05


def test_mix_basics():
    one = np.array([[0.6, 0.8]])
    assert np.array_equal(col.mix(one), one[0])
    opposite = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert np.array_equal(col.mix(opposite), [0.0, 0.0])
    rng = np.random.default_rng(5)
    emb = rng.standard_normal((5, 3))
    assert np.allclose(col.mix(2.5 * emb), 2.5 * col.mix(emb))
    with pytest.raises(ValueError):
        col.mix(np.zeros((0, 3)))


def test_estimate_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        col.estimate_collision("cuckoo", 8, 4, 0.5, 4, 10, seed=0)


@pytest.mark.parametrize("scheme", col.SCHEMES)
def test_full_overlap_always_collides(scheme):
    est = col.estimate_collision(scheme, 64, 8, 1.0, 8, trials=50, seed=7)
    assert est.probability == 1.0


def test_minhash_estimator_matches_overlap_fraction():
    for f in (0.0, 0.25, 0.5, 1.0):
        est = col.estimate_collision("minhash", 64, 16, f, 8, trials=4000, seed=8)
        tol = 3 * est.stderr if est.stderr > 0 else 1e-12
        assert abs(est.probability - f) <= tol, f"f={f}: {est.probability}"


def test_spherical_disjoint_inputs_land_uniformly():
    n = 64
    est = col.estimate_collision("spherical", n, 16, 0.0, 16, trials=3000, seed=9)
    stderr_floor = np.sqrt((1 / n) * (1 - 1 / n) / est.trials)
    assert abs(est.probability - 1 / n) < 3 * max(est.stderr, stderr_floor)


def test_stderr_formula_exact():
    est = col.estimate_collision("minhash", 16, 8, 0.5, 4, trials=400, seed=10)
    assert est.stderr == np.sqrt(est.probability * (1 - est.probability) / 400)
    assert 0.0 <= est.ci_low <= est.probability <= est.ci_high <= 1.0


def test_estimates_deterministic_under_seed():
    a = col.estimate_collision("hyperplane", 32, 8, 0.25, 8, trials=200, seed=11)
    b = col.estimate_collision("hyperplane", 32, 8, 0.25, 8, trials=200, seed=11)
    assert a.probability == b.probability
    c = col.estimate_collision("spherical", 32, 8, 0.25, 8, trials=200, seed=11)
    d2 = col.estimate_collision("spherical", 32, 8, 0.25, 8, trials=200, seed=11)
    assert c.probability == d2.probability


@pytest.mark.parametrize("scheme", col.SCHEMES)
def test_estimates_independent_of_worker_count(scheme):
    serial = col.estimate_collision(scheme, 32, 8, 0.25, 8, trials=240, seed=12,
                                    workers=1)
    pooled = col.estimate_collision(scheme, 32, 8, 0.25, 8, trials=240, seed=12,
                                    workers=2)
    assert serial.probability == pooled.probability
    assert serial.selected_width == pooled.selected_width


@pytest.mark.parametrize("scheme", col.SCHEMES)
def test_collision_probability_monotone_in_overlap(scheme):
    grid = (0.0, 0.25, 0.5, 1.0)
    trials = 1200
    ests = [col.estimate_collision(scheme, 64, 16, f, 16, trials, seed=12) for f in grid]
    for lo, hi in zip(ests, ests[1:]):
        slack = col.Z99 * (lo.stderr + hi.stderr)
        assert lo.probability <= hi.probability + slack, (
            f"{scheme}: p({lo.f})={lo.probability} vs p({hi.f})={hi.probability}")


def test_ordering_report_small_regime():
    report = col.verify_ordering(n=2, l=8, f=0.25, d=8, trials=150, seed=13)
    assert not report.in_regime
    assert set(report.estimates) == set(col.SCHEMES)


def test_ordering_trivial_at_full_overlap():
    report = col.verify_ordering(n=64, l=8, f=1.0, d=8, trials=60, seed=14)
    assert all(e.probability == 1.0 for e in report.estimates.values())


def test_ordering_holds_in_regime_small_scale():
    # scaled-down regime with enough signal to separate the 99% intervals
    report = col.verify_ordering(n=256, l=32, f=0.5, d=32, trials=4000, seed=15)
    assert report.in_regime
    mh = report.estimates["minhash"]
    sph = report.estimates["spherical"]
    hyp = report.estimates["hyperplane"]
    assert mh.probability > sph.probability > hyp.probability
    assert report.pass_flag


def test_exponent_diagnostic_reports_negative_slope():
    diag = col.exponent_diagnostic("spherical", l=16, f=0.25, d=16, trials=800,
                                   seed=16, n_grid=(16, 64, 256))
    assert diag["slope"] < 0


def test_hyperplane_estimate_carries_theory_constants():
    est = col.estimate_collision("hyperplane", 64, 16, 0.5, 16, trials=800, seed=21)
    assert est.selected_width in col.LSH_WIDTH_SWEEP
    if est.theory is not None:  # populated when the rates are informative
        assert est.theory.c > 1.0
        assert np.isclose(est.theory.r1, np.sqrt(2 * (1 - 0.5)))
        assert est.theory.rho == (np.log(1 / est.theory.p1)
                                  / np.log(1 / est.theory.p2))


def test_csv_emission(tmp_path):
    ests = [col.estimate_collision("minhash", 16, 8, 0.5, 4, trials=100, seed=17)]
    path = tmp_path / "collide.csv"
    col.write_estimates_csv(ests, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "scheme,n,l,f,d,trials,probability,stderr,ci_low,ci_high"
    assert lines[1].startswith("minhash,16,8,0.5,4,100,")


def test_estimate_rejects_empty_table():
    for scheme in col.SCHEMES:
        with pytest.raises(ValueError, match="n must be >= 1"):
            col.estimate_collision(scheme, 0, 8, 0.5, 4, 10, seed=0)


def test_spherical_statistics_reduce_a_full_router_draw():
    # projecting one full Gaussian router onto the mixes' plane and scoring
    # from (a, b, |g|^2 - a^2 - b^2) routes exactly like softmax_route on the
    # row-normalized router
    from altup.memory import RouterParams, softmax_route
    from altup.tensor import Tensor

    rng = np.random.default_rng(40)
    n, d = 256, 16
    for _ in range(10):
        g = rng.standard_normal((n, d))
        router = RouterParams(w=Tensor(g / np.linalg.norm(g, axis=1, keepdims=True)),
                              k=1, jitter_eps=0.0)
        pair = col.gen_sentence_pair(8, 0.25, d, seed=rng)
        m1, m2 = col._unit(col.mix(pair.emb1)), col._unit(col.mix(pair.emb2))
        e1, e2 = col._plane_basis(m1, m2)
        assert abs(e1 @ e2) < 1e-12
        assert np.allclose([e1 @ e1, e2 @ e2], 1.0)
        a, b = g @ e1, g @ e2
        rest = np.einsum("ij,ij->i", g, g) - a * a - b * b
        norms = np.sqrt(a * a + b * b + rest)
        for m in (m1, m2):
            want, _ = softmax_route(Tensor(m), router)
            assert col._spherical_bucket(m @ e1, m @ e2, a, b, norms) == want[0]


def test_plane_basis_parallel_and_zero_mixes():
    m = col._unit(np.array([0.6, 0.0, 0.8]))
    for m2 in (m, -m, np.zeros(3)):
        e1, e2 = col._plane_basis(m, m2)
        assert np.allclose(e1, m) and abs(e1 @ e2) < 1e-12
        assert np.isclose(np.linalg.norm(e2), 1.0)


def _full_draw_mixes(l, f, d, rng):
    """Reference pair: randomized rounding of f*l, then a full vocabulary draw;
    returns the two unit mixes in the ambient d dimensions."""
    base, frac = col._split_overlap(l, f)
    s = base + int(frac > 0 and rng.random() < frac)
    pair = col.gen_sentence_pair(l, s / l, d, seed=rng)
    return col._unit(col.mix(pair.emb1)), col._unit(col.mix(pair.emb2))


def _full_draw_rate(n, l, f, d, trials, seed):
    """Reference: the full-draw trial, n unit router rows and top-1 softmax."""
    from altup.memory import RouterParams, softmax_route
    from altup.tensor import Tensor

    hits = 0
    for t in range(trials):
        u1, u2 = _full_draw_mixes(l, f, d, col._pair_rng(seed, t))
        rng = col._hash_rng(seed, t, "spherical")
        w = rng.standard_normal((n, d))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        router = RouterParams(w=Tensor(w), k=1, jitter_eps=0.0)
        i1, _ = softmax_route(Tensor(u1), router)
        i2, _ = softmax_route(Tensor(u2), router)
        hits += i1[0] == i2[0]
    return hits / trials


@pytest.mark.parametrize("n,l,f,d", [(16, 8, 0.5, 8), (8, 4, 0.5, 2)])
def test_spherical_sampler_matches_full_draw(n, l, f, d):
    trials = 3000
    want = _full_draw_rate(n, l, f, d, trials, seed=41)
    got = col.estimate_collision("spherical", n, l, f, d, trials, seed=42).probability
    se = np.sqrt(want * (1 - want) / trials + got * (1 - got) / trials)
    assert abs(got - want) <= 3 * se, (got, want)


def test_spherical_runs_at_two_dims():
    est = col.estimate_collision("spherical", 16, 8, 0.5, 2, trials=200, seed=43)
    assert 0.0 < est.probability < 1.0
    assert col.estimate_collision("spherical", 16, 8, 1.0, 2, trials=50,
                                  seed=43).probability == 1.0


@pytest.mark.parametrize("args,hits,width", [
    (("hyperplane", 64, 16, 0.5, 16, 300, 31), 22, 2.0),
    (("hyperplane", 32, 8, 0.25, 8, 200, 32), 20, 2.0),
    (("minhash", 64, 16, 0.25, 8, 500, 33), 128, None),
    (("minhash", 16, 8, 0.5, 4, 300, 34), 146, None),
])
def test_other_scheme_estimates_are_pinned(args, hits, width):
    # token-id values from before both vector samplers changed, hyperplane
    # values from the pair sampler on; these random streams must not move
    scheme, n, l, f, d, trials, seed = args
    est = col.estimate_collision(scheme, n, l, f, d, trials, seed)
    assert est.probability == hits / trials
    assert est.selected_width == width


def test_pair_geometry_reduces_a_full_vocabulary_draw():
    # fed one full draw's own walk cosines, norms and direction cosines, the
    # 3-D construction reproduces the draw's u1 . u2
    rng = np.random.default_rng(50)
    for l, s, d in [(8, 3, 16), (12, 0, 5), (6, 6, 4), (9, 1, 2), (1, 0, 3)]:
        pair = col.gen_sentence_pair(l, s / l, d, seed=rng)
        shared, p1, p2 = pair.emb1[:s], pair.emb1[s:], pair.emb2[s:]

        def walk_cosines(vectors):
            partial = np.cumsum(vectors, axis=0)[:-1]
            cos = np.einsum("ij,ij->i", vectors[1:], partial)
            return cos / np.linalg.norm(partial, axis=1)

        cos = np.zeros((3, max(l - 1, 0)))
        for w, vectors in enumerate((shared, p1, p2)):
            cos[w, :max(len(vectors) - 1, 0)] = walk_cosines(vectors)
        count = np.array([s, l - s, l - s])
        sums = [v.sum(axis=0) for v in (shared, p1, p2)]
        r = col._walk_norms(cos, count)
        assert np.allclose(r, [np.linalg.norm(v) for v in sums], rtol=0, atol=1e-12)

        # frame: e1 along S (any unit vector when S = 0), e2 from P1, rest from P2
        dirs = [v / n if n > 0 else v for v, n in zip(sums, r)]
        e1 = dirs[0] if s else col._unit(rng.standard_normal(d))
        c1 = dirs[1] @ e1
        e2 = col._unit(dirs[1] - c1 * e1)
        x, y = dirs[2] @ e1, dirs[2] @ e2
        g = np.array([x, y, np.sqrt(max(1.0 - x * x - y * y, 0.0))])
        u = col._frame_mixes(r, np.array(c1), g)
        want = col._unit(col.mix(pair.emb1)) @ col._unit(col.mix(pair.emb2))
        assert abs(u[0] @ u[1] - want) <= 1e-12, (l, s, d)


@pytest.mark.parametrize("l,f,d", [(8, 0.5, 8), (16, 0.25, 2), (8, 0.5, 3),
                                   (8, 0.0, 16), (7, 0.3, 5), (64, 0.1, 64),
                                   (2, 0.5, 3), (4, 0.5, 2)])
def test_pair_sampler_cosine_law_matches_full_draw(l, f, d):
    # two-sample KS test of u1 . u2 against full vocabulary draws; (7, 0.3)
    # has fractional f*l, (8, 0.0) no shared word
    trials = 1500
    want = [u1 @ u2 for u1, u2 in (_full_draw_mixes(l, f, d, np.random.default_rng([51, t]))
                                   for t in range(trials))]
    u = col._pair_mixes(l, f, d, 52, 0, trials)
    assert np.allclose(np.linalg.norm(u, axis=-1), 1.0)
    assert stats.ks_2samp(want, np.einsum("ij,ij->i", u[:, 0], u[:, 1])).pvalue > 0.01


def _full_draw_hyperplane_hits(n, l, f, d, m, trials, seed):
    """Reference: full-draw pairs hashed one mix at a time by
    memory.hyperplane_lsh_lookup, per swept width."""
    hits = np.zeros(len(col.LSH_WIDTH_SWEEP), dtype=np.int64)
    for t in range(trials):
        u1, u2 = _full_draw_mixes(l, f, d, col._pair_rng(seed, t))
        rng = col._hash_rng(seed, t, "hyperplane")
        directions = rng.standard_normal((m, d))
        unit_offsets = rng.uniform(0.0, 1.0, m)
        for wi, w in enumerate(col.LSH_WIDTH_SWEEP):
            p = mem.HyperplaneLshParams(directions, unit_offsets * w, w, n)
            hits[wi] += mem.hyperplane_lsh_lookup(u1, p) == mem.hyperplane_lsh_lookup(u2, p)
    return hits


@pytest.mark.parametrize("n,l,f,d", [(16, 8, 0.5, 8), (8, 4, 0.5, 2)])
def test_hyperplane_sampler_matches_full_draw(n, l, f, d):
    trials, m = 3000, 4
    want = _full_draw_hyperplane_hits(n, l, f, d, m, trials, seed=53) / trials
    (got,) = col._run_trials("hyperplane", n, l, d, trials, [(f, 54)], m=m)
    got = got / trials
    se = np.sqrt(want * (1 - want) / trials + got * (1 - got) / trials)
    assert np.all(np.abs(got - want) <= 3 * se), (got, want)


def test_blocked_lsh_hash_matches_single_lookups():
    rng = np.random.default_rng(55)
    trials, m, n = 40, 5, 37
    u = rng.standard_normal((trials, 2, 3)) * 4.0  # cells of both signs
    directions = rng.standard_normal((trials, m, 3))
    unit_offsets = rng.uniform(0.0, 1.0, (trials, m))
    buckets = col._lsh_buckets(u, directions, unit_offsets, n)
    assert buckets.shape == (trials, 2, len(col.LSH_WIDTH_SWEEP))
    for t in range(trials):
        for wi, w in enumerate(col.LSH_WIDTH_SWEEP):
            p = mem.HyperplaneLshParams(directions[t], unit_offsets[t] * w, w, n)
            for k in range(2):
                assert buckets[t, k, wi] == mem.hyperplane_lsh_lookup(u[t, k], p)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=40))
def test_array_splitmix_matches_scalar_chain(cells):
    # the chain over one cell vector, as uint64 arrays and as Python ints
    arr = np.array(cells, dtype=np.int64).view(np.uint64)
    assert [int(v) for v in mem._splitmix64(arr)] == [
        mem._splitmix64(c & mem._M64) for c in cells]
    h = np.full(3, mem._LSH_SEED_CONST, dtype=np.uint64)
    want = mem._LSH_SEED_CONST
    for c, a in zip(cells, arr):
        h = mem._splitmix64(h ^ a)
        want = mem._splitmix64(want ^ (c & mem._M64))
    assert all(int(v) == want for v in h)


@pytest.mark.parametrize("l,d", [(1, 2), (8, 3), (64, 64)])
def test_full_overlap_mixes_are_bitwise_equal(l, d):
    u = col._pair_mixes(l, 1.0, d, 56, 0, 50)
    assert np.array_equal(u[:, 0], u[:, 1])
    for scheme in ("hyperplane", "spherical"):
        assert col.estimate_collision(scheme, 64, l, 1.0, d, 50, seed=56).probability == 1.0
