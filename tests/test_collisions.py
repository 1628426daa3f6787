"""Sentence-pair model and collision estimators (reduced trial counts here;
the acceptance suite runs the full-scale configuration)."""

import numpy as np
import pytest

from altup import collisions as col


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
            assert col._spherical_bucket(m, e1, e2, a, b, norms) == want[0]


def test_plane_basis_parallel_and_zero_mixes():
    m = col._unit(np.array([0.6, 0.0, 0.8]))
    for m2 in (m, -m, np.zeros(3)):
        e1, e2 = col._plane_basis(m, m2)
        assert np.allclose(e1, m) and abs(e1 @ e2) < 1e-12
        assert np.isclose(np.linalg.norm(e2), 1.0)


def _full_draw_rate(n, l, f, d, trials, seed):
    """Reference: the full-draw trial, n unit router rows and top-1 softmax."""
    from altup.memory import RouterParams, softmax_route
    from altup.tensor import Tensor

    hits = 0
    for t in range(trials):
        pair = col._gen_trial_pair(l, f, d, col._pair_rng(seed, t))
        rng = col._hash_rng(seed, t, "spherical")
        w = rng.standard_normal((n, d))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        router = RouterParams(w=Tensor(w), k=1, jitter_eps=0.0)
        i1, _ = softmax_route(Tensor(col._unit(col.mix(pair.emb1))), router)
        i2, _ = softmax_route(Tensor(col._unit(col.mix(pair.emb2))), router)
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
    (("hyperplane", 64, 16, 0.5, 16, 300, 31), 20, 2.0),
    (("hyperplane", 32, 8, 0.25, 8, 200, 32), 22, 2.0),
    (("minhash", 64, 16, 0.25, 8, 500, 33), 128, None),
    (("minhash", 16, 8, 0.5, 4, 300, 34), 146, None),
])
def test_other_scheme_estimates_are_pinned(args, hits, width):
    # values from before the spherical sampler changed; these schemes' random
    # streams must not move
    scheme, n, l, f, d, trials, seed = args
    est = col.estimate_collision(scheme, n, l, f, d, trials, seed)
    assert est.probability == hits / trials
    assert est.selected_width == width
