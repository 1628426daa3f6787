"""Sentence-pair model and collision estimators (reduced trial counts here;
the acceptance suite runs the full-scale configuration)."""

import multiprocessing
import os
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from altup import cli
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


class InProcessPool:
    """Stands in for ``multiprocessing.Pool``: maps in this process, so no
    worker starts, and records whether it was terminated and joined."""

    def __init__(self, processes):
        self.processes = processes
        self.terminated = self.joined = False
        self._pool = []  # its worker processes: none

    def map(self, fn, args):
        return list(map(fn, args))

    def close(self):
        pass

    def terminate(self):
        self.terminated = True

    def join(self):
        self.joined = True


@pytest.fixture
def pools(monkeypatch):
    """The stand-in pools built during the test, in order. The cached pool is
    closed before and after, so no test reuses another's pool."""
    built = []

    def build(processes):
        built.append(InProcessPool(processes))
        return built[-1]

    col.close_pool()
    monkeypatch.setattr(multiprocessing, "Pool", build)
    yield built
    col.close_pool()


def _pooled_minhash(workers):
    return col.estimate_collision("minhash", 16, 8, 0.5, 4, trials=64, seed=1, workers=workers)


@pytest.mark.parametrize("scheme", col.SCHEMES)
def test_pool_is_capped_at_cpu_count(scheme, pools, monkeypatch):
    sizes = []

    class SizeRecordingPool(InProcessPool):
        """Records the requested size and maps in this process: no worker starts."""

        def __init__(self, processes):
            super().__init__(processes)
            sizes.append(processes)

    monkeypatch.setattr(multiprocessing, "Pool", SizeRecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    serial = col.estimate_collision(scheme, 32, 8, 0.25, 8, trials=240, seed=12, workers=1)
    huge = col.estimate_collision(scheme, 32, 8, 0.25, 8, trials=240, seed=12,
                                  workers=1_000_000)
    assert sizes == [3]
    assert huge.probability == serial.probability
    assert huge.selected_width == serial.selected_width
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: run serially
    col.estimate_collision(scheme, 32, 8, 0.25, 8, trials=240, seed=12, workers=4)
    assert sizes == [3]
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            col.estimate_collision(scheme, 32, 8, 0.25, 8, trials=240, seed=12,
                                   workers=workers)


def test_collide_run_builds_one_pool(pools, monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert cli.main(["collide", "--seed", "3", "--n", "64", "--l", "16", "--d", "16",
                     "--trials", "200", "--workers", "2", "--f", "0.1", "0.5",
                     "--ordering"]) == 0
    assert "ordering at f=0.5" in capsys.readouterr().out
    assert [p.processes for p in pools] == [2]


def test_pool_is_rebuilt_when_size_or_process_changes(pools, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    _pooled_minhash(2)
    _pooled_minhash(2)
    assert [p.processes for p in pools] == [2]
    _pooled_minhash(3)
    assert [p.processes for p in pools] == [2, 3]
    assert pools[0].terminated and pools[0].joined
    _pooled_minhash(8)
    _pooled_minhash(5)  # both cut down to 4
    assert [p.processes for p in pools] == [2, 3, 4]
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    _pooled_minhash(5)
    assert [p.processes for p in pools] == [2, 3, 4, 3]
    col._POOL.forget_in_child()  # as the at-fork hook runs in a forked child
    _pooled_minhash(3)
    assert [p.processes for p in pools] == [2, 3, 4, 3, 3]
    assert not pools[3].terminated, "a child must not terminate its parent's pool"
    col.close_pool()
    assert not pools[3].terminated and pools[4].terminated


_FORK_SCENARIO = """
import os, sys
from altup import collisions as col

def estimate():
    return col.estimate_collision("spherical", 64, 8, 0.5, 8, trials=400, seed=5,
                                  workers=2).probability

first = estimate()
pid = os.fork()
if pid == 0:
    sys.exit(0 if estimate() == first else 3)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status), estimate() == first)
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: estimates run without a pool")
def test_forked_child_leaves_the_parents_pool_working():
    src = os.path.dirname(os.path.dirname(os.path.abspath(col.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen([sys.executable, "-c", _FORK_SCENARIO], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the scenario and every worker it left
        proc.communicate()
        pytest.fail("the parent's pooled call hung after its forked child exited")
    assert proc.returncode == 0, err
    assert out.split() == ["0", "True"], err


def test_pool_whose_map_raises_is_terminated_not_reused(pools, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = _pooled_minhash(1)
    _pooled_minhash(2)

    def lost_worker(fn, args):
        raise RuntimeError("worker lost")

    pools[0].map = lost_worker
    with pytest.raises(RuntimeError, match="worker lost"):
        _pooled_minhash(2)
    assert pools[0].terminated and pools[0].joined
    assert _pooled_minhash(2).probability == serial.probability
    assert len(pools) == 2 and not pools[1].terminated


def test_close_pool_leaves_no_worker_alive():
    col.close_pool()
    pooled = _pooled_minhash(2)
    if (os.cpu_count() or 1) > 1:
        assert multiprocessing.active_children()
    col.close_pool()
    assert multiprocessing.active_children() == []
    assert _pooled_minhash(2).probability == pooled.probability  # a fresh pool
    col.close_pool()
    col.close_pool()  # closing without a pool is a no-op
    assert multiprocessing.active_children() == []


_BLOCK_EDGES = (1, col._TRIAL_BLOCK - 1, col._TRIAL_BLOCK + 1, 3 * col._TRIAL_BLOCK + 5)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scheme=st.sampled_from(col.SCHEMES),
       counts=st.lists(st.sampled_from(_BLOCK_EDGES), min_size=2, max_size=2,
                       unique=True).map(sorted),
       f=st.sampled_from((0.3, 0.5)), seed=st.integers(0, 2**64 - 1))
def test_a_trial_depends_only_on_seed_and_index(scheme, counts, f, seed, pools, monkeypatch):
    # the hits of trials 0..K-1 are the same in a call of K trials and of
    # K' > K, serial or pooled (the stand-in pool maps in this process);
    # f*l = 2.4 draws the overlap stream, 4 does not
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    n, l, d = 16, 8, 4
    m = mem.lsh_projections(n) if scheme == "hyperplane" else None
    short, long = counts
    per_trial = col._trial_hits(scheme, n, l, f, d, seed, 0, long, m)
    assert np.array_equal(col._trial_hits(scheme, n, l, f, d, seed, 0, short, m),
                          per_trial[:short])
    for trials in counts:
        for workers in (1, 2):
            (hits,) = col._run_trials(scheme, n, l, d, trials, [(f, seed)], m=m,
                                      workers=workers)
            assert np.array_equal(hits, per_trial[:trials].sum(axis=0)), (trials, workers)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scheme=st.sampled_from(col.SCHEMES),
       trials=st.integers(3 * col._TRIAL_BLOCK + 1, 7 * col._TRIAL_BLOCK + 3),
       blocks_per_run=st.integers(1, 3), f=st.sampled_from((0.3, 0.5)),
       seed=st.integers(0, 2**64 - 1))
def test_runs_sum_to_the_single_block_hits(scheme, trials, blocks_per_run, f, seed,
                                           pools, monkeypatch):
    # runs of whole blocks, serial or pooled over 2 or 3 workers, count the
    # same hits as one single-block call per block; the element budget is
    # cut so that even a serial pass spans several runs
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    n, l, d = 16, 8, 4
    m = mem.lsh_projections(n) if scheme == "hyperplane" else None
    monkeypatch.setattr(col, "_RUN_ELEMENTS", blocks_per_run * col._TRIAL_BLOCK
                        * col._trial_elements(scheme, n, l, m))
    assert len(col._runs(scheme, n, l, m, trials, 1)) > 1
    want = sum(col._run_hits((scheme, n, l, f, d, seed, a, min(a + col._TRIAL_BLOCK, trials), m))
               for a in range(0, trials, col._TRIAL_BLOCK))
    for workers in (1, 2, 3):
        (hits,) = col._run_trials(scheme, n, l, d, trials, [(f, seed)], m=m, workers=workers)
        assert np.array_equal(hits, want), workers


@pytest.mark.parametrize("scheme,trials,ranges", [
    # token-id and hyperplane passes: one run, so one task, per worker
    ("minhash", 10000, [(0, 5000), (5000, 10000)]),
    ("hyperplane", 200, [(0, 100), (100, 200)] * 2),  # the calibration pass, then f
    # a spherical block at n = 1024 is over the element budget: one task each
    ("spherical", 200, [(0, 50), (50, 100), (100, 150), (150, 200)]),
])
def test_a_pooled_pass_sends_one_task_per_run(scheme, trials, ranges, pools, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    tasks = []

    class TaskRecordingPool(InProcessPool):
        def map(self, fn, args):
            tasks.extend(args)
            return super().map(fn, args)

    monkeypatch.setattr(multiprocessing, "Pool", TaskRecordingPool)
    n, l, d = 1024, 64, 64  # the benchmark's collision sizes
    pooled = col.estimate_collision(scheme, n, l, 0.1, d, trials, seed=8, workers=2)
    assert [(task[6], task[7]) for task in tasks] == ranges
    assert pooled.probability == col.estimate_collision(scheme, n, l, 0.1, d, trials,
                                                        seed=8).probability


def _overcommits_always():
    try:
        with open("/proc/sys/vm/overcommit_memory") as fh:
            return fh.read().strip() == "1"
    except OSError:
        return False


@pytest.mark.skipif(_overcommits_always(),
                    reason="the kernel grants any allocation, so terabytes would be touched")
@pytest.mark.parametrize("args", [
    ["--l", "1000000000000", "--f", "0.5", "--trials", "1", "--schemes", "hyperplane"],
    ["--l", "1000000000000", "--f", "0.5", "--trials", "1", "--schemes", "spherical"],
    ["--n", "1000000000000", "--schemes", "spherical"],
], ids=["l-hyperplane", "l-spherical", "n-spherical"])
def test_collide_allocation_failure_exits_2(args, capsys):
    # each size asks numpy for terabytes, which fails at allocation time
    assert cli.main(["collide", "--seed", "1", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and "Unable to allocate" in err


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


_SCHEME_SALT = {"hyperplane": 1, "spherical": 2, "minhash": 3}


def _pair_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(trial)]))


def _hash_rng(seed: int, trial: int, scheme: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), int(trial), _SCHEME_SALT[scheme]]))


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
        u1, u2 = _full_draw_mixes(l, f, d, _pair_rng(seed, t))
        rng = _hash_rng(seed, t, "spherical")
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



@pytest.mark.parametrize("l,f,d", [(16, 0.5, 8), (8, 0.25, 4)])
def test_spherical_two_buckets_match_the_angle_reference(l, f, d):
    # at n = 2, top-1 of two isotropic rows is the sign of the mix's dot with
    # their difference, itself isotropic: the pair collides with probability
    # 1 - theta/pi (Charikar 2002). theta comes from _pair_mixes on its own
    # seed with 10x the trials, so only the bucketing is under test.
    trials, draws = 5000, 50000
    u = col._pair_mixes(l, f, d, 58, 0, draws)
    ratio = np.arccos(np.clip((u[:, 0] * u[:, 1]).sum(axis=-1), -1.0, 1.0)) / np.pi
    want = 1.0 - ratio.mean()
    got = col.estimate_collision("spherical", 2, l, f, d, trials, seed=57).probability
    se = np.sqrt(got * (1 - got) / trials + ratio.var() / draws)
    assert abs(got - want) <= 3 * se, (got, want, se)

def test_spherical_runs_at_two_dims():
    est = col.estimate_collision("spherical", 16, 8, 0.5, 2, trials=200, seed=43)
    assert 0.0 < est.probability < 1.0
    assert col.estimate_collision("spherical", 16, 8, 1.0, 2, trials=50,
                                  seed=43).probability == 1.0


@pytest.mark.parametrize("args,hits,width", [
    (("hyperplane", 64, 16, 0.5, 16, 300, 31), 16, 2.0),
    (("hyperplane", 32, 8, 0.25, 8, 200, 32), 19, 2.0),
    (("minhash", 64, 16, 0.25, 8, 500, 33), 109, None),
    (("minhash", 16, 8, 0.5, 4, 300, 34), 132, None),
])
def test_other_scheme_estimates_are_pinned(args, hits, width):
    # values of the block-seeded streams; these random streams must not move
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
        u1, u2 = _full_draw_mixes(l, f, d, _pair_rng(seed, t))
        rng = _hash_rng(seed, t, "hyperplane")
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
    # the shared helper runs the same chain over the last axis
    assert int(mem.lsh_cell_hash(np.array(cells))) == want
    assert mem.lsh_cell_hash(np.array([cells] * 3)).tolist() == [want] * 3


@pytest.mark.parametrize("l,d", [(1, 2), (8, 3), (64, 64)])
def test_full_overlap_mixes_are_bitwise_equal(l, d):
    u = col._pair_mixes(l, 1.0, d, 56, 0, 50)
    assert np.array_equal(u[:, 0], u[:, 1])
    for scheme in ("hyperplane", "spherical"):
        assert col.estimate_collision(scheme, 64, l, 1.0, d, 50, seed=56).probability == 1.0
