"""Workload definitions and the round loop that times them.

A workload is a list of operations repeated in whole rounds. Each round runs
the workload's main operations plus a small fixed probe of the other
workloads' operation kinds, so that every end-to-end metric is measured on
every workload while the main operations dominate the round's time. The probe
is cut into small pieces run between the main operations, so it samples the
host's speed all through the round rather than at one moment of it. Each
metric is a throughput over the whole run: its units over the wall time of
its operations, summed over every round, with each operation's wall time
scaled to a reference host speed (see ``reference_seconds``).
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from altup import checkpoint, collisions, data, memory, train

SMOKE_MODEL = {"d_model": 32, "n_layers": 3, "n_heads": 2, "ffn_hidden": 64,
               "vocab_size": 258, "max_seq_len": 20}
SEQ_LEN = 16
CORPUS_CHARS = 6000
N_TRAIN = 256
LEARNING_RATE = 0.05

# Collision harness of acceptance criterion 5.
COLLIDE_N, COLLIDE_L, COLLIDE_D = 1024, 64, 64

# collisions.SCHEMES calls the token-id estimator "minhash"; the benchmark
# reports it as tokenid and times the real min-hash separately (MinhashOp).
SCHEME_METRIC = {"spherical": "spherical", "hyperplane": "hyperplane", "minhash": "tokenid"}

# Per-round throughput metrics: kind -> (end-to-end metric, unit).
RATE_METRICS = {
    "train": ("train_tok_s", "tokens/s"),
    "eval": ("eval_tok_s", "tokens/s"),
    "spherical": ("spherical_trials_s", "trials/s"),
    "hyperplane": ("hyperplane_trials_s", "trials/s"),
    "tokenid": ("tokenid_trials_s", "trials/s"),
    "minhash": ("minhash_pairs_s", "pairs/s"),
}


# The shared host this runs on changes speed by up to half for seconds to
# minutes at a time (clock and neighbours), the same for every operation. A
# fixed chunk of numpy and Python work, timed before and after each operation,
# measures that speed; each operation's seconds are scaled by REF_CHUNK_S over
# the chunk's time around it, which gives them as on a host where one chunk
# takes REF_CHUNK_S. The program never runs inside a chunk, so a change to the
# program cannot move it.
REF_CHUNK_S = 0.002
_REF_X = np.random.default_rng(0).standard_normal((16, 32))
_REF_W = np.random.default_rng(1).standard_normal((32, 64))


def _reference_work() -> float:
    acc = 0.0
    for _ in range(120):
        h = np.maximum(_REF_X @ _REF_W, 0.0)
        row = h.sum(axis=1)
        acc += sum(sorted(float(v) for v in row)[:4])
    return acc


def reference_seconds(chunks: int = 1) -> float:
    """Seconds per reference chunk, over ``chunks`` chunks, with the collector
    off so the program's garbage is not collected on the chunk's clock."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(chunks):
            _reference_work()
        return (time.perf_counter() - t0) / chunks
    finally:
        if was_enabled:
            gc.enable()


@dataclass(frozen=True)
class TrainOp:
    """One ``train.train`` call, then a reload of its checkpoint and an eval."""

    label: str
    variant: dict
    batch: int
    steps: int
    n_eval: int

    def raw_config(self, corpus_path, seed: int) -> dict:
        raw = {
            "model": dict(SMOKE_MODEL),
            "task": {"name": "char_lm", "seq_len": SEQ_LEN, "corpus_path": str(corpus_path),
                     "n_train": N_TRAIN, "n_eval": self.n_eval},
            "optimizer": {"learning_rate": LEARNING_RATE, "steps": self.steps,
                          "batch_size": self.batch},
            "seed": int(seed),
            "eval_interval": self.steps,
        }
        raw.update(self.variant)
        return raw


@dataclass(frozen=True)
class CollideOp:
    """One ``collisions.estimate_collision`` call."""

    scheme: str
    f: float
    trials: int
    workers: int


@dataclass(frozen=True)
class MinhashOp:
    """``pairs`` min-hash lookups of both id sets of one f-overlap sentence pair."""

    f: float
    pairs: int


def _memory(lookup: str, n: int = 64) -> dict:
    return {"variant": "dense", "memory": {"n": n, "rank": 4, "lookup": lookup}}


DENSE = {"variant": "dense"}
ALTUP_K2 = {"variant": "altup", "altup": {"k": 2}}
ALTUP_K4 = {"variant": "altup", "altup": {"k": 4}}
RECYCLED_K2 = {"variant": "recycled_altup", "altup": {"k": 2}}
SEQ_ALTUP = {"variant": "seq_altup", "seq": {"stride": 4}}


def _probe_train(label, variant):
    return TrainOp(f"probe-{label}", variant, batch=2, steps=3, n_eval=4)


# Run after every main operation of the training workloads.
PROBE_COLLIDE = (
    CollideOp("spherical", 0.5, 8, workers=1),
    CollideOp("hyperplane", 0.5, 8, workers=1),
    CollideOp("minhash", 0.5, 160, workers=1),
    MinhashOp(0.5, 80),
)


@dataclass(frozen=True)
class Workload:
    name: str
    main: tuple
    # Run once per round, spread evenly between the main operations.
    probe: tuple = ()
    # Run after every main operation.
    probe_each: tuple = ()
    # Rounds run even when --seconds is shorter, for checks that need a sample.
    min_rounds: int = 1

    @property
    def ops(self):
        """One round: (operation, is_main) pairs in the order they run."""
        n = len(self.main)
        slots = {}
        for k, op in enumerate(self.probe):
            slots.setdefault(k * n // len(self.probe), []).append(op)
        seq = []
        for i, op in enumerate(self.main):
            seq.append((op, True))
            seq.extend((p, False) for p in self.probe_each + tuple(slots.get(i, ())))
        return seq

    @property
    def train_ops(self):
        return [op for op in self.main + self.probe + self.probe_each
                if isinstance(op, TrainOp)]


WORKLOADS = {
    w.name: w for w in (
        Workload("lm-block", main=tuple(
            TrainOp(label, variant, batch=8, steps=12, n_eval=32)
            for label, variant in (("dense", DENSE), ("altup-k2", ALTUP_K2),
                                   ("altup-k4", ALTUP_K4), ("recycled-k2", RECYCLED_K2),
                                   ("seq-altup", SEQ_ALTUP))),
            probe=(_probe_train("memory-softmax", _memory("softmax")),),
            probe_each=PROBE_COLLIDE),
        Workload("lm-memory", main=tuple(
            TrainOp(f"memory-{lookup}", _memory(lookup, n), batch=2, steps=24, n_eval=8)
            for lookup, n in (("softmax", 64), ("token_id", 258), ("lsh", 64), ("minhash", 64))),
            probe=(_probe_train("altup-k2", ALTUP_K2), _probe_train("seq-altup", SEQ_ALTUP)),
            probe_each=PROBE_COLLIDE),
        Workload("collide", main=tuple(
            CollideOp(scheme, f, trials, workers=2)
            for scheme, trials in (("spherical", 200), ("hyperplane", 200), ("minhash", 10000))
            for f in (0.1, 0.5)) + (MinhashOp(0.25, 1000), MinhashOp(0.5, 1000)),
            probe=(_probe_train("altup-k2", ALTUP_K2), _probe_train("seq-altup", SEQ_ALTUP),
                   _probe_train("memory-softmax", _memory("softmax"))),
            # 1200 spherical trials per overlap: the f=0.5 and f=0.1 rates then sit
            # about four standard errors clear of overlapping 99% intervals.
            min_rounds=6),
    )
}


def op_seed(run_seed: int, round_index: int, op_index: int) -> int:
    """Input seed of one operation; a pure function of the run's --seed."""
    return int(np.random.SeedSequence([int(run_seed), round_index, op_index]).generate_state(1)[0])


def write_corpus(workdir: Path, run_seed: int) -> Path:
    path = workdir / "corpus.txt"
    path.write_text(data.make_demo_corpus(CORPUS_CHARS, seed=run_seed))
    return path


def setup(workload: Workload, workdir: Path, run_seed: int):
    """Corpus, task data and one model per training configuration of the workload."""
    corpus = write_corpus(workdir, run_seed)
    models = []
    for op in workload.train_ops:
        cfg = train.config_from_dict(op.raw_config(corpus, run_seed))
        train.make_task_data(cfg)
        models.append((op, cfg, train.build_model(cfg)))
    return corpus, models


class CheckFailure(AssertionError):
    """A benchmark correctness check failed."""


class ReloadMismatch(RuntimeError):
    """A checkpoint reloaded into a model of another seed computes another function."""


def expect(ok: bool, what: str):
    if not ok:
        raise CheckFailure(what)


@dataclass
class TrainResult:
    op: TrainOp
    cfg: object
    model: object
    eval_loss: float
    eval_acc: float


class Runner:
    """Runs whole rounds of a workload and keeps per-round throughputs."""

    def __init__(self, workload: Workload, workdir: Path, corpus: Path, run_seed: int,
                 force_workers: int | None = None):
        self.workload = workload
        self.workdir = workdir
        self.corpus = corpus
        self.run_seed = run_seed
        self.force_workers = force_workers
        self.rounds = []            # per round: {kind: [units, seconds at reference speed]}
        self.raw_rounds = []        # per round: {kind: [units, wall seconds]}
        self.ref_seconds = []       # every reference chunk's time
        self.op_samples = {}        # (id(op), kind) -> [(units, seconds at reference speed)]
        self.attempted = 0
        self.failed = 0
        self.collide_hits = {}      # (scheme, f) -> [hits, trials], main ops only
        self.last_trained = []      # TrainResult of the latest round

    def run(self, seconds: float, after_round=None):
        started = time.perf_counter()
        while (len(self.rounds) < self.workload.min_rounds
               or time.perf_counter() - started < seconds):
            self.run_round(len(self.rounds))
            if after_round is not None:
                after_round()

    def _reference(self) -> float:
        self.ref_seconds.append(reference_seconds())
        return self.ref_seconds[-1]

    def run_round(self, r: int):
        totals = {kind: [0, 0.0] for kind in RATE_METRICS}
        raw = {kind: [0, 0.0] for kind in RATE_METRICS}
        trained = []
        if not self.ref_seconds:
            reference_seconds()      # warm-up
            self._reference()
        for j, (op, is_main) in enumerate(self.workload.ops):
            seed = op_seed(self.run_seed, r, j)
            op_totals = {kind: [0, 0.0] for kind in RATE_METRICS}
            if isinstance(op, TrainOp):
                result = self._attempt(self._train, op, seed, r, j, op_totals, is_main)
                if result is not None:
                    trained.append(result)
            elif isinstance(op, CollideOp):
                self._attempt(self._collide, op, seed, op_totals, is_main)
            else:
                self._minhash(op, seed, op_totals)
            before = self.ref_seconds[-1]
            scale = REF_CHUNK_S / ((before + self._reference()) / 2)
            for kind, (units, secs) in op_totals.items():
                if secs > 0:
                    self.op_samples.setdefault((id(op), kind), []).append((units, secs * scale))
                totals[kind][0] += units
                totals[kind][1] += secs * scale
                raw[kind][0] += units
                raw[kind][1] += secs
        self.rounds.append(totals)
        self.raw_rounds.append(raw)
        self.last_trained = trained

    def _attempt(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except CheckFailure:
            raise
        except ReloadMismatch as exc:
            self.failed += 1
            print(f"altbench: failed: {exc}", file=sys.stderr)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
        return None

    def _train(self, op: TrainOp, seed: int, r: int, j: int, totals, is_main: bool):
        cfg = train.config_from_dict(op.raw_config(self.corpus, seed))
        out = self.workdir / f"round{r}-op{j}"
        t0 = time.perf_counter()
        summary = train.train(cfg, out)
        totals["train"][1] += time.perf_counter() - t0
        totals["train"][0] += op.steps * op.batch * SEQ_LEN

        # A 3-step probe need not lower the loss; the main runs are long enough
        # that the drop sits over six standard deviations clear of zero.
        if is_main:
            rows = (out / "metrics.csv").read_text().splitlines()
            first, last = rows[1].split(","), rows[-1].split(",")
            expect(float(last[2]) < float(first[2]),
                   f"{op.label}: final eval loss {last[2]} not below initial {first[2]}")

        # Eval: the checkpoint loaded into a model built from the same config.
        model = train.build_model(cfg)
        checkpoint.load_model(model, out / "model.ckpt")
        task = train.make_task_data(cfg)
        t0 = time.perf_counter()
        loss, acc = train.evaluate(model, task.eval_inputs, task.eval_targets)
        totals["eval"][1] += time.perf_counter() - t0
        totals["eval"][0] += task.eval_inputs.size
        expect(loss == summary["final_eval_loss"] and acc == summary["final_eval_token_accuracy"],
               f"{op.label}: reloaded checkpoint evaluates to {loss!r}, "
               f"trained model to {summary['final_eval_loss']!r}")
        self._attempt(self._reload_other_seed, op, cfg, out, task, model)
        return TrainResult(op, cfg, model, loss, acc)

    def _reload_other_seed(self, op: TrainOp, cfg, out: Path, task, model):
        """The checkpoint loaded into a model built from another seed evaluates
        bitwise like the trained model on the first eval examples."""
        other = train.build_model(dataclasses.replace(cfg, seed=cfg.seed + 1))
        checkpoint.load_model(other, out / "model.ckpt")
        got = train.evaluate(other, task.eval_inputs, task.eval_targets, batch_cap=2)
        want = train.evaluate(model, task.eval_inputs, task.eval_targets, batch_cap=2)
        if got != want:
            raise ReloadMismatch(f"{op.label}: checkpoint in a model of another seed "
                                 f"evaluates to {got[0]!r}, not {want[0]!r}")

    def _collide(self, op: CollideOp, seed: int, totals, is_main: bool):
        workers = self.force_workers or op.workers
        t0 = time.perf_counter()
        est = collisions.estimate_collision(op.scheme, COLLIDE_N, COLLIDE_L, op.f, COLLIDE_D,
                                            op.trials, seed, workers=workers)
        kind = SCHEME_METRIC[op.scheme]
        totals[kind][1] += time.perf_counter() - t0
        totals[kind][0] += op.trials
        hits = est.probability * op.trials
        expect(abs(hits - round(hits)) < 1e-6 and 0 <= hits <= op.trials,
               f"{op.scheme} f={op.f}: probability {est.probability} is not a hit share")
        if is_main:
            acc = self.collide_hits.setdefault((op.scheme, op.f), [0, 0])
            acc[0] += int(round(hits))
            acc[1] += op.trials

    def _minhash(self, op: MinhashOp, seed: int, totals):
        pair = collisions.gen_sentence_pair(COLLIDE_L, op.f, COLLIDE_D, seed=seed,
                                            with_embeddings=False)
        a, b = set(pair.ids1.tolist()), set(pair.ids2.tolist())
        base = seed << 20
        t0 = time.perf_counter()
        for i in range(op.pairs):
            self.attempted += 1
            try:
                memory.minhash_lookup(a, base + i)
                memory.minhash_lookup(b, base + i)
            except Exception:
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
        totals["minhash"][1] += time.perf_counter() - t0
        totals["minhash"][0] += op.pairs

    def round_rates(self) -> dict:
        """Each per-round throughput at reference speed, by end-to-end metric."""
        return {name: [units / secs for units, secs in (rnd[kind] for rnd in self.rounds)
                       if secs > 0]
                for kind, (name, _) in RATE_METRICS.items()}

    def wall_rates(self) -> dict:
        """Each throughput over the whole run in plain wall time: units over
        seconds, summed over rounds."""
        rates = {}
        for kind, (name, _) in RATE_METRICS.items():
            units = sum(rnd[kind][0] for rnd in self.raw_rounds)
            secs = sum(rnd[kind][1] for rnd in self.raw_rounds)
            if secs > 0:
                rates[name] = units / secs
        return rates

    def rates(self) -> dict:
        """Each throughput at reference speed: one round's units over one
        round's seconds, where each operation counts with its median seconds
        over all its calls in the run. The median drops the calls in which the
        host changed speed in the middle of an operation, which the chunks
        around it cannot see."""
        per_round = {}
        for op, _ in self.workload.ops:
            per_round[id(op)] = per_round.get(id(op), 0) + 1
        rates = {}
        for kind, (name, unit) in RATE_METRICS.items():
            units = secs = 0.0
            for (op, k), samples in self.op_samples.items():
                if k == kind:
                    units += per_round[op] * statistics.median(u for u, _ in samples)
                    secs += per_round[op] * statistics.median(t for _, t in samples)
            if secs > 0:
                rates[name] = {"value": units / secs, "unit": unit}
        return rates
