"""Run configuration and the deterministic training loop.

Everything downstream of (config, seed) is pinned: initialization, batch
order, SGD updates, metric rows. The metrics CSV contains only deterministic
columns so identical runs produce identical bytes; wall-clock throughput goes
to the JSON summary instead.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import costs
from .checkpoint import save_model
from .alternating import AltUpConfig
from .data import TASKS, VOCAB_SIZE, input_length, make_task
from .models import LOOKUPS, Model
from .tensor import Graph, backward
from .transformer import ModelConfig


class ConfigError(ValueError):
    """Invalid or unknown run-configuration content."""


class DivergenceError(RuntimeError):
    def __init__(self, step, value):
        self.step = step
        super().__init__(f"non-finite loss {value} at step {step}")


VARIANTS_WITH_BLOCKS = ("altup", "recycled_altup")
VARIANTS_WITH_STRIDE = ("seq_altup", "stride_skip", "avg_pool")


@dataclass
class OptimizerConfig:
    learning_rate: float = 0.05
    steps: int = 500
    batch_size: int = 4
    momentum: float = 0.0


@dataclass
class TaskConfig:
    name: str = "copy"
    corpus_path: str | None = None
    seq_len: int = 16
    n_train: int = 256
    n_eval: int = 64
    alphabet: int = 8


@dataclass
class RunConfig:
    model: ModelConfig
    variant: str = "dense"
    altup: dict | None = None      # {k, selection, j_fixed}
    seq: dict | None = None        # {stride, wrap}
    memory: dict | None = None     # {n, rank, lookup, k, jitter_eps, constant}
    task: TaskConfig = field(default_factory=TaskConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 0
    eval_interval: int = 100

    def as_dict(self):
        d = {
            "model": vars(self.model).copy(),
            "variant": self.variant,
            "task": vars(self.task).copy(),
            "optimizer": vars(self.optimizer).copy(),
            "seed": self.seed,
            "eval_interval": self.eval_interval,
        }
        for key in ("altup", "seq", "memory"):
            val = getattr(self, key)
            if val is not None:
                d[key] = dict(val)
        return d


def _is_int(value) -> bool:
    # JSON true/false parse to bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _take_fields(section: str, raw: dict, allowed: dict) -> dict:
    """Type-checked copy of a config section: bool is not an int, and an int
    is accepted (as a float) where a float is expected."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{section}: expected an object, got {type(raw).__name__}")
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"{section}: unknown keys {sorted(unknown)}")
    out = {}
    for key, value in raw.items():
        expected = allowed[key]
        if expected is float and _is_int(value):
            value = float(value)
        if not isinstance(value, expected) or (isinstance(value, bool) and expected is not bool):
            raise ConfigError(f"{section}.{key}: expected {expected}, got {type(value).__name__}")
        out[key] = value
    return out


def config_from_dict(raw: dict) -> RunConfig:
    """Strict parse: unknown keys anywhere are rejected, and variant-specific
    sections must be present exactly when the variant needs them."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    top_allowed = {"model", "variant", "altup", "seq", "memory", "task",
                   "optimizer", "seed", "eval_interval"}
    unknown = set(raw) - top_allowed
    if unknown:
        raise ConfigError(f"config: unknown keys {sorted(unknown)}")
    if "model" not in raw:
        raise ConfigError("config: missing required 'model' section")

    mfields = _take_fields("model", raw["model"], {
        "d_model": int, "n_layers": int, "n_heads": int,
        "ffn_hidden": int, "vocab_size": int, "max_seq_len": int})
    try:
        model = ModelConfig(**mfields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model: {exc}") from exc
    if model.vocab_size < VOCAB_SIZE:
        # every task emits byte ids plus the separator and begin specials
        raise ConfigError(f"model.vocab_size: {model.vocab_size} is below the "
                          f"task vocabulary of {VOCAB_SIZE} ids")

    variant = raw.get("variant", "dense")
    if variant not in costs.VARIANTS:
        raise ConfigError(f"variant: unknown {variant!r}; expected one of {costs.VARIANTS}")

    altup = raw.get("altup")
    if variant in VARIANTS_WITH_BLOCKS:
        if altup is None:
            raise ConfigError(f"variant {variant!r} requires an 'altup' section")
        altup = _take_fields("altup", altup, {"k": int, "selection": str, "j_fixed": int})
        try:  # the defaults build_model applies
            AltUpConfig(k=altup.get("k", 2), d=model.d_model,
                        selection=altup.get("selection", "alternating"),
                        j_fixed=altup.get("j_fixed", 0))
        except ValueError as exc:
            raise ConfigError(f"altup: {exc}") from exc
    elif altup is not None:
        raise ConfigError(f"'altup' section is only valid for variants {VARIANTS_WITH_BLOCKS}")

    seq = raw.get("seq")
    if variant in VARIANTS_WITH_STRIDE:
        if seq is None:
            raise ConfigError(f"variant {variant!r} requires a 'seq' section")
        seq = _take_fields("seq", seq, {"stride": int, "wrap": str})
        if seq.get("stride", 4) < 1:
            raise ConfigError("seq.stride must be >= 1")
    elif seq is not None:
        raise ConfigError(f"'seq' section is only valid for variants {VARIANTS_WITH_STRIDE}")

    memory = raw.get("memory")
    if memory is not None:
        if variant != "dense":
            raise ConfigError("'memory' section is only valid for the dense variant")
        memory = _take_fields("memory", memory, {
            "n": int, "rank": int, "lookup": str, "k": int,
            "jitter_eps": float, "constant": bool})
        if memory.get("lookup") not in LOOKUPS:
            raise ConfigError(f"memory.lookup: expected one of {LOOKUPS}")
        n = memory.get("n", 0)
        if n < 1:
            raise ConfigError("memory.n must be >= 1")
        if memory["lookup"] == "token_id" and n != model.vocab_size:
            raise ConfigError(f"memory.n: the token_id lookup needs n = model.vocab_size "
                              f"({model.vocab_size}), got {n}")
        if not 1 <= memory.get("k", 1) <= n:
            raise ConfigError(f"memory.k must lie in [1, memory.n = {n}]")
        if not memory.get("constant", False) and memory.get("rank", 1) < 1:
            raise ConfigError("memory.rank must be >= 1 for matrix experts")
        if memory.get("jitter_eps", 0.0) < 0:
            raise ConfigError("memory.jitter_eps must be >= 0")

    task = TaskConfig(**_take_fields("task", raw.get("task", {}), {
        "name": str, "corpus_path": (str, type(None)), "seq_len": int,
        "n_train": int, "n_eval": int, "alphabet": int}))
    if task.name not in TASKS:
        raise ConfigError(f"task.name: unknown {task.name!r}; expected one of {TASKS}")
    if min(task.seq_len, task.n_train, task.n_eval, task.alphabet) < 1:
        raise ConfigError("task: seq_len, n_train, n_eval and alphabet must be >= 1")
    if input_length(task.name, task.seq_len) > model.max_seq_len:
        raise ConfigError(f"task.seq_len: {task.name} inputs of length "
                          f"{input_length(task.name, task.seq_len)} exceed "
                          f"model.max_seq_len {model.max_seq_len}")

    optimizer = OptimizerConfig(**_take_fields("optimizer", raw.get("optimizer", {}), {
        "learning_rate": float, "steps": int, "batch_size": int,
        "momentum": float}))
    if optimizer.steps < 0 or optimizer.batch_size < 1:
        raise ConfigError("optimizer: steps must be >= 0 and batch_size >= 1")

    seed = raw.get("seed", 0)
    if not _is_int(seed):
        raise ConfigError("seed must be an integer")
    eval_interval = raw.get("eval_interval", 100)
    if not _is_int(eval_interval) or eval_interval < 1:
        raise ConfigError("eval_interval must be a positive integer")

    return RunConfig(model=model, variant=variant, altup=altup, seq=seq,
                     memory=memory, task=task, optimizer=optimizer,
                     seed=seed, eval_interval=eval_interval)


def build_model(cfg: RunConfig) -> Model:
    kwargs = {}
    if cfg.altup:
        kwargs["altup_k"] = cfg.altup.get("k", 2)
        kwargs["altup_selection"] = cfg.altup.get("selection", "alternating")
        kwargs["altup_j_fixed"] = cfg.altup.get("j_fixed", 0)
    if cfg.seq:
        kwargs["seq_stride"] = cfg.seq.get("stride", 4)
        kwargs["seq_wrap"] = cfg.seq.get("wrap", "interior")
    if cfg.memory:
        kwargs["memory"] = dict(cfg.memory)
    return Model(cfg.model, cfg.variant, seed=cfg.seed, **kwargs)


def make_task_data(cfg: RunConfig):
    return make_task(cfg.task.name, cfg.task.seq_len, cfg.task.n_train,
                     cfg.task.n_eval, cfg.seed, corpus_path=cfg.task.corpus_path,
                     alphabet=cfg.task.alphabet)


METRIC_COLUMNS = ("step", "train_loss", "eval_loss", "eval_token_accuracy",
                  "parameter_census")


def evaluate(model: Model, inputs, targets, batch_cap: int | None = None):
    """Mean loss and next-token accuracy over an evaluation set (or its first
    ``batch_cap`` sequences), from one batched forward pass."""
    inputs = np.asarray(inputs)[:batch_cap]
    logits, out_pos = model.forward(inputs)
    mapped = np.asarray(targets)[:len(inputs)][..., out_pos]
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    loss = -np.take_along_axis(logp, mapped[..., None], axis=-1).mean()
    correct = int((logits.data.argmax(axis=-1) == mapped).sum())
    return float(loss), correct / mapped.size


def train(cfg: RunConfig, out_dir) -> dict:
    """Run the loop, writing metrics.csv, summary.json, and model.ckpt."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = make_task_data(cfg)
    model = build_model(cfg)
    params = model.parameters()
    census = model.census()

    opt = cfg.optimizer
    order_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 101]))
    jitter_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 202]))
    velocity = {id(p): np.zeros_like(p.data) for p in params} if opt.momentum else None

    n_train = len(data.train_inputs)
    perm = order_rng.permutation(n_train)
    cursor = 0

    def next_batch():
        nonlocal perm, cursor
        idx = []
        for _ in range(opt.batch_size):
            if cursor == n_train:
                perm = order_rng.permutation(n_train)
                cursor = 0
            idx.append(perm[cursor])
            cursor += 1
        idx = np.array(idx)
        return data.train_inputs[idx], data.train_targets[idx]

    rows = []

    def emit(step, train_loss):
        eval_loss, eval_acc = evaluate(model, data.eval_inputs, data.eval_targets)
        rows.append((step, train_loss, eval_loss, eval_acc, census))

    # init row: loss of the first batch, no update, batch stream untouched
    first_inputs, first_targets = data.train_inputs[perm[:opt.batch_size]], \
        data.train_targets[perm[:opt.batch_size]]
    init_loss = model.loss(first_inputs, first_targets).item()
    emit(0, init_loss)

    started = time.perf_counter()
    tokens = 0
    window = []
    for step in range(1, opt.steps + 1):
        inputs, targets = next_batch()
        model.zero_grad()
        with Graph() as graph:
            loss = model.loss(inputs, targets, training=True, rng=jitter_rng)
        value = loss.item()
        if not np.isfinite(value):
            raise DivergenceError(step, value)
        backward(graph, loss)
        for p in params:
            if p.grad is None:
                continue
            if velocity is not None:
                v = velocity[id(p)]
                v *= opt.momentum
                v += p.grad
                p.data -= opt.learning_rate * v
            else:
                p.data -= opt.learning_rate * p.grad
        window.append(value)
        tokens += inputs.shape[0] * inputs.shape[1]
        if step % cfg.eval_interval == 0 or step == opt.steps:
            emit(step, float(np.mean(window)))
            window = []
    elapsed = time.perf_counter() - started

    csv_path = out / "metrics.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(METRIC_COLUMNS) + "\n")
        for step, tl, el, acc, cen in rows:
            fh.write(f"{step},{repr(float(tl))},{repr(float(el))},{repr(float(acc))},{cen}\n")

    ckpt_path = out / "model.ckpt"
    save_model(model, ckpt_path, extra_config={"run": cfg.as_dict()})

    summary = {
        "steps": opt.steps,
        "parameter_census": census,
        "init_train_loss": rows[0][1],
        "final_train_loss": rows[-1][1],
        "final_eval_loss": rows[-1][2],
        "final_eval_token_accuracy": rows[-1][3],
        "loss_reduction": (1.0 - rows[-1][1] / rows[0][1]) if rows[0][1] else 0.0,
        "tokens_per_second": tokens / elapsed if elapsed > 0 else 0.0,
        "metrics_csv": str(csv_path),
        "checkpoint": str(ckpt_path),
        "config": cfg.as_dict(),
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return summary
