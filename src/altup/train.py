"""Run configuration and the deterministic training loop.

Everything downstream of (config, seed) is pinned: initialization, batch
order, SGD updates, metric rows. The metrics CSV contains only deterministic
columns so identical runs produce identical bytes; wall-clock throughput, the
process's peak resident memory and the fingerprint of the arithmetic the run
used (``checks.arith_fingerprint``) go to the JSON summary instead.
"""

from __future__ import annotations

import json
import resource
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import costs
from .checks import arith_fingerprint
from .checkpoint import save_model
from .data import VOCAB_SIZE, TaskData, input_length, make_task
from .models import Model
from .schema import SECTIONS, ConfigError, complete, resolve, take_fields
from .tensor import Graph, backward
from .transformer import ModelConfig, cross_entropy


class DivergenceError(RuntimeError):
    def __init__(self, step, value):
        self.step = step
        super().__init__(f"non-finite loss {value} at step {step}")


# float64 parameter bytes a config may build, by the closed form: a size past
# this is a config error at parse time, not a failure in numpy's allocator
MAX_PARAM_BYTES = 1 << 30
# cost-model activation bytes of the largest batch a run puts through one
# forward pass: a training batch, or the whole eval set, which `evaluate` runs
# at once
MAX_ACTIVATION_BYTES = 1 << 30
# int64 input and target bytes of the task's train and eval sets, which
# `make_task` builds at once
MAX_TASK_BYTES = 1 << 30


@dataclass
class RunConfig:
    model: ModelConfig
    variant: str
    altup: dict | None      # complete sections of schema.SECTIONS,
    seq: dict | None        # or None where the config has none
    memory: dict | None
    task: dict
    optimizer: dict
    seed: int
    eval_interval: int

    def as_dict(self):
        return {key: value for key, value in asdict(self).items() if value is not None}


SECTION_KEYS = {"model", *SECTIONS} - {"config"}


def config_from_dict(raw: dict) -> RunConfig:
    """Strict parse: unknown keys anywhere are rejected, and variant-specific
    sections must be present exactly when the variant needs them. Single-field
    types, bounds and defaults come from ``schema.SECTIONS``; the rules here
    involve more than one field."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    top = complete("config", {key: value for key, value in raw.items()
                              if key not in SECTION_KEYS})
    if "model" not in raw:
        raise ConfigError("config: missing required 'model' section")

    model_fields = take_fields("model", raw["model"], get_type_hints(ModelConfig))
    try:
        model = ModelConfig(**model_fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model: {exc}") from exc
    if model.vocab_size < VOCAB_SIZE:
        # the task vocabulary: byte ids, the separator and one reserved id
        raise ConfigError(f"model.vocab_size: {model.vocab_size} is below the "
                          f"task vocabulary of {VOCAB_SIZE} ids")

    altup, seq, memory = resolve(top["variant"], model.vocab_size, raw.get("altup"),
                                 raw.get("seq"), raw.get("memory"))

    task = complete("task", raw.get("task", {}))
    if task["name"] == "char_lm" and task["corpus_path"] is None:
        raise ConfigError("task.corpus_path is required for the char_lm task")
    length = input_length(task["name"], task["seq_len"])
    if length > model.max_seq_len:
        raise ConfigError(f"task.seq_len: {task['name']} inputs of length {length} "
                          f"exceed model.max_seq_len {model.max_seq_len}")
    task_bytes = 16 * (task["n_train"] + task["n_eval"]) * length
    if task_bytes > MAX_TASK_BYTES:
        raise ConfigError(f"task.n_train, task.n_eval: {task_bytes} int64 input and target "
                          f"bytes exceed the cap of {MAX_TASK_BYTES >> 30} GiB")

    optimizer = complete("optimizer", raw.get("optimizer", {}))
    if optimizer["learning_rate"] <= 0 or optimizer["momentum"] >= 1:
        raise ConfigError("optimizer: learning_rate must be > 0 and momentum < 1")

    cfg = RunConfig(model=model, altup=altup, seq=seq, memory=memory,
                    task=task, optimizer=optimizer, **top)
    report = cost_report(cfg)
    param_bytes = 8 * (report.embedding_params + report.non_embedding_params)
    if param_bytes > MAX_PARAM_BYTES:
        raise ConfigError(f"model: {param_bytes} float64 parameter bytes exceed the "
                          f"cap of {MAX_PARAM_BYTES >> 30} GiB")
    act_bytes = report.activation_memory_bytes * max(optimizer["batch_size"], task["n_eval"])
    if act_bytes > MAX_ACTIVATION_BYTES:
        raise ConfigError(f"optimizer.batch_size, task.n_eval: {act_bytes} activation bytes "
                          f"exceed the cap of {MAX_ACTIVATION_BYTES >> 30} GiB")
    return cfg


def cost_report(cfg: RunConfig) -> costs.CostReport:
    """The closed form for the model ``build_model(cfg)`` constructs."""
    return costs.count_params(cfg.model, cfg.variant, cfg.altup, cfg.seq, cfg.memory)


def build_model(cfg: RunConfig) -> Model:
    return Model(cfg.model, cfg.variant, cfg.altup, cfg.seq, cfg.memory, seed=cfg.seed)


def make_task_data(cfg: RunConfig):
    """The task's train and eval sets. A corpus that cannot be read, is not
    UTF-8 or is too short for ``task.seq_len`` is a config error."""
    try:
        return make_task(seed=cfg.seed, **cfg.task)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"task.corpus_path: {exc}") from exc


METRIC_COLUMNS = ("step", "train_loss", "eval_loss", "eval_token_accuracy",
                  "parameter_census")


def evaluate(model: Model, inputs, targets, batch_cap: int | None = None):
    """Mean loss and next-token accuracy over an evaluation set (or its first
    ``batch_cap`` sequences), from one batched forward pass."""
    inputs = np.asarray(inputs)[:batch_cap]
    logits, out_pos = model.forward(inputs)
    mapped = np.asarray(targets)[:len(inputs)][..., out_pos]
    correct = int((logits.data.argmax(axis=-1) == mapped).sum())
    return cross_entropy(logits, mapped).item(), correct / mapped.size


def _batches(rng, data: TaskData, batch: int):
    """Endless (inputs, targets) training batches: permutations of the
    training set drawn from ``rng`` one after another, cut into ``batch``-long
    slices, so a batch that runs past the end of one permutation continues
    in the next."""
    n_train = len(data.train_inputs)
    perm, cursor = rng.permutation(n_train), 0
    while True:
        parts, need = [], batch
        while need:
            if cursor == n_train:
                perm, cursor = rng.permutation(n_train), 0
            parts.append(perm[cursor:cursor + need])
            cursor += len(parts[-1])
            need -= len(parts[-1])
        idx = np.concatenate(parts)
        yield data.train_inputs[idx], data.train_targets[idx]


def train(cfg: RunConfig, out_dir) -> dict:
    """Run the loop, writing metrics.csv, summary.json, and model.ckpt."""
    data = make_task_data(cfg)
    model = build_model(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = model.parameters()
    census = model.census()

    opt = cfg.optimizer
    order_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 101]))
    jitter_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 202]))
    velocity = {id(p): np.zeros_like(p.data) for p in params} if opt["momentum"] else None

    batches = _batches(order_rng, data, opt["batch_size"])

    rows = []

    def emit(step, train_loss):
        eval_loss, eval_acc = evaluate(model, data.eval_inputs, data.eval_targets)
        rows.append((step, train_loss, eval_loss, eval_acc, census))

    # init row: loss of the first batch, which step 1 then trains on
    inputs, targets = next(batches)
    emit(0, model.loss(inputs, targets).item())

    started = time.perf_counter()
    tokens = 0
    window = []
    for step in range(1, opt["steps"] + 1):
        if step > 1:
            inputs, targets = next(batches)
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
                v *= opt["momentum"]
                v += p.grad
                p.data -= opt["learning_rate"] * v
            else:
                p.data -= opt["learning_rate"] * p.grad
        window.append(value)
        tokens += inputs.shape[0] * inputs.shape[1]
        if step % cfg.eval_interval == 0 or step == opt["steps"]:
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
        "steps": opt["steps"],
        "parameter_census": census,
        "init_train_loss": rows[0][1],
        "final_train_loss": rows[-1][1],
        "final_eval_loss": rows[-1][2],
        "final_eval_token_accuracy": rows[-1][3],
        "loss_reduction": (1.0 - rows[-1][1] / rows[0][1]) if rows[0][1] else 0.0,
        "tokens_per_second": tokens / elapsed if elapsed > 0 else 0.0,
        # the whole process's peak so far, in MiB (ru_maxrss is KiB on Linux)
        "process_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "arith_fingerprint": arith_fingerprint(),
        "metrics_csv": str(csv_path),
        "checkpoint": str(ckpt_path),
        "config": cfg.as_dict(),
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return summary
