"""The run-config sections except ``model``, and the top-level keys.

Each field is declared once in :data:`SECTIONS` with its type, its default
(or none, for a required field), and the bounds or choices a value must meet
on its own; the ``config`` entry holds the top-level scalars. :data:`VARIANTS`
names the section each model variant takes. Config parsing, model
construction and the cost model all take the ``altup``, ``seq`` and ``memory``
sections through :func:`resolve`, which owns their presence and cross-field
rules, so no two of them can disagree on a default or on what is valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import MAX_ALPHABET, TASKS

SELECTION_MODES = ("same", "alternating")
WRAP_MODES = ("interior", "all")
LOOKUPS = ("softmax", "token_id", "lsh", "minhash")
REQUIRED = object()  # the "default" of a field that has none

# variant -> the section it takes (memory attaches to "dense" only)
VARIANTS = {"dense": None, "altup": "altup", "recycled_altup": "altup",
            "sum_baseline": None, "seq_altup": "seq", "stride_skip": "seq",
            "avg_pool": "seq"}


class ConfigError(ValueError):
    """Invalid or unknown run-configuration content."""


@dataclass(frozen=True)
class Field:
    type: type
    default: object = REQUIRED
    minimum: float | None = None
    maximum: float | None = None  # inclusive, like minimum
    choices: tuple | None = None


SECTIONS = {
    "altup": {"k": Field(int, 2, minimum=1),
              "selection": Field(str, "alternating", choices=SELECTION_MODES)},
    "seq": {"stride": Field(int, 4, minimum=1),
            "wrap": Field(str, "interior", choices=WRAP_MODES)},
    "memory": {"n": Field(int, minimum=1),
               "rank": Field(int, 1),  # >= 1 unless the experts are constant
               "lookup": Field(str, choices=LOOKUPS),
               "k": Field(int, 1, minimum=1),
               "jitter_eps": Field(float, 0.01, minimum=0),
               "constant": Field(bool, False)},
    "task": {"name": Field(str, "copy", choices=TASKS),
             "corpus_path": Field(str | None, None),  # required by char_lm
             "seq_len": Field(int, 16, minimum=1),
             "n_train": Field(int, 256, minimum=1),
             "n_eval": Field(int, 64, minimum=1),
             "alphabet": Field(int, 8, minimum=1, maximum=MAX_ALPHABET)},
    # the parser also requires learning_rate > 0 and momentum < 1
    "optimizer": {"learning_rate": Field(float, 0.05),
                  "steps": Field(int, 500, minimum=0),
                  "batch_size": Field(int, 4, minimum=1),
                  "momentum": Field(float, 0.0, minimum=0)},
    # numpy seeds only from non-negative integers
    "config": {"variant": Field(str, "dense", choices=tuple(VARIANTS)),
               "seed": Field(int, 0, minimum=0),
               "eval_interval": Field(int, 100, minimum=1)},
}

DEFAULTS = {name: {key: f.default for key, f in fields.items() if f.default is not REQUIRED}
            for name, fields in SECTIONS.items()}


def is_int(value) -> bool:
    # JSON true/false parse to bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def take_fields(section: str, raw: dict, allowed: dict) -> dict:
    """Type-checked copy of a config section: bool is not an int, an int is
    accepted (as a float) where a float is expected, and floats are finite."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{section}: expected an object, got {type(raw).__name__}")
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"{section}: unknown keys {sorted(unknown)}")
    out = {}
    for key, value in raw.items():
        expected = allowed[key]
        if expected is float and is_int(value):
            try:
                value = float(value)
            except OverflowError:
                raise ConfigError(f"{section}.{key}: expected a finite number, got an "
                                  f"integer too large for a float") from None
        if not isinstance(value, expected) or (isinstance(value, bool) and expected is not bool):
            raise ConfigError(f"{section}.{key}: expected {expected}, got {type(value).__name__}")
        if expected is float and not math.isfinite(value):
            raise ConfigError(f"{section}.{key}: expected a finite number, got {value}")
        out[key] = value
    return out


def complete(section: str, raw: dict) -> dict:
    """A type-checked copy of one of :data:`SECTIONS` with every missing field
    at its default. Missing required fields and values outside their bound or
    choices raise :class:`ConfigError`."""
    fields = SECTIONS[section]
    out = {**DEFAULTS[section],
           **take_fields(section, raw, {key: f.type for key, f in fields.items()})}
    for key, f in fields.items():
        if key not in out:
            raise ConfigError(f"{section}.{key} is required")
        if f.minimum is not None and out[key] < f.minimum:
            raise ConfigError(f"{section}.{key} must be >= {f.minimum}")
        if f.maximum is not None and out[key] > f.maximum:
            raise ConfigError(f"{section}.{key} must be <= {f.maximum}")
        if f.choices is not None and out[key] not in f.choices:
            raise ConfigError(f"{section}.{key}: expected one of {f.choices}, got {out[key]!r}")
    return out


def resolve(variant: str, vocab_size: int, altup: dict | None = None,
            seq: dict | None = None, memory: dict | None = None):
    """The complete ``(altup, seq, memory)`` sections of a model, each ``None``
    where the model has none. A section is present exactly when ``variant``
    takes it (``{}`` for all defaults), and ``memory`` attaches to ``dense``
    only; any invalid content raises :class:`ConfigError`."""
    if not isinstance(variant, str) or variant not in VARIANTS:
        raise ConfigError(f"variant: unknown {variant!r}; expected one of {tuple(VARIANTS)}")
    sections = {"altup": altup, "seq": seq}
    for name, raw in sections.items():
        if raw is None and name == VARIANTS[variant]:
            raise ConfigError(f"variant {variant!r} requires a {name!r} section")
        if raw is not None and name != VARIANTS[variant]:
            takers = tuple(v for v, taken in VARIANTS.items() if taken == name)
            raise ConfigError(f"{name!r} section is only valid for variants {takers}")
        sections[name] = None if raw is None else complete(name, raw)
    if memory is not None:
        if variant != "dense":
            raise ConfigError("'memory' section is only valid for the dense variant")
        memory = complete("memory", memory)
        n = memory["n"]
        if memory["lookup"] == "token_id" and n != vocab_size:
            raise ConfigError(f"memory.n: the token_id lookup needs n = model.vocab_size "
                              f"({vocab_size}), got {n}")
        if memory["k"] > n:
            raise ConfigError(f"memory.k must lie in [1, memory.n = {n}]")
        if memory["k"] != 1 and memory["lookup"] != "softmax":
            raise ConfigError(f"memory.k: the {memory['lookup']} lookup selects one expert, "
                              f"so k must be 1, got {memory['k']}")
        if not memory["constant"] and memory["rank"] < 1:
            raise ConfigError("memory.rank must be >= 1 for matrix experts")
    return sections["altup"], sections["seq"], memory
