"""Corpus ingestion and deterministic synthetic tasks.

Byte-level language modeling reads a UTF-8 text file into byte ids (0..255,
plus separator/begin specials). The copy and reverse tasks generate their
sequences procedurally from the seed, so a (config, seed) pair pins the
dataset bytes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SEP_ID = 256
BOS_ID = 257
VOCAB_SIZE = 258
# copy/reverse draw their symbols from ids [ECHO_BASE, ECHO_BASE + alphabet),
# which must stay below the separator
ECHO_BASE = 97
MAX_ALPHABET = SEP_ID - ECHO_BASE

TASKS = ("char_lm", "copy", "reverse")


def load_corpus(path) -> np.ndarray:
    """UTF-8 text file -> byte ids. Missing, empty, or non-UTF-8 input errors."""
    data = Path(path).read_bytes()
    if not data:
        raise ValueError(f"load_corpus: {path} is empty")
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"load_corpus: {path} is not valid UTF-8: {exc}") from exc
    return np.frombuffer(data, dtype=np.uint8).astype(np.int64)


@dataclass
class TaskData:
    name: str
    train_inputs: np.ndarray   # (n_train, t)
    train_targets: np.ndarray
    eval_inputs: np.ndarray    # (n_eval, t)
    eval_targets: np.ndarray

    @property
    def seq_len(self) -> int:
        return self.train_inputs.shape[1]


def _window_examples(corpus: np.ndarray, seq_len: int, count: int, rng) -> tuple:
    if len(corpus) < seq_len + 1:
        raise ValueError(f"corpus too short: {len(corpus)} bytes < seq_len+1 = {seq_len + 1}")
    starts = rng.integers(0, len(corpus) - seq_len, size=count)
    inputs = np.stack([corpus[s:s + seq_len] for s in starts])
    targets = np.stack([corpus[s + 1:s + seq_len + 1] for s in starts])
    return inputs, targets


def char_lm_task(corpus: np.ndarray, seq_len: int, n_train: int, n_eval: int, seed: int) -> TaskData:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    tr_in, tr_tg = _window_examples(corpus, seq_len, n_train, rng)
    ev_in, ev_tg = _window_examples(corpus, seq_len, n_eval, rng)
    return TaskData("char_lm", tr_in, tr_tg, ev_in, ev_tg)


def _echo_source_len(seq_len: int) -> int:
    return max(1, (seq_len - 1) // 2)


def input_length(name: str, seq_len: int) -> int:
    """Length of the input sequences ``make_task`` builds for a task: char_lm
    windows are seq_len long, while a copy/reverse input is the source, the
    separator and the echo less its last token."""
    return seq_len if name == "char_lm" else 2 * _echo_source_len(seq_len)


def _echo_sequences(seq_len: int, count: int, rng, alphabet: int, reverse: bool) -> tuple:
    # sequence = src, SEP, src (or reversed src); inputs/targets are the
    # next-token shift of it
    m = _echo_source_len(seq_len)
    symbols = rng.integers(ECHO_BASE, ECHO_BASE + alphabet, size=(count, m))
    second = symbols[:, ::-1] if reverse else symbols
    sep = np.full((count, 1), SEP_ID, dtype=np.int64)
    full = np.concatenate([symbols, sep, second], axis=1)
    return full[:, :-1], full[:, 1:]


def echo_task(seq_len: int, n_train: int, n_eval: int, seed: int,
              alphabet: int = 8, reverse: bool = False) -> TaskData:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2 if reverse else 3]))
    tr_in, tr_tg = _echo_sequences(seq_len, n_train, rng, alphabet, reverse)
    ev_in, ev_tg = _echo_sequences(seq_len, n_eval, rng, alphabet, reverse)
    return TaskData("reverse" if reverse else "copy", tr_in, tr_tg, ev_in, ev_tg)


def make_task(name: str, seq_len: int, n_train: int, n_eval: int, seed: int,
              corpus_path=None, alphabet: int = 8) -> TaskData:
    if name == "char_lm":
        if corpus_path is None:
            raise ValueError("char_lm task requires a corpus path")
        return char_lm_task(load_corpus(corpus_path), seq_len, n_train, n_eval, seed)
    if name == "copy":
        return echo_task(seq_len, n_train, n_eval, seed, alphabet, reverse=False)
    if name == "reverse":
        return echo_task(seq_len, n_train, n_eval, seed, alphabet, reverse=True)
    raise ValueError(f"unknown task {name!r}; expected one of {TASKS}")


_LEXICON = ["mora", "tel", "savi", "dune", "kest", "lor", "pine", "vasa",
            "irn", "gale", "moth", "rill"]


def make_demo_corpus(n_chars: int, seed: int = 0) -> str:
    """Deterministic pseudo-text for byte-level LM demos and smoke tests."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    parts = []
    total = 0
    while total < n_chars:
        words = [_LEXICON[i] for i in rng.integers(0, len(_LEXICON), size=rng.integers(3, 8))]
        sentence = " ".join(words) + ". "
        parts.append(sentence)
        total += len(sentence)
    return "".join(parts)[:n_chars]
