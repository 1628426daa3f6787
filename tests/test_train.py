"""Config validation, deterministic training, checkpoints, CLI plumbing."""

import hashlib
import io
import json
import struct
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altup import checkpoint as ckpt
from altup import cli, collisions, costs, models, schema, transformer as tr
from altup import train as train_module
from altup.data import TASKS, input_length, make_demo_corpus, make_task
from altup.train import (ConfigError, DivergenceError, build_model,
                         config_from_dict, train)


def _raw(variant="dense", **over):
    raw = {
        "model": {"d_model": 16, "n_layers": 2, "n_heads": 2, "ffn_hidden": 32,
                  "vocab_size": 258, "max_seq_len": 16},
        "variant": variant,
        "task": {"name": "copy", "seq_len": 9, "n_train": 32, "n_eval": 8},
        "optimizer": {"learning_rate": 0.05, "steps": 20, "batch_size": 2},
        "seed": 3,
        "eval_interval": 10,
    }
    raw.update(over)
    return raw


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict(_raw(extra_section={}))
    bad = _raw()
    bad["model"]["width"] = 4
    with pytest.raises(ConfigError):
        config_from_dict(bad)
    bad2 = _raw()
    bad2["optimizer"]["warmup"] = 10
    with pytest.raises(ConfigError):
        config_from_dict(bad2)


def test_config_variant_subsections_exactly_when_required():
    with pytest.raises(ConfigError):
        config_from_dict(_raw(variant="altup"))  # missing altup section
    with pytest.raises(ConfigError):
        config_from_dict(_raw(variant="dense", altup={"k": 2}))  # spurious
    with pytest.raises(ConfigError):
        config_from_dict(_raw(variant="seq_altup"))  # missing seq section
    cfg = config_from_dict(_raw(variant="altup", altup={"k": 2}))
    assert cfg.altup["k"] == 2
    with pytest.raises(ConfigError):
        config_from_dict(_raw(variant="altup", altup={"k": 2, "mode": "x"}))


def test_config_memory_only_for_dense():
    cfg = config_from_dict(_raw(memory={"n": 4, "rank": 1, "lookup": "lsh"}))
    assert cfg.memory["n"] == 4
    with pytest.raises(ConfigError):
        config_from_dict(_raw(variant="altup", altup={"k": 2},
                              memory={"n": 4, "rank": 1, "lookup": "lsh"}))


@pytest.mark.parametrize("section,key,value", [
    ("altup", "k", True), ("model", "d_model", True), ("optimizer", "steps", False),
    ("memory", "constant", 1), ("optimizer", "learning_rate", True),
])
def test_config_rejects_bool_for_numbers_and_numbers_for_bool(section, key, value):
    raw = _raw(variant="altup", altup={"k": 2}) if section == "altup" else _raw()
    if section == "memory":
        raw["memory"] = {"n": 4, "rank": 1, "lookup": "lsh"}
    raw[section][key] = value
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        config_from_dict(raw)


@pytest.mark.parametrize("key", ["seed", "eval_interval"])
def test_config_rejects_bool_seed_and_interval(key):
    with pytest.raises(ConfigError):
        config_from_dict(_raw(**{key: True}))


def test_config_accepts_int_for_float_fields():
    cfg = config_from_dict(_raw(memory={"n": 4, "rank": 1, "lookup": "softmax",
                                        "jitter_eps": 0},
                                optimizer={"learning_rate": 1, "steps": 2,
                                           "batch_size": 2, "momentum": 0}))
    assert cfg.memory["jitter_eps"] == 0.0 and isinstance(cfg.memory["jitter_eps"], float)
    assert isinstance(cfg.optimizer["learning_rate"], float)
    assert isinstance(cfg.optimizer["momentum"], float)


def test_config_rejects_vocab_below_task_ids():
    raw = _raw()
    raw["model"]["vocab_size"] = 16
    with pytest.raises(ConfigError, match="vocab_size"):
        config_from_dict(raw)
    raw["model"]["vocab_size"] = 257
    with pytest.raises(ConfigError, match="vocab_size"):
        config_from_dict(raw)
    raw["model"]["vocab_size"] = 300
    assert config_from_dict(raw).model.vocab_size == 300


def test_zero_steps_emits_init_metrics_only(tmp_path):
    cfg = config_from_dict(_raw(optimizer={"steps": 0, "batch_size": 2,
                                           "learning_rate": 0.05}))
    before = build_model(cfg)
    summary = train(cfg, tmp_path / "run")
    lines = (tmp_path / "run" / "metrics.csv").read_text().strip().split("\n")
    assert len(lines) == 2 and lines[1].startswith("0,")
    # checkpoint equals the freshly initialized model
    after = build_model(cfg)
    ckpt.load_model(after, summary["checkpoint"])
    for (_, p0), (_, p1) in zip(before.named_parameters(), after.named_parameters()):
        assert np.array_equal(p0.data, p1.data)


def test_training_is_byte_deterministic(tmp_path):
    cfg = config_from_dict(_raw())
    train(cfg, tmp_path / "a")
    train(cfg, tmp_path / "b")
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a == b
    ca = (tmp_path / "a" / "model.ckpt").read_bytes()
    cb = (tmp_path / "b" / "model.ckpt").read_bytes()
    assert ca == cb


# sha256 of metrics.csv and repr of the final train loss after 4 steps of
# _raw() at seed 5. A tape change that keeps the arithmetic keeps these bytes.
# Routing every memory position at once draws the jitter in another order, so
# it will change the four memory entries on purpose. The digests hold for the
# numpy/OpenBLAS build the suite runs on; another BLAS may sum in another order.
BITWISE_RUNS = {
    "dense": ({}, "342fbb7bc29528ee856f36419e2d57f8135ff2bde6e6a5d8024885b891e35e62",
              "5.5002480122472726"),
    "altup": ({"variant": "altup", "altup": {"k": 2}},
              "b85a9bc30f476d23c16ff7be86b480442b984d17f43478e3fcc45fbde9ea5fdd",
              "5.7532413372320335"),
    "seq_altup": ({"variant": "seq_altup", "seq": {"stride": 4, "wrap": "all"}},
                  "bd398d885c3f1f9f3c75104b0c3ce6a240b58272943698a3b3652ed4f9c426ed",
                  "6.8111646453613375"),
    "softmax": ({"memory": {"n": 16, "rank": 2, "lookup": "softmax", "k": 2}},
                "baa327a8e7348a80665730220e515ed1c536c24065dcdf467ff82babb986d639",
                "5.5115916051172755"),
    "token_id": ({"memory": {"n": 258, "rank": 2, "lookup": "token_id"}},
                 "951a16fcedadfff02684a5779810d660214950385d92171cfbb4c64624d445e2",
                 "5.557994704836965"),
    "lsh": ({"memory": {"n": 16, "rank": 2, "lookup": "lsh"}},
            "3c7d7720ccb693d7fcb63025f2a976bc8d146b80bf059c460df55a904bf4eb7e",
            "6.201462075532593"),
    "minhash": ({"memory": {"n": 16, "rank": 2, "lookup": "minhash"}},
                "091d1ec65e3edf168bfc273eaa2dbccaa473278bb05374fdbfeaf8c900e5ee6a",
                "5.698188634996607"),
}


@pytest.mark.parametrize("name", BITWISE_RUNS)
def test_metrics_bytes_are_pinned(name, tmp_path):
    over, digest, final_loss = BITWISE_RUNS[name]
    raw = _raw(optimizer={"learning_rate": 0.05, "steps": 4, "batch_size": 2},
               seed=5, eval_interval=2, **over)
    summary = train(config_from_dict(raw), tmp_path)
    assert hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest() == digest
    assert repr(summary["final_train_loss"]) == final_loss


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_step(tmp_path):
    cfg = config_from_dict(_raw(optimizer={"learning_rate": 50.0, "steps": 50,
                                           "batch_size": 2}))
    with pytest.raises(DivergenceError) as ei:
        train(cfg, tmp_path / "run")
    assert ei.value.step >= 1


SMOKE_VARIANTS = [
    ("dense", {}),
    ("altup", {"altup": {"k": 2}}),
    ("recycled_altup", {"altup": {"k": 2}}),
    ("sum_baseline", {}),
    ("seq_altup", {"seq": {"stride": 4}}),
    ("stride_skip", {"seq": {"stride": 4}}),
    ("avg_pool", {"seq": {"stride": 4}}),
]


@pytest.mark.parametrize("variant,extra", SMOKE_VARIANTS)
def test_every_variant_trains_on_reverse_task(variant, extra, tmp_path):
    # 100-step no-error smoke at d=32 on the remaining task
    raw = {
        "model": {"d_model": 32, "n_layers": 3, "n_heads": 2, "ffn_hidden": 64,
                  "vocab_size": 258, "max_seq_len": 20},
        "variant": variant,
        "task": {"name": "reverse", "seq_len": 16, "n_train": 64, "n_eval": 8},
        "optimizer": {"learning_rate": 0.05, "steps": 100, "batch_size": 2},
        "seed": 9, "eval_interval": 50,
    }
    raw.update(extra)
    summary = train(config_from_dict(raw), tmp_path / variant)
    assert np.isfinite(summary["final_train_loss"])


def test_momentum_path_trains(tmp_path):
    cfg = config_from_dict(_raw(optimizer={"learning_rate": 0.02, "steps": 60,
                                           "batch_size": 2, "momentum": 0.9}))
    summary = train(cfg, tmp_path / "run")
    assert summary["final_train_loss"] < summary["init_train_loss"]


def test_loss_reduces_on_copy_task(tmp_path):
    cfg = config_from_dict(_raw(optimizer={"learning_rate": 0.05, "steps": 150,
                                           "batch_size": 2}))
    summary = train(cfg, tmp_path / "run")
    assert summary["final_train_loss"] < summary["init_train_loss"]
    assert summary["parameter_census"] == build_model(cfg).census()


def test_metrics_census_matches_cost_model(tmp_path):
    cfg = config_from_dict(_raw(variant="recycled_altup", altup={"k": 2},
                                optimizer={"steps": 2, "batch_size": 2,
                                           "learning_rate": 0.05}))
    summary = train(cfg, tmp_path / "run")
    rep = costs.count_params(cfg.model, cfg.variant, altup=cfg.altup)
    assert summary["parameter_census"] == rep.embedding_params + rep.non_embedding_params


def test_checkpoint_round_trip_bitwise(tmp_path):
    cfg = tr.ModelConfig(8, 2, 2, 16, 11, 8)
    model = models.Model(cfg, "altup", altup={"k": 2}, seed=4)
    path = tmp_path / "m.ckpt"
    ckpt.save_model(model, path)
    clone = models.Model(cfg, "altup", altup={"k": 2}, seed=99)
    ckpt.load_model(clone, path)
    for (na, pa), (nb, pb) in zip(model.named_parameters(), clone.named_parameters()):
        assert na == nb and np.array_equal(pa.data, pb.data)


def test_checkpoint_truncation_error(tmp_path):
    cfg = tr.ModelConfig(8, 1, 2, 16, 11, 8)
    model = models.Model(cfg, "dense", seed=4)
    path = tmp_path / "m.ckpt"
    ckpt.save_model(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ckpt.CheckpointTruncatedError):
        ckpt.load_checkpoint(path)
    path.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(ckpt.CheckpointTruncatedError):
        ckpt.load_checkpoint(path)


def test_checkpoint_version_and_magic_errors(tmp_path):
    cfg = tr.ModelConfig(8, 1, 2, 16, 11, 8)
    model = models.Model(cfg, "dense", seed=4)
    path = tmp_path / "m.ckpt"
    ckpt.save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[4] = 99  # bump version field
    path.write_bytes(bytes(blob))
    with pytest.raises(ckpt.CheckpointVersionError):
        ckpt.load_checkpoint(path)
    path.write_bytes(b"JUNK" + bytes(blob[4:]))
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load_checkpoint(path)


def test_checkpoint_version_2_is_rejected(tmp_path):
    # version 2 stored each expert's v as (d, rank); with d == rank it would
    # otherwise load transposed without a shape error
    cfg = tr.ModelConfig(4, 1, 1, 8, 11, 8)
    model = models.Model(cfg, "dense", seed=4, memory={"n": 3, "rank": 4, "lookup": "lsh"})
    path = tmp_path / "m.ckpt"
    ckpt.save_model(model, path)
    blob = bytearray(path.read_bytes())
    assert struct.unpack("<I", blob[4:8])[0] == ckpt.FORMAT_VERSION == 3
    blob[4:8] = struct.pack("<I", 2)
    path.write_bytes(bytes(blob))
    with pytest.raises(ckpt.CheckpointVersionError):
        ckpt.load_model(model, path)


def test_checkpoint_shape_mismatch_names_tensor(tmp_path):
    cfg = tr.ModelConfig(8, 1, 2, 16, 11, 8)
    model = models.Model(cfg, "altup", altup={"k": 2}, seed=4)
    path = tmp_path / "m.ckpt"
    ckpt.save_model(model, path)
    other = models.Model(cfg, "altup", altup={"k": 4}, seed=4)  # mismatched widths
    with pytest.raises(ckpt.CheckpointShapeError) as ei:
        ckpt.load_model(other, path)
    assert "embed.table" in str(ei.value) or "altup" in str(ei.value)


@pytest.mark.parametrize("lookup", ["lsh", "minhash"])
def test_checkpoint_carries_routing_state(tmp_path, lookup):
    # lsh hyperplanes and min-hash seeds are drawn from the model seed, not
    # trained: a model of another seed routes like the saved one once loaded
    cfg = tr.ModelConfig(8, 2, 2, 16, 11, 8)
    memory = {"n": 5, "rank": 2, "lookup": lookup}
    model = models.Model(cfg, "dense", seed=4, memory=memory)
    path = tmp_path / "m.ckpt"
    ckpt.save_model(model, path)
    clone = models.Model(cfg, "dense", seed=5, memory=memory)
    ckpt.load_model(clone, path)
    assert clone.perm_seeds() == model.perm_seeds()
    for (_, a), (_, b) in zip(model.named_buffers(), clone.named_buffers()):
        assert np.array_equal(a, b)
    ids = np.random.default_rng(6).integers(0, 11, size=(16, 8))
    assert np.array_equal(model.forward(ids)[0].data, clone.forward(ids)[0].data)


def test_checkpoint_failed_load_changes_nothing(tmp_path):
    cfg = tr.ModelConfig(8, 2, 2, 16, 11, 8)
    memory = {"n": 5, "rank": 2, "lookup": "lsh"}
    model = models.Model(cfg, "dense", seed=4, memory=memory)

    def arrays(m):
        return [(n, p.data) for n, p in m.named_parameters()] + m.named_buffers()

    entries = arrays(model)
    # only the last tensor is mis-shaped, so every other entry would fit
    name, last = entries[-1]
    path = tmp_path / "bad.ckpt"
    ckpt.save_checkpoint(path, entries[:-1] + [(name, last[:-1])],
                         integers=model.perm_seeds())
    other = models.Model(cfg, "dense", seed=5, memory=memory)
    before = [a.copy() for _, a in arrays(other)]
    with pytest.raises(ckpt.CheckpointShapeError) as ei:
        ckpt.load_model(other, path)
    assert name in str(ei.value)
    assert all(np.array_equal(a, b) for a, (_, b) in zip(before, arrays(other)))


@pytest.mark.parametrize("header", [
    b"\xff{}", b"{", b"[1, 2]", b"{}", b'{"tensors": {}}', b'{"tensors": [5]}',
    b'{"tensors": [{"shape": [1]}]}', b'{"tensors": [{"name": 1, "shape": [1]}]}',
    b'{"tensors": [{"name": "a", "shape": 1}]}', b'{"tensors": [{"name": "a", "shape": [-1]}]}',
    b'{"tensors": [{"name": "a", "shape": [1.0]}]}',
    b'{"tensors": [{"name": "a", "shape": [true]}]}', b'{"tensors": [], "integers": [1]}',
], ids=["not_utf8", "not_json", "list", "no_tensors", "tensors_object", "entry_number",
        "no_name", "name_number", "shape_number", "shape_negative", "shape_float",
        "shape_bool", "integers_list"])
def test_checkpoint_rejects_malformed_header(tmp_path, capsys, header):
    path = tmp_path / "m.ckpt"
    path.write_bytes(ckpt.MAGIC + struct.pack("<IQ", ckpt.FORMAT_VERSION, len(header))
                     + header + b"\x00" * 8)
    with pytest.raises(ckpt.CheckpointError, match=r"header (is not|'tensors'|'integers')"):
        ckpt.load_checkpoint(path)
    cfg_path = _write_config(tmp_path, _raw())
    assert cli.main(["eval", "--config", cfg_path, "--checkpoint", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and "Traceback" not in err


def _write_config(tmp_path, raw):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    return str(p)


def test_cli_train_and_eval(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, _raw())
    rc = cli.main(["train", "--config", cfg_path, "--seed", "3",
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "metrics.csv").exists()
    rc = cli.main(["eval", "--config", cfg_path,
                   "--checkpoint", str(tmp_path / "out" / "model.ckpt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "eval_loss" in out


def test_cli_set_overrides(tmp_path):
    cfg_path = _write_config(tmp_path, _raw())
    rc = cli.main(["train", "--config", cfg_path, "--seed", "3",
                   "--set", "optimizer.steps=5",
                   "--set", "variant=\"sum_baseline\"",
                   "--out", str(tmp_path / "o2")])
    assert rc == 0
    lines = (tmp_path / "o2" / "metrics.csv").read_text().strip().split("\n")
    assert lines[-1].startswith("5,")


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = _write_config(tmp_path, _raw(bogus=1))
    assert cli.main(["train", "--config", cfg_path, "--seed", "1",
                     "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("override", [
    ['variant="altup"', 'altup={"k":true}'],
    ["seed=true"],
    ["model.vocab_size=16"],
    ["optimizer.batch_size=true"],
    ["task=5"],
    ['memory={"n":0,"rank":1,"lookup":"lsh"}'],
    ["task.n_eval=0"],
    ["task.n_train=0"],
    ["task.alphabet=0"],
    ['memory={"n":8,"rank":1,"lookup":"softmax","jitter_eps":-1}'],
    ['memory={"n":8,"rank":1,"lookup":"softmax","k":0}'],
    ['memory={"n":8,"rank":1,"lookup":"softmax","k":9}'],
    ['memory={"n":8,"rank":0,"lookup":"softmax"}'],
    ['memory={"n":8,"rank":1,"lookup":"token_id"}'],
    ['variant="altup"', 'altup={"k":0}'],
    ['variant="altup"', 'altup={"k":2,"selection":"bogus"}'],
    ['variant="seq_altup"', 'seq={"stride":0}'],
    ["task.seq_len=19"],
    ['task={"name":"char_lm","seq_len":17,"corpus_path":"corpus.txt"}'],
    ['variant="seq_altup"', 'seq={"stride":2,"wrap":"bogus"}'],
    ['task={"name":"char_lm","seq_len":8}'],
    ["task.alphabet=160"],
    ["model.d_model=1000000000000"],
    ['memory={"n":100000000,"rank":1,"lookup":"lsh"}'],
    ['memory={"n":8,"rank":1,"lookup":"softmax","jitter_eps":Infinity}'],
    ['memory={"n":8,"rank":1,"lookup":"softmax","jitter_eps":NaN}'],
    ["optimizer.learning_rate=NaN"],
    ["optimizer.learning_rate=-1"],
    ["optimizer.learning_rate=0"],
    ["optimizer.momentum=-3"],
    ["optimizer.momentum=1.5"],
    ["task.n_eval=1000000"],
    ["optimizer.batch_size=1000000"],
])
def test_cli_bad_config_values_exit_1(tmp_path, capsys, override):
    cfg_path = _write_config(tmp_path, _raw())
    argv = ["cost", "--config", cfg_path]
    for item in override:
        argv += ["--set", item]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    if override != ["seed=true"]:
        # train overrides the seed with --seed, so it sees every other case
        assert cli.main(["train", "--seed", "1", "--out", str(tmp_path / "x")]
                        + argv[1:]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("root", [[1, 2], "x", 3, None], ids=["list", "string", "number", "null"])
@pytest.mark.parametrize("extra", [["--set", "model.d_model=4"], ["--seed", "3"]],
                         ids=["set", "seed"])
def test_cli_non_object_config_root_exits_1(tmp_path, capsys, root, extra):
    cfg_path = _write_config(tmp_path, root)
    assert cli.main(["cost", "--config", cfg_path] + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    seed = [] if "--seed" in extra else ["--seed", "1"]
    assert cli.main(["train", "--config", cfg_path, "--out", str(tmp_path / "x")]
                    + extra + seed) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_cli_negative_seed_is_a_config_error(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, _raw())
    for argv in (["census", "--config", cfg_path, "--set", "seed=-1"],
                 ["train", "--config", cfg_path, "--seed", "-1", "--out", str(tmp_path / "x")]):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "config error: config.seed must be >= 0\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("batch_size,n_eval", [(2, 8), (8, 2)])
def test_activation_cap_takes_the_larger_of_batch_and_eval_set(monkeypatch, batch_size, n_eval):
    raw = _raw(task={"name": "copy", "seq_len": 9, "n_train": 32, "n_eval": n_eval},
               optimizer={"learning_rate": 0.05, "steps": 2, "batch_size": batch_size})
    at_cap = 8 * train_module.cost_report(config_from_dict(raw)).activation_memory_bytes
    monkeypatch.setattr(train_module, "MAX_ACTIVATION_BYTES", at_cap)
    config_from_dict(raw)
    monkeypatch.setattr(train_module, "MAX_ACTIVATION_BYTES", at_cap - 1)
    with pytest.raises(ConfigError, match="activation bytes"):
        config_from_dict(raw)


@pytest.mark.parametrize("corpus", [None, b"abc"], ids=["missing", "too_short"])
def test_cli_train_setup_failure_leaves_no_out(tmp_path, capsys, corpus):
    path = tmp_path / "corpus.txt"
    if corpus is not None:
        path.write_bytes(corpus)
    raw = _raw(task={"name": "char_lm", "seq_len": 8, "corpus_path": str(path)})
    assert cli.main(["train", "--config", _write_config(tmp_path, raw), "--seed", "1",
                     "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_cli_non_object_model_section_is_named_once(capsys):
    assert cli.main(["cost", "--set", "model=[1]"]) == 1
    assert capsys.readouterr().err == "config error: model: expected an object, got list\n"


def test_config_input_length_bound_matches_task_data(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("abcdefgh" * 20)
    for name in ("char_lm", "copy", "reverse"):
        for seq_len in (1, 2, 9, 16, 17):
            task = make_task(name, seq_len, 2, 2, seed=0, corpus_path=corpus)
            assert task.seq_len == input_length(name, seq_len)
    # copy at seq_len 17 builds inputs of 16, which a max_seq_len of 16 holds
    config_from_dict(_raw(task={"name": "copy", "seq_len": 17, "n_train": 4, "n_eval": 2}))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_divergence_exit_code(tmp_path):
    raw = _raw(optimizer={"learning_rate": 50.0, "steps": 50, "batch_size": 2})
    cfg_path = _write_config(tmp_path, raw)
    assert cli.main(["train", "--config", cfg_path, "--seed", "1",
                     "--out", str(tmp_path / "x")]) == 2


def test_cli_cost_and_census(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, _raw(variant="altup", altup={"k": 2}))
    assert cli.main(["cost", "--config", cfg_path]) == 0
    assert "embedding_params" in capsys.readouterr().out
    assert cli.main(["census", "--config", cfg_path]) == 0
    assert "census" in capsys.readouterr().out


@pytest.mark.parametrize("variant,section", [
    ("altup", "altup"), ("recycled_altup", "altup"), ("seq_altup", "seq")])
def test_cost_and_census_count_the_model_built_from_section_defaults(
        tmp_path, capsys, variant, section):
    raw = _raw(variant=variant, **{section: {}})
    raw["model"]["n_layers"] = 4  # interior wrap covers layers 1 and 2
    built = build_model(config_from_dict(raw)).census()
    cfg_path = _write_config(tmp_path, raw)
    assert cli.main(["cost", "--config", cfg_path]) == 0
    report, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
    assert report["embedding_params"] + report["non_embedding_params"] == built
    assert cli.main(["census", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert f"constructed-model census: {built}\n" in out
    assert f"closed-form total:        {built}\n" in out


_JUNK = st.sampled_from([-1, 0, True, 1.5, float("nan"), float("inf"), "bogus", None, {}])


@st.composite
def _configs(draw, tiny=False, corpus="corpus.txt"):
    """A small valid config across every section; then, half the time, one
    section or field set to a junk value. A tiny config trains in a few
    milliseconds: d <= 8, at most 2 steps and at most 4 train and eval
    sequences."""
    heads = draw(st.integers(1, 2))
    # 10**12 is in range but past the parameter-bytes cap
    model = {"d_model": heads * draw(st.sampled_from([1, 2, 4] if tiny else [1, 2, 4, 10**12])),
             "n_layers": draw(st.integers(1, 3)), "n_heads": heads,
             "ffn_hidden": draw(st.integers(1, 8)),
             "vocab_size": draw(st.sampled_from([258, 260])),
             "max_seq_len": draw(st.integers(8, 20))}
    with_memory = draw(st.booleans())
    variant = "dense" if with_memory else draw(st.sampled_from(list(schema.VARIANTS)))
    raw = {"model": model, "variant": variant,
           "task": {"name": draw(st.sampled_from(TASKS)), "corpus_path": corpus,
                    "seq_len": draw(st.integers(1, 8)), "alphabet": draw(st.integers(1, 8))},
           "optimizer": {"steps": draw(st.integers(0, 2 if tiny else 3)),
                         "batch_size": draw(st.integers(1, 3))},
           "seed": draw(st.integers(0, 9))}
    if tiny:
        raw["task"].update(n_train=draw(st.integers(1, 4)), n_eval=draw(st.integers(1, 4)))
    if variant in ("altup", "recycled_altup"):
        k = draw(st.integers(1, 4))
        raw["altup"] = draw(st.fixed_dictionaries({}, optional={
            "k": st.just(k), "selection": st.sampled_from(schema.SELECTION_MODES),
            "j_fixed": st.integers(0, k - 1)}))
    elif variant in ("seq_altup", "stride_skip", "avg_pool"):
        raw["seq"] = draw(st.fixed_dictionaries({}, optional={
            "stride": st.integers(1, 5), "wrap": st.sampled_from(schema.WRAP_MODES)}))
    elif with_memory:
        lookup = draw(st.sampled_from(schema.LOOKUPS))
        n = model["vocab_size"] if lookup == "token_id" else draw(st.integers(1, 8))
        raw["memory"] = {"n": n, "lookup": lookup, **draw(st.fixed_dictionaries({}, optional={
            "rank": st.integers(1, 3), "k": st.integers(1, n),
            "jitter_eps": st.sampled_from([0, 0.01]), "constant": st.booleans()}))}
    if draw(st.booleans()):
        paths = sorted([key for key in raw] + [f"{key}.{field}" for key, value in raw.items()
                                              if isinstance(value, dict) for field in value])
        *parents, leaf = draw(st.sampled_from(paths)).split(".")
        node = raw[parents[0]] if parents else raw
        node[leaf] = draw(_JUNK)
    return raw


@settings(max_examples=80, deadline=None)
@given(raw=_configs())
def test_cost_and_census_never_fail_at_runtime(raw):
    argv = [f"--set={key}={json.dumps(value)}" for key, value in raw.items()]
    for command in ("cost", "census"):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main([command] + argv)
        assert rc in (0, 1), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if command == "census" and rc == 0:
            assert "MISMATCH" not in out.getvalue()


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "corpus.txt"
    path.write_text(make_demo_corpus(64))
    return str(path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_train_never_fails_with_a_traceback(corpus_file, data):
    raw = data.draw(_configs(tiny=True, corpus=corpus_file))
    argv = [f"--set={key}={json.dumps(value)}" for key, value in raw.items()]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = cli.main(["train", "--seed", "1", "--out", str(out)] + argv)
        assert rc in (0, 1, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if rc == 1:
            assert not out.exists()
        if rc == 0:
            assert (out / "metrics.csv").exists()


def test_cli_collide(tmp_path, capsys):
    rc = cli.main(["collide", "--seed", "5", "--n", "16", "--l", "8", "--d", "4",
                   "--f", "0.5", "--trials", "200", "--schemes", "minhash",
                   "--out", str(tmp_path / "c.csv")])
    assert rc == 0
    assert (tmp_path / "c.csv").read_text().startswith("scheme,")


# What `altup collide --seed 3 --n 64 --l 16 --d 16 --ordering` prints for
# these overlaps and arguments, recorded while the ordering check still
# estimated every scheme a second time.
COLLIDE_ORDERING_RUNS = [
    ((0.1, 0.5), ["--trials", "300"], """\
hyperplane  f=0.1    p=0.026667 ci99=[0.002708, 0.050626] width=2.0 [r1=1.342 r2=1.414 c=1.054 p1=2.67e-02 p2=3.67e-02 rho=1.096]
spherical   f=0.1    p=0.030000 ci99=[0.004631, 0.055369]
minhash     f=0.1    p=0.070000 ci99=[0.032056, 0.107944]
hyperplane  f=0.5    p=0.110000 ci99=[0.063468, 0.156532] width=2.0 [r1=1.000 r2=1.414 c=1.414 p1=1.10e-01 p2=3.67e-02 rho=0.668]
spherical   f=0.5    p=0.110000 ci99=[0.063468, 0.156532]
minhash     f=0.5    p=0.443333 ci99=[0.369455, 0.517212]
ordering at f=0.1: token_id >= spherical >= hyperplane FAIL
ordering at f=0.5: token_id >= spherical >= hyperplane FAIL
"""),
    ((0.25,), ["--trials", "200", "--schemes", "spherical"], """\
spherical   f=0.25   p=0.040000 ci99=[0.004308, 0.075692]
ordering at f=0.25: token_id >= spherical >= hyperplane FAIL
"""),
]


@pytest.mark.parametrize("overlaps,extra,printed", COLLIDE_ORDERING_RUNS,
                         ids=["all_schemes", "spherical_only"])
def test_cli_collide_ordering_estimates_each_scheme_once(monkeypatch, capsys, overlaps, extra,
                                                         printed):
    calls = Counter()
    original = collisions.estimate_collision

    def counting(scheme, n, l, f, d, trials, *args, **kwargs):
        calls[scheme, f] += 1
        return original(scheme, n, l, f, d, trials, *args, **kwargs)

    monkeypatch.setattr(collisions, "estimate_collision", counting)
    assert cli.main(["collide", "--seed", "3", "--n", "64", "--l", "16", "--d", "16",
                     "--ordering", "--f", *map(str, overlaps), *extra]) == 0
    assert capsys.readouterr().out == printed
    assert calls == {(s, f): 1 for s in collisions.SCHEMES for f in overlaps}


def test_cli_collide_slope_passes_workers_through(monkeypatch, capsys):
    seen = []
    original = collisions.estimate_collision

    def recording(*args, workers=1, **kwargs):
        seen.append(workers)
        return original(*args, workers=workers, **kwargs)

    monkeypatch.setattr(collisions, "estimate_collision", recording)
    printed = {}
    for workers in ("1", "2"):
        seen.clear()
        assert cli.main(["collide", "--seed", "3", "--n", "64", "--l", "16", "--d", "16",
                         "--f", "0.5", "--trials", "200", "--slope",
                         "--workers", workers]) == 0
        printed[workers] = capsys.readouterr().out
        # one estimate per scheme, then one per scheme and slope grid point
        assert seen == [int(workers)] * (len(collisions.SCHEMES) * 4)
    assert printed["2"] == printed["1"]
    assert printed["1"].count("slope ") == len(collisions.SCHEMES)


@pytest.mark.parametrize("scheme", ["hyperplane", "spherical", "minhash"])
def test_cli_collide_rejects_empty_table(scheme, capsys):
    rc = cli.main(["collide", "--seed", "1", "--schemes", scheme, "--n", "0",
                   "--trials", "10"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and "n must be >= 1" in err
    assert err.count("\n") == 1 and "Traceback" not in err
