"""Config validation, deterministic training, checkpoints, CLI plumbing."""

import json

import numpy as np
import pytest

from altup import checkpoint as ckpt
from altup import cli, models, transformer as tr
from altup.data import input_length, make_task
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
    assert isinstance(cfg.optimizer.learning_rate, float)
    assert isinstance(cfg.optimizer.momentum, float)


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
    from altup import costs
    cfg = config_from_dict(_raw(variant="recycled_altup", altup={"k": 2},
                                optimizer={"steps": 2, "batch_size": 2,
                                           "learning_rate": 0.05}))
    summary = train(cfg, tmp_path / "run")
    rep = costs.count_params(cfg.model, cfg.variant, altup_k=2)
    assert summary["parameter_census"] == rep.embedding_params + rep.non_embedding_params


def test_checkpoint_round_trip_bitwise(tmp_path):
    cfg = tr.ModelConfig(8, 2, 2, 16, 11, 8)
    model = models.Model(cfg, "altup", altup_k=2, seed=4)
    path = tmp_path / "m.ckpt"
    ckpt.save_model(model, path)
    clone = models.Model(cfg, "altup", altup_k=2, seed=99)
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


def test_checkpoint_shape_mismatch_names_tensor(tmp_path):
    cfg = tr.ModelConfig(8, 1, 2, 16, 11, 8)
    model = models.Model(cfg, "altup", altup_k=2, seed=4)
    path = tmp_path / "m.ckpt"
    ckpt.save_model(model, path)
    other = models.Model(cfg, "altup", altup_k=4, seed=4)  # mismatched widths
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


def test_cli_collide(tmp_path, capsys):
    rc = cli.main(["collide", "--seed", "5", "--n", "16", "--l", "8", "--d", "4",
                   "--f", "0.5", "--trials", "200", "--schemes", "minhash",
                   "--out", str(tmp_path / "c.csv")])
    assert rc == 0
    assert (tmp_path / "c.csv").read_text().startswith("scheme,")


@pytest.mark.parametrize("scheme", ["hyperplane", "spherical", "minhash"])
def test_cli_collide_rejects_empty_table(scheme, capsys):
    rc = cli.main(["collide", "--seed", "1", "--schemes", scheme, "--n", "0",
                   "--trials", "10"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and "n must be >= 1" in err
    assert err.count("\n") == 1 and "Traceback" not in err
