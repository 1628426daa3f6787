"""The benchmark's tracer hooks the program by name; every name must resolve.

``altbench/tracing.py`` wraps public functions in each module that looks them
up, the four lookup factories in ``memory`` and ``models``, and three
``Model`` methods. A rename in the program would otherwise surface only when
``altbench/run.py --trace 1`` runs. The benchmark's token-id routing check
patches ``models.memory_augmented_forward`` and expects one call per (layer,
position) whose row the model uses; a change that drops that call, or makes
its rows unused, fails here too.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from altup import memory, models, tensor as T, transformer as tr

TRACING = Path(__file__).resolve().parent.parent / "altbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("altbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve_and_uninstall_restores_them():
    tracing = _tracing()
    hooked = [(owner, attr) for _, attr, owners in tracing.FUNCTIONS for owner in owners]
    hooked += [(owner, attr) for attr in tracing.LOOKUP_FACTORIES for owner in (memory, models)]
    hooked += [(models.Model, attr) for _, attr in tracing.METHODS]
    hooked.append((models.Model, "zero_grad"))
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in hooked
               if not hasattr(owner, attr)]
    assert not missing, f"the tracer hooks names the program lacks: {missing}"
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in hooked]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in originals)
    finally:
        tracer.uninstall()
    left = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, fn in originals
            if getattr(owner, attr) is not fn]
    assert not left, f"uninstall left these patched: {left}"


def test_hooks_installed_after_construction_see_every_call():
    cfg = tr.ModelConfig(d_model=8, n_layers=3, n_heads=2, ffn_hidden=16, vocab_size=11,
                         max_seq_len=8)
    model = models.Model(cfg, "dense", seed=1,
                         memory={"n": 11, "rank": 2, "lookup": "token_id"})
    ids = [1, 4, 7, 2, 9]
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        model.forward(ids)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("transformer.layer_forward") == cfg.n_layers
    assert names.count("memory.memory_augmented_forward") == cfg.n_layers * len(ids)


def test_tracer_counts_each_distinct_expert_once_per_table():
    # the benchmark's memory.experts_used_share counts the experts a table
    # used by the identity of the handle expert_forward gets, so each expert
    # must reach it as one object, whichever position and forward selects it
    cfg = tr.ModelConfig(d_model=8, n_layers=3, n_heads=2, ffn_hidden=16, vocab_size=11,
                         max_seq_len=8)
    model = models.Model(cfg, "dense", seed=4,
                         memory={"n": 11, "rank": 2, "lookup": "token_id"})
    ids = np.array([[1, 4, 4, 7], [7, 1, 9, 4]])
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        model.forward(ids)
        model.forward(ids[:, ::-1])
    finally:
        tracer.uninstall()
    distinct = len(set(ids.reshape(-1).tolist()))
    assert sorted(id(table) for table, _ in tracer.used_experts.values()) == sorted(
        id(slot["table"]) for slot in model._mem)
    assert [len(used) for _, used in tracer.used_experts.values()] == [distinct] * cfg.n_layers
    tracer.fold_expert_use()
    assert tracer.shares == [(distinct, 11)] * cfg.n_layers


def test_token_id_routing_check_sees_each_position_select_its_own_id(monkeypatch):
    # what altbench/checks.check_token_id_routing does: one patched
    # memory_augmented_forward call per (layer, position), whose lookup
    # selects that position's own token id
    cfg = tr.ModelConfig(d_model=8, n_layers=3, n_heads=2, ffn_hidden=16, vocab_size=11,
                         max_seq_len=8)
    model = models.Model(cfg, "dense", seed=2,
                         memory={"n": 11, "rank": 2, "lookup": "token_id"})
    ids = np.array([1, 4, 7, 2, 9, 4])
    selected = []
    original = models.memory_augmented_forward

    def recording(x, token_id, inner_out, lookup, table, weights=None):
        indices, _ = lookup(x, token_id)
        selected.append((token_id, list(indices)))
        return original(x, token_id, inner_out, lookup, table, weights)

    monkeypatch.setattr(models, "memory_augmented_forward", recording)
    model.forward(ids)
    assert [indices for _, indices in selected] == [[int(i)] for i in ids] * cfg.n_layers
    assert [token for token, _ in selected] == [int(i) for i in ids] * cfg.n_layers


def test_taped_step_uses_the_rows_of_each_per_position_call(monkeypatch):
    # a training step records its memory layers on the tape, and still makes
    # one memory_augmented_forward call per (layer, position) whose returned
    # row is the row the model goes on with
    cfg = tr.ModelConfig(d_model=8, n_layers=3, n_heads=2, ffn_hidden=16, vocab_size=11,
                         max_seq_len=8)
    model = models.Model(cfg, "dense", seed=3,
                         memory={"n": 11, "rank": 2, "lookup": "token_id"})
    ids = np.array([[1, 4, 7, 2, 9], [3, 0, 9, 5, 5]])
    calls = []
    original = models.memory_augmented_forward

    def counting(x, token_id, inner_out, lookup, table, weights=None):
        calls.append(token_id)
        return original(x, token_id, inner_out, lookup, table, weights)

    monkeypatch.setattr(models, "memory_augmented_forward", counting)
    with T.Graph() as g:
        loss = model.loss(ids, ids, training=True, rng=np.random.default_rng(0))
    T.backward(g, loss)
    assert calls == ids.reshape(-1).tolist() * cfg.n_layers
    logits, _ = model.forward(ids)

    def offset(x, token_id, inner_out, lookup, table, weights=None):
        row = original(x, token_id, inner_out, lookup, table, weights)
        return T.Tensor(row.data + 1.0)

    monkeypatch.setattr(models, "memory_augmented_forward", offset)
    shifted, _ = model.forward(ids)
    assert not np.allclose(shifted.data, logits.data)
    with T.Graph():
        taped, _ = model.forward(ids)
    assert np.array_equal(taped.data, shifted.data)


@pytest.mark.parametrize("lookup,k", [("token_id", 1), ("softmax", 2)])
def test_expert_forward_is_reached_once_per_layer_row_and_slot(monkeypatch, lookup, k):
    # the tracer's memory.expert_calls_per_step counts expert_forward calls,
    # and memory.experts_used_share the handles they get: a taped step and an
    # untaped forward reach it once per (layer, row, slot) with the handle of
    # the slot's expert in that layer's table
    cfg = tr.ModelConfig(d_model=8, n_layers=3, n_heads=2, ffn_hidden=16, vocab_size=11,
                         max_seq_len=8)
    model = models.Model(cfg, "dense", seed=5,
                         memory={"n": 11, "rank": 2, "lookup": lookup, "k": k})
    ids = np.array([[1, 4, 7, 2, 9], [3, 0, 9, 5, 5]])
    tables, routed, reached = [], [], []
    per_position, expert_forward = models.memory_augmented_forward, memory.expert_forward

    def routing(x, token_id, inner_out, lookup, table, weights=None):
        indices, _ = lookup(x, token_id)
        tables.append(table)
        routed.extend(table.experts[i] for i in np.ravel(indices).tolist())
        return per_position(x, token_id, inner_out, lookup, table, weights)

    def reaching(x, expert):
        reached.append(expert)
        return expert_forward(x, expert)

    monkeypatch.setattr(models, "memory_augmented_forward", routing)
    monkeypatch.setattr(memory, "expert_forward", reaching)

    def check():
        assert tables == [slot["table"] for slot in model._mem for _ in range(ids.size)]
        assert len(routed) == cfg.n_layers * ids.size * k
        assert [id(e) for e in reached] == [id(e) for e in routed]
        for collected in (tables, routed, reached):
            collected.clear()

    with T.Graph() as g:
        loss = model.loss(ids, ids, training=True, rng=np.random.default_rng(0))
    T.backward(g, loss)
    check()
    model.forward(ids)
    check()
