"""Correctness checks, made apart from the program.

Closed forms for the parameter census and the matrix-product MACs of one
forward pass are computed here from the configuration alone; gradients are
compared with central finite differences; eval losses are recomputed with
scipy's log-softmax; collision rates are compared with their exact values.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import log_softmax

from altup import checks as program_checks
from altup import collisions, memory, models, train
from altup import tensor as T

from workloads import COLLIDE_D, COLLIDE_L, COLLIDE_N, SEQ_LEN, Runner, expect

Z99 = 2.5758293035489004

# Statistical checks with a fixed false-alarm rate run on a fixed instance
# (seed and size independent of --seed), so a run's verdict never depends on
# a lucky draw: a comparison of two commits takes dozens of runs, and four
# 3-sigma checks on each run's own draws would fail one of them by chance
# about one time in five.
STAT_SEED = 2024
STAT_TOKENID_TRIALS = 4000
STAT_MINHASH_PERMS = 2000


def census_closed_form(cfg) -> int:
    m = cfg.model
    d, L, V = m.d_model, m.n_layers, m.vocab_size
    k = cfg.altup["k"] if cfg.altup else 1
    total = V * d * (k if cfg.variant == "altup" else 1) + m.max_seq_len * d
    total += L * (4 * d * d + 3 * d * m.ffn_hidden + 2 * d)
    if cfg.variant in ("altup", "recycled_altup"):
        total += L * (k * k + k)
    if cfg.variant == "seq_altup":
        total += 3 * (L - 2)           # a1, a2, b on each interior layer
    if cfg.memory:
        n, r = cfg.memory["n"], cfg.memory["rank"]
        total += L * (2 * r * n * d + (n * d if cfg.memory["lookup"] == "softmax" else 0))
    return total


def forward_macs_closed_form(cfg, t: int) -> int:
    """Matrix-product MACs of one untaped forward pass over t tokens."""
    m = cfg.model
    d, L, V, ffn = m.d_model, m.n_layers, m.vocab_size, m.ffn_hidden

    def layer(n):
        # q, k, v, o projections; scores and mixing over all heads; gate, up, down
        return 4 * n * d * d + 2 * n * n * d + 3 * n * d * ffn

    if cfg.variant in ("altup", "recycled_altup"):
        k = cfg.altup["k"]
        # predict: (K x K) @ (K x T*d); correct: two (K x 1) @ (1 x T*d)
        total = L * (layer(t) + k * k * t * d + 2 * k * t * d)
        head_width = k * d if cfg.variant == "altup" else d
        return total + t * head_width * V
    if cfg.variant == "seq_altup":
        stride = cfg.seq["stride"]
        positions = [t] + [-(-t // stride)] * (L - 2) + [t]
        return sum(layer(n) for n in positions) + t * d * V
    total = L * layer(t) + t * d * V
    if cfg.memory:
        n, r = cfg.memory["n"], cfg.memory["rank"]
        router = d * n if cfg.memory["lookup"] == "softmax" else 0
        total += L * t * (2 * d * r + router)   # one rank-r expert per position
    return total


def check_construction(models_built):
    """Census and forward MACs of freshly built models against closed forms."""
    ids = np.arange(97, 97 + SEQ_LEN) % 256
    for op, cfg, model in models_built:
        expect(model.census() == census_closed_form(cfg),
               f"{op.label}: census {model.census()} != closed form {census_closed_form(cfg)}")
        T.reset_mac_count()
        model.forward(ids)
        macs = T.mac_count()
        want = forward_macs_closed_form(cfg, SEQ_LEN)
        expect(macs == want, f"{op.label}: forward MACs {macs} != closed form {want}")


def _gradcheck_tensors(model, cfg):
    """Parameters whose perturbation cannot change a discrete lookup.

    Memory lookups route on the input of each layer, so in memory models only
    the last layer's inner weights and expert tables are perturbed; a
    perturbation anywhere else could move a routing decision and make the
    loss non-differentiable at that point.
    """
    named = model.named_parameters()
    if cfg.memory:
        last = f"layers.{cfg.model.n_layers - 1}."
        return [p for name, p in named if name.startswith(last) and ".router." not in name]
    return [p for _, p in named]


def check_gradients(result, task, eps=1e-5, per_model=3):
    """Tape gradients of the largest-gradient entries match central differences."""
    model, cfg = result.model, result.cfg
    ids, targets = task.eval_inputs[0], task.eval_targets[0]
    params = model.parameters()
    for p in params:
        p.grad = None
    with T.Graph() as graph:
        loss = model.loss(ids, targets)
    T.backward(graph, loss)
    candidates = [(float(np.abs(p.grad).max()), p) for p in _gradcheck_tensors(model, cfg)
                  if p.grad is not None]
    candidates.sort(key=lambda c: -c[0])
    for _, p in candidates[:per_model]:
        flat, gflat = p.data.reshape(-1), p.grad.reshape(-1)
        i = int(np.argmax(np.abs(gflat)))
        orig = flat[i]
        flat[i] = orig + eps
        up = model.loss(ids, targets).item()
        flat[i] = orig - eps
        down = model.loss(ids, targets).item()
        flat[i] = orig
        fd = (up - down) / (2 * eps)
        err = abs(gflat[i] - fd) / max(1e-8, abs(fd) + abs(gflat[i]))
        expect(err <= program_checks.GRADCHECK_TOLERANCE,
               f"{result.op.label}: gradient of {p.name}[{i}] {gflat[i]!r} vs "
               f"finite difference {fd!r} (relative error {err:.2e})")
    for p in params:
        p.grad = None


def check_evaluate(result, task):
    """train.evaluate agrees with scipy's log-softmax of Model.forward logits."""
    losses, correct, total = [], 0, 0
    for ids, targets in zip(task.eval_inputs, task.eval_targets):
        logits, positions = result.model.forward(ids)
        mapped = np.asarray(targets)[positions]
        logp = log_softmax(logits.data, axis=-1)
        losses.append(-logp[np.arange(len(mapped)), mapped].mean())
        correct += int((logits.data.argmax(axis=-1) == mapped).sum())
        total += len(mapped)
    want = float(np.mean(losses))
    expect(math.isclose(result.eval_loss, want, rel_tol=1e-12, abs_tol=0.0)
           and result.eval_acc == correct / total,
           f"{result.op.label}: evaluate gives ({result.eval_loss!r}, {result.eval_acc!r}), "
           f"log-softmax gives ({want!r}, {correct / total!r})")


def check_token_id_routing(result, task):
    """Every position of a token-id memory model selects its own id."""
    selected = []
    original = models.memory_augmented_forward

    def recording(x, token_id, inner_out, lookup, table, weights=None):
        indices, _ = lookup(x, token_id)
        selected.append((token_id, list(indices)))
        return original(x, token_id, inner_out, lookup, table, weights)

    models.memory_augmented_forward = recording
    try:
        result.model.forward(task.eval_inputs[0])
    finally:
        models.memory_augmented_forward = original
    ids = [int(i) for i in task.eval_inputs[0]] * result.cfg.model.n_layers
    expect([indices for _, indices in selected] == [[i] for i in ids],
           f"{result.op.label}: token-id lookups did not select each position's own id")


def check_trained(results):
    """Checks on the models trained in the final round."""
    for result in results:
        task = train.make_task_data(result.cfg)
        check_gradients(result, task)
        check_evaluate(result, task)
        if result.cfg.memory and result.cfg.memory["lookup"] == "token_id":
            check_token_id_routing(result, task)


def _ci(hits, trials):
    p = hits / trials
    half = Z99 * math.sqrt(p * (1 - p) / trials)
    return p - half, p + half


def check_collide(runner: Runner, run_seed: int):
    """Collision outputs against properties the estimators must have."""
    n, l, d = COLLIDE_N, COLLIDE_L, COLLIDE_D

    lo_hits = runner.collide_hits[("spherical", 0.1)]
    hi_hits = runner.collide_hits[("spherical", 0.5)]
    _, lo_high = _ci(*lo_hits)
    hi_low, _ = _ci(*hi_hits)
    expect(hi_low > lo_high,
           f"spherical: 99% interval at f=0.5 ({hi_hits}) does not clear f=0.1 ({lo_hits})")

    for scheme, trials in (("spherical", 8), ("hyperplane", 8), ("minhash", 64)):
        est = collisions.estimate_collision(scheme, n, l, 1.0, d, trials, run_seed)
        expect(est.probability == 1.0, f"{scheme}: f=1 collides in {est.probability:.3f} of trials")
    pair = collisions.gen_sentence_pair(l, 1.0, d, seed=run_seed, with_embeddings=False)
    a, b = set(pair.ids1.tolist()), set(pair.ids2.tolist())
    expect(all(memory.minhash_lookup(a, s) == memory.minhash_lookup(b, s) for s in range(64)),
           "min-hash: identical sets hashed apart")

    for scheme, trials in (("spherical", 16), ("hyperplane", 16), ("minhash", 256)):
        serial = collisions.estimate_collision(scheme, n, l, 0.5, d, trials, run_seed, workers=1)
        pooled = collisions.estimate_collision(scheme, n, l, 0.5, d, trials, run_seed, workers=2)
        expect(serial.probability == pooled.probability,
               f"{scheme}: workers=1 gives {serial.probability}, workers=2 {pooled.probability}")

    for f in (0.1, 0.5):
        est = collisions.estimate_collision("minhash", n, l, f, d, STAT_TOKENID_TRIALS, STAT_SEED)
        se = math.sqrt(f * (1 - f) / STAT_TOKENID_TRIALS)
        expect(abs(est.probability - f) <= 3 * se,
               f"token-id: estimate {est.probability} at f={f} is over 3 standard errors off")
    # f*l must be whole for a fixed pair; criterion 5 checks these two overlaps.
    for f in (0.25, 0.5):
        pair = collisions.gen_sentence_pair(l, f, d, seed=STAT_SEED, with_embeddings=False)
        a, b = set(pair.ids1.tolist()), set(pair.ids2.tolist())
        jaccard = len(a & b) / len(a | b)
        hits = sum(memory.minhash_lookup(a, STAT_SEED + s) == memory.minhash_lookup(b, STAT_SEED + s)
                   for s in range(STAT_MINHASH_PERMS))
        se = math.sqrt(jaccard * (1 - jaccard) / STAT_MINHASH_PERMS)
        expect(abs(hits / STAT_MINHASH_PERMS - jaccard) <= 3 * se,
               f"min-hash: rate {hits / STAT_MINHASH_PERMS} at f={f} is over 3 standard "
               f"errors from the Jaccard index {jaccard}")
