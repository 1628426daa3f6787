"""Traced runs: spans around the program's public functions, per-layer metrics.

The tracer replaces each public function at every place where its name is
looked up (the defining module and each module that imported it), so calls
made through either name are recorded. A span holds its name, start and end,
its parent span, and the size of the active tape at both ends. Spans stay in
memory and are written out when the run ends. Self time is a span's duration
minus the durations of its child spans.

Training steps are marked by ``Model.zero_grad``: a step span runs from one
call to the next, and ends early when ``train`` moves on to an eval or to
saving its checkpoint. Per-step metrics count only work inside step spans.
"""

from __future__ import annotations

import csv
import statistics
import time

from altup import (alternating, checkpoint, collisions, data, memory, models, sequence,
                   tensor, train, transformer)

STEP = "train.step"

# (span name, function name, modules where the name is looked up)
FUNCTIONS = (
    ("tensor.backward", "backward", (tensor, train)),
    ("transformer.layer_forward", "layer_forward", (transformer, models, alternating, sequence)),
    ("alternating.altup_layer_forward", "altup_layer_forward", (alternating, models)),
    ("alternating.recycled_downproject", "recycled_downproject", (alternating, models)),
    ("sequence.seq_altup_forward", "seq_altup_forward", (sequence, models)),
    ("memory.memory_augmented_forward", "memory_augmented_forward", (memory, models)),
    ("memory.expert_forward", "expert_forward", (memory,)),
    ("memory.softmax_route", "softmax_route", (memory, collisions)),
    ("memory.hyperplane_lsh_lookup", "hyperplane_lsh_lookup", (memory, collisions)),
    ("memory.minhash_lookup", "minhash_lookup", (memory,)),
    ("collisions.estimate_collision", "estimate_collision", (collisions,)),
    ("train.train", "train", (train,)),
    ("train.evaluate", "evaluate", (train,)),
    ("data.make_task", "make_task", (data, train)),
    ("checkpoint.save_model", "save_model", (checkpoint, train)),
    ("checkpoint.load_model", "load_model", (checkpoint,)),
)

# Lookup factories: the factory call and each call of the closure it returns
# are both lookup work (min-hash hashes the sequence inside the factory).
LOOKUP_FACTORIES = ("softmax_lookup", "token_id_fixed_lookup", "lsh_lookup",
                    "minhash_sequence_lookup")

METHODS = (("models.forward", "forward"), ("models.loss", "loss"))

# Entering one of these from inside a step ends the step.
ENDS_STEP = {"train.evaluate", "checkpoint.save_model"}


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent, tape_nodes_at_start, at_end, info]
        self.stack = []
        self._patches = []
        self._table = None
        self.used_experts = {}   # id(table) -> (table, set of expert ids)
        self.shares = []         # (used, n) per table, folded after each round

    # -- span bookkeeping -------------------------------------------------

    def open(self, name, info=None):
        graph = tensor.active_graph()
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           len(graph.nodes) if graph is not None else -1, -1, info])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx):
        now = time.perf_counter()
        graph = tensor.active_graph()
        nodes = len(graph.nodes) if graph is not None else -1
        while self.stack:
            top = self.stack.pop()
            span = self.spans[top]
            span[2], span[5] = now, nodes
            if top == idx:
                return

    def _end_step(self):
        if self.stack and self.spans[self.stack[-1]][0] == STEP:
            self.close(self.stack[-1])

    def _in_train(self):
        return any(self.spans[i][0] == "train.train" for i in self.stack)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        if name == "tensor.backward":
            def wrapper(graph, loss):
                info = (len(graph.nodes), sum(1 for n in graph.nodes if n.op == "matmul"))
                idx = tracer.open(name, info)
                try:
                    return fn(graph, loss)
                finally:
                    tracer.close(idx)
        elif name == "memory.memory_augmented_forward":
            def wrapper(x, token_id, inner_out, lookup, table, *args, **kwargs):
                idx = tracer.open(name)
                tracer._table = table
                try:
                    return fn(x, token_id, inner_out, lookup, table, *args, **kwargs)
                finally:
                    tracer._table = None
                    tracer.close(idx)
        elif name == "memory.expert_forward":
            def wrapper(x, expert):
                if tracer._table is not None:
                    key = id(tracer._table)
                    entry = tracer.used_experts.setdefault(key, (tracer._table, set()))
                    entry[1].add(id(expert))
                idx = tracer.open(name)
                try:
                    return fn(x, expert)
                finally:
                    tracer.close(idx)
        elif name == "collisions.estimate_collision":
            def wrapper(scheme, n, l, f, d, trials, *args, **kwargs):
                idx = tracer.open(name, (scheme, trials))
                try:
                    return fn(scheme, n, l, f, d, trials, *args, **kwargs)
                finally:
                    tracer.close(idx)
        else:
            ends_step = name in ENDS_STEP

            def wrapper(*args, **kwargs):
                if ends_step:
                    tracer._end_step()
                idx = tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
        return wrapper

    def _wrap_factory(self, fn):
        tracer = self

        def factory(*args, **kwargs):
            idx = tracer.open("memory.lookup")
            try:
                q = fn(*args, **kwargs)
            finally:
                tracer.close(idx)

            def lookup(x, token_id):
                idx = tracer.open("memory.lookup")
                try:
                    return q(x, token_id)
                finally:
                    tracer.close(idx)
            return lookup
        return factory

    def _wrap_method(self, name, fn):
        tracer = self

        if name == "models.loss":
            def wrapper(model, ids, *args, **kwargs):
                macs = tensor.mac_count()
                idx = tracer.open(name)
                try:
                    return fn(model, ids, *args, **kwargs)
                finally:
                    tracer.close(idx)
                    tracer.spans[idx][6] = (tensor.mac_count() - macs, len(ids))
        else:
            def wrapper(model, *args, **kwargs):
                idx = tracer.open(name)
                try:
                    return fn(model, *args, **kwargs)
                finally:
                    tracer.close(idx)
        return wrapper

    def _zero_grad(self, fn):
        tracer = self

        def zero_grad(model):
            if tracer._in_train():
                tracer._end_step()
                tracer.open(STEP)
            return fn(model)
        return zero_grad

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        for name, attr, owners in FUNCTIONS:
            wrapped = self._wrap(name, getattr(owners[0], attr))
            for owner in owners:
                self._patch(owner, attr, wrapped)
        for attr in LOOKUP_FACTORIES:
            wrapped = self._wrap_factory(getattr(memory, attr))
            for owner in (memory, models):
                self._patch(owner, attr, wrapped)
        for name, attr in METHODS:
            self._patch(models.Model, attr, self._wrap_method(name, getattr(models.Model, attr)))
        self._patch(models.Model, "zero_grad", self._zero_grad(models.Model.zero_grad))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def fold_expert_use(self):
        """Record each seen table's used-expert share and drop the tables."""
        for table, used in self.used_experts.values():
            self.shares.append((len(used), table.n))
        self.used_experts.clear()

    # -- output -----------------------------------------------------------

    def write(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_s", "end_s", "parent", "tape_nodes_start",
                          "tape_nodes_end"])
            for i, (name, start, end, parent, n0, n1, _) in enumerate(self.spans):
                out.writerow([i, name, repr(start), repr(end), parent, n0, n1])

    def metrics(self):
        """Per-layer metrics, and the worst per-step gap between the sum of
        self times and the step's wall time (seconds)."""
        spans = self.spans
        children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                children[s[3]].append(i)
        dur = [s[2] - s[1] for s in spans]
        self_time = [dur[i] - sum(dur[c] for c in children[i]) for i in range(len(spans))]
        child_nodes = [sum(spans[c][5] - spans[c][4] for c in children[i]) for i in range(len(spans))]

        steps = [i for i, s in enumerate(spans) if s[0] == STEP]
        in_step = set()
        worst_gap = 0.0
        for st in steps:
            subtree, frontier = [st], [st]
            while frontier:
                nxt = [c for i in frontier for c in children[i]]
                subtree.extend(nxt)
                frontier = nxt
            in_step.update(subtree)
            worst_gap = max(worst_gap, abs(sum(self_time[i] for i in subtree) - dur[st]))
        n_steps = max(1, len(steps))

        def step_spans(pred):
            return [i for i in in_step if pred(spans[i][0])]

        def per_step_ms(idxs, times):
            return 1e3 * sum(times[i] for i in idxs) / n_steps

        def mean_us(name):
            idxs = [i for i, s in enumerate(spans) if s[0] == name]
            return 1e6 * sum(dur[i] for i in idxs) / max(1, len(idxs))

        def is_memory(i):
            return i >= 0 and spans[i][0].startswith("memory.")

        backward = step_spans(lambda n: n == "tensor.backward")
        layer_calls = step_spans(lambda n: n == "transformer.layer_forward")
        altup_calls = step_spans(lambda n: n == "alternating.altup_layer_forward")
        taped_losses = [i for i in step_spans(lambda n: n == "models.loss") if spans[i][4] >= 0]
        memory_top = [i for i in step_spans(lambda n: n.startswith("memory."))
                      if not is_memory(spans[i][3])]
        lookups = [i for i in step_spans(lambda n: n == "memory.lookup")
                   if spans[spans[i][3]][0] != "memory.lookup"]
        untaped_forward = [i for i, s in enumerate(spans) if s[0] == "models.forward" and s[4] < 0]

        self.fold_expert_use()
        used = sum(u for u, _ in self.shares)
        total = sum(n for _, n in self.shares)

        out = {
            "tensor.nodes_per_step": (sum(spans[i][6][0] for i in backward) / n_steps, "count"),
            "tensor.matmul_calls_per_step": (sum(spans[i][6][1] for i in backward) / n_steps,
                                             "count"),
            "tensor.backward_ms_per_step": (per_step_ms(backward, dur), "ms"),
            "tensor.macs_per_token": (sum(spans[i][6][0] for i in taped_losses)
                                      / max(1, sum(spans[i][6][1] for i in taped_losses)),
                                      "MAC/token"),
            "transformer.layer_calls_per_step": (len(layer_calls) / n_steps, "count"),
            "transformer.layer_ms_per_step": (per_step_ms(layer_calls, dur), "ms"),
            "alternating.self_ms_per_step": (
                per_step_ms(step_spans(lambda n: n.startswith("alternating.")), self_time), "ms"),
            "alternating.nodes_per_call": (
                sum(spans[i][5] - spans[i][4] - child_nodes[i] for i in altup_calls)
                / max(1, len(altup_calls)), "count"),
            "sequence.self_ms_per_step": (
                per_step_ms(step_spans(lambda n: n.startswith("sequence.")), self_time), "ms"),
            "memory.forward_ms_per_step": (per_step_ms(memory_top, dur), "ms"),
            "memory.lookup_ms_per_step": (per_step_ms(lookups, dur), "ms"),
            "memory.expert_calls_per_step": (
                len(step_spans(lambda n: n == "memory.expert_forward")) / n_steps, "count"),
            "memory.experts_used_share": (used / total if total else 0.0, "fraction"),
            "memory.softmax_route_us": (mean_us("memory.softmax_route"), "us"),
            "memory.hyperplane_lsh_us": (mean_us("memory.hyperplane_lsh_lookup"), "us"),
            "memory.minhash_lookup_us": (mean_us("memory.minhash_lookup"), "us"),
            "models.forward_ms_per_example": (
                1e3 * sum(dur[i] for i in untaped_forward) / max(1, len(untaped_forward)), "ms"),
            "train.step_ms_p50": (1e3 * statistics.median(dur[i] for i in steps) if steps else 0.0,
                                  "ms"),
            "train.update_ms_per_step": (per_step_ms(steps, self_time), "ms"),
            "data.make_task_ms": (mean_us("data.make_task") / 1e3, "ms"),
            "checkpoint.save_ms": (mean_us("checkpoint.save_model") / 1e3, "ms"),
        }
        for scheme, label in (("spherical", "spherical"), ("hyperplane", "hyperplane"),
                              ("minhash", "tokenid")):
            idxs = [i for i, s in enumerate(spans)
                    if s[0] == "collisions.estimate_collision" and s[6][0] == scheme]
            trials = sum(spans[i][6][1] for i in idxs)
            out[f"collisions.self_us_per_trial.{label}"] = (
                1e6 * sum(self_time[i] for i in idxs) / max(1, trials), "us")
        metrics = {name: {"value": float(v), "unit": unit} for name, (v, unit) in out.items()}
        return metrics, worst_gap
