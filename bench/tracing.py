"""Span tracing of the fedhpd layers, installed from outside the package.

`Tracer.installed()` replaces the public functions and methods listed in
`TARGETS` with wrappers that record one span per call: name, start, end and
the enclosing span. The package source is never edited. A function that
another module pulls in with ``from .x import f`` is bound twice, so every
binding of the original object in every fedhpd module is replaced (for
example ``public_states.step``, ``diagnostics.step``, ``reinforce.adam_step``,
``federation.adam_step``, ``experiment.run``,
``experiment.generate_public_states``, ``cli.gradient_variance`` and
``cli.lipschitz_probe``); patching only the defining module would leave those
call sites untraced and report 0 us.

Spans stay in memory until `write` saves them; `layer_metrics` turns them into
the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from pathlib import Path

import numpy as np

LAYERS = ("env", "nn_core", "policy", "reinforce", "federation", "public_states",
          "experiment", "diagnostics", "cli")

# (module, attribute or Class.method, span name). Forward and backward passes
# are split into "single" (one state vector) and "batch" (a matrix of rows).
TARGETS = (
    ("env", "reset", "env.reset"),
    ("env", "step", "env.step"),
    ("env", "save_state_set", "env.save_state_set"),
    ("env", "load_state_set", "env.load_state_set"),
    ("nn_core", "MlpNetwork.forward", "nn_core.forward"),
    ("nn_core", "MlpNetwork.backward", "nn_core.backward"),
    ("nn_core", "adam_step", "nn_core.adam_step"),
    ("nn_core", "network_to_bytes", "nn_core.network_to_bytes"),
    ("nn_core", "network_from_bytes", "nn_core.network_from_bytes"),
    ("policy", "CategoricalPolicy.sample_action", "policy.sample_action"),
    ("policy", "GaussianPolicy.sample_action", "policy.sample_action"),
    ("policy", "CategoricalPolicy.log_prob_grad", "policy.log_prob_grad"),
    ("policy", "GaussianPolicy.log_prob_grad", "policy.log_prob_grad"),
    ("policy", "CategoricalPolicy.extract_batch", "policy.extract_batch"),
    ("policy", "GaussianPolicy.extract_batch", "policy.extract_batch"),
    ("policy", "CategoricalPolicy.kl_batch_loss", "policy.kl_batch_loss"),
    ("policy", "GaussianPolicy.kl_batch_loss", "policy.kl_batch_loss"),
    ("policy", "DistributionBatch.to_bytes", "policy.wire_encode"),
    ("policy", "DistributionBatch.from_bytes", "policy.wire_decode"),
    ("reinforce", "collect_trajectories", "reinforce.collect_trajectories"),
    ("reinforce", "policy_gradient", "reinforce.policy_gradient"),
    ("reinforce", "local_update", "reinforce.local_update"),
    ("reinforce", "Agent.local_round", "reinforce.local_round"),
    ("federation", "aggregate", "federation.aggregate"),
    ("federation", "distillation_round", "federation.distillation_round"),
    ("federation", "run", "federation.run"),
    ("public_states", "generate_public_states", "public_states.generate"),
    ("experiment", "load_experiment_config", "experiment.load_experiment_config"),
    ("experiment", "run_cell", "experiment.run_cell"),
    ("experiment", "metrics_rows", "experiment.metrics_rows"),
    ("experiment", "train_experiment", "experiment.train_experiment"),
    ("diagnostics", "gradient_variance", "diagnostics.gradient_variance"),
    ("diagnostics", "sample_trajectory_gradients", "diagnostics.sample_trajectory_gradients"),
    ("diagnostics", "lipschitz_probe", "diagnostics.lipschitz_probe"),
    ("cli", "main", "cli.main"),
)

# spans behind the per-layer time metrics: each must record calls on every
# workload, or a refactor that bypasses a wrapper would report 0 us
TIMED_SPANS = (
    "env.step", "policy.sample_action", "policy.extract_batch", "policy.kl_batch_loss",
    "policy.wire_encode", "policy.wire_decode", "nn_core.forward.single",
    "nn_core.forward.batch", "nn_core.backward.batch", "nn_core.adam_step",
    "reinforce.collect_trajectories", "reinforce.policy_gradient", "reinforce.local_update",
    "reinforce.local_round", "federation.distillation_round", "federation.aggregate",
    "public_states.generate", "experiment.run_cell", "experiment.metrics_rows",
    "experiment.train_experiment",
)

# argument that decides single vs batch, by position after `self`
_RANK_SPLIT = {"nn_core.forward": 1, "nn_core.backward": 2}


class Tracer:
    """Records spans as (name id, parent index, start ns, end ns)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack = [-1]
        self._table = None

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        if name in _RANK_SPLIT:
            position = _RANK_SPLIT[name]
            single = self._name_id(f"{name}.single")
            batch = self._name_id(f"{name}.batch")

            def pick(args):
                return single if np.ndim(args[position]) == 1 else batch
        else:
            nid = self._name_id(name)

            def pick(args):
                return nid

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (pick(args), parent, start, end)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target; restore the originals on exit."""
        package = importlib.import_module("fedhpd")
        modules = [package] + [importlib.import_module(f"fedhpd.{m}") for m in LAYERS]
        undo = []
        try:
            for module_name, attr, span in TARGETS:
                owner = importlib.import_module(f"fedhpd.{module_name}")
                if "." in attr:
                    class_name, method = attr.split(".")
                    cls = getattr(owner, class_name)
                    raw = cls.__dict__[method]
                    if isinstance(raw, classmethod):
                        patched = classmethod(self._wrap(span, raw.__func__))
                    else:
                        patched = self._wrap(span, raw)
                    undo.append((cls, method, raw))
                    setattr(cls, method, patched)
                    continue
                original = getattr(owner, attr)
                patched = self._wrap(span, original)
                bindings = [(m, key) for m in modules
                            for key, value in vars(m).items() if value is original]
                for module, key in bindings:
                    undo.append((module, key, original))
                    setattr(module, key, patched)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def table(self) -> np.ndarray:
        """All spans as an int64 array of rows (name id, parent, start, end)."""
        if self._table is None or len(self._table) != len(self.spans):
            if None in self.spans:
                raise RuntimeError("a span is still open")
            self._table = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        return self._table

    def write(self, path: Path) -> None:
        """Save every span, with the name table, as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        table = self.table()
        np.savez(path, names=np.array(self.names), name=table[:, 0], parent=table[:, 1],
                 start=table[:, 2], end=table[:, 3])

    def count(self, name: str, begin: int = 0, end: int | None = None) -> int:
        """Calls recorded under `name` among spans begin..end."""
        if name not in self._ids:
            return 0
        return int(np.sum(self.table()[begin:end, 0] == self._ids[name]))


def layer_metrics(tracer: Tracer, traced_wall_s: float, overhead_s: float,
                  comm_bytes: int) -> tuple[dict, list[tuple[str, float]]]:
    """Per-layer metrics and the self-time table (layers plus `other`).

    A span's self time is its duration minus its direct children's
    durations; `other` is the traced wall time the spans do not cover, so
    the table sums to `traced_wall_s` exactly.
    """
    table = tracer.table()
    name_ids, parents = table[:, 0], table[:, 1]
    names = tracer.names
    duration = (table[:, 3] - table[:, 2]) / 1e9
    has_parent = parents >= 0
    child_time = np.bincount(parents[has_parent], weights=duration[has_parent],
                             minlength=duration.size)
    self_time = duration - child_time

    def select(name):
        if name not in names:
            return np.zeros(duration.size, dtype=bool)
        return name_ids == names.index(name)

    def calls(name):
        return int(select(name).sum())

    def pct(name, q, scale):
        picked = duration[select(name)]
        return float(np.percentile(picked, q) * scale) if picked.size else 0.0

    def share(name):
        return float(duration[select(name)].sum() / traced_wall_s * 100.0)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for nid, name in enumerate(names):
        layer_self[name.split(".")[0]] += float(self_time[name_ids == nid].sum())
    self_table = list(layer_self.items())
    self_table.append(("other", traced_wall_s - sum(layer_self.values())))

    collect = select("reinforce.collect_trajectories")
    collect_ids = np.flatnonzero(collect)
    step_in_collect = select("env.step") & np.isin(parents, collect_ids)
    us, ms = 1e6, 1e3
    metrics = {
        "env.step.calls": (calls("env.step"), "count"),
        "env.step.us_p50": (pct("env.step", 50, us), "us"),
        "env.step.us_p99": (pct("env.step", 99, us), "us"),
        "policy.sample_action.us_p50": (pct("policy.sample_action", 50, us), "us"),
        "policy.sample_action.us_p99": (pct("policy.sample_action", 99, us), "us"),
        "policy.extract_batch.us_p50": (pct("policy.extract_batch", 50, us), "us"),
        "policy.kl_batch_loss.us_p50": (pct("policy.kl_batch_loss", 50, us), "us"),
        "policy.wire_encode.us_p50": (pct("policy.wire_encode", 50, us), "us"),
        "policy.wire_decode.us_p50": (pct("policy.wire_decode", 50, us), "us"),
        "policy.log_prob_grad.calls": (calls("policy.log_prob_grad"), "count"),
        "policy.log_prob_grad.share_pct": (share("policy.log_prob_grad"), "%"),
        "nn_core.forward.single.us_p50": (pct("nn_core.forward.single", 50, us), "us"),
        "nn_core.forward.batch.us_p50": (pct("nn_core.forward.batch", 50, us), "us"),
        "nn_core.backward.batch.us_p50": (pct("nn_core.backward.batch", 50, us), "us"),
        "nn_core.backward.single.calls": (calls("nn_core.backward.single"), "count"),
        "nn_core.backward.single.share_pct": (share("nn_core.backward.single"), "%"),
        "nn_core.adam_step.us_p50": (pct("nn_core.adam_step", 50, us), "us"),
        "reinforce.collect_trajectories.self_us_per_step": (
            float(self_time[collect].sum() / max(int(step_in_collect.sum()), 1) * us), "us"),
        "reinforce.policy_gradient.us_p50": (pct("reinforce.policy_gradient", 50, us), "us"),
        "reinforce.local_update.us_p50": (pct("reinforce.local_update", 50, us), "us"),
        "reinforce.local_round.ms_p50": (pct("reinforce.local_round", 50, ms), "ms"),
        "reinforce.local_round.ms_p90": (pct("reinforce.local_round", 90, ms), "ms"),
        "federation.distillation_round.ms_p50": (
            pct("federation.distillation_round", 50, ms), "ms"),
        "federation.distillation_round.ms_p90": (
            pct("federation.distillation_round", 90, ms), "ms"),
        "federation.aggregate.us_p50": (pct("federation.aggregate", 50, us), "us"),
        "federation.comm_bytes": (comm_bytes, "B"),
        "public_states.generate.s": (
            float(duration[select("public_states.generate")].sum()), "s"),
        "experiment.run_cell.s_p50": (pct("experiment.run_cell", 50, 1.0), "s"),
        "experiment.metrics_rows.ms_p50": (pct("experiment.metrics_rows", 50, ms), "ms"),
        "experiment.train_experiment.self_s": (
            float(self_time[select("experiment.train_experiment")].sum()), "s"),
        "diagnostics.gradient_variance.share_pct": (
            share("diagnostics.gradient_variance"), "%"),
        "diagnostics.sample_trajectory_gradients.share_pct": (
            share("diagnostics.sample_trajectory_gradients"), "%"),
        "diagnostics.lipschitz_probe.share_pct": (share("diagnostics.lipschitz_probe"), "%"),
    }
    for layer, seconds in self_table:
        metrics[f"{layer}.self_pct"] = (seconds / traced_wall_s * 100.0, "%")
    metrics["trace.wall_s"] = (traced_wall_s, "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics, self_table
