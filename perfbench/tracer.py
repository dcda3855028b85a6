"""Per-layer tracing: timed wrappers around mdfgan's public functions.

The wrappers are installed from here, around the calls into each module, for
the length of one traced unit, and removed again afterwards; nothing in the
package is edited. Each wrapper records, under a dotted name, the number of
calls, the total time and the self time, which is the total minus the time
spent in wrapped callees. A few wrappers also check exact work counts, so a
refactor that stops a function from being called, or changes how much work
one call does, cannot pass as a silent zero.

Work done in ``--jobs`` worker processes is recorded there: the pool forks
its workers while the wrappers are installed, and after every top-level call
a worker appends what it recorded to a file in the trace directory, which the
parent merges when the unit ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# metric name prefix -> (module, qualified name) of the wrapped function
TARGETS = {
    "nn.adam_step": ("mdfgan.nn.optim", "adam_step"),
    "nn.DenseNetwork.forward": ("mdfgan.nn.network", "DenseNetwork.forward"),
    "nn.DenseNetwork.gradient": ("mdfgan.nn.network", "DenseNetwork.gradient"),
    "nn.activations.apply": ("mdfgan.nn.activations", "apply"),
    "nn.activations.backward": ("mdfgan.nn.activations", "backward"),
    "gan.pretrain_lf": ("mdfgan.gan", "pretrain_lf"),
    "gan.train_adversarial": ("mdfgan.gan", "train_adversarial"),
    "gan.GanMdfModel.predict": ("mdfgan.gan", "GanMdfModel.predict"),
    "gan.save_checkpoint": ("mdfgan.gan", "save_checkpoint"),
    "gan.load_checkpoint": ("mdfgan.gan", "load_checkpoint"),
    "data.make_dataset": ("mdfgan.data", "make_dataset"),
    "data.lhs_sample": ("mdfgan.data", "lhs_sample"),
    "experiments.run_experiment": ("mdfgan.experiments", "run_experiment"),
    "experiments.train_hf_only": ("mdfgan.experiments", "train_hf_only"),
    "cli.main": ("mdfgan.cli", "main"),
}

NN_KERNELS = (
    "nn.adam_step",
    "nn.DenseNetwork.forward",
    "nn.DenseNetwork.gradient",
    "nn.activations.apply",
    "nn.activations.backward",
)

CALLS, TOTAL, SELF = 0, 1, 2  # fields of a Recorder.stats entry

HF_BATCH_CAP = 32  # documented mini-batch rule of the adversarial phase: min(32, I_H)

# (name, unit) of every per-layer metric, in output order
LAYER_METRICS = [
    *[(f"{k}.{stat}", unit) for k in NN_KERNELS for stat, unit in (("calls", "count"), ("self_s", "s"))],
    ("gan.pretrain_lf.s", "s"),
    ("gan.pretrain_lf.adam_steps", "count"),
    ("gan.train_adversarial.s", "s"),
    ("gan.train_adversarial.iterations", "count"),
    ("gan.train_adversarial.adam_steps", "count"),
    ("gan.GanMdfModel.predict.s", "s"),
    ("gan.save_checkpoint.s", "s"),
    ("gan.save_checkpoint.bytes", "B"),
    ("gan.load_checkpoint.s", "s"),
    ("experiments.pretrain.unique_share", "ratio"),
    ("experiments.train_hf_only.s", "s"),
    ("experiments.train_hf_only.adam_steps", "count"),
    ("experiments.run_experiment.s", "s"),
    ("experiments.pool.busy_share", "ratio"),
    ("data.make_dataset.s", "s"),
    ("data.lhs_sample.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead", "ratio"),
]


def _batches(n: int, cap: int) -> int:
    """Mini-batches per epoch over n rows at a batch cap (the last may be short)."""
    return math.ceil(n / min(cap, n))


class Recorder:
    """What one process recorded while the wrappers were installed.

    ``stats`` maps a wrapped name to [calls, total seconds, self seconds].
    ``clear`` empties everything in place, because the wrappers hold on to
    the lists.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0] for name in TARGETS}
        self.counts: dict[str, float] = defaultdict(float)  # work done, named like the metrics
        self.checksums: list[str] = []  # LF-block checksum after each pretrain_lf
        self.violations: list[str] = []  # failed exact-count checks
        self.stack: list[float] = []  # time covered by wrapped callees, per open call

    def clear(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.checksums.clear()
        self.violations.clear()
        self.stack.clear()

    def to_dict(self) -> dict:
        return {
            "stats": {name: list(stat) for name, stat in self.stats.items()},
            "counts": dict(self.counts),
            "checksums": list(self.checksums),
            "violations": list(self.violations),
        }

    def merge(self, doc: dict) -> None:
        for name, values in doc["stats"].items():
            stat = self.stats[name]
            for i, value in enumerate(values):
                stat[i] += value
        for key, value in doc["counts"].items():
            self.counts[key] += value
        self.checksums.extend(doc["checksums"])
        self.violations.extend(doc["violations"])

    def expect(self, what: str, got: float, want: float) -> None:
        if got != want:
            self.violations.append(f"{what}: got {got:g}, expected {want:g}")


# -- checks and counters run after a wrapped call returns ------------------------
# Each takes the recorder, the call's bound arguments, its result, the Adam
# steps taken during the call and the call's wall time.


def _after_pretrain_lf(rec, a, result, adam, elapsed):
    cfg = a["config"]
    rec.counts["gan.pretrain_lf.adam_steps"] += adam
    rec.expect("adam steps in pretrain_lf", adam, _batches(len(a["lf_x"]), cfg.lf_batch_cap) * cfg.epochs_lf)
    rec.checksums.append(a["model"].lf_checksum())


def _after_train_adversarial(rec, a, result, adam, elapsed):
    cfg = a["config"]
    iterations = len(result)
    rec.counts["gan.train_adversarial.iterations"] += iterations
    rec.counts["gan.train_adversarial.adam_steps"] += adam
    rec.expect(
        "iterations of train_adversarial", iterations, cfg.epochs_hf * _batches(len(a["hf_x"]), HF_BATCH_CAP)
    )
    # stages 2 and 4 step both networks when coupled, one otherwise; the
    # supervised trick adds stages 1, 3 and 5
    per_iteration = (4 if cfg.mode == "coupled" else 2) + (3 if cfg.supervised_trick else 0)
    rec.expect("adam steps in train_adversarial", adam, per_iteration * iterations)


def _after_train_hf_only(rec, a, result, adam, elapsed):
    cfg = a["config"]
    rec.counts["experiments.train_hf_only.adam_steps"] += adam
    rec.expect(
        "adam steps in train_hf_only", adam, _batches(a["dataset"].n_hf, HF_BATCH_CAP) * cfg.epochs_lf
    )


def _after_save_checkpoint(rec, a, result, adam, elapsed):
    rec.counts["gan.save_checkpoint.bytes"] += os.path.getsize(result)


def _after_run_experiment(rec, a, result, adam, elapsed):
    if a["n_jobs"] > 1:
        rec.counts["experiments.pool.busy_s"] += sum(r.wall_ms for r in result.records) / 1000.0
        rec.counts["experiments.pool.capacity_s"] += a["n_jobs"] * elapsed


AFTER = {
    "gan.pretrain_lf": _after_pretrain_lf,
    "gan.train_adversarial": _after_train_adversarial,
    "experiments.train_hf_only": _after_train_hf_only,
    "gan.save_checkpoint": _after_save_checkpoint,
    "experiments.run_experiment": _after_run_experiment,
}


class Tracer:
    """Installs the wrappers for one traced unit at a time and gathers what
    this process and its forked workers recorded."""

    def __init__(self, trace_dir: Path) -> None:
        self.trace_dir = trace_dir
        trace_dir.mkdir(parents=True, exist_ok=True)
        self.rec = Recorder()
        self.pid = os.getpid()
        # a forked worker starts empty; the parent keeps its own numbers
        os.register_at_fork(after_in_child=self.rec.clear)

    @contextlib.contextmanager
    def traced(self):
        """Record one unit; on exit the yielded dict holds what it recorded."""
        self.rec.clear()
        undo = self._install()
        out: dict = {}
        try:
            yield out
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
        for path in sorted(self.trace_dir.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                self.rec.merge(json.loads(line))
            path.unlink()
        out.update(self.rec.to_dict())

    def _install(self) -> list[tuple]:
        undo: list[tuple] = []
        for name, (module_name, qualname) in TARGETS.items():
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner).get(attr)
            if original is None:
                raise RuntimeError(f"cannot trace {name}: {module_name}.{qualname} not found")
            wrapper = self._wrap(name, original)
            if owner_name:  # a method: one binding, on its class
                bindings = [(owner, attr)]
            else:  # a function: every mdfgan module that imported it by name
                bindings = [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod_name == "mdfgan" or mod_name.startswith("mdfgan.")
                    for key, value in list(vars(mod).items())
                    if value is original
                ]
            for target, key in bindings:
                undo.append((target, key, original))
                setattr(target, key, wrapper)
        return undo

    def _wrap(self, name: str, fn):
        rec, parent_pid, trace_dir = self.rec, self.pid, self.trace_dir
        stat, adam, stack = rec.stats[name], rec.stats["nn.adam_step"], rec.stack
        after = AFTER.get(name)
        signature = inspect.signature(fn) if after else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            adam_before = adam[CALLS]
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                callees = stack.pop()
                stat[CALLS] += 1
                stat[TOTAL] += elapsed
                stat[SELF] += elapsed - callees
                if stack:
                    stack[-1] += elapsed
            if after:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(rec, bound.arguments, result, adam[CALLS] - adam_before, elapsed)
            if not stack and os.getpid() != parent_pid:
                with open(trace_dir / f"worker-{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(rec.to_dict()) + "\n")
                rec.clear()
            return result

        return wrapper


def missing_calls(unit: dict, must_call) -> list[str]:
    """Wrapped functions the workload should call but that recorded no call."""
    return [f"traced unit recorded no call to {name}" for name in must_call if not unit["stats"][name][CALLS]]


def layer_metrics(units: list[dict], overhead: float) -> dict[str, float]:
    """Per-layer metrics over the traced units.

    Counts and times are means per unit, summed over the unit's processes;
    experiments.run_experiment.s is the mean per call, and the two shares
    are pooled over all units.
    """
    n = len(units)

    def stat(name: str, field: int) -> float:
        return sum(u["stats"][name][field] for u in units) / n

    def count(key: str) -> float:
        return sum(u["counts"].get(key, 0.0) for u in units) / n

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for kernel in NN_KERNELS:
        out[f"{kernel}.calls"] = stat(kernel, CALLS)
        out[f"{kernel}.self_s"] = stat(kernel, SELF)
    for name in (
        "gan.pretrain_lf",
        "gan.train_adversarial",
        "gan.GanMdfModel.predict",
        "gan.save_checkpoint",
        "gan.load_checkpoint",
        "experiments.train_hf_only",
        "data.make_dataset",
        "data.lhs_sample",
    ):
        out[f"{name}.s"] = stat(name, TOTAL)
    for key in (
        "gan.pretrain_lf.adam_steps",
        "gan.train_adversarial.iterations",
        "gan.train_adversarial.adam_steps",
        "gan.save_checkpoint.bytes",
        "experiments.train_hf_only.adam_steps",
    ):
        out[key] = count(key)
    out["experiments.pretrain.unique_share"] = share(
        sum(len(set(u["checksums"])) for u in units), sum(len(u["checksums"]) for u in units)
    )
    out["experiments.run_experiment.s"] = share(
        stat("experiments.run_experiment", TOTAL), stat("experiments.run_experiment", CALLS)
    )
    out["experiments.pool.busy_share"] = share(
        count("experiments.pool.busy_s"), count("experiments.pool.capacity_s")
    )
    out["cli.main.self_s"] = stat("cli.main", SELF)
    out["trace.overhead"] = overhead
    return out
