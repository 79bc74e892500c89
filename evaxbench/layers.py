"""Per-layer metrics of the traced run.

Spans come from :mod:`spans` wrappers around the public functions in
:func:`patch_table`; counts the program already keeps are read as
deltas of ``repro.obs.metrics().snapshot()`` over the traced passes.
Every ``*_s`` metric is self time per timed pass: span duration minus
the time its child spans cover.  ``core.fit_s`` is the one stage with
no public function to wrap; it is the program's own
``vaccinate.fit.seconds`` stage timer minus the ``ml.*`` spans under it.

README.md maps each layer to the end-to-end metric it should move, and
on which workload.
"""

import statistics
import time
from dataclasses import replace

from repro.attacks import ALL_ATTACKS
from repro.obs import metrics
from spans import Tracer
from workloads import WORKERS, Pipeline, run_pass

#: counters and timer totals read from the program's own registry
COUNTERS = (
    "sim.cycles", "sim.committed", "sim.decode.block_hits",
    "sim.decode.block_misses", "runner.tasks.finished",
    "runner.tasks.retried", "runner.tasks.quarantined", "ml.train.batches",
    "guard.trips", "adaptive.flags", "adaptive.secure.entries",
    "adaptive.windows.secure", "adaptive.windows.total",
)
TIMERS = ("runner.task.seconds", "vaccinate.fit.seconds")

#: (name, unit) in the order BENCHMARK.json declares them
PER_LAYER = (
    ("sim.run_s", "s"), ("sim.cycles", "count"), ("sim.committed", "count"),
    ("sim.cycles_per_s", "cycles/s"), ("sim.decode.hit_ratio", "ratio"),
    ("attacks.build_s", "s"), ("workloads.build_s", "s"),
    ("attacks.recover_s", "s"),
    ("runtime.tasks", "count"), ("runtime.retries", "count"),
    ("runtime.failures", "count"), ("runtime.parallel_efficiency", "ratio"),
    ("data.build_s", "s"), ("data.save_s", "s"), ("data.load_s", "s"),
    ("data.windows", "count"),
    ("core.vaccinate_s", "s"), ("core.amgan_train_s", "s"),
    ("core.engineer_s", "s"), ("core.augment_s", "s"), ("core.fit_s", "s"),
    ("core.calibrate_s", "s"), ("core.evaluate_s", "s"),
    ("core.score_batch_s", "s"), ("core.score_window_s", "s"),
    ("core.score_window_calls", "count"),
    ("ml.train_batch_s", "s"), ("ml.train_batches", "count"),
    ("ml.adam_step_s", "s"), ("ml.guard_inspect_s", "s"),
    ("ml.guard_trips", "count"),
    ("serve.submit_s", "s"), ("serve.process_batch_s", "s"),
    ("serve.kernel_share", "ratio"), ("serve.queue_wait_p99_ms", "ms"),
    ("serve.batch_p99_ms", "ms"), ("serve.batches", "count"),
    ("serve.shed_ratio", "ratio"), ("serve.detector_faults", "count"),
    ("defenses.tenant_apply_s", "s"), ("defenses.controller_s", "s"),
    ("defenses.flags", "count"), ("defenses.secure_entries", "count"),
    ("defenses.secure_fraction", "ratio"),
    ("analysis.report_s", "s"),
    ("detector_fp_rate", "ratio"), ("detector_fn_rate", "ratio"),
    ("adaptive_slowdown", "ratio"), ("adaptive_leaks", "count"),
    ("obs.trace_overhead_pct", "%"),
)


def patch_table():
    """``(owner, attribute, span name)`` for every wrapped public
    function.  Attack subclasses inherit ``build``/``recover`` from
    different bases, so each defining class is wrapped once."""
    from repro.core import adversarial, vaccination
    from repro.core.amgan import AMGAN
    from repro.core.perceptron import HardwareDetector
    from repro.defenses.controller import SecureModeController
    from repro.defenses.fanout import TenantSlot
    from repro.ml.network import MLP
    from repro.ml.optim import Adam
    from repro.ml.resilience import TrainingGuard
    from repro.serve import DetectionService
    from repro.sim.machine import Machine
    from repro.workloads.spec import Workload

    table = [(Machine, "run", "sim.run"),
             (Workload, "build", "workloads.build")]
    seen = set()
    for cls in ALL_ATTACKS:
        for attr, name in (("build", "attacks.build"),
                           ("recover", "attacks.recover")):
            owner = next(k for k in cls.__mro__ if attr in k.__dict__)
            if (owner, attr) not in seen:
                seen.add((owner, attr))
                table.append((owner, attr, name))
    table += [
        (AMGAN, "train", "core.amgan_train"),
        (vaccination, "mine_security_hpcs", "core.engineer"),
        (vaccination, "build_augmented_training_set", "core.augment"),
        (adversarial, "adversarial_augmentation", "core.augment"),
        (HardwareDetector, "calibrate_threshold", "core.calibrate"),
        (HardwareDetector, "evaluate", "core.evaluate"),
        (HardwareDetector, "score_batch", "core.score_batch"),
        (HardwareDetector, "score_window", "core.score_window"),
        (MLP, "train_batch", "ml.train_batch"),
        (MLP, "train_batch_with_grad", "ml.train_batch"),
        (Adam, "step", "ml.adam_step"),
        (TrainingGuard, "inspect", "ml.guard_inspect"),
        (DetectionService, "submit", "serve.submit"),
        (DetectionService, "process_batch", "serve.process_batch"),
        (TenantSlot, "apply", "defenses.tenant_apply"),
        (SecureModeController, "__call__", "defenses.controller"),
    ]
    return table


def snapshot():
    """The registry values :func:`per_layer` needs, flattened."""
    snap = metrics().snapshot()
    flat = {k: snap["counters"].get(k, 0) for k in COUNTERS}
    for k in TIMERS:
        flat[k] = snap["timers"].get(k, {}).get("total_s", 0.0)
    return flat


def delta(after, before):
    return {k: after[k] - before[k] for k in after}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, runs, counts, sim_runs, sim_counts, extra):
    """Every :data:`PER_LAYER` metric, per traced pass.

    ``runs``/``counts`` are the traced passes' run ids and registry
    deltas; ``sim_runs``/``sim_counts`` the same for the passes the
    simulator layers are read from (the serial pass for ``pipeline``).
    ``extra`` holds the values the benchmark measures itself.
    """
    n, sim_n = len(runs), len(sim_runs)
    spans = tracer.totals(runs)
    sim_spans = tracer.totals(sim_runs)

    def self_s(name, totals=spans, passes=n):
        return totals.get(name, {}).get("self", 0.0) / passes

    def total_s(name):
        return spans.get(name, {}).get("total", 0.0)

    sim_run = self_s("sim.run", sim_spans, sim_n)
    cycles = sim_counts["sim.cycles"] / sim_n
    hits = sim_counts["sim.decode.block_hits"]
    misses = sim_counts["sim.decode.block_misses"]
    fit_ml = tracer.child_total(
        "core.vaccinate", ("ml.train_batch", "ml.guard_inspect"), runs)
    fit = max(0.0, counts["vaccinate.fit.seconds"] - fit_ml) / n
    values = {
        "sim.run_s": sim_run,
        "sim.cycles": cycles,
        "sim.committed": sim_counts["sim.committed"] / sim_n,
        "sim.cycles_per_s": _ratio(cycles, sim_run),
        "sim.decode.hit_ratio": _ratio(hits, hits + misses),
        "attacks.build_s": self_s("attacks.build", sim_spans, sim_n),
        "workloads.build_s": self_s("workloads.build", sim_spans, sim_n),
        "attacks.recover_s": self_s("attacks.recover", sim_spans, sim_n),
        "runtime.tasks": counts["runner.tasks.finished"] / n,
        "runtime.retries": counts["runner.tasks.retried"] / n,
        "runtime.failures": counts["runner.tasks.quarantined"] / n,
        "runtime.parallel_efficiency": _ratio(
            counts["runner.task.seconds"],
            WORKERS * total_s("data.build")),
        "data.build_s": self_s("data.build"),
        "data.save_s": self_s("data.save"),
        "data.load_s": self_s("data.load"),
        "core.vaccinate_s": max(0.0, self_s("core.vaccinate") - fit),
        "core.amgan_train_s": self_s("core.amgan_train"),
        "core.engineer_s": self_s("core.engineer"),
        "core.augment_s": self_s("core.augment"),
        "core.fit_s": fit,
        "core.calibrate_s": self_s("core.calibrate"),
        "core.evaluate_s": self_s("core.evaluate"),
        "core.score_batch_s": self_s("core.score_batch"),
        "core.score_window_s": self_s("core.score_window"),
        "core.score_window_calls":
            spans.get("core.score_window", {}).get("count", 0) / n,
        "ml.train_batch_s": self_s("ml.train_batch"),
        "ml.train_batches": counts["ml.train.batches"] / n,
        "ml.adam_step_s": self_s("ml.adam_step"),
        "ml.guard_inspect_s": self_s("ml.guard_inspect"),
        "ml.guard_trips": counts["guard.trips"] / n,
        "serve.submit_s": self_s("serve.submit"),
        "serve.process_batch_s": self_s("serve.process_batch"),
        "serve.kernel_share": _ratio(
            tracer.child_total("serve.process_batch", ("core.score_batch",),
                               runs),
            total_s("serve.process_batch")),
        "defenses.tenant_apply_s": self_s("defenses.tenant_apply"),
        "defenses.controller_s": self_s("defenses.controller"),
        "defenses.flags": counts["adaptive.flags"] / n,
        "defenses.secure_entries": counts["adaptive.secure.entries"] / n,
        "defenses.secure_fraction": _ratio(counts["adaptive.windows.secure"],
                                           counts["adaptive.windows.total"]),
        "analysis.report_s": self_s("analysis.report"),
    }
    for name, _ in PER_LAYER:
        values.setdefault(name, extra.get(name, 0.0))
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER}


def traced_run(W, ctx, state, ledger, seconds, path):
    """Alternate untraced and traced passes (2 or 3 pairs; a traced deploy
    pass records half a million spans); per-layer metrics come from the
    traced ones, the overhead from comparing the two."""
    tracer = Tracer()
    table = patch_table()
    tctx = replace(ctx, tracer=tracer)
    plain, traced, runs = [], [], []
    counts = dict.fromkeys(snapshot(), 0)
    start = time.perf_counter()
    while len(traced) < 2 or (len(traced) < 3
                              and time.perf_counter() - start < seconds):
        try:
            plain.append(run_pass(W, ctx, state))
            ledger.record(f"untraced pass {len(plain)}", plain[-1])
            before = snapshot()
            with tracer.traced(table) as run_id:
                out = run_pass(W, tctx, state)
            d = delta(snapshot(), before)
        except Exception:
            ledger.crash(f"traced pair {len(traced)}")
            return None
        ledger.record(f"traced pass {len(traced)}", out)
        counts = {k: counts[k] + d[k] for k in counts}
        traced.append(out)
        runs.append(run_id)
    sim_runs, sim_counts = runs, counts
    if W is Pipeline:
        before = snapshot()
        with tracer.traced(table) as run_id:
            W.sim_pass(tctx)
        sim_runs, sim_counts = [run_id], delta(snapshot(), before)
    untraced_s = statistics.median(p.wall for p in plain)
    extra = {"obs.trace_overhead_pct": 100.0 * (
                 statistics.median(p.wall for p in traced) - untraced_s)
             / untraced_s}
    declared = {name for name, _ in PER_LAYER}
    for key in traced[0].stats.keys() & declared:
        extra[key] = statistics.median(p.stats[key] for p in traced)
    path.parent.mkdir(exist_ok=True)
    tracer.write(path)
    print(f"spans: {len(tracer.start)} written to {path} ({len(traced)} "
          f"traced / {len(plain)} untraced passes)")
    return per_layer(tracer, runs, counts, sim_runs, sim_counts, extra)
