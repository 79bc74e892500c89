"""The benchmark's two workloads: set-up, one timed pass, and checks.

Each workload stresses layers the other leaves idle, so a change to one
layer shows on the workload that runs it and, as a prediction of no
change, on the other:

* ``pipeline`` is what a user runs to get a detector: a resilient
  parallel corpus build of every attack and benign workload, then
  ``load_dataset``, ``vaccinate`` under a rollback ``TrainingGuard``
  (as ``repro train`` passes it), ``evaluate``, ``save_detector`` and
  ``markdown_report``, and finally scoring a held-out corpus.  The
  simulator, the runtime fan-out, data IO and ml/core training do the
  work; the serving layer does none.  It is timed cold (fresh output
  directory, empty decode cache) because every ``repro collect`` pays
  that cost.
* ``deploy`` puts the detector trained in set-up to its two uses, and
  does no training.  First the paper's Fig 16 path:
  ``AdaptiveArchitecture`` gating FENCE_FUTURISTIC, ``run_attack`` on
  six attacks and ``overhead_on`` over all 19 benign workloads at
  scale 4, from an empty decode cache.  The simulator runs in process
  with the detector hook called every window, per-window
  ``score_window`` and defense-mode switching; the scale-4 footprint is
  larger relative to the modelled caches, and each benign program is
  built twice, so the decode cache is shared within a pass.  Then 8
  tenants replay the set-up corpus through ``DetectionService`` in a
  closed loop: each tick submits one window per tenant,
  ``process_batch`` runs whenever 1024 windows are queued, ``drain``
  runs at the end.  The windows are materialised and one warm-up batch
  is scored in set-up, so the load generator stays out of the timed
  path.  A closed loop is used because the service has no time-based
  flush: an open loop would need the benchmark to invent a flush
  policy.

Every workload takes the benchmark seed and turns it into source seeds;
the program receives only the generated inputs.
"""

import gc
import hashlib
import json
import math
import os
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.analysis import markdown_report
from repro.attacks import ALL_ATTACKS, ATTACKS_BY_NAME, default_secret_bits
from repro.core import (
    AdaptiveArchitecture, detector_to_dict, save_detector, vaccinate,
)
from repro.data import build_dataset, load_dataset, save_dataset
from repro.data.parallel import build_dataset_resilient
from repro.ml.resilience import TrainingGuard
from repro.obs import metrics
from repro.serve import DetectionService, ServeConfig, streams_from_dataset
from repro.sim import GLOBAL_DECODE_CACHE
from repro.sim.config import DefenseMode
from repro.workloads import all_workloads

clock = time.perf_counter

#: corpus-build worker processes: the 2 of the verify-skill corpus,
#: never more than the host has cores
WORKERS = max(1, min(2, os.cpu_count() or 1))
#: held-out sources use seeds this far from the training ones
HELD_OUT_OFFSET = 1000
PERIOD = 250
SECURE_MODE = DefenseMode.FENCE_FUTURISTIC
SECURE_WINDOW = 10_000
BATCH = 1024
MIN_PASSES = 3
ADAPTIVE_ATTACKS = ("spectre-pht", "meltdown", "lvi", "spectre-rsb",
                    "medusa-cache", "flush-reload")

#: ``full`` is the measured benchmark; ``small`` exists for the
#: benchmark's own self-tests (same code paths, seconds instead of
#: minutes)
SIZES = {
    "full": {"attacks": None, "benign": None, "scale": 2,
             "gan_iterations": 120, "tenants": 8, "ticks": 20_000,
             "adaptive_attacks": ADAPTIVE_ATTACKS, "adaptive_benign": None,
             "adaptive_scale": 4},
    "small": {"attacks": 3, "benign": 3, "scale": 1,
              "gan_iterations": 20, "tenants": 8, "ticks": 300,
              "adaptive_attacks": ("spectre-pht", "flush-reload"),
              "adaptive_benign": 3, "adaptive_scale": 1},
}


def sha256_bytes(data):
    return hashlib.sha256(data).hexdigest()


def sha256_file(path):
    with open(path, "rb") as fh:
        return sha256_bytes(fh.read())


def detector_digest(detector):
    """The SHA-256 ``save_detector`` puts in the envelope."""
    payload = json.dumps(detector_to_dict(detector), sort_keys=True,
                         separators=(",", ":"))
    return sha256_bytes(payload.encode())


def dataset_digest(dataset):
    deltas = np.asarray([r.deltas for r in dataset.records], dtype=np.int64)
    labels = np.asarray(dataset.labels(), dtype=np.int64)
    return sha256_bytes(deltas.tobytes() + labels.tobytes())


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def item_medians(stats):
    """Each item's median latency over the passes: the items of one pass
    differ in size, so pooling them across passes would let host noise
    reorder neighbours around a percentile."""
    return [statistics.median(s["item_s"][key] for s in stats)
            for key in stats[0]["item_s"]]


@dataclass
class Context:
    """What every workload function needs: size, seed, scratch dir and,
    in a traced pass, the span recorder."""

    size: dict
    seed: int
    workdir: str
    tracer: object = None

    def span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()


@dataclass
class Outcome:
    """One set-up repetition or timed pass.

    ``outputs`` are the deterministic results checked against the pins
    (default seed) or the first repetition; ``weights`` says how many
    operations fail when an output key mismatches.  ``failed`` counts
    operations that missed a structural check.
    """

    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    state: object = None


def run_pass(W, ctx, state):
    """One timed pass of workload ``W``, after a full collection so that
    garbage from earlier passes is not collected inside it."""
    gc.collect()
    return W.run_pass(ctx, state)


def timed_passes(W, ctx, state, ledger, seconds):
    """At least :data:`MIN_PASSES`, and as many as fit in ``seconds``."""
    passes = []
    start = clock()
    while len(passes) < MIN_PASSES or clock() - start < seconds:
        try:
            out = run_pass(W, ctx, state)
        except Exception:  # a crashed pass is a failed operation
            ledger.crash(f"pass {len(passes)}")
            break
        ledger.record(f"pass {len(passes)}", out)
        passes.append(out)
    return passes


def corpus_sources(size, seed, held_out=False):
    """Attack and benign sources for one corpus; the workload seed picks
    the source seeds, so one seed always gives the same corpus."""
    base = seed + (HELD_OUT_OFFSET if held_out else 0)
    attacks = [cls(seed=base + 1) for cls in ALL_ATTACKS[:size["attacks"]]]
    benign = all_workloads(scale=size["scale"],
                           seeds=(base,))[:size["benign"]]
    return attacks, benign


def build_corpus(ctx, sources, checkpoint_dir=None, progress=None):
    """Resilient parallel corpus build; returns ``(dataset, failed)``
    where ``failed`` counts sources that failed or yielded no window."""
    attacks, benign = sources
    with ctx.span("data.build"):
        dataset, report = build_dataset_resilient(
            attacks, benign, sample_period=PERIOD, processes=WORKERS,
            checkpoint_dir=checkpoint_dir, progress=progress)
    n = len(attacks) + len(benign)
    present = len({r.source for r in dataset.records})
    return dataset, max(len(report.failures), n - present)


def train(ctx, dataset):
    """Guarded vaccination, as ``repro train`` runs it."""
    guard = TrainingGuard(policy="rollback")
    with ctx.span("core.vaccinate"):
        return vaccinate(dataset, gan_iterations=ctx.size["gan_iterations"],
                         guard=guard)


# -- pipeline ---------------------------------------------------------------


class Pipeline:
    name = "pipeline"
    #: set-up repetitions: a held-out build is short and forks workers,
    #: so its median needs more of them to settle
    setup_reps = 5

    @staticmethod
    def setup(ctx):
        sources = corpus_sources(ctx.size, ctx.seed, held_out=True)
        n = sum(map(len, sources))
        heldout, failed = build_corpus(ctx, sources)
        out = Outcome(attempted=n, failed=failed)
        out.outputs = {"setup.heldout": dataset_digest(heldout)}
        out.weights = {"setup.heldout": n}
        out.state = {"heldout": heldout}
        return out

    @staticmethod
    def run_pass(ctx, state):
        heldout = state["heldout"]
        sources = corpus_sources(ctx.size, ctx.seed)
        n_sources = sum(map(len, sources))
        workdir = os.path.join(ctx.workdir, "pipeline")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        corpus = os.path.join(workdir, "corpus")
        det_path = os.path.join(workdir, "detector.json")
        latencies = {}
        GLOBAL_DECODE_CACHE.clear()
        t0 = clock()
        dataset, src_failed = build_corpus(
            ctx, sources, checkpoint_dir=os.path.join(workdir, "shards"),
            progress=lambda outcome: latencies.update(
                {outcome.key: outcome.elapsed}))
        with ctx.span("data.save"):
            save_dataset(dataset, corpus)
        t1 = clock()
        with ctx.span("data.load"):
            loaded = load_dataset(corpus)
        result = train(ctx, loaded)
        detector = result.detector
        scores = detector.evaluate(loaded.raw_matrix(result.schema),
                                   loaded.labels())
        save_detector(detector, det_path)
        t2 = clock()
        with ctx.span("analysis.report"):
            report = markdown_report(loaded, detector)
        t3 = clock()

        held_scores = detector.scores_raw(heldout.raw_matrix(result.schema))
        y = np.asarray(heldout.labels())
        flagged = held_scores >= detector.threshold
        confusion = {
            "tp": int((flagged & (y == 1)).sum()),
            "fp": int((flagged & (y == 0)).sum()),
            "tn": int((~flagged & (y == 0)).sum()),
            "fn": int((~flagged & (y == 1)).sum()),
        }
        with open(det_path) as fh:
            envelope_sha = json.load(fh)["sha256"]
        corpus_digests = {"npz_sha256": sha256_file(corpus + ".npz"),
                          "meta_sha256": sha256_file(corpus + ".meta.json"),
                          "windows": len(dataset)}
        train_ok = all(math.isfinite(scores[k])
                       for k in ("accuracy", "auc", "fp_rate", "fn_rate"))
        nonfinite = int((~np.isfinite(held_scores)).sum())
        shutil.rmtree(workdir, ignore_errors=True)

        out = Outcome(wall=t3 - t0,
                      attempted=n_sources + 1 + len(held_scores),
                      failed=src_failed + (0 if train_ok else 1) + nonfinite)
        out.outputs = {
            "corpus": corpus_digests,
            "training": {"detector_sha256": envelope_sha,
                         "report_sha256": sha256_bytes(report.encode())},
            "heldout": confusion,
        }
        out.weights = {"corpus": n_sources, "training": 1,
                       "heldout": len(held_scores)}
        benign = confusion["fp"] + confusion["tn"]
        attack = confusion["tp"] + confusion["fn"]
        out.stats = {
            "pipeline_s": t3 - t0, "collect_s": t1 - t0,
            "train_s": t2 - t1, "report_s": t3 - t2,
            "data.windows": len(dataset), "item_s": latencies,
            "detector_fp_rate": confusion["fp"] / benign if benign else 0.0,
            "detector_fn_rate": confusion["fn"] / attack if attack else 0.0,
        }
        return out

    @staticmethod
    def sim_pass(ctx):
        """Serial in-process build over the pipeline's sources, for the
        traced run: worker-side spans and metrics do not reach the
        parent, so the simulator layers are read from this pass."""
        attacks, benign = corpus_sources(ctx.size, ctx.seed)
        GLOBAL_DECODE_CACHE.clear()
        build_dataset(attacks, benign, sample_period=PERIOD)

    @staticmethod
    def end_to_end(passes):
        stats = [p.stats for p in passes]
        lat = item_medians(stats)
        e2e = {
            "pass_s": statistics.median(s["pipeline_s"] for s in stats),
            "items_per_s": statistics.median(
                s["data.windows"] / s["collect_s"] for s in stats),
        }
        first = stats[0]
        named = [
            ("pipeline_s", e2e["pass_s"], "s"),
            ("collect_s", statistics.median(s["collect_s"] for s in stats),
             "s"),
            ("train_s", statistics.median(s["train_s"] for s in stats), "s"),
            ("report_s", statistics.median(s["report_s"] for s in stats),
             "s"),
            ("collect_windows_per_s", e2e["items_per_s"], "windows/s"),
            ("source_p50_ms", percentile(lat, 50) * 1e3, "ms",
             f"n={len(lat)} sources"),
            ("source_p99_ms", percentile(lat, 99) * 1e3, "ms",
             f"n={len(lat)} sources"),
            ("detector_fp_rate", first["detector_fp_rate"], "ratio"),
            ("detector_fn_rate", first["detector_fn_rate"], "ratio"),
        ]
        return e2e, named


# -- serve ------------------------------------------------------------------


def _serve_plan(dataset, size):
    """Materialise every tenant's windows, tick-major: ``plan[tick]`` is
    the list of ``(tenant, commit_index, window)`` submitted that tick."""
    streams = streams_from_dataset(dataset, size["tenants"], period=PERIOD)
    return [[(s.tenant, *s.next_window()) for s in streams]
            for _ in range(size["ticks"])]


def _serve_config(size):
    return ServeConfig(duration=size["ticks"], batch_window=BATCH,
                       secure_mode=SECURE_MODE, secure_window=SECURE_WINDOW)


def _drive(detector, plan, size, record=False):
    """One closed-loop drive; returns the service and the per-window
    timing arrays.  Latency runs from the tick's first ``submit`` to the
    return of the ``process_batch`` that scored the window."""
    service = DetectionService(detector, _serve_config(size), record=record)
    submit, process = service.submit, service.process_batch
    ticks, tenants = size["ticks"], size["tenants"]
    total = ticks * tenants
    tick_t = np.empty(ticks)
    began = np.empty(total)
    done = np.empty(total)
    batch_s = []
    k = 0
    t0 = clock()
    for tick, arrivals in enumerate(plan):
        tick_t[tick] = clock()
        for tenant, commit_index, window in arrivals:
            submit(tenant, commit_index, window)
        if service.pending >= BATCH:
            b0 = clock()
            n = process()
            b1 = clock()
            began[k:k + n] = b0
            done[k:k + n] = b1
            batch_s.append(b1 - b0)
            k += n
    b0 = clock()
    service.drain()
    b1 = clock()
    wall = b1 - t0
    if service.n_scored > k:
        began[k:service.n_scored] = b0
        done[k:service.n_scored] = b1
        batch_s.append(b1 - b0)
    scored = service.n_scored
    arrival = tick_t[np.arange(scored) // tenants]
    timing = {"wall": wall, "latency": done[:scored] - arrival,
              "wait": began[:scored] - arrival, "batch_s": batch_s}
    return service, timing


def _score_checksum(record):
    h = hashlib.sha256()
    nonfinite = 0
    for tenant in sorted(record):
        rows = record[tenant]
        commit = np.asarray([r[0] for r in rows], dtype=np.int64)
        scores = np.asarray([r[1] for r in rows], dtype=np.float64)
        flags = np.asarray([r[2] for r in rows], dtype=np.int8)
        nonfinite += int((~np.isfinite(scores)).sum())
        h.update(tenant.encode() + commit.tobytes() + scores.tobytes()
                 + flags.tobytes())
    return h.hexdigest(), nonfinite


def _serve_outcome(service, size):
    total = size["ticks"] * size["tenants"]
    summary = service.fanout.summary()
    latched = sum(summary[t]["windows"]
                  for t in service.fanout.latched_tenants())
    out = Outcome(attempted=total,
                  failed=service.n_shed + latched
                  + (total - service.n_scored - service.n_shed))
    out.outputs = {f"tenant.{t}": summary[t] for t in summary}
    out.weights = {f"tenant.{t}": summary[t]["windows"] for t in summary}
    return out


def _serve_part(ctx, state):
    """One closed-loop drive of the materialised plan."""
    service, timing = _drive(state["detector"], state["plan"], ctx.size)
    out = _serve_outcome(service, ctx.size)
    out.wall = timing["wall"]
    out.stats = {
        "serve_s": timing["wall"],
        "windows_per_s": service.n_scored / timing["wall"],
        "serve_p50_ms": percentile(timing["latency"], 50) * 1e3,
        "serve_p99_ms": percentile(timing["latency"], 99) * 1e3,
        "samples": len(timing["latency"]),
        "serve.queue_wait_p99_ms": percentile(timing["wait"], 99) * 1e3,
        "serve.batch_p99_ms": percentile(timing["batch_s"], 99) * 1e3,
        "serve.batches": service.n_batches,
        "serve.shed_ratio": service.n_shed / out.attempted,
        "serve.detector_faults": service.n_faults,
    }
    return out


# -- adaptive ---------------------------------------------------------------


def _adaptive_part(ctx, state):
    """The Fig 16 path, from an empty decode cache."""
    size, seed = ctx.size, ctx.seed
    arch = AdaptiveArchitecture(state["detector"],
                                secure_mode=SECURE_MODE,
                                secure_window=SECURE_WINDOW,
                                sample_period=PERIOD)
    benign = all_workloads(scale=size["adaptive_scale"],
                           seeds=(seed,))[:size["adaptive_benign"]]
    out = Outcome(attempted=len(size["adaptive_attacks"]) + 2 * len(benign))
    item_s, ratios = {}, []
    cycles = leaks = 0
    latches = metrics().counter("adaptive.fail_secure.latches")
    GLOBAL_DECODE_CACHE.clear()
    t0 = clock()
    for name in size["adaptive_attacks"]:
        attack = ATTACKS_BY_NAME[name](
            secret_bits=default_secret_bits(seed + 9, n=10), seed=seed + 9)
        a = clock()
        run, leaked = arch.run_attack(attack)
        key = f"attack.{name}"
        item_s[key] = clock() - a
        out.outputs[key] = [run.cycles, run.flags, run.secure_fraction,
                            leaked]
        out.weights[key] = 1
        if run.cycles <= 0 or run.latched:
            out.failed += 1
        cycles += run.cycles
        leaks += leaked
    for workload in benign:
        latched = latches.value
        a = clock()
        overheads, baseline = arch.overhead_on([workload])
        key = f"benign.{workload.name}"
        item_s[key] = clock() - a
        base = baseline[workload.name]
        gated = base + round(overheads[workload.name] * base)
        out.outputs[key] = [base, gated]
        out.weights[key] = 2
        if base <= 0 or gated <= 0 or latches.value != latched:
            out.failed += 2
        cycles += base + gated
        ratios.append(gated / base if base else float("nan"))
    out.wall = clock() - t0
    out.stats = {
        "adaptive_s": out.wall,
        "cycles_per_s": cycles / out.wall,
        "item_s": item_s,
        "adaptive_slowdown": math.exp(
            statistics.fmean(math.log(r) for r in ratios)),
        "adaptive_leaks": leaks,
    }
    return out


# -- deploy -----------------------------------------------------------------


class Deploy:
    name = "deploy"
    setup_reps = 3

    @staticmethod
    def setup(ctx):
        """The training corpus of this seed, a detector vaccinated on
        it, the materialised serve windows and one warm-up batch."""
        sources = corpus_sources(ctx.size, ctx.seed)
        n = sum(map(len, sources))
        dataset, failed = build_corpus(ctx, sources)
        detector = train(ctx, dataset).detector
        finite = all(np.isfinite(layer.weights).all()
                     for layer in detector.net.layers)
        out = Outcome(attempted=n + 1, failed=failed + (0 if finite else 1))
        out.outputs = {"setup.corpus": dataset_digest(dataset),
                       "setup.detector": detector_digest(detector)}
        out.weights = {"setup.corpus": n, "setup.detector": 1}
        plan = _serve_plan(dataset, ctx.size)
        warm = DetectionService(detector, _serve_config(ctx.size))
        for arrivals in plan[:BATCH // ctx.size["tenants"]]:
            for tenant, commit_index, window in arrivals:
                warm.submit(tenant, commit_index, window)
        warm.process_batch()
        out.state = {"detector": detector, "plan": plan}
        return out

    @staticmethod
    def recorded_pass(ctx, state):
        """Untimed serve drive with per-window recording: the score
        checksum and the per-tenant decisions every pass must
        reproduce."""
        service, _ = _drive(state["detector"], state["plan"], ctx.size,
                            record=True)
        checksum, nonfinite = _score_checksum(service.record)
        out = _serve_outcome(service, ctx.size)
        out.failed += nonfinite
        out.outputs["scores"] = checksum
        out.weights["scores"] = out.attempted
        return out

    @staticmethod
    def run_pass(ctx, state):
        t0 = clock()
        out = _adaptive_part(ctx, state)
        served = _serve_part(ctx, state)
        out.wall = clock() - t0
        out.attempted += served.attempted
        out.failed += served.failed
        out.outputs.update(served.outputs)
        out.weights.update(served.weights)
        out.stats.update(served.stats)
        return out

    @staticmethod
    def end_to_end(passes):
        stats = [p.stats for p in passes]
        items = item_medians(stats)

        def median(key):
            return statistics.median(s[key] for s in stats)

        e2e = {
            "pass_s": statistics.median(p.wall for p in passes),
            "items_per_s": median("cycles_per_s"),
        }
        n = f"n={len(items)} programs"
        per_pass = f"median of {len(stats)} passes, " \
                   f"n={stats[0]['samples']} windows each"
        named = [
            ("deploy_pass_s", e2e["pass_s"], "s"),
            ("adaptive_s", median("adaptive_s"), "s"),
            ("adaptive_cycles_per_s", e2e["items_per_s"], "cycles/s"),
            ("adaptive_run_p50_ms", percentile(items, 50) * 1e3, "ms", n),
            ("adaptive_run_p99_ms", percentile(items, 99) * 1e3, "ms", n),
            ("adaptive_slowdown", stats[0]["adaptive_slowdown"], "ratio"),
            ("adaptive_leaks", stats[0]["adaptive_leaks"], "count"),
            ("serve_s", median("serve_s"), "s"),
            ("serve_windows_per_s", median("windows_per_s"), "windows/s"),
            ("serve_p50_ms", median("serve_p50_ms"), "ms", per_pass),
            ("serve_p99_ms", median("serve_p99_ms"), "ms", per_pass),
        ]
        return e2e, named


WORKLOADS = {w.name: w for w in (Pipeline, Deploy)}
