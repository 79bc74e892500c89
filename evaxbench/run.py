"""EVAX benchmark: one command, two workloads, end-to-end and per-layer
metrics, outputs checked against pinned digests.

    python3 evaxbench/run.py --workload {pipeline,deploy}
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The lines
before it name every measured quantity with its unit and the host.
The exit code is 0 only when every operation passed its checks.
See README.md for the workloads and metrics.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINS = BENCH / "pins.json"
#: the only seed digests are pinned for
DEFAULT_SEED = 0
WORK = BENCH / ".work"

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s"), ("pass_s", "s"), ("items_per_s", "items/s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("pipeline", "deploy"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="workload seed; digests are pinned for seed "
                        f"{DEFAULT_SEED}")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measure timed passes for this long "
                        "(at least 3 passes; 2 or 3 traced pairs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: interleave traced passes and report "
                        "per-layer metrics")
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small: the self-test size")
    p.add_argument("--write-pins", action="store_true",
                   help="record this run's outputs as the pins for its "
                        "workload and size (default seed only)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.write_pins and args.seed != DEFAULT_SEED:
        p.error(f"pins are recorded for seed {DEFAULT_SEED} only")
    return args


class Ledger:
    """Operation accounting.

    Each outcome's deterministic outputs are compared key by key with
    the pins (default seed) or with the first value seen in this run;
    a mismatched key fails the operations it stands for.
    """

    def __init__(self, pinned):
        self.pinned = pinned
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, label, out):
        outputs = json.loads(json.dumps(out.outputs))
        bad = []
        for key, value in outputs.items():
            first = self.seen.setdefault(key, value)
            expected = first if self.pinned is None else self.pinned.get(key)
            if value != expected:
                bad.append(key)
        failed = min(out.attempted,
                     out.failed + sum(out.weights[k] for k in bad))
        self.attempted += out.attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{label}: {failed} of {out.attempted} "
                              f"operations failed"
                              + (f"; mismatched {', '.join(bad)}"
                                 if bad else ""))

    def crash(self, label):
        self.attempted += 1
        self.failed += 1
        self.notes.append(f"{label}: raised\n{traceback.format_exc()}")


def host_info():
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = "none"           # a checkout without its own .git
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": numpy.__version__, "commit": commit,
            "source_sha256": digest.hexdigest()}


def reset_peak_rss():
    """Start a new peak-RSS measurement, so that set-up is not in it."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:     # no procfs: the peak stays the lifetime one
        pass


def peak_rss_mb():
    """This process's peak RSS since :func:`reset_peak_rss`."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def show(name, value, unit, note=""):
    print(f"  {name:32s} {value:14.6g} {unit}{'  ' + note if note else ''}")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    nproc = str(os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ.setdefault(var, nproc)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import layers
    import workloads as wl
    import_s = time.perf_counter() - _START

    W = wl.WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    ctx = wl.Context(size=wl.SIZES[args.size], seed=args.seed,
                     workdir=str(workdir))
    pinned = None
    if args.seed == DEFAULT_SEED and not args.write_pins:
        with open(PINS) as fh:
            pinned = json.load(fh).get(args.workload, {}).get(args.size)
    ledger = Ledger(pinned)
    print("host:", json.dumps(host_info(), sort_keys=True))
    print(f"workload={args.workload} size={args.size} seed={args.seed} "
          f"pinned={'yes' if pinned is not None else 'no'}")

    metrics = {}
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for rep in range(W.setup_reps):
            state = out = None      # one repetition's state alive at a time
            gc.collect()
            t = time.perf_counter()
            out = W.setup(ctx)
            setup_times.append(time.perf_counter() - t)
            ledger.record(f"setup {rep}", out)
            state = out.state
        setup_s = import_s + statistics.median(setup_times)
        if W is wl.Deploy:
            ledger.record("recorded pass", W.recorded_pass(ctx, state))
        if args.trace:
            spans = WORK / f"spans-{W.name}-seed{args.seed}.npz"
            metrics = layers.traced_run(W, ctx, state, ledger, args.seconds,
                                        spans) or {}
            for name, m in metrics.items():
                show(name, m["value"], m["unit"])
        else:
            gc.collect()
            reset_peak_rss()
            passes = wl.timed_passes(W, ctx, state, ledger, args.seconds)
            if passes:
                e2e, named = W.end_to_end(passes)
                e2e.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb())
                metrics = {name: {"value": float(e2e[name]), "unit": unit}
                           for name, unit in END_TO_END}
                print(f"setup x{W.setup_reps}: "
                      + ", ".join(f"{t:.3f}" for t in setup_times)
                      + f" s (+{import_s:.3f} s imports); "
                      f"{len(passes)} timed passes: "
                      + ", ".join(f"{p.wall:.3f}" for p in passes) + " s")
                for row in named:
                    show(*row)
                for name, m in metrics.items():
                    show(name, m["value"], m["unit"])
    except Exception:
        ledger.crash("set-up")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for note in ledger.notes:
        print(f"FAILED {note}", file=sys.stderr)
    correct = ledger.failed == 0 and bool(metrics)
    if args.write_pins and correct:
        pins = json.loads(PINS.read_text()) if PINS.exists() else {}
        pins.setdefault(args.workload, {})[args.size] = ledger.seen
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"pins written to {PINS}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
