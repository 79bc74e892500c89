"""Self-tests of the benchmark, at its small size.

    python -m pytest evaxbench -q

They run ``run.py`` as a subprocess, as a benchmark driver would.  The
repository's own suite collects ``tests/`` only, so these do not run
there.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: a seed no digest is pinned for and the benchmark was not tuned on
UNPINNED_SEED = "7"


def run(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--size", "small", "--seconds", "0",
         *args], cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, result


def test_declared_names_are_well_formed_and_unique():
    names = [m["name"] for group in ("end_to_end", "per_layer")
             for m in SPEC[group]] + WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,group", [("0", "end_to_end"),
                                         ("1", "per_layer")])
def test_emits_every_declared_metric_with_its_unit(workload, trace, group):
    proc, result = run("--workload", workload, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[group]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    for name, m in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert isinstance(m["value"], float) and math.isfinite(m["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_unpinned_seed_passes_structural_checks(workload):
    proc, result = run("--workload", workload, "--seed", UNPINNED_SEED)
    assert proc.returncode == 0, proc.stderr
    assert "pinned=no" in proc.stdout
    assert result["correct"] is True and result["failed"] == 0


def copy_bench(tmp_path):
    """A checkout in ``tmp_path`` holding the benchmark's files only."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "evaxbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    return tmp_path / "evaxbench" / "run.py"


def test_altered_pinned_digest_is_a_failed_operation(tmp_path):
    script = copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    pins_path = tmp_path / "evaxbench" / "pins.json"
    pins = json.loads(pins_path.read_text())
    pins["pipeline"]["small"]["training"]["detector_sha256"] = "0" * 64
    pins_path.write_text(json.dumps(pins))
    proc, result = run("--workload", "pipeline", cwd=tmp_path,
                       script=script)
    assert proc.returncode != 0
    assert result["correct"] is False
    assert 1 <= result["failed"] < result["attempted"]
    assert "mismatched training" in proc.stderr


def test_fails_without_printing_a_result_when_the_program_is_absent(
        tmp_path):
    script = copy_bench(tmp_path)
    proc, result = run("--workload", "pipeline", cwd=tmp_path,
                       script=script)
    assert proc.returncode != 0
    assert result is None
