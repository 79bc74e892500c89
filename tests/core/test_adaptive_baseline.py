"""Fig 16's undefended baseline: ``AdaptiveArchitecture.overhead_on``
reuses the gated run when the controller never changed the machine's
mode, and simulates the baseline otherwise."""

import pytest

from repro.core import AdaptiveArchitecture
from repro.defenses import run_workload
from repro.obs import metrics
from repro.sim import SimConfig
from repro.sim.config import DefenseMode
from repro.workloads import all_workloads


class StubDetector:
    """Hands each run its own verdict: run ``i`` flags its second window
    when ``i`` is in ``flag_runs``, and nothing else is ever flagged."""

    def __init__(self, flag_runs=()):
        self.flag_runs = set(flag_runs)
        self.runs = 0

    def detector_fn(self):
        flag = self.runs in self.flag_runs
        self.runs += 1
        return lambda sample: flag and sample.window_index == 1


def _arch(detector, sample_period=250):
    return AdaptiveArchitecture(detector,
                                secure_mode=DefenseMode.FENCE_FUTURISTIC,
                                secure_window=10_000,
                                sample_period=sample_period)


def _two_run_overheads(arch, workloads):
    """The computation ``overhead_on`` replaces: every baseline simulated."""
    baseline = {w.name: run_workload(w, SimConfig()).cycles
                for w in workloads}
    overheads = {}
    for w in workloads:
        cycles = arch.run_source(w).cycles
        base = baseline[w.name]
        overheads[w.name] = (cycles - base) / base if base else 0.0
    return overheads, baseline


def _counter(name):
    return metrics().counter(name).value


@pytest.fixture(scope="module")
def workloads():
    return all_workloads(scale=1)


@pytest.mark.parametrize("sample_period", [250, 1000])
def test_never_flagged_gated_run_is_the_undefended_run(workloads,
                                                       sample_period):
    arch = _arch(StubDetector(), sample_period=sample_period)
    assert len(workloads) == 19
    for w in workloads:
        run = arch.run_source(w)
        base = run_workload(w, SimConfig())
        assert run.flags == 0 and not run.latched
        gated = run.result
        assert gated.cycles == base.cycles, w.name
        assert gated.counters == base.counters, w.name
        assert (gated.committed, gated.halt_reason, gated.regs) == \
            (base.committed, base.halt_reason, base.regs), w.name


def test_never_flagged_baselines_are_reused_not_simulated(workloads):
    bench = workloads[:4]
    expected = _two_run_overheads(_arch(StubDetector()), bench)
    reused, runs = _counter("adaptive.baseline.reused"), _counter("sim.runs")
    assert _arch(StubDetector()).overhead_on(bench) == expected
    assert _counter("adaptive.baseline.reused") - reused == len(bench)
    assert _counter("sim.runs") - runs == len(bench)


def test_flagged_run_simulates_its_baseline(workloads):
    bench = workloads[:3]
    expected = _two_run_overheads(_arch(StubDetector(flag_runs={0, 1, 2})),
                                  bench)
    reused, runs = _counter("adaptive.baseline.reused"), _counter("sim.runs")
    arch = _arch(StubDetector(flag_runs={0, 1, 2}))
    assert arch.overhead_on(bench) == expected
    assert _counter("adaptive.baseline.reused") == reused
    assert _counter("sim.runs") - runs == 2 * len(bench)


def test_reused_counter_counts_exactly_the_reused_baselines(workloads):
    bench = workloads[:5]
    # runs 1 and 3 flag; workload 4's baseline is supplied by the caller
    supplied = {bench[4].name: run_workload(bench[4], SimConfig()).cycles}
    expected = _two_run_overheads(_arch(StubDetector(flag_runs={1, 3})),
                                  bench)
    reused = _counter("adaptive.baseline.reused")
    result = _arch(StubDetector(flag_runs={1, 3})).overhead_on(
        bench, baseline_cycles=supplied)
    assert result == expected
    assert _counter("adaptive.baseline.reused") - reused == 2


def test_supplied_baselines_win_and_missing_ones_are_filled(workloads):
    bench = workloads[:3]
    supplied = {bench[0].name: 1000, "not-in-bench": 7}
    overheads, baseline = _arch(StubDetector()).overhead_on(
        bench, baseline_cycles=supplied)
    assert supplied == {bench[0].name: 1000, "not-in-bench": 7}
    assert baseline["not-in-bench"] == 7
    assert baseline[bench[0].name] == 1000
    for w in bench[1:]:
        assert baseline[w.name] == run_workload(w, SimConfig()).cycles
        assert overheads[w.name] == 0.0
    gated = _arch(StubDetector()).run_source(bench[0]).cycles
    assert overheads[bench[0].name] == (gated - 1000) / 1000
