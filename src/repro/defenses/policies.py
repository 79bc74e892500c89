"""Defense configurations and overhead measurement (paper Figure 16)."""

import copy
from dataclasses import dataclass

from repro.sim import Machine, SimConfig, cycle_cap
from repro.sim.config import DefenseMode


@dataclass(frozen=True)
class DefensePolicy:
    """One defense configuration from the paper's evaluation.

    ``threat_model`` is "spectre" (mitigate control-flow speculation) or
    "futuristic" (mitigate any speculative load, covering LVI/MDS).
    """

    name: str
    mode: DefenseMode
    threat_model: str
    adaptive: bool = False


#: the configurations compared in Figure 16
DEFENSE_CONFIGS = (
    DefensePolicy("baseline", DefenseMode.NONE, "none"),
    DefensePolicy("fence-spectre", DefenseMode.FENCE_SPECTRE, "spectre"),
    DefensePolicy("fence-futuristic", DefenseMode.FENCE_FUTURISTIC, "futuristic"),
    DefensePolicy("invisispec-spectre", DefenseMode.INVISISPEC_SPECTRE, "spectre"),
    DefensePolicy("invisispec-futuristic", DefenseMode.INVISISPEC_FUTURISTIC,
                  "futuristic"),
    DefensePolicy("evax-spectre-safe", DefenseMode.FENCE_SPECTRE, "spectre",
                  adaptive=True),
    DefensePolicy("evax-safe-fence", DefenseMode.INVISISPEC_SPECTRE, "spectre",
                  adaptive=True),
    DefensePolicy("evax-futuristic-safe", DefenseMode.FENCE_FUTURISTIC,
                  "futuristic", adaptive=True),
    DefensePolicy("evax-futuristic-safe-spec", DefenseMode.INVISISPEC_FUTURISTIC,
                  "futuristic", adaptive=True),
)


def run_workload(workload, config=None, sample_period=1000, max_cycles=None,
                 detector_hook=None):
    """Run one benign workload; returns its RunResult.  ``max_cycles``
    defaults to the workload's :func:`~repro.sim.cycle_cap`."""
    program, actors = workload.build()
    machine = Machine(program, copy.deepcopy(config) if config else SimConfig(),
                      sample_period=sample_period, actors=actors,
                      detector_hook=detector_hook)
    return machine.run(max_cycles=cycle_cap(workload) if max_cycles is None
                       else max_cycles)


def measure_overhead(workloads, mode, baseline_cycles=None,
                     sample_period=1000, detector_hook=None):
    """Per-workload slowdown of ``mode`` vs the undefended baseline.

    Returns ``(overheads, baseline_cycles)`` where overheads maps workload
    name to fractional overhead (0.27 == 27%).
    """
    if baseline_cycles is None:
        baseline_cycles = {}
        for w in workloads:
            result = run_workload(w, SimConfig(defense=DefenseMode.NONE),
                                  sample_period=sample_period)
            baseline_cycles[w.name] = result.cycles
    overheads = {}
    for w in workloads:
        result = run_workload(w, SimConfig(defense=mode),
                              sample_period=sample_period,
                              detector_hook=detector_hook)
        base = baseline_cycles[w.name]
        overheads[w.name] = (result.cycles - base) / base if base else 0.0
    return overheads, baseline_cycles
