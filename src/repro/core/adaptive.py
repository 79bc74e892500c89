"""The adaptive architecture: a trained detector gating mitigations
(paper Section VIII-A, Figures 14 and 16).

``AdaptiveArchitecture`` runs any program with the detector classifying
every HPC sampling window; a positive flag enables the configured defense
for ``secure_window`` committed instructions, after which the core falls
back to full performance.
"""

import copy
from dataclasses import dataclass

from repro.defenses.controller import SecureModeController
from repro.defenses.policies import run_workload
from repro.obs import metrics
from repro.sim import Machine, SimConfig, cycle_cap
from repro.sim.config import DefenseMode


@dataclass
class AdaptiveRun:
    """Outcome of one adaptive execution."""

    result: object               # sim RunResult
    flags: int                   # detector positives
    secure_fraction: float       # fraction of windows in secure mode
    machine: object = None
    latched: bool = False        # watchdog forced always-secure mode
    latch_reason: str = None     # why (None unless latched)

    @property
    def cycles(self):
        return self.result.cycles

    @property
    def ipc(self):
        return self.result.ipc


class AdaptiveArchitecture:
    """Detector + secure-mode policy, runnable over attacks or workloads."""

    def __init__(self, detector, secure_mode=DefenseMode.FENCE_SPECTRE,
                 secure_window=10_000, sample_period=1000,
                 fail_secure=True):
        self.detector = detector
        self.secure_mode = secure_mode
        self.secure_window = secure_window
        self.sample_period = sample_period
        self.fail_secure = fail_secure

    def _controller(self):
        """A fresh per-run detector hook for the machine."""
        return SecureModeController(self.detector.detector_fn(),
                                    self.secure_mode,
                                    self.secure_window,
                                    fail_secure=self.fail_secure)

    def run_source(self, source, config=None, max_cycles=None):
        """Run an Attack or Workload under adaptive protection, for
        ``max_cycles`` or else the source's :func:`~repro.sim.cycle_cap`."""
        program, actors = source.build()
        controller = self._controller()
        machine = Machine(
            program,
            copy.deepcopy(config) if config is not None else SimConfig(),
            sample_period=self.sample_period,
            actors=actors,
            detector_hook=controller,
        )
        result = machine.run(max_cycles=cycle_cap(source)
                             if max_cycles is None else max_cycles)
        return self._outcome(controller, machine, result)

    def _outcome(self, controller, machine, result):
        return AdaptiveRun(result=result, flags=controller.flags,
                           secure_fraction=controller.secure_fraction,
                           machine=machine, latched=controller.latched,
                           latch_reason=controller.latch_reason)

    def overhead_on(self, workloads, baseline_cycles=None):
        """Adaptive overhead per benign workload vs the undefended run.

        Returns ``(overheads, baseline_cycles)``.  Each workload's gated
        run comes first.  A run whose controller never flagged and never
        latched never called ``Machine.set_defense``: it ran the default
        ``SimConfig()`` to the cycle cap ``run_workload`` uses, so it
        *is* the undefended run (sampling only observes) and its cycles
        are reused as the baseline, counted in
        ``adaptive.baseline.reused``.  Any other run's baseline is
        simulated.  Entries of ``baseline_cycles`` win over both.
        """
        supplied = baseline_cycles or {}
        baselines = dict(supplied)
        reused = metrics().counter("adaptive.baseline.reused")
        overheads = {}
        for w in workloads:
            run = self.run_source(w)
            if w.name in supplied:
                base = supplied[w.name]
            elif (not run.flags and not run.latched
                  and run.machine.config == SimConfig()):
                base = run.cycles
                reused.inc()
            else:
                base = run_workload(w, SimConfig()).cycles
            baselines[w.name] = base
            overheads[w.name] = (run.cycles - base) / base if base else 0.0
        return overheads, baselines

    def run_attack(self, attack, config=None):
        """Run an attack under adaptive protection; returns
        ``(run, leaked)`` where ``leaked`` checks whether the channel
        still recovered the secret despite the gated defense."""
        from repro.attacks.base import bits_balanced_accuracy
        run = self.run_source(attack, config=config)
        recovered = attack.recover(run.machine, run.result)
        leaked = bool(attack.secret_bits) and bits_balanced_accuracy(
            attack.secret_bits, recovered) >= 0.75
        return run, leaked
