#!/usr/bin/env python3
"""The adaptive architecture end to end (paper Figures 14/16).

Trains the EVAX detector, then:

* runs every transient attack at an *unseen* seed under detector-gated
  fencing and shows that the secrets no longer leak;
* runs the benign suite and compares the adaptive overhead with always-on
  Fencing and InvisiSpec.
"""

import statistics

from repro.attacks import (
    Fallout, LVI, Meltdown, MedusaUnaligned, SpectreBTB, SpectrePHT,
    SpectreRSB, SpectreSTL, ALL_ATTACKS, default_secret_bits,
)
from repro.core import AdaptiveArchitecture, vaccinate
from repro.data import build_dataset
from repro.defenses import measure_overhead
from repro.sim.config import DefenseMode
from repro.workloads import all_workloads


def main():
    print("Training the EVAX detector on the full corpus...")
    attacks = [cls(seed=s) for cls in ALL_ATTACKS for s in (1, 2)]
    dataset = build_dataset(attacks, all_workloads(scale=4, seeds=(0, 1)),
                            sample_period=100)
    evax = vaccinate(dataset, gan_iterations=1200, seed=0)

    arch = AdaptiveArchitecture(evax.detector,
                                secure_mode=DefenseMode.FENCE_FUTURISTIC,
                                secure_window=10_000, sample_period=100)

    print("\nUnseen-seed attacks under the adaptive architecture:")
    for cls in (SpectrePHT, SpectreBTB, SpectreRSB, SpectreSTL,
                Meltdown, LVI, Fallout, MedusaUnaligned):
        attack = cls(secret_bits=default_secret_bits(7, n=12), seed=7)
        baseline = cls(secret_bits=default_secret_bits(7, n=12),
                       seed=7).run()
        run, leaked = arch.run_attack(attack)
        print(f"  {attack.name:18s} undefended leak={baseline.leaked!s:5s}"
              f"  adaptive: flags={run.flags:3d}"
              f"  secure={run.secure_fraction:4.0%}  leak={leaked}")

    print("\nBenign overhead (vs the unprotected baseline):")
    bench = all_workloads(scale=5, seeds=(9,))
    # the gated runs the detector leaves alone double as the baselines
    adaptive, baseline = arch.overhead_on(bench)
    fence, _ = measure_overhead(bench, DefenseMode.FENCE_FUTURISTIC,
                                baseline_cycles=baseline)
    invisi, _ = measure_overhead(bench, DefenseMode.INVISISPEC_SPECTRE,
                                 baseline_cycles=baseline)
    print(f"  always-on fencing   : {statistics.mean(fence.values()):7.1%}")
    print(f"  always-on invisispec: {statistics.mean(invisi.values()):7.1%}")
    print(f"  EVAX adaptive       : {statistics.mean(adaptive.values()):7.1%}")


if __name__ == "__main__":
    main()
