"""Figure 16: end-to-end defense performance comparison.

The paper's headline numbers: adaptive gating reduces Fencing's Spectre-
mitigation overhead from 74% to 3.46% and InvisiSpec's from 27% to 1.26%
(>= 95% reduction); for the Futuristic model, Fencing falls from 209% to
10% and InvisiSpec from 75% to 4%.  Absolute numbers depend on the
substrate; the asserted shape is the ordering and the >=80% reductions.
"""

from conftest import print_table

from repro.core import AdaptiveArchitecture
from repro.defenses import measure_overhead
from repro.sim.config import DefenseMode


def test_fig16_end_to_end_overhead(benchmark, evax, bench_workloads):
    modes = {
        "fence-spectre": DefenseMode.FENCE_SPECTRE,
        "invisispec-spectre": DefenseMode.INVISISPEC_SPECTRE,
        "fence-futuristic": DefenseMode.FENCE_FUTURISTIC,
        "invisispec-futuristic": DefenseMode.INVISISPEC_FUTURISTIC,
    }

    def measure():
        # the first adaptive pass fills the baselines, reusing every gated
        # run the detector left alone; the rest share them
        baseline = None
        always_on = {}
        adaptive = {}
        for name, mode in modes.items():
            arch = AdaptiveArchitecture(evax.detector, secure_mode=mode,
                                        secure_window=10_000,
                                        sample_period=100)
            oh_a, baseline = arch.overhead_on(bench_workloads,
                                              baseline_cycles=baseline)
            adaptive[name] = sum(oh_a.values()) / len(oh_a)
            oh, _ = measure_overhead(bench_workloads, mode,
                                     baseline_cycles=baseline)
            always_on[name] = sum(oh.values()) / len(oh)
        return always_on, adaptive

    always_on, adaptive = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = []
    for name in modes:
        aon, ada = always_on[name], adaptive[name]
        reduction = 100.0 * (1 - ada / aon) if aon > 0 else 0.0
        rows.append((name, f"{100 * aon:.1f}%", f"{100 * ada:.2f}%",
                     f"{reduction:.0f}%"))
    print_table("Figure 16 — mean benign overhead: always-on vs EVAX-gated",
                ["defense", "always-on", "EVAX-adaptive", "reduction"],
                rows)

    # paper shape: fencing > invisispec; futuristic >= spectre flavour;
    # adaptive cuts every overhead by a large factor
    assert always_on["fence-spectre"] > always_on["invisispec-spectre"]
    assert always_on["fence-futuristic"] >= always_on["fence-spectre"]
    for name in modes:
        assert adaptive[name] < 0.2 * always_on[name] + 0.01, name
        assert adaptive[name] < 0.05, name
