"""Training-stage chaos: injected NaN/spike/kill faults must end in a
recovered model (rollback or checkpoint resume), never a garbage one —
and a faulted detector at inference time must latch the adaptive core
into always-secure mode."""

import argparse
import json

import numpy as np
import pytest

from repro.core import AMGAN, AdaptiveArchitecture, vaccinate
from repro.core.perceptron import HardwareDetector, evax_schema
from repro.ml.resilience import (
    NAN, TrainingCheckpointer, TrainingGuard,
)
from repro.obs import read_manifest
from repro.obs.metrics import metrics
from repro.runtime import (
    ChaosKill, KILL_FAULT, LOSS_SPIKE_FAULT, NAN_GRAD_FAULT, TrainingChaos,
    TrainingFault,
)


def _toy_problem(seed=7, n=40):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 6))
    cats = np.array(["atk", "benign"] * (n // 2))
    y = np.array([1.0, 0.0] * (n // 2))
    return X, cats, y


def _gan(seed=1):
    return AMGAN(6, ["atk", "benign"], generator_hidden=(8,), seed=seed)


def _all_finite(gan):
    return all(np.isfinite(p).all()
               for net in (gan.generator, gan.discriminator)
               for p in net.parameters)


class TestTrainingChaos:
    def test_nan_fault_rolls_back_and_completes(self):
        X, cats, y = _toy_problem()
        guard = TrainingGuard(snapshot_every=10)
        chaos = TrainingChaos([TrainingFault(NAN_GRAD_FAULT, at=12)])
        gan = _gan().train(X, cats, y, iterations=30,
                           guard=guard, chaos=chaos)
        assert chaos.fired                         # the fault was injected
        assert guard.failure_counts()[NAN] == 1
        assert [(s, k) for s, k, _ in guard.trips] == [(12, NAN)]
        assert _all_finite(gan)

    def test_loss_spike_fault_is_caught_and_recovered(self):
        X, cats, y = _toy_problem()
        guard = TrainingGuard(snapshot_every=10, loss_window=4,
                              loss_factor=5.0)
        chaos = TrainingChaos([TrainingFault(LOSS_SPIKE_FAULT, at=15,
                                             scale=1e8)])
        gan = _gan().train(X, cats, y, iterations=30,
                           guard=guard, chaos=chaos)
        assert chaos.fired
        assert sum(guard.failure_counts().values()) >= 1
        assert _all_finite(gan)
        # recovered parameters are back at trained scale, not 1e8
        assert max(np.abs(p).max() for p in gan.generator.parameters) < 1e3

    def test_unguarded_nan_fault_poisons_training(self):
        """The counterfactual the guard exists for: without it, one
        transient NaN propagates into the weights."""
        X, cats, y = _toy_problem()
        chaos = TrainingChaos([TrainingFault(NAN_GRAD_FAULT, at=5)])
        gan = _gan().train(X, cats, y, iterations=12, chaos=chaos)
        assert not _all_finite(gan)

    def test_guard_presence_does_not_change_healthy_trajectory(self):
        """The guard must be RNG-neutral when nothing trips, or enabling
        it would invalidate reproducibility of every clean run."""
        X, cats, y = _toy_problem()
        plain = _gan().train(X, cats, y, iterations=15)
        guarded = _gan().train(X, cats, y, iterations=15,
                               guard=TrainingGuard(snapshot_every=5))
        for a, b in zip(plain.generator.parameters,
                        guarded.generator.parameters):
            assert np.array_equal(a, b)


class TestKillAndResume:
    def test_kill_then_resume_is_bit_exact(self, tmp_path):
        X, cats, y = _toy_problem()
        clean = _gan().train(X, cats, y, iterations=30)

        ckdir, ctx = str(tmp_path / "ck"), {"test": "resume"}
        chaos = TrainingChaos([TrainingFault(KILL_FAULT, at=23)])
        interrupted = _gan()
        with pytest.raises(ChaosKill):
            interrupted.train(
                X, cats, y, iterations=30, chaos=chaos,
                checkpointer=TrainingCheckpointer(ckdir, ctx, interval=10))

        resumed_ck = TrainingCheckpointer(ckdir, ctx, interval=10,
                                          resume=True)
        survivor = _gan()
        start, payload = survivor.restore_checkpoint(resumed_ck, "gan")
        assert start == 20                         # last durable snapshot
        survivor.train(X, cats, y, iterations=30, checkpointer=resumed_ck,
                       start_iteration=start)
        for net in ("generator", "discriminator"):
            for a, b in zip(getattr(clean, net).parameters,
                            getattr(survivor, net).parameters):
                assert np.array_equal(a, b)
        # the RNG stream is aligned too: post-training generation matches
        assert np.array_equal(clean.generate("atk", 1, 4),
                              survivor.generate("atk", 1, 4))

    def test_nan_plus_kill_recovers_with_close_eval_metrics(self, tmp_path):
        """The acceptance scenario: NaN mid-training plus a kill between
        checkpoints; rollback + resume must complete and the vaccinated
        detector must score close to the fault-free run."""
        from repro.data import build_dataset
        from repro.workloads import all_workloads
        from tests.conftest import FAST_ATTACKS

        dataset = build_dataset(
            [cls(seed=1) for cls in FAST_ATTACKS[:3]],
            all_workloads(scale=2, seeds=(0,))[:3], sample_period=500)
        kwargs = dict(gan_iterations=30, epochs=6, engineer_features=False,
                      adversarial_hardening=False, style_tracking=False,
                      seed=0)
        clean = vaccinate(dataset, **kwargs)

        ckdir, ctx = str(tmp_path / "ck"), {"seed": 0}
        chaos = TrainingChaos([TrainingFault(NAN_GRAD_FAULT, at=8),
                               TrainingFault(KILL_FAULT, at=24)])
        guard = TrainingGuard(snapshot_every=5)
        with pytest.raises(ChaosKill):
            vaccinate(dataset, guard=guard, chaos=chaos,
                      checkpointer=TrainingCheckpointer(ckdir, ctx,
                                                        interval=10),
                      **kwargs)
        assert guard.failure_counts()[NAN] == 1

        recovered = vaccinate(
            dataset, guard=TrainingGuard(snapshot_every=5),
            checkpointer=TrainingCheckpointer(ckdir, ctx, interval=10,
                                              resume=True),
            **kwargs)
        raw, labels = dataset.raw_matrix(clean.schema), dataset.labels()
        clean_eval = clean.detector.evaluate(raw, labels)
        recovered_eval = recovered.detector.evaluate(
            dataset.raw_matrix(recovered.schema), labels)
        # the NaN rollback reseeds the RNG, so trajectories legitimately
        # differ — but the recovered detector must be comparably good
        assert abs(clean_eval["accuracy"]
                   - recovered_eval["accuracy"]) < 0.15

    def test_manifest_records_taxonomy_and_lineage(self, tmp_path):
        """A guarded, resumed training run inside a RunContext lands its
        trip taxonomy and checkpoint lineage in the run manifest."""
        from repro.obs.context import RunContext

        X, cats, y = _toy_problem()
        ckdir, ctx = str(tmp_path / "ck"), {"seed": 0}

        def _run(manifest_path, resume):
            args = argparse.Namespace(
                command="train", log_file=None, log_level="info",
                metrics_out=None, manifest_out=manifest_path,
                no_manifest=False, profile=None, seed=0)
            run_ctx = RunContext(args, argv=["train"])
            with run_ctx:
                ck = TrainingCheckpointer(ckdir, ctx, interval=10,
                                          resume=resume)
                gan = _gan()
                start = 0
                if resume:
                    start, payload = gan.restore_checkpoint(ck, "gan")
                    if payload is not None:
                        from repro.obs.context import record_lineage
                        record_lineage(
                            parent_run=payload["extra"].get("run"),
                            checkpoint_iteration=start)
                chaos = TrainingChaos(
                    [TrainingFault(NAN_GRAD_FAULT, at=start + 3)])
                gan.train(X, cats, y, iterations=start + 10,
                          guard=TrainingGuard(snapshot_every=5),
                          checkpointer=ck, chaos=chaos,
                          start_iteration=start)
            return run_ctx.run_id

        parent = _run(str(tmp_path / "m1.json"), resume=False)
        _run(str(tmp_path / "m2.json"), resume=True)

        first = read_manifest(str(tmp_path / "m1.json"))
        assert first["lineage"] is None
        assert first["failures"]["training"][NAN] == 1
        assert first["failures"]["training"]["rollbacks"] == 1
        assert first["metrics"]["counters"]["guard.checkpoints.written"] >= 1

        second = read_manifest(str(tmp_path / "m2.json"))
        assert second["lineage"] == {"parent_run": parent,
                                     "resumed_from_iteration": 10}
        assert second["failures"]["training"][NAN] == 1
        assert second["metrics"]["counters"]["guard.checkpoints.restored"] \
            == 1


class TestAdaptiveFailSecure:
    def _poisoned_detector(self):
        schema = evax_schema()
        detector = HardwareDetector(schema, seed=0)
        detector.normalizer.max_values = np.ones(schema.dim)
        detector.net.layers[0].weights[:] = np.nan     # silently degraded
        return detector

    def test_nan_detector_raises_instead_of_passing_everything(self):
        from repro.sim.hpc import COUNTER_NAMES

        detector = self._poisoned_detector()
        with pytest.raises(ValueError):
            detector.classify_window([1] * len(COUNTER_NAMES))

    def test_adaptive_run_latches_always_secure(self):
        from repro.attacks import Meltdown

        metrics().reset()
        arch = AdaptiveArchitecture(self._poisoned_detector(),
                                    sample_period=200)
        run = arch.run_source(Meltdown(seed=1), max_cycles=20_000)
        assert run.latched
        assert "ValueError" in run.latch_reason
        assert run.secure_fraction == 1.0
        snapshot = metrics().snapshot()["counters"]
        assert snapshot["adaptive.fail_secure.latches"] == 1
        assert snapshot["adaptive.detector.errors"] == 1
        assert snapshot["adaptive.windows.secure"] == \
            snapshot["adaptive.windows.total"]

    def test_latched_benign_run_simulates_its_baseline(self):
        from repro.defenses import run_workload
        from repro.sim import SimConfig
        from repro.workloads import all_workloads

        workloads = all_workloads(scale=1)[:2]
        arch = AdaptiveArchitecture(self._poisoned_detector(),
                                    sample_period=200)
        reused = metrics().counter("adaptive.baseline.reused").value
        latches = metrics().counter("adaptive.fail_secure.latches").value
        overheads, baseline = arch.overhead_on(workloads)
        assert metrics().counter("adaptive.fail_secure.latches").value \
            == latches + len(workloads)
        assert metrics().counter("adaptive.baseline.reused").value == reused
        for w in workloads:
            base = run_workload(w, SimConfig()).cycles
            gated = arch.run_source(w).cycles
            assert baseline[w.name] == base
            assert overheads[w.name] == (gated - base) / base

    def test_fail_secure_can_be_disabled_for_debugging(self):
        from repro.attacks import Meltdown

        arch = AdaptiveArchitecture(self._poisoned_detector(),
                                    sample_period=200, fail_secure=False)
        with pytest.raises(RuntimeError):
            arch.run_source(Meltdown(seed=1), max_cycles=20_000)


@pytest.mark.slow
def test_vaccinate_resume_matches_uninterrupted_bit_exact(small_dataset,
                                                          tmp_path):
    """Full-pipeline determinism: kill the GAN stage between checkpoints,
    resume, and the final detector (weights, threshold, artifacts all the
    way down) must equal the uninterrupted run bit for bit."""
    kwargs = dict(gan_iterations=60, epochs=8, engineer_features=False,
                  seed=0)
    clean = vaccinate(small_dataset, **kwargs)

    ckdir, ctx = str(tmp_path / "ck"), {"seed": 0}
    chaos = TrainingChaos([TrainingFault(KILL_FAULT, at=50)])
    with pytest.raises(ChaosKill):
        vaccinate(small_dataset, chaos=chaos,
                  checkpointer=TrainingCheckpointer(ckdir, ctx, interval=20),
                  **kwargs)

    resumed = vaccinate(
        small_dataset,
        checkpointer=TrainingCheckpointer(ckdir, ctx, interval=20,
                                          resume=True),
        **kwargs)
    for a, b in zip(clean.detector.net.parameters,
                    resumed.detector.net.parameters):
        assert np.array_equal(a, b)
    assert clean.detector.threshold == resumed.detector.threshold
    assert np.array_equal(clean.detector.normalizer.max_values,
                          resumed.detector.normalizer.max_values)
    assert json.dumps(clean.style_history) == \
        json.dumps(resumed.style_history)
