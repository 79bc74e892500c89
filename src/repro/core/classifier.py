"""Attack-type classification and targeted mitigation selection.

The paper's abstract promises a detector that can "detect *and classify*
attacks in time for mitigation to be deployed" — the AM-GAN is conditioned
per attack type precisely so the system understands type structure.  This
module completes that arc:

* :class:`AttackClassifier` — a softmax head over the same HPC feature
  schema that names the attack *family* of a flagged window;
* :data:`FAMILY_RESPONSES` — the cheapest mitigation that covers each
  family (a Spectre flag does not need to fence every load; a Rowhammer
  flag needs a DRAM response, not a speculation fence);
* :class:`TargetedAdaptiveArchitecture` — the adaptive architecture with
  per-family responses: binary detector gates, classifier aims.
"""

import numpy as np

from repro.core.adaptive import AdaptiveArchitecture, AdaptiveRun
from repro.data.features import MaxNormalizer
from repro.ml import MLP, Adam, CategoricalCrossEntropy
from repro.sim.config import DefenseMode

#: attack category -> mitigation family
#:
#: * ``speculation`` — wrong-path transient leaks; covered by fencing
#:   conditional/indirect speculation (the Spectre threat model);
#: * ``fault``      — deferred-fault / assist / store-bypass transients;
#:   need the Futuristic model (fence every load);
#: * ``contention`` — cross-process channels through shared state (caches,
#:   ports, predictor, RNG, row buffer, bus); speculation defenses do not
#:   touch them — the response is quarantine (deschedule / migrate the
#:   co-resident party);
#: * ``dram``       — integrity attacks on DRAM cells; the response is an
#:   in-DRAM refresh-rate boost.
CATEGORY_FAMILIES = {
    "spectre-pht": "speculation", "spectre-btb": "speculation",
    "spectre-rsb": "speculation",
    "spectre-stl": "fault", "meltdown": "fault", "lvi": "fault",
    "fallout": "fault", "medusa-cache": "fault",
    "medusa-unaligned": "fault", "medusa-shadow": "fault",
    "microscope": "fault", "zombieload": "fault", "foreshadow": "fault",
    "spoiler": "fault",
    "rowhammer": "dram", "trrespass": "dram",
    "drama": "contention", "leaky-buddies": "contention",
    "smotherspectre": "contention", "branchscope": "contention",
    "flush-reload": "contention", "flush-flush": "contention",
    "prime-probe": "contention", "flushconflict": "contention",
    "rdrnd": "contention", "evict-time": "contention",
    "benign": "benign",
}

#: family -> the cheapest covering speculation defense; contention-family
#: responses quarantine actors, dram-family responses boost refresh
FAMILY_RESPONSES = {
    "speculation": DefenseMode.FENCE_SPECTRE,
    "fault": DefenseMode.FENCE_FUTURISTIC,
    "contention": DefenseMode.NONE,      # quarantine instead
    "dram": DefenseMode.NONE,            # refresh boost instead
    "benign": DefenseMode.NONE,
}

FAMILIES = ("speculation", "fault", "contention", "dram", "benign")


class AttackClassifier:
    """Softmax family classifier over raw HPC windows."""

    def __init__(self, schema, hidden=(48,), seed=0):
        self.schema = schema
        self.families = FAMILIES
        self.normalizer = MaxNormalizer()
        dims = [schema.dim] + list(hidden) + [len(self.families)]
        acts = ["relu"] * len(hidden) + ["softmax"]
        self.net = MLP(dims, acts, seed=seed,
                       loss=CategoricalCrossEntropy(),
                       optimizer=Adam(lr=0.005))

    def _one_hot(self, families):
        out = np.zeros((len(families), len(self.families)))
        for i, fam in enumerate(families):
            out[i, self.families.index(fam)] = 1.0
        return out

    def fit(self, dataset, epochs=40, seed=0):
        """Train on a labelled dataset's windows, grouped into families."""
        raw = dataset.raw_matrix(self.schema)
        self.normalizer.fit(raw)
        X = self.normalizer.transform(raw)
        families = [CATEGORY_FAMILIES.get(c, "benign")
                    for c in dataset.groups()]
        Y = self._one_hot(families)
        rng = np.random.default_rng(seed)
        for _ in range(epochs):
            order = rng.permutation(len(X))
            for i in range(0, len(X), 32):
                batch = order[i:i + 32]
                self.net.train_batch(X[batch], Y[batch])
        return self

    def predict_family(self, deltas):
        """Family name for one raw counter-delta window."""
        raw = self.schema.raw_vector(deltas)
        X = self.normalizer.transform(raw[None, :])
        probs = self.net.predict(X)[0]
        return self.families[int(np.argmax(probs))]

    def family_accuracy(self, dataset):
        raw = dataset.raw_matrix(self.schema)
        X = self.normalizer.transform(raw)
        probs = self.net.predict(X)
        predicted = np.argmax(probs, axis=1)
        actual = np.array([self.families.index(
            CATEGORY_FAMILIES.get(c, "benign")) for c in dataset.groups()])
        return float((predicted == actual).mean())


class TargetedController:
    """Secure-mode controller with per-family responses.

    On a binary flag, the classifier names the family and the controller
    applies that family's cheapest covering mitigation; DRAM-family flags
    additionally boost the refresh rate (the in-DRAM Rowhammer response).
    """

    def __init__(self, detector_fn, classifier, secure_window=10_000,
                 refresh_boost=32):
        self.detector_fn = detector_fn
        self.classifier = classifier
        self.secure_window = secure_window
        self.refresh_boost = refresh_boost
        self.active_family = None
        self.secure_until = 0
        self.flags = 0
        self.family_flags = {}
        self._normal_refresh = None

    def __call__(self, machine, sample):
        if self.active_family and sample.commit_index >= self.secure_until:
            self._relax(machine)
        flagged = bool(self.detector_fn(sample))
        if flagged:
            self.flags += 1
            family = self.classifier.predict_family(sample.deltas)
            if family == "benign":
                family = "fault"     # flagged but unrecognized: cover all
            self.family_flags[family] = self.family_flags.get(family, 0) + 1
            self.secure_until = sample.commit_index + self.secure_window
            self._engage(machine, family)
        return flagged

    def _engage(self, machine, family):
        self.active_family = family
        machine.set_defense(FAMILY_RESPONSES[family])
        if family == "contention":
            machine.actors_suspended = True
        elif family == "dram":
            if self._normal_refresh is None:
                self._normal_refresh = machine.config.dram_refresh_interval
            machine.config.dram_refresh_interval = max(
                1, self._normal_refresh // self.refresh_boost)

    def _relax(self, machine):
        self.active_family = None
        machine.set_defense(DefenseMode.NONE)
        machine.actors_suspended = False
        if self._normal_refresh is not None:
            machine.config.dram_refresh_interval = self._normal_refresh


class TargetedAdaptiveArchitecture(AdaptiveArchitecture):
    """Detector + classifier: gate on the flag, aim the response."""

    def __init__(self, detector, classifier, secure_window=10_000,
                 sample_period=100):
        super().__init__(detector, secure_window=secure_window,
                         sample_period=sample_period)
        self.classifier = classifier

    def _controller(self):
        return TargetedController(self.detector.detector_fn(),
                                  self.classifier,
                                  self.secure_window)

    def _outcome(self, controller, machine, result):
        run = AdaptiveRun(result=result, flags=controller.flags,
                          secure_fraction=0.0, machine=machine)
        run.family_flags = controller.family_flags
        return run
