"""vit_noisy_eval: batched noisy TinyViT forwards, one closed-loop caller.

Why: SAMPLE and ENCODE are about three quarters of a noisy matmul, so
this workload puts the photonic stages, the chunk pipeline and the shard
fan-out on the blocking path, with no engine or cluster work at all.

The model is the Fig. 15 TinyViT (16x16 images, dim 32, depth 2) on
``PhotonicExecutor.paper_default(num_cores=2, chunk_size=8)`` with the
thread backend: two shard threads, one per CPU of the reference host.
Its classifier head is fitted in closed form (ridge regression on the
digital model's class-token features) so that the predictions have a
margin and the Fig. 15 accuracy-drop tolerance can be checked.
"""

from __future__ import annotations

import numpy as np

from harness import check
from workloads import Round

BATCH = 64
BATCHES = 12  #: distinct input batches, cycled through by the rounds
ROUND_BATCHES = 4  #: batches per round, one lap each
FIT_IMAGES = 512
CLASSES = 4
PIXEL_NOISE = 0.5
WEIGHT_SEED = 0
#: Fig. 15 tests: accuracy may drop at most this much under paper noise.
MAX_ACCURACY_DROP = 0.08
#: The digital model must beat chance clearly, or the drop check is void.
MIN_DIGITAL_ACCURACY = 0.5


def _class_token_features(model, images: np.ndarray) -> np.ndarray:
    """Normalised class-token features of ``images`` (the head's input).

    The model runs with its head swapped for the identity, so ``forward``
    returns what the head would have received.
    """
    head = model.head
    model.head = lambda cls: cls
    try:
        return model(images).data
    finally:
        model.head = head


def build_model(executor, fit_images: np.ndarray, fit_labels: np.ndarray):
    """TinyViT with a ridge-fitted head, running on ``executor``."""
    from repro.neural.autograd import no_grad
    from repro.neural.photonic import PhotonicExecutor
    from repro.neural.vision import TinyViT

    model = TinyViT(
        n_classes=CLASSES,
        executor=PhotonicExecutor.digital_reference(),
        seed=WEIGHT_SEED,
    )
    with no_grad():
        features = _class_token_features(model, fit_images)
    design = np.hstack([features, np.ones((len(features), 1))])
    targets = np.eye(CLASSES)[fit_labels] * 2.0 - 1.0
    solution = np.linalg.solve(
        design.T @ design + np.eye(design.shape[1]), design.T @ targets
    )
    model.head.weight.data[...] = solution[:-1]
    model.head.bias.data[...] = solution[-1]
    model.set_executor(executor)
    return model


class Workload:
    def __init__(self, seed: int, tiny: bool = False) -> None:
        from repro.neural.data import striped_image_dataset

        self.seed = seed
        self.batches = 2 if tiny else BATCHES
        rng = np.random.default_rng(seed)
        fit_seed, eval_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
        fit = striped_image_dataset(
            FIT_IMAGES, n_classes=CLASSES, noise=PIXEL_NOISE, seed=fit_seed
        )
        data = striped_image_dataset(
            BATCH * self.batches, n_classes=CLASSES, noise=PIXEL_NOISE, seed=eval_seed
        )
        self.fit_images, self.fit_labels = fit.inputs, fit.labels
        self.images = data.inputs.reshape(self.batches, BATCH, *data.inputs.shape[1:])
        self.labels = data.labels.reshape(self.batches, BATCH)
        self.model = None
        self.executor = None
        self.rounds = 0
        self.first_pass: dict[int, np.ndarray] = {}
        self.phase_logits: list[list[np.ndarray]] = []

    # -- life cycle ------------------------------------------------------------
    def setup(self) -> None:
        from repro.neural.autograd import no_grad
        from repro.neural.photonic import PhotonicExecutor

        self.close()
        self.executor = PhotonicExecutor.paper_default(
            seed=self.seed, num_cores=2, chunk_size=8, backend="thread"
        )
        self.model = build_model(self.executor, self.fit_images, self.fit_labels)
        with no_grad():
            self.model(self.images[0])

    def start_phase(self) -> None:
        """Restart the noise stream, so every phase sees the same draws."""
        self.executor.rng = np.random.default_rng(self.seed)
        self.rounds = 0
        self.priced = None
        self.phase_logits.append([])

    def new_round(self) -> list[int]:
        first = self.rounds * ROUND_BATCHES
        self.rounds += 1
        return [(first + k) % self.batches for k in range(ROUND_BATCHES)]

    def run_round(self, indices: list[int], laps) -> Round:
        """One forward per batch; every batch has the same shape, so lap ``k``
        is the same work in every round."""
        from repro.neural.autograd import no_grad

        outputs = []
        with no_grad():
            for k, index in enumerate(indices):
                if k:
                    laps.lap()
                outputs.append(self.model(self.images[index]).data)
        items = BATCH * len(indices)
        return Round(items=items, attempted=items, failed=0, outputs=outputs)

    def finish_round(self, indices: list[int], result: Round) -> None:
        if self.priced is None:
            self.priced = {"images": result.items}
        for index, logits in zip(indices, result.outputs):
            self.first_pass.setdefault(index, logits)
            if len(self.phase_logits[-1]) < self.batches:
                self.phase_logits[-1].append(logits)

    def min_rounds(self) -> int:
        return -(-self.batches // ROUND_BATCHES)

    def layer_values(self) -> dict:
        return {}

    # -- correctness -----------------------------------------------------------
    def verify(self) -> dict:
        """Fig. 15 tolerance on every input batch; traced == untraced bits."""
        from repro.neural.autograd import no_grad
        from repro.neural.photonic import PhotonicExecutor

        check(
            len(self.first_pass) == self.batches,
            f"only {len(self.first_pass)} of {self.batches} batches ran",
        )
        digital = build_model(
            PhotonicExecutor.digital_reference(), self.fit_images, self.fit_labels
        )
        with no_grad():
            reference = [digital(batch).data for batch in self.images]
        labels = self.labels.reshape(-1)
        digital_acc = float(
            np.mean(np.concatenate(reference).argmax(-1) == labels)
        )
        noisy = np.concatenate([self.first_pass[i] for i in range(self.batches)])
        noisy_acc = float(np.mean(noisy.argmax(-1) == labels))
        check(
            digital_acc >= MIN_DIGITAL_ACCURACY,
            f"digital accuracy {digital_acc:.3f} below {MIN_DIGITAL_ACCURACY}",
        )
        check(
            digital_acc - noisy_acc <= MAX_ACCURACY_DROP,
            f"noisy accuracy {noisy_acc:.3f} drops more than {MAX_ACCURACY_DROP} "
            f"below digital {digital_acc:.3f}",
        )
        if len(self.phase_logits) == 2:
            untraced, traced = self.phase_logits
            same = min(len(untraced), len(traced))
            check(same > 0, "no batch ran in both the untraced and the traced phase")
            check(
                all(np.array_equal(u, t) for u, t in zip(untraced[:same], traced[:same])),
                "traced logits differ from untraced logits for the same seed",
            )
        return {"digital_accuracy": digital_acc, "noisy_accuracy": noisy_acc}

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()
            self.executor = None
