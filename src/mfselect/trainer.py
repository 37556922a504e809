"""Desk-scale data generation, label noise, and the built-in trainer.

Provides Gaussian-blob datasets with symmetric/asymmetric label-noise
injection, a small numpy classifier (linear softmax or one-hidden-layer
MLP) trained with SGD + momentum under a per-round cosine schedule, and a
two-state Markov simulator that produces memorized/misclassified sequences
directly, without any training, for fast end-to-end checks.

The trainer records each instance's predicted label and cross-entropy loss
at the moment its mini-batch is forward-passed, before that batch's
gradient step, which is what the selection metrics assume.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np


@dataclass
class ToyDataset:
    """Feature matrix with observed and ground-truth labels.

    ``true_labels`` are retained for evaluation only; training always uses
    ``observed_labels``. ``split`` marks each row as train or test. Ids are
    opaque strings; row order is the instance order everywhere.
    """

    ids: np.ndarray
    features: np.ndarray
    observed_labels: np.ndarray
    true_labels: np.ndarray
    n_classes: int
    split: np.ndarray

    def __post_init__(self):
        n = len(self.ids)
        if not (
            len(self.features) == n
            == len(self.observed_labels)
            == len(self.true_labels)
            == len(self.split)
        ):
            raise ValueError("all per-row arrays must have equal length")
        for labels in (self.observed_labels, self.true_labels):
            if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
                raise ValueError("labels must lie in [0, n_classes)")

    @property
    def train_positions(self) -> np.ndarray:
        return np.flatnonzero(self.split == "train")

    @property
    def test_positions(self) -> np.ndarray:
        return np.flatnonzero(self.split == "test")

    @property
    def train_ids(self) -> list:
        return self.ids[self.train_positions].tolist()

    def positions_of(self, ids) -> np.ndarray:
        """Row positions for the given ids, in the given order."""
        lookup = {v: i for i, v in enumerate(self.ids.tolist())}
        try:
            return np.array([lookup[i] for i in ids], dtype=np.intp)
        except KeyError as exc:
            raise KeyError(f"unknown instance id {exc.args[0]!r}") from None

    def clean_mask(self) -> np.ndarray:
        """Per training row, in ``train_ids`` order: observed label == true label."""
        pos = self.train_positions
        return self.observed_labels[pos] == self.true_labels[pos]

    def noise_ratio(self) -> float:
        pos = self.train_positions
        if pos.size == 0:
            return 0.0
        return float(
            np.mean(self.observed_labels[pos] != self.true_labels[pos])
        )


def make_blobs(
    n_classes: int,
    per_class: int,
    dim: int,
    spread: float,
    seed: int,
    test_per_class: int = 0,
) -> ToyDataset:
    """Gaussian clusters with unit-separated means scaled by ``spread``.

    Class means sit on the scaled standard basis (random unit directions
    when dim < n_classes); samples add unit-variance noise. Observed labels
    start equal to the true labels. ``test_per_class`` extra points per
    class form the test split. Ids are the row numbers as strings.
    """
    if min(n_classes, per_class, dim) < 1 or spread < 0 or test_per_class < 0:
        raise ValueError("blob parameters must be positive (spread nonnegative)")
    rng = np.random.default_rng(seed)
    if dim >= n_classes:
        means = np.zeros((n_classes, dim))
        means[np.arange(n_classes), np.arange(n_classes)] = spread
    else:
        directions = rng.normal(size=(n_classes, dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        means = spread * directions

    blocks, labels, splits = [], [], []
    for part, count in (("train", per_class), ("test", test_per_class)):
        for c in range(n_classes):
            blocks.append(means[c] + rng.normal(size=(count, dim)))
            labels.append(np.full(count, c, dtype=np.int64))
            splits.append(np.full(count, part, dtype=object))
    features = np.concatenate(blocks)
    y = np.concatenate(labels)
    split = np.concatenate(splits).astype("U5")
    return ToyDataset(
        ids=np.array([str(i) for i in range(len(y))], dtype=object),
        features=features,
        observed_labels=y.copy(),
        true_labels=y.copy(),
        n_classes=n_classes,
        split=split,
    )


def inject_symmetric_noise(ds: ToyDataset, ratio: float, seed: int) -> ToyDataset:
    """Flip exactly floor(ratio * n_train) observed labels uniformly.

    Flipped labels are drawn from the *other* classes, so the nominal ratio
    is the true corruption rate. Features, true labels and the test split
    are untouched.
    """
    if not 0 <= ratio < 1:
        raise ValueError(f"ratio must be in [0, 1), got {ratio}")
    if ds.n_classes < 2:
        raise ValueError("need at least 2 classes to inject label noise")
    rng = np.random.default_rng(seed)
    observed = ds.observed_labels.copy()
    train = ds.train_positions
    n_flip = int(math.floor(ratio * train.size))
    if n_flip:
        chosen = rng.choice(train, size=n_flip, replace=False)
        offsets = rng.integers(1, ds.n_classes, size=n_flip)
        observed[chosen] = (observed[chosen] + offsets) % ds.n_classes
    return replace(ds, observed_labels=observed)


def circular_class_map(n_classes: int) -> dict[int, int]:
    """Each class maps to the next one (mod n_classes)."""
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    return {c: (c + 1) % n_classes for c in range(n_classes)}


def inject_asymmetric_noise(
    ds: ToyDataset, ratio: float, class_map: dict[int, int], seed: int
) -> ToyDataset:
    """Flip a ``ratio`` fraction of each mapped class to its target class.

    Selection is made against the original labels, so a circular map at
    ratio 1.0 yields an exact cyclic permutation.
    """
    if not 0 <= ratio <= 1:
        raise ValueError(f"ratio must be in [0, 1], got {ratio}")
    for src, dst in class_map.items():
        if src == dst:
            raise ValueError(f"class map has a fixed point: {src} -> {dst}")
    rng = np.random.default_rng(seed)
    original = ds.observed_labels
    observed = original.copy()
    train = ds.train_positions
    for src in sorted(class_map):
        members = train[original[train] == src]
        n_flip = int(math.floor(ratio * members.size))
        if n_flip:
            chosen = rng.choice(members, size=n_flip, replace=False)
            observed[chosen] = class_map[src]
    return replace(ds, observed_labels=observed)


class SoftmaxNet:
    """Linear softmax classifier, optionally with one ReLU hidden layer."""

    def __init__(self, dim: int, n_classes: int, hidden: int | None = None, seed: int = 0):
        self.dim = dim
        self.n_classes = n_classes
        self.hidden = hidden
        rng = np.random.default_rng(seed)
        if hidden:
            self.params = [
                rng.normal(0.0, 1.0 / math.sqrt(dim), size=(dim, hidden)),
                np.zeros(hidden),
                rng.normal(0.0, 1.0 / math.sqrt(hidden), size=(hidden, n_classes)),
                np.zeros(n_classes),
            ]
        else:
            # zero init: the objective is convex, no symmetry to break
            self.params = [np.zeros((dim, n_classes)), np.zeros(n_classes)]

    def logits(self, x: np.ndarray) -> np.ndarray:
        if self.hidden:
            w1, b1, w2, b2 = self.params
            h = np.maximum(x @ w1 + b1, 0.0)
            return h @ w2 + b2
        w, b = self.params
        return x @ w + b

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.logits(x).argmax(axis=1)

    # a diverging step overflows here; the trainer reports the non-finite
    # losses itself, so numpy's warnings would only repeat it
    @np.errstate(over="ignore", invalid="ignore")
    def loss_and_grads(self, x: np.ndarray, y: np.ndarray):
        """Logits, per-sample cross-entropy losses and mean-loss gradients."""
        if self.hidden:
            w1, b1, w2, b2 = self.params
            pre = x @ w1 + b1
            h = np.maximum(pre, 0.0)
            z = h @ w2 + b2
        else:
            z = self.logits(x)
        z_max = z.max(axis=1, keepdims=True)
        log_norm = z_max + np.log(np.exp(z - z_max).sum(axis=1, keepdims=True))
        losses = (log_norm[:, 0] - z[np.arange(len(y)), y])

        probs = np.exp(z - log_norm)
        probs[np.arange(len(y)), y] -= 1.0
        probs /= len(y)
        if self.hidden:
            d_h = probs @ w2.T
            d_h[pre <= 0] = 0.0
            grads = [x.T @ d_h, d_h.sum(axis=0), h.T @ probs, probs.sum(axis=0)]
        else:
            grads = [x.T @ probs, probs.sum(axis=0)]
        return z, losses, grads


@dataclass
class TrainerConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 128
    schedule: str = "cosine"
    arch: str = "softmax_linear"
    hidden: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.schedule != "cosine":
            raise ValueError(f"unsupported schedule {self.schedule!r}")
        if self.arch not in ("softmax_linear", "mlp"):
            raise ValueError(f"unsupported arch {self.arch!r}")


@dataclass
class RoundLog:
    """One round's prediction log, the only in-memory form of its dynamics.

    Row ``r`` of every array belongs to ``ids[r]``. ``bits`` is the (n, E)
    int8 status matrix (1 memorized, 0 misclassified at that epoch);
    ``losses`` the (n, E) per-epoch losses, or None when not recorded;
    ``labels`` the observed labels and ``true_labels`` the ground truth, or
    None when unknown.
    """

    ids: list
    bits: np.ndarray
    losses: np.ndarray | None
    labels: np.ndarray
    true_labels: np.ndarray | None

    def __len__(self) -> int:
        return len(self.ids)

    def clean_mask(self) -> np.ndarray | None:
        """True for each row whose observed label matches the truth; None without truth."""
        if self.true_labels is None:
            return None
        return self.labels == self.true_labels


def cosine_lr(base_lr: float, epoch: int, total_epochs: int) -> float:
    if total_epochs <= 1:
        return base_lr
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * epoch / total_epochs))


class SGDTrainer:
    """In-process trainer satisfying the per-round contract.

    Model and optimizer state persist across rounds unless ``reset`` is
    called. All randomness comes from the config seed, so identical
    (dataset, config) pairs produce bit-identical prediction logs.
    """

    def __init__(self, dim: int, n_classes: int, config: TrainerConfig | None = None):
        self.config = config or TrainerConfig()
        self.dim = dim
        self.n_classes = n_classes
        self.rng = np.random.default_rng(self.config.seed)
        self._init_model()

    def _init_model(self):
        hidden = self.config.hidden if self.config.arch == "mlp" else None
        self.net = SoftmaxNet(self.dim, self.n_classes, hidden, seed=self.config.seed)
        self.velocity = [np.zeros_like(p) for p in self.net.params]

    def reset(self):
        """Re-initialize model and optimizer state (the shuffle stream continues)."""
        self._init_model()

    def train_epoch(self, features: np.ndarray, labels: np.ndarray,
                    learning_rate: float | None = None):
        """One pass over the data in a freshly shuffled mini-batch order.

        Returns (predicted labels, per-sample losses), both recorded before
        the corresponding batch's gradient update and aligned to the input
        row order.
        """
        lr = self.config.learning_rate if learning_rate is None else learning_rate
        n = len(labels)
        batch = min(self.config.batch_size, n)
        perm = self.rng.permutation(n)
        preds = np.empty(n, dtype=np.int64)
        losses = np.empty(n, dtype=float)
        for start in range(0, n, batch):
            idx = perm[start : start + batch]
            x, y = features[idx], labels[idx]
            logits, batch_losses, grads = self.net.loss_and_grads(x, y)
            if not np.all(np.isfinite(batch_losses)):
                raise FloatingPointError(
                    f"non-finite loss in batch at offset {start} "
                    f"(size {idx.size}, lr {lr:.3g})"
                )
            preds[idx] = logits.argmax(axis=1)
            losses[idx] = batch_losses
            for p, v, g in zip(self.net.params, self.velocity, grads):
                v *= self.config.momentum
                v += g
                p -= lr * v
        return preds, losses

    def fit_round(self, dataset: ToyDataset, ids, epochs: int) -> RoundLog:
        """Train for ``epochs`` epochs on the given ids and log the dynamics."""
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        ids = list(ids)
        pos = dataset.positions_of(ids)
        x = dataset.features[pos]
        y = dataset.observed_labels[pos]
        seq = np.empty((len(ids), epochs), dtype=np.int8)
        loss_hist = np.empty((len(ids), epochs), dtype=float)
        for e in range(epochs):
            lr = cosine_lr(self.config.learning_rate, e, epochs)
            preds, losses = self.train_epoch(x, y, lr)
            seq[:, e] = preds == y
            loss_hist[:, e] = losses
        return RoundLog(ids=ids, bits=seq, losses=loss_hist, labels=y,
                        true_labels=dataset.true_labels[pos])

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self.net.predict(features)

    def state_dict(self) -> dict:
        """Everything a checkpoint holds; ``from_state_dict`` rebuilds the trainer.

        ``params`` and ``velocity`` are lists of array copies; every other
        value is plain JSON data.
        """
        return {
            "config": asdict(self.config),
            "dim": self.dim,
            "n_classes": self.n_classes,
            "params": [p.copy() for p in self.net.params],
            "velocity": [v.copy() for v in self.velocity],
            "rng_state": self.rng.bit_generator.state,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "SGDTrainer":
        trainer = cls(state["dim"], state["n_classes"], TrainerConfig(**state["config"]))
        for array, saved in zip(trainer.net.params + trainer.velocity,
                                state["params"] + state["velocity"], strict=True):
            array[...] = saved
        trainer.rng.bit_generator.state = state["rng_state"]
        return trainer


@dataclass
class DynamicsModel:
    """Two-state chain parameters for synthetic learning dynamics.

    Clean instances must memorize at least as readily and forget at most as
    readily as noisy ones. ``ramp``, when given, multiplies the noisy
    memorization probability per epoch to model late-training memorization
    of falsely-labeled data.
    """

    p_memorize_clean: float = 0.35
    p_forget_clean: float = 0.02
    p_memorize_noisy: float = 0.08
    p_forget_noisy: float = 0.30
    ramp: list[float] | None = None

    def __post_init__(self):
        probs = (
            self.p_memorize_clean,
            self.p_forget_clean,
            self.p_memorize_noisy,
            self.p_forget_noisy,
        )
        if any(not 0 <= p <= 1 for p in probs):
            raise ValueError("all transition probabilities must be in [0, 1]")
        if self.p_memorize_clean < self.p_memorize_noisy:
            raise ValueError("clean memorization probability must be >= noisy")
        if self.p_forget_clean > self.p_forget_noisy:
            raise ValueError("clean forgetting probability must be <= noisy")


def simulate_dynamics(
    n_clean: int,
    n_noisy: int,
    model: DynamicsModel | None = None,
    epochs: int = 50,
    seed: int = 0,
) -> RoundLog:
    """Evolve per-instance two-state chains and emit them as a round log.

    Every chain starts misclassified and the start state is recorded as the
    first epoch's status. The clean instances come first; they get labels
    (0, 0) and the noisy ones (1, 0), so ``log.clean_mask()`` recovers which
    is which. The log records no losses.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if n_clean < 0 or n_noisy < 0 or n_clean + n_noisy == 0:
        raise ValueError("need a positive number of instances")
    model = model or DynamicsModel()
    if model.ramp is not None and len(model.ramp) < epochs:
        raise ValueError("ramp schedule shorter than the epoch count")
    rng = np.random.default_rng(seed)
    n = n_clean + n_noisy
    is_clean = np.zeros(n, dtype=bool)
    is_clean[:n_clean] = True
    p_forget = np.where(is_clean, model.p_forget_clean, model.p_forget_noisy)
    state = np.zeros(n, dtype=np.int8)
    bits = np.empty((n, epochs), dtype=np.int8)
    for e in range(epochs):
        bits[:, e] = state
        mult = 1.0 if model.ramp is None else float(model.ramp[e])
        p_memorize = np.where(
            is_clean,
            model.p_memorize_clean,
            min(max(model.p_memorize_noisy * mult, 0.0), 1.0),
        )
        u = rng.random(n)
        memorize = (state == 0) & (u < p_memorize)
        forget = (state == 1) & (u < p_forget)
        state = np.where(memorize, 1, np.where(forget, 0, state)).astype(np.int8)

    ids = [f"clean_{i:05d}" for i in range(n_clean)] + [
        f"noisy_{i:05d}" for i in range(n_noisy)
    ]
    return RoundLog(ids=ids, bits=bits, losses=None,
                    labels=(~is_clean).astype(np.int64),
                    true_labels=np.zeros(n, dtype=np.int64))
