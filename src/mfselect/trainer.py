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


def _views(flat: np.ndarray, shapes) -> list:
    """Consecutive pieces of the 1-d array ``flat``, one view per shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


@dataclass
class TrainerConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 128
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
        if self.arch not in ("softmax_linear", "mlp"):
            raise ValueError(f"unsupported arch {self.arch!r}")
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


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

    A linear softmax classifier, with one ReLU hidden layer when
    ``config.arch`` is "mlp", trained by SGD with momentum. Model and
    optimizer state persist across rounds. The config seed seeds the initial
    parameters and, as a separate stream, the shuffle order, so identical
    (dataset, config) pairs produce bit-identical prediction logs.
    ``params``, ``grads`` and ``velocity`` are views of the flat buffers
    ``flat_params``, ``flat_grads`` and ``flat_velocity``, so each momentum
    step is one pass over each buffer; ``copy.deepcopy`` and ``pickle``
    therefore go through ``state_dict``.
    """

    def __init__(self, dim: int, n_classes: int, config: TrainerConfig | None = None):
        self.config = config or TrainerConfig()
        self.dim = dim
        self.n_classes = n_classes
        self.rng = np.random.default_rng(self.config.seed)
        hidden = self.hidden = self.config.hidden if self.config.arch == "mlp" else None
        init_rng = np.random.default_rng(self.config.seed)
        if hidden:
            init = [
                init_rng.normal(0.0, 1.0 / math.sqrt(dim), size=(dim, hidden)),
                np.zeros(hidden),
                init_rng.normal(0.0, 1.0 / math.sqrt(hidden), size=(hidden, n_classes)),
                np.zeros(n_classes),
            ]
        else:
            # zero init: the objective is convex, no symmetry to break
            init = [np.zeros((dim, n_classes)), np.zeros(n_classes)]
        shapes = [p.shape for p in init]
        self.flat_params = np.concatenate([p.ravel() for p in init])
        self.flat_grads = np.zeros_like(self.flat_params)
        self.flat_velocity = np.zeros_like(self.flat_params)
        self.params = _views(self.flat_params, shapes)
        self.grads = _views(self.flat_grads, shapes)
        self.velocity = _views(self.flat_velocity, shapes)

    # numpy copies each view of a flat buffer on its own, which would cut
    # the copy's parameters loose from the buffer that the step updates
    def __getstate__(self) -> dict:
        return self.state_dict()

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(self.from_state_dict(state).__dict__)

    def loss_and_grads(self, x: np.ndarray, target: np.ndarray, pick: np.ndarray,
                       losses: np.ndarray) -> np.ndarray:
        """Logits of the batch ``x``; the mean-loss gradients go into ``grads``.

        ``target`` holds the batch's labels one-hot, and ``pick`` each label's
        index into the flattened logits. Each sample's cross-entropy loss is
        written into ``losses``. A diverging step overflows here: the caller
        silences numpy's warnings and reports the non-finite losses itself.
        """
        if self.hidden:
            w1, b1, w, b = self.params
            pre = x @ w1 + b1
            h = np.maximum(pre, 0.0)
        else:
            w, b = self.params
            h = x
        z = h @ w + b
        z_max = z.max(axis=1, keepdims=True)
        log_norm = z_max + np.log(np.exp(z - z_max).sum(axis=1, keepdims=True))
        np.subtract(log_norm[:, 0], z.take(pick), out=losses)

        probs = np.exp(z - log_norm)
        probs -= target
        probs /= len(x)
        if self.hidden:
            g_w1, g_b1, g_w, g_b = self.grads
            d_h = np.where(pre <= 0, 0.0, probs @ w.T)
            np.matmul(x.T, d_h, out=g_w1)
            d_h.sum(axis=0, out=g_b1)
        else:
            g_w, g_b = self.grads
        np.matmul(h.T, probs, out=g_w)
        probs.sum(axis=0, out=g_b)
        return z

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
        # the epoch's rows in batch order, gathered once: each batch is a slice
        x, y = features[perm], labels[perm]
        target = np.zeros((n, self.n_classes))
        target[np.arange(n), y] = 1.0
        pick = np.arange(n) % batch * self.n_classes + y
        # predictions and losses in that order too, scattered back at the end
        preds_perm = np.empty(n, dtype=np.int64)
        losses_perm = np.empty(n, dtype=float)
        params, velocity = self.flat_params, self.flat_velocity
        grads, momentum = self.flat_grads, self.config.momentum
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, batch):
                rows = slice(start, start + batch)
                batch_losses = losses_perm[rows]
                logits = self.loss_and_grads(x[rows], target[rows], pick[rows],
                                             batch_losses)
                if not np.isfinite(batch_losses).all():
                    raise FloatingPointError(
                        f"non-finite loss in batch at offset {start} "
                        f"(size {batch_losses.size}, lr {lr:.3g})"
                    )
                logits.argmax(axis=1, out=preds_perm[rows])
                velocity *= momentum
                velocity += grads
                params -= lr * velocity
        preds, losses = np.empty_like(preds_perm), np.empty_like(losses_perm)
        preds[perm], losses[perm] = preds_perm, losses_perm
        return preds, losses

    def fit_round(self, dataset: ToyDataset, rows, epochs: int) -> RoundLog:
        """Train ``epochs`` epochs on the dataset rows ``rows``; log row r is rows[r]."""
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        x = dataset.features[rows]
        y = dataset.observed_labels[rows]
        seq = np.empty((len(y), epochs), dtype=np.int8)
        loss_hist = np.empty((len(y), epochs), dtype=float)
        for e in range(epochs):
            lr = cosine_lr(self.config.learning_rate, e, epochs)
            preds, losses = self.train_epoch(x, y, lr)
            seq[:, e] = preds == y
            loss_hist[:, e] = losses
        return RoundLog(ids=dataset.ids[rows].tolist(), bits=seq, losses=loss_hist,
                        labels=y, true_labels=dataset.true_labels[rows])

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.hidden:
            w1, b1, w, b = self.params
            features = np.maximum(features @ w1 + b1, 0.0)
        else:
            w, b = self.params
        return (features @ w + b).argmax(axis=1)

    def state_dict(self) -> dict:
        """Everything a checkpoint holds; ``from_state_dict`` rebuilds the trainer.

        ``params`` and ``velocity`` are lists of array copies; every other
        value is plain JSON data.
        """
        return {
            "config": asdict(self.config),
            "dim": self.dim,
            "n_classes": self.n_classes,
            "params": [p.copy() for p in self.params],
            "velocity": [v.copy() for v in self.velocity],
            "rng_state": self.rng.bit_generator.state,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "SGDTrainer":
        trainer = cls(state["dim"], state["n_classes"], TrainerConfig(**state["config"]))
        for array, saved in zip(trainer.params + trainer.velocity,
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
