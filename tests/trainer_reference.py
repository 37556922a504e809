"""Straightforward SGD trainer kept as the oracle for ``mfselect.trainer``.

This is the trainer in its plainest form: one array per parameter, the
mini-batch gathered from the input rows by fancy indexing, the gradients
returned as new arrays and the momentum step applied parameter by
parameter. The package's ``SGDTrainer`` keeps its parameters, velocity and
gradients in flat buffers, gathers each epoch's rows once and calls numpy
fewer times per batch, but it performs the same floating-point operations
in the same order, so it must give bit-identical predictions, losses,
parameters, velocity and RNG state; tests compare the two.
"""

from __future__ import annotations

import math

import numpy as np

from mfselect.trainer import TrainerConfig


def initial_params(dim: int, n_classes: int, hidden: int | None, seed: int) -> list:
    """The net's parameters before training: [w, b], or [w1, b1, w2, b2] with a hidden layer."""
    rng = np.random.default_rng(seed)
    if hidden:
        return [
            rng.normal(0.0, 1.0 / math.sqrt(dim), size=(dim, hidden)),
            np.zeros(hidden),
            rng.normal(0.0, 1.0 / math.sqrt(hidden), size=(hidden, n_classes)),
            np.zeros(n_classes),
        ]
    return [np.zeros((dim, n_classes)), np.zeros(n_classes)]


def logits(params: list, hidden: int | None, x: np.ndarray) -> np.ndarray:
    if hidden:
        w1, b1, w2, b2 = params
        h = np.maximum(x @ w1 + b1, 0.0)
        return h @ w2 + b2
    w, b = params
    return x @ w + b


@np.errstate(over="ignore", invalid="ignore")
def loss_and_grads(params: list, hidden: int | None, x: np.ndarray, y: np.ndarray):
    """Logits, per-sample cross-entropy losses and mean-loss gradients."""
    if hidden:
        w1, b1, w2, b2 = params
        pre = x @ w1 + b1
        h = np.maximum(pre, 0.0)
        z = h @ w2 + b2
    else:
        z = logits(params, hidden, x)
    z_max = z.max(axis=1, keepdims=True)
    log_norm = z_max + np.log(np.exp(z - z_max).sum(axis=1, keepdims=True))
    losses = (log_norm[:, 0] - z[np.arange(len(y)), y])

    probs = np.exp(z - log_norm)
    probs[np.arange(len(y)), y] -= 1.0
    probs /= len(y)
    if hidden:
        d_h = probs @ w2.T
        d_h[pre <= 0] = 0.0
        grads = [x.T @ d_h, d_h.sum(axis=0), h.T @ probs, probs.sum(axis=0)]
    else:
        grads = [x.T @ probs, probs.sum(axis=0)]
    return z, losses, grads


class ReferenceTrainer:
    """``SGDTrainer``'s state and epoch, one array per parameter."""

    def __init__(self, dim: int, n_classes: int, config: TrainerConfig):
        self.config = config
        self.hidden = config.hidden
        self.rng = np.random.default_rng(config.seed)
        self.params = initial_params(dim, n_classes, self.hidden, config.seed)
        self.velocity = [np.zeros_like(p) for p in self.params]

    def train_epoch(self, features: np.ndarray, labels: np.ndarray, lr: float):
        """One shuffled pass; (predictions, losses) in input row order, each
        recorded before its batch's gradient step."""
        n = len(labels)
        batch = min(self.config.batch_size, n)
        perm = self.rng.permutation(n)
        preds = np.empty(n, dtype=np.int64)
        losses = np.empty(n, dtype=float)
        for start in range(0, n, batch):
            idx = perm[start : start + batch]
            x, y = features[idx], labels[idx]
            z, batch_losses, grads = loss_and_grads(self.params, self.hidden, x, y)
            if not np.all(np.isfinite(batch_losses)):
                raise FloatingPointError(
                    f"non-finite loss in batch at offset {start} "
                    f"(size {idx.size}, lr {lr:.3g})"
                )
            preds[idx] = z.argmax(axis=1)
            losses[idx] = batch_losses
            for p, v, g in zip(self.params, self.velocity, grads):
                v *= self.config.momentum
                v += g
                p -= lr * v
        return preds, losses
