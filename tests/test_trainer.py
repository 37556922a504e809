import copy
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, mannwhitneyu

from mfselect.trainer import (
    DynamicsModel,
    SGDTrainer,
    TrainerConfig,
    circular_class_map,
    cosine_lr,
    inject_asymmetric_noise,
    inject_symmetric_noise,
    make_blobs,
    simulate_dynamics,
)

import trainer_reference


# ---------------------------------------------------------------------------
# blob generation


def test_make_blobs_shapes_and_cleanliness():
    ds = make_blobs(4, 500, 2, 1.0, seed=7)
    assert len(ds.ids) == 2000
    assert ds.features.shape == (2000, 2)
    assert ds.n_classes == 4
    assert np.array_equal(ds.observed_labels, ds.true_labels)
    assert ds.noise_ratio() == 0.0
    assert len(ds.test_positions) == 0


def test_make_blobs_with_test_split():
    ds = make_blobs(3, 100, 5, 2.0, seed=1, test_per_class=20)
    assert len(ds.train_positions) == 300
    assert len(ds.test_positions) == 60
    assert set(ds.split) == {"train", "test"}


def test_make_blobs_deterministic():
    a = make_blobs(4, 50, 3, 1.5, seed=9, test_per_class=10)
    b = make_blobs(4, 50, 3, 1.5, seed=9, test_per_class=10)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.observed_labels, b.observed_labels)
    assert np.array_equal(a.split, b.split)


def test_nearly_separable_blobs_are_learned():
    ds = make_blobs(3, 100, 4, 25.0, seed=2)
    trainer = SGDTrainer(4, 3, TrainerConfig(learning_rate=0.1, seed=0))
    log = trainer.fit_round(ds, ds.train_positions, epochs=20)
    train_acc = np.mean(
        trainer.predict(ds.features[ds.train_positions])
        == ds.observed_labels[ds.train_positions]
    )
    assert train_acc >= 0.99


# ---------------------------------------------------------------------------
# symmetric noise


def test_symmetric_noise_zero_ratio_is_identity():
    ds = make_blobs(4, 100, 2, 1.0, seed=3)
    noisy = inject_symmetric_noise(ds, 0.0, seed=5)
    assert np.array_equal(noisy.observed_labels, ds.observed_labels)


def test_symmetric_noise_exact_count_and_never_true():
    ds = make_blobs(5, 200, 2, 1.0, seed=3)  # n = 1000
    noisy = inject_symmetric_noise(ds, 0.2, seed=5)
    flipped = noisy.observed_labels != noisy.true_labels
    assert flipped.sum() == 200
    assert np.array_equal(noisy.true_labels, ds.true_labels)
    assert np.array_equal(noisy.features, ds.features)
    assert noisy.noise_ratio() == pytest.approx(0.2)


def test_symmetric_noise_uniform_over_wrong_classes():
    ds = make_blobs(10, 1000, 2, 1.0, seed=3)
    noisy = inject_symmetric_noise(ds, 0.8, seed=11)
    flipped = np.flatnonzero(noisy.observed_labels != noisy.true_labels)
    assert flipped.size == 8000
    # among flipped instances of each true class, the observed labels
    # should be roughly uniform over the 9 wrong classes
    counts = np.zeros((10, 10), dtype=int)
    for pos in flipped:
        counts[noisy.true_labels[pos], noisy.observed_labels[pos]] += 1
    for c in range(10):
        wrong = np.delete(counts[c], c)
        assert chisquare(wrong).pvalue > 1e-4


def test_symmetric_noise_preserves_test_split():
    ds = make_blobs(4, 100, 2, 1.0, seed=3, test_per_class=50)
    noisy = inject_symmetric_noise(ds, 0.5, seed=5)
    test = ds.test_positions
    assert np.array_equal(noisy.observed_labels[test], ds.observed_labels[test])


def test_symmetric_noise_guards():
    ds = make_blobs(1, 10, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        inject_symmetric_noise(ds, 0.2, seed=0)
    ds = make_blobs(3, 10, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        inject_symmetric_noise(ds, 1.0, seed=0)


# ---------------------------------------------------------------------------
# asymmetric noise


def test_asymmetric_noise_exact_per_class_count():
    ds = make_blobs(4, 500, 2, 1.0, seed=3)
    noisy = inject_asymmetric_noise(ds, 0.4, {0: 1}, seed=5)
    moved = (noisy.true_labels == 0) & (noisy.observed_labels == 1)
    assert moved.sum() == 200
    untouched = noisy.true_labels != 0
    assert np.array_equal(
        noisy.observed_labels[untouched], ds.observed_labels[untouched]
    )


def test_asymmetric_noise_empty_map_is_identity():
    ds = make_blobs(4, 100, 2, 1.0, seed=3)
    noisy = inject_asymmetric_noise(ds, 0.7, {}, seed=5)
    assert np.array_equal(noisy.observed_labels, ds.observed_labels)


def test_asymmetric_circular_full_flip_is_cyclic_permutation():
    ds = make_blobs(4, 100, 2, 1.0, seed=3)
    noisy = inject_asymmetric_noise(ds, 1.0, circular_class_map(4), seed=5)
    assert np.array_equal(noisy.observed_labels, (noisy.true_labels + 1) % 4)


def test_asymmetric_fixed_point_rejected():
    ds = make_blobs(4, 100, 2, 1.0, seed=3)
    with pytest.raises(ValueError, match="fixed point"):
        inject_asymmetric_noise(ds, 0.4, {2: 2}, seed=5)


# ---------------------------------------------------------------------------
# the built-in trainer


def test_train_epoch_zero_lr_freezes_model():
    ds = make_blobs(3, 50, 4, 2.0, seed=6)
    trainer = SGDTrainer(4, 3, TrainerConfig(learning_rate=0.0, seed=1))
    x = ds.features[ds.train_positions]
    y = ds.observed_labels[ds.train_positions]
    before = [p.copy() for p in trainer.params]
    preds1, _ = trainer.train_epoch(x, y)
    preds2, _ = trainer.train_epoch(x, y)
    for p, q in zip(before, trainer.params):
        assert np.array_equal(p, q)
    assert np.array_equal(preds1, preds2)


def test_fit_round_deterministic_given_seed():
    ds = make_blobs(4, 100, 3, 1.0, seed=8)
    logs = []
    for _ in range(2):
        trainer = SGDTrainer(3, 4, TrainerConfig(seed=21))
        logs.append(trainer.fit_round(ds, ds.train_positions, epochs=5))
    assert np.array_equal(logs[0].bits, logs[1].bits)
    assert np.array_equal(logs[0].losses, logs[1].losses)


def test_fit_round_shapes_and_loss_alignment():
    ds = make_blobs(3, 40, 2, 1.5, seed=4)
    trainer = SGDTrainer(2, 3, TrainerConfig(batch_size=32, seed=2))
    log = trainer.fit_round(ds, ds.train_positions, epochs=7)
    assert log.ids == ds.train_ids
    assert log.bits.shape == (len(log), 7) and log.bits.dtype == np.int8
    assert log.losses.shape == (len(log), 7)
    assert set(np.unique(log.bits)) <= {0, 1}
    assert np.all(log.losses > 0)
    pos = ds.train_positions
    assert np.array_equal(log.labels, ds.observed_labels[pos])
    assert np.array_equal(log.true_labels, ds.true_labels[pos])


def test_statuses_recorded_before_update():
    # with lr=0 the pre-update prediction equals the post-epoch prediction,
    # so the sequence must match predictions of the frozen model
    ds = make_blobs(3, 30, 2, 3.0, seed=5)
    trainer = SGDTrainer(2, 3, TrainerConfig(learning_rate=0.0, seed=3))
    log = trainer.fit_round(ds, ds.train_positions, epochs=3)
    frozen_preds = trainer.predict(ds.features[ds.train_positions])
    for row in range(len(log)):
        expected = int(frozen_preds[row] == ds.observed_labels[ds.train_positions][row])
        assert np.all(log.bits[row] == expected)


def test_mlp_arch_trains():
    ds = make_blobs(4, 100, 6, 8.0, seed=10)
    trainer = SGDTrainer(
        6, 4, TrainerConfig(hidden=16, learning_rate=0.1, seed=4)
    )
    trainer.fit_round(ds, ds.train_positions, epochs=15)
    acc = np.mean(
        trainer.predict(ds.features[ds.train_positions])
        == ds.observed_labels[ds.train_positions]
    )
    assert acc >= 0.95


def test_trainer_state_round_trip():
    ds = make_blobs(3, 60, 2, 1.0, seed=12)
    trainer = SGDTrainer(2, 3, TrainerConfig(seed=7))
    trainer.fit_round(ds, ds.train_positions, epochs=3)
    state = trainer.state_dict()
    log_a = trainer.fit_round(ds, ds.train_positions, epochs=3)

    # a checkpoint is two arrays and the RNG state as JSON: fill a trainer
    # built from the same config from a JSON-parsed copy
    arrays = {key: state.pop(key) for key in ("params", "velocity")}
    assert list(state) == ["rng_state"]
    fresh = SGDTrainer(2, 3, TrainerConfig(seed=7))
    fresh.from_state_dict({**json.loads(json.dumps(state)), **arrays})
    log_b = fresh.fit_round(ds, ds.train_positions, epochs=3)
    assert np.array_equal(log_a.bits, log_b.bits)
    assert np.array_equal(log_a.losses, log_b.losses)


def refilled(trainer):
    """A trainer built from ``trainer``'s shape and config, filled from its state_dict."""
    fresh = SGDTrainer(trainer.dim, trainer.n_classes, trainer.config)
    fresh.from_state_dict(trainer.state_dict())
    return fresh


def arrays_of_another_kind(array: np.ndarray) -> list:
    """``array`` as shapes (), (1,), (n, 1), (n - 1,) and (n + 1,), then as float32 and int64."""
    return [np.array(array[0]), array[:1].copy(), array[:, None].copy(), array[:-1].copy(),
            np.append(array, 0.0), array.astype(np.float32), array.astype(np.int64)]


# bit-identity with the straightforward trainer (tests/trainer_reference.py)

COPIES = {
    "deepcopy": copy.deepcopy,
    "pickle": lambda trainer: pickle.loads(pickle.dumps(trainer)),
    "state_dict": refilled,
}


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 6),
    hidden=st.none() | st.integers(1, 8),
    n_classes=st.integers(2, 12),
)
def test_from_state_dict_refuses_another_kind_of_state(dim, hidden, n_classes):
    """Arrays of another shape or dtype and RNG states that numpy refuses,
    or takes as another state, raise a ValueError and leave the trainer as
    it was; the exact state round-trips bit for bit, also through COPIES."""
    config = TrainerConfig(learning_rate=0.05, batch_size=4, hidden=hidden, seed=1)
    trained = SGDTrainer(dim, n_classes, config)
    rng = np.random.default_rng(dim * 100 + n_classes)
    trained.train_epoch(rng.normal(size=(9, dim)), rng.integers(0, n_classes, size=9))
    state = trained.state_dict()
    trainer = SGDTrainer(dim, n_classes, config)
    untouched = SGDTrainer(dim, n_classes, config)
    for key in ("params", "velocity"):
        for array in arrays_of_another_kind(state[key]):
            with pytest.raises(ValueError, match=f"^{key}: expected a float64 array"):
                trainer.from_state_dict({**state, key: array})
            assert_same_state(trainer, untouched)
    for outer, inner in (("state", "state"), ("state", "inc"), (None, "uinteger")):
        for value in (-1, 2**200, "the int as a float"):
            rng_state = copy.deepcopy(state["rng_state"])
            node = rng_state[outer] if outer else rng_state
            node[inner] = value if isinstance(value, int) else float(node[inner])
            with pytest.raises(ValueError, match="^rng_state: "):
                trainer.from_state_dict({**state, "rng_state": rng_state})
            assert_same_state(trainer, untouched)
    trainer.from_state_dict(state)
    assert_same_state(trainer, trained)
    for make_copy in COPIES.values():
        assert_same_state(make_copy(trained), trained)


def assert_same_state(trainer, reference):
    arrays = trainer.params + trainer.velocity
    for got, want in zip(arrays, reference.params + reference.velocity, strict=True):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert trainer.rng.bit_generator.state == reference.rng.bit_generator.state


PARTIAL_BATCHES = dict(dim=3, n=37, batch_size=8, learning_rate=0.05,
                       momentum=0.9, epochs=2, rounds=2, copy_how="pickle",
                       copy_after=2, seed=8)


@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(1, 6),
    hidden=st.none() | st.integers(1, 8),
    n_classes=st.integers(2, 12),  # from 8 columns on, numpy sums a row pairwise
    n=st.integers(1, 40),
    batch_size=st.integers(1, 50),
    learning_rate=st.sampled_from([0.0, 0.05, 0.5, 1.0e8, 1.0e300]),
    momentum=st.sampled_from([0.0, 0.9]),
    epochs=st.integers(1, 3),
    rounds=st.integers(1, 3),
    copy_how=st.sampled_from(sorted(COPIES)),
    copy_after=st.integers(0, 9),
    seed=st.integers(0, 2**32 - 1),
)
# both sides of the trainer's 8-class rule for the softmax normalizer, in
# every run: 27 then all 37 rows, each with a partial last batch of 8
@example(hidden=None, n_classes=7, **PARTIAL_BATCHES)
@example(hidden=None, n_classes=8, **PARTIAL_BATCHES)
@example(hidden=None, n_classes=12, **PARTIAL_BATCHES)
@example(hidden=5, n_classes=7, **PARTIAL_BATCHES)
@example(hidden=5, n_classes=8, **PARTIAL_BATCHES)
@example(hidden=5, n_classes=12, **PARTIAL_BATCHES)
def test_trainer_bit_identical_to_reference(dim, hidden, n_classes, n, batch_size,
                                            learning_rate, momentum, epochs, rounds,
                                            copy_how, copy_after, seed):
    """Predictions, losses, parameters, velocity and RNG state equal the
    oracle's bit for bit, epoch by epoch, over rounds on changing subsets,
    also when the trainer is copied after ``copy_after`` epochs; a diverging
    step fails at the same batch with the same message."""
    rng = np.random.default_rng(seed)
    features = 3.0 * rng.normal(size=(n, dim))
    labels = rng.integers(0, n_classes, size=n)
    config = TrainerConfig(learning_rate=learning_rate, momentum=momentum,
                           batch_size=batch_size, hidden=hidden,
                           seed=seed % 1000)
    trainer = SGDTrainer(dim, n_classes, config)
    reference = trainer_reference.ReferenceTrainer(dim, n_classes, config)
    assert_same_state(trainer, reference)
    done = 0
    for _ in range(rounds):
        rows = np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
        x, y = features[rows], labels[rows]
        for e in range(epochs):
            if done == copy_after:
                trainer = COPIES[copy_how](trainer)
            lr = cosine_lr(learning_rate, e, epochs)
            try:
                # the oracle's momentum step may overflow outside its errstate
                with np.errstate(over="ignore", invalid="ignore"):
                    want_preds, want_losses = reference.train_epoch(x, y, lr)
            except FloatingPointError as exc:
                with pytest.raises(FloatingPointError, match=re.escape(str(exc))):
                    trainer.train_epoch(x, y, lr)
                assert_same_state(trainer, reference)
                return
            preds, losses = trainer.train_epoch(x, y, lr)
            assert preds.dtype == want_preds.dtype and preds.tobytes() == want_preds.tobytes()
            assert losses.dtype == want_losses.dtype
            assert losses.tobytes() == want_losses.tobytes()
            assert_same_state(trainer, reference)
            done += 1


def test_trainer_config_validation():
    with pytest.raises(ValueError):
        TrainerConfig(momentum=1.0)
    with pytest.raises(ValueError):
        TrainerConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainerConfig(hidden=0)


# ---------------------------------------------------------------------------
# simulated dynamics


def test_simulate_deterministic_chains():
    model = DynamicsModel(
        p_memorize_clean=1.0,
        p_forget_clean=0.0,
        p_memorize_noisy=0.0,
        p_forget_noisy=0.0,
    )
    log = simulate_dynamics(3, 2, model, epochs=6, seed=0)
    for clean, bits in zip(log.clean_mask(), log.bits.tolist()):
        if clean:
            assert bits == [0, 1, 1, 1, 1, 1]
        else:
            assert bits == [0, 0, 0, 0, 0, 0]


def test_simulate_shapes_and_mask():
    log = simulate_dynamics(10, 20, DynamicsModel(), epochs=15, seed=3)
    assert len(log) == 30
    assert log.clean_mask().sum() == 10
    assert log.bits.shape == (30, 15) and log.bits.dtype == np.int8
    again = simulate_dynamics(10, 20, DynamicsModel(), epochs=15, seed=3)
    assert again.ids == log.ids
    assert np.array_equal(log.bits, again.bits)


def test_simulate_clean_dominates_noisy_in_memorized_epochs():
    log = simulate_dynamics(5000, 5000, DynamicsModel(), epochs=50, seed=1)
    is_clean = log.labels == log.true_labels
    clean_counts = log.bits[is_clean].sum(axis=1)
    noisy_counts = log.bits[~is_clean].sum(axis=1)
    stat = mannwhitneyu(clean_counts, noisy_counts, alternative="greater")
    assert stat.pvalue < 1e-6


def test_simulate_ramp_accelerates_noisy_memorization():
    base = DynamicsModel()
    ramped = DynamicsModel(ramp=[1.0] * 10 + [5.0] * 40)
    log_a = simulate_dynamics(0, 2000, base, epochs=50, seed=2)
    log_b = simulate_dynamics(0, 2000, ramped, epochs=50, seed=2)
    mem_a = log_a.bits.sum(axis=1).mean()
    mem_b = log_b.bits.sum(axis=1).mean()
    assert mem_b > mem_a


def test_dynamics_model_validation():
    with pytest.raises(ValueError):
        DynamicsModel(p_memorize_clean=1.2)
    with pytest.raises(ValueError):
        DynamicsModel(p_memorize_clean=0.1, p_memorize_noisy=0.3)
    with pytest.raises(ValueError):
        DynamicsModel(p_forget_clean=0.5, p_forget_noisy=0.1)
    with pytest.raises(ValueError):
        simulate_dynamics(1, 1, DynamicsModel(ramp=[1.0]), epochs=5, seed=0)
