import math
import re
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mfselect.mixture as mixture_mod
import mfselect.selection as selection_mod
from mfselect.dynamics import score_sequences
from mfselect.errors import LogFormatError
from mfselect.evaluation import selection_precision_recall
from mfselect.mixture import FitConfig, fit_metric_scores, threshold
from mfselect.selection import (
    STRATEGIES,
    RoundConfig,
    compare_strategies,
    ids_where,
    run_multiround,
    select_by_ratio,
    select_by_threshold,
    select_round,
    small_loss_select,
)
from mfselect.trainer import (
    RoundLog,
    SGDTrainer,
    TrainerConfig,
    inject_symmetric_noise,
    make_blobs,
    simulate_dynamics,
)


def benchmark_dataset(noise=0.4, spread=2.0, seed_data=7, seed_noise=11):
    ds = make_blobs(4, 500, 8, spread, seed=seed_data, test_per_class=125)
    if noise:
        ds = inject_symmetric_noise(ds, noise, seed=seed_noise)
    return ds


def benchmark_trainer(seed=3, lr=0.05):
    return SGDTrainer(8, 4, TrainerConfig(learning_rate=lr, arch="mlp", hidden=32, seed=seed))


class FakeTrainer:
    """Round trainer emitting pre-baked sequences; records call shapes."""

    def __init__(self, sequences, losses=None):
        self.sequences = sequences
        self.losses = losses
        self.fit_calls = []

    def fit_round(self, dataset, rows, epochs):
        ids = dataset.ids[rows].tolist()
        self.fit_calls.append((ids, epochs))
        return RoundLog(
            ids=ids,
            bits=np.array([self.sequences[i] for i in ids], dtype=np.int8),
            losses=None if self.losses is None else np.array([self.losses[i] for i in ids]),
            labels=np.zeros(len(ids), dtype=np.int64),
            true_labels=None,
        )


class FakeDataset:
    """Ids only, every row a training row: no ground truth, no test split."""

    def __init__(self, ids):
        self.ids = np.array(ids, dtype=object)

    @property
    def train_positions(self):
        return np.arange(len(self.ids))


def kept(scores, keep):
    """The keys of ``scores`` whose rows a mask over its values keeps."""
    return [i for i, k in zip(scores, keep.tolist()) if k]


def values(scores):
    return np.array(list(scores.values()), dtype=float)


def results(rounds):
    """The results that the ``(result, log)`` items of ``rounds`` carry."""
    return [result for result, _ in rounds]


def final_rows(dataset, rounds):
    """The dataset rows that the last of ``rounds`` kept, round 1 having
    trained on the training rows."""
    rows = dataset.train_positions
    for result in rounds:
        rows = rows[result.keep]
    return rows


def one_round(dataset, trainer, config):
    """The single round of ``run_multiround`` with ``config.rounds == 1``."""
    multi = results(run_multiround(dataset, trainer, config, FitConfig()))
    assert len(multi) == 1
    assert dataset.ids[final_rows(dataset, multi)].tolist() == multi[0].selected_ids
    return multi[0]


# ---------------------------------------------------------------------------
# select_by_threshold


def test_threshold_selection_examples(monkeypatch):
    scores = {"a": -5.0, "b": 0.0, "c": 4.0}
    assert kept(scores, select_by_threshold(values(scores), 1.0)) == ["a", "b"]
    assert kept(scores, select_by_threshold(values(scores), 5.0)) == ["a", "b", "c"]
    assert not select_by_threshold(np.array([2.0]), 2.0).any()
    # a threshold below every score would keep no row: the round falls back
    # to ratio selection and says why
    monkeypatch.setattr(selection_mod, "threshold", lambda fit: -math.inf)
    config = RoundConfig(epochs=20)
    result = select_round(simulate_dynamics(50, 50, epochs=20, seed=0), config, FitConfig())
    assert result.fit is None and result.threshold is None
    assert np.array_equal(result.keep, select_by_ratio(result.scores, config.ratio))
    assert result.warning == ("mixture fit failed (threshold -inf lies below every score); "
                              "fell back to ratio selection")


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), epochs=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       metric=st.sampled_from(["full", "simplified"]), strategy=st.sampled_from(STRATEGIES),
       ratio=st.floats(0.01, 1.0), lam=st.floats(0.0, 5.0), below_every_score=st.booleans())
def test_every_strategy_keeps_a_row_of_any_nonempty_log(n, epochs, seed, metric, strategy,
                                                         ratio, lam, below_every_score):
    rng = np.random.default_rng(seed)
    log = RoundLog(ids=[str(i) for i in range(n)],
                   bits=(rng.random((n, epochs)) < rng.random((n, 1))).astype(np.int8),
                   losses=rng.random((n, epochs)), labels=np.zeros(n, dtype=np.int64),
                   true_labels=None)
    config = RoundConfig(epochs=epochs, lam=lam, metric_kind=metric, strategy=strategy,
                         ratio=ratio)
    below = (lambda fit: -math.inf) if below_every_score else threshold
    with mock.patch.object(selection_mod, "threshold", below):
        result = select_round(log, config, FitConfig())
    assert result.keep.any() and result.selected_ids


def collapsing_scores():
    """13 lattice scores on which component 0 of the undithered fit collapses."""
    rng = np.random.default_rng(186)
    return rng.integers(0, 4, rng.integers(10, 400)).astype(float)


def two_populations():
    rng = np.random.default_rng(0)
    return np.r_[rng.normal(0, 1, 60), rng.normal(10, 1, 40)]


@pytest.mark.parametrize("scores, fit_config, patch, reason", [
    (np.arange(9.0), FitConfig(), None, "need at least 10 scores to fit the mixture"),
    (np.tile([0.0, 1.0], 10), FitConfig(), None,
     "fewer than 3 distinct score values; a two-component fit is meaningless"),
    (collapsing_scores(), FitConfig(dequantize=False), None,
     "component 0 collapsed: effective sample size 2 below 2.0"),
    (two_populations(), FitConfig(), (mixture_mod, "NEWTON_MAX_ITERS", 1),
     "shape solver did not converge in 1 iterations (last iterate beta=1.88383)"),
    (two_populations(), FitConfig(), (selection_mod, "threshold", lambda fit: -1e6),
     "threshold -1e+06 lies below every score"),
], ids=["ten scores", "two values", "collapse", "newton", "threshold"])
def test_every_failed_fit_prints_its_reason_and_cuts_by_ratio(monkeypatch, scores, fit_config,
                                                              patch, reason):
    if patch:
        monkeypatch.setattr(*patch)
    log = RoundLog(ids=[str(i) for i in range(scores.size)],
                   bits=np.zeros((scores.size, 1), dtype=np.int8), losses=None,
                   labels=np.zeros(scores.size, dtype=np.int64), true_labels=None)
    result = selection_mod._apply_strategy(scores, log, RoundConfig(), fit_config, 1)
    assert result.warning == f"mixture fit failed ({reason}); fell back to ratio selection"
    assert result.fit is None and result.threshold is None
    assert np.array_equal(result.keep, select_by_ratio(scores, 0.9))


def test_threshold_strictness_is_exclusive():
    scores = {i: float(i) for i in range(5)}
    assert kept(scores, select_by_threshold(values(scores), 3.0)) == [0, 1, 2]


# ---------------------------------------------------------------------------
# select_by_ratio


def test_ratio_selection_examples():
    scores = {i: float(i + 1) for i in range(10)}  # 1..10
    assert kept(scores, select_by_ratio(values(scores), 0.9)) == list(range(9))
    assert kept(scores, select_by_ratio(values(scores), 1.0)) == list(range(10))
    ties = {"a": 1.0, "b": 1.0, "c": 2.0}
    assert kept(ties, select_by_ratio(values(ties), 1 / 3)) == ["a"]


def test_ratio_selection_cut_is_clean():
    rng = np.random.default_rng(0)
    scores = {i: float(v) for i, v in enumerate(rng.normal(size=100))}
    keep = select_by_ratio(values(scores), 0.35)
    chosen = set(kept(scores, keep))
    max_kept = max(scores[i] for i in chosen)
    min_rejected = min(scores[i] for i in scores if i not in chosen)
    assert max_kept <= min_rejected


@given(
    st.dictionaries(st.integers(0, 200), st.floats(-50, 50), min_size=2, max_size=60),
    st.floats(0.05, 1.0),
    st.floats(0.05, 1.0),
)
def test_ratio_nesting(scores, r1, r2):
    lo, hi = sorted((r1, r2))
    small = set(kept(scores, select_by_ratio(values(scores), lo)))
    big = set(kept(scores, select_by_ratio(values(scores), hi)))
    assert small <= big


@given(
    # grid-valued scores so the transforms below cannot collapse distinct
    # values through float rounding
    st.dictionaries(
        st.integers(0, 200),
        st.integers(-2000, 2000).map(lambda v: v / 100.0),
        min_size=2,
        max_size=40,
    ),
    st.floats(0.1, 1.0),
)
def test_ratio_invariant_under_monotone_transform(scores, ratio):
    base = kept(scores, select_by_ratio(values(scores), ratio))
    for transform in (lambda v: 3.0 * v + 7.0, lambda v: v**3, np.exp):
        mapped = {i: float(transform(v)) for i, v in scores.items()}
        assert kept(mapped, select_by_ratio(values(mapped), ratio)) == base


def test_ratio_validates_input():
    with pytest.raises(ValueError):
        select_by_ratio(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        select_by_ratio(np.array([]), 0.5)


# ---------------------------------------------------------------------------
# small-loss baseline


def test_small_loss_ranks_at_chosen_epoch():
    ids = ["a", "b", "c"]
    losses = np.array([[2.0, 0.1], [0.1, 2.3], [1.0, 0.2]])
    # the ranking uses the last column given: the final epoch, or an earlier
    # one when the caller passes the columns up to it
    assert kept(ids, small_loss_select(losses, 2 / 3)) == ["a", "c"]
    assert kept(ids, small_loss_select(losses[:, :1], 2 / 3)) == ["b", "c"]
    assert kept(ids, small_loss_select(losses, 1.0)) == ["a", "b", "c"]


@pytest.mark.parametrize("losses, shape", [
    ([0.1, 0.2], "(2,)"),
    (np.zeros((2, 3, 4)), "(2, 3, 4)"),
])
def test_small_loss_rejects_losses_not_2d(losses, shape):
    with pytest.raises(ValueError, match=re.escape(f"an (n, E) matrix, got shape {shape}")):
        small_loss_select(losses, 0.5)


def test_small_loss_beats_chance_on_dominated_losses():
    # noisy losses stochastically dominate clean ones, so ranking by loss
    # must keep a cleaner-than-chance subset
    rng = np.random.default_rng(8)
    n_clean, n_noisy = 600, 400
    losses = {}
    clean_mask = {}
    for i in range(n_clean):
        losses[f"c{i:03d}"] = [float(rng.exponential(1.0))]
        clean_mask[f"c{i:03d}"] = True
    for i in range(n_noisy):
        losses[f"n{i:03d}"] = [float(1.0 + rng.exponential(1.0))]
        clean_mask[f"n{i:03d}"] = False
    selected = kept(losses, small_loss_select(np.array(list(losses.values())), 0.7))
    kept_clean = sum(clean_mask[i] for i in selected)
    precision = kept_clean / len(selected)
    assert precision >= n_clean / (n_clean + n_noisy)


# ---------------------------------------------------------------------------
# the array selectors pinned to the per-row logic they replaced


def oracle_ratio(scores, ratio):
    """Keep the ceil(ratio * n) smallest, ties to the earlier row."""
    order = sorted(range(len(scores)), key=lambda i: (scores[i], i))
    chosen = set(order[:math.ceil(ratio * len(scores))])
    return [i in chosen for i in range(len(scores))]


def oracle_precision_recall(selected, clean):
    """Precision, recall and kept count from an id list and an id -> clean dict."""
    true_kept = sum(1 for i in selected if clean[i])
    n_clean = sum(1 for v in clean.values() if v)
    return (true_kept / len(selected) if selected else None,
            true_kept / n_clean if n_clean else None, len(selected))


# few distinct values, both zeros among them, so that ties at the ratio cut
# and a threshold equal to a score come up often
ROW_SCORES = st.lists(
    st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 3.0, math.inf])
    | st.floats(-1e6, 1e6, allow_nan=False),
    min_size=1, max_size=40,
)


@given(ROW_SCORES, st.data())
def test_array_selectors_match_per_row_oracle(scores, data):
    n = len(scores)
    tau = data.draw(st.sampled_from(scores) | st.sampled_from([-0.0, 0.0])
                    | st.floats(allow_nan=False))
    ratio = data.draw(st.floats(0.0, 1.0, exclude_min=True))
    arr = np.array(scores)
    assert select_by_threshold(arr, tau).tolist() == [s < tau for s in scores]
    assert select_by_ratio(arr, ratio).tolist() == oracle_ratio(scores, ratio)
    losses = np.column_stack([arr[::-1], arr])
    assert small_loss_select(losses, ratio).tolist() == oracle_ratio(scores, ratio)

    selected = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    clean = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    stats = selection_precision_recall(np.array(selected), np.array(clean))
    ids = [i for i in range(n) if selected[i]]
    assert (stats.precision, stats.recall, stats.kept) == oracle_precision_recall(
        ids, dict(enumerate(clean)))


MASK_LAYOUTS = {
    "bool": lambda flags: flags != 0,
    "int": lambda flags: flags,  # any nonzero entry keeps its id, -1 and 2 too
    "strided": lambda flags: np.stack([flags != 0, flags == 0], axis=1)[:, 0],
    "list": lambda flags: flags.tolist(),
}


@settings(max_examples=150, deadline=None)
@given(flags=st.lists(st.integers(-1, 2), max_size=40),
       layout=st.sampled_from(sorted(MASK_LAYOUTS)), id_array=st.booleans())
@example(flags=[], layout="bool", id_array=False)  # no ids
@example(flags=[1] * 5, layout="bool", id_array=False)  # all kept
@example(flags=[0] * 5, layout="bool", id_array=True)  # none kept
@example(flags=[1, 0, 1, 1, 0], layout="strided", id_array=False)
@example(flags=[2, 0, -1, 0, 1], layout="int", id_array=True)
def test_ids_where_matches_per_row_oracle(flags, layout, id_array):
    ids = [f"id{k}" for k in range(len(flags))]
    if id_array:  # a dataset's ids are an object array
        ids = np.array(ids, dtype=object)
    mask = MASK_LAYOUTS[layout](np.array(flags, dtype=np.int64))
    if layout == "strided" and len(flags) > 1:
        assert not mask.flags.c_contiguous
    got = ids_where(ids, mask)
    assert type(got) is list and got == [i for i, k in zip(ids, mask) if k]


# ---------------------------------------------------------------------------
# mixture-threshold properties


def simulated_scores(seed=0, n=1500):
    log = simulate_dynamics(n // 2, n // 2, epochs=50, seed=seed)
    return score_sequences(log.bits, "simplified", 1.0)


def test_selected_set_invariant_under_score_translation():
    scores = simulated_scores(seed=4)
    config = FitConfig()

    def run(values):
        fit = fit_metric_scores(values, config)
        return select_by_threshold(values, threshold(fit)).tolist()

    base = run(scores)
    assert any(base)  # sanity: nonempty
    for c in (-57.25, 3.0, 1_000.0):
        assert run(scores + c) == base


def test_mixture_threshold_never_cuts_minimum_scores():
    scores = simulated_scores(seed=9)
    fit = fit_metric_scores(scores, FitConfig())
    tau = threshold(fit)
    assert tau > scores.min()


# ---------------------------------------------------------------------------
# one round of run_multiround


def test_run_round_beats_clean_fraction_on_noisy_benchmark():
    ds = benchmark_dataset()
    result = one_round(ds, benchmark_trainer(), RoundConfig(epochs=30))
    assert result.warning is None and result.threshold is not None
    assert result.stats.precision > 0.6
    assert result.test_accuracy is not None


def test_run_round_retains_clean_data():
    # 0% noise, well-separated blobs: nearly everything should survive
    ds = make_blobs(4, 500, 8, 5.0, seed=7, test_per_class=125)
    trainer = SGDTrainer(8, 4, TrainerConfig(learning_rate=0.05, seed=3))
    result = one_round(ds, trainer, RoundConfig(epochs=30))
    assert len(result.selected_ids) >= 0.95 * len(ds.train_ids)


def test_run_round_single_epoch_falls_back_to_ratio():
    ds = benchmark_dataset()
    result = one_round(ds, benchmark_trainer(), RoundConfig(epochs=1, ratio=0.9))
    assert len(result.selected_ids) == int(np.ceil(0.9 * len(ds.train_ids)))
    assert result.warning.startswith("mixture fit failed (")
    assert result.warning.endswith("); fell back to ratio selection")


def test_run_round_identical_scores_keep_everything():
    ids = list(range(20))
    seqs = {i: np.array([0, 1, 1, 1], dtype=np.int8) for i in ids}
    trainer = FakeTrainer(seqs)
    result = one_round(FakeDataset(ids), trainer, RoundConfig(epochs=4))
    assert result.selected_ids == ids and result.keep.all()
    assert "identical" in result.warning


def test_run_round_degenerate_fit_keeps_everything():
    # single tight population: the fit is flagged degenerate and the round
    # declines to cut anything
    rng = np.random.default_rng(5)
    ids = list(range(200))
    seqs = {}
    for i in ids:
        bits = np.ones(30, dtype=np.int8)
        flips = rng.integers(0, 4)
        bits[rng.choice(30, size=flips, replace=False)] = 0
        seqs[i] = bits
    result = one_round(FakeDataset(ids), FakeTrainer(seqs), RoundConfig(epochs=30))
    if result.fit is not None:
        if result.fit.degenerate:
            assert result.selected_ids == ids


def test_run_round_requires_nonempty_ids():
    rounds = run_multiround(FakeDataset([]), FakeTrainer({}), RoundConfig(), FitConfig())
    with pytest.raises(ValueError):  # at the first item, not at the call
        next(rounds)


def test_small_loss_strategy_through_run_round():
    ids = ["a", "b", "c", "d"]
    seqs = {i: np.array([0, 1], dtype=np.int8) for i in ids}
    losses = {
        "a": np.array([3.0, 0.1]),
        "b": np.array([3.0, 2.0]),
        "c": np.array([3.0, 0.5]),
        "d": np.array([3.0, 1.0]),
    }
    cfg = RoundConfig(epochs=2, strategy="small_loss", ratio=0.5)
    result = one_round(FakeDataset(ids), FakeTrainer(seqs, losses), cfg)
    assert result.selected_ids == ["a", "c"]
    assert result.keep.tolist() == [True, False, True, False]
    # a trainer whose log has no losses is a data error (exit 3), not a crash
    with pytest.raises(LogFormatError, match="'losses' in every record"):
        list(run_multiround(FakeDataset(ids), FakeTrainer(seqs), cfg, FitConfig()))


# ---------------------------------------------------------------------------
# run_multiround


def test_multiround_single_round_equals_run_round():
    ds = benchmark_dataset()
    cfg = RoundConfig(epochs=10, rounds=1)
    multi = results(run_multiround(ds, benchmark_trainer(), cfg, FitConfig()))
    log = benchmark_trainer().fit_round(ds, ds.train_positions, cfg.epochs)
    single = select_round(log, cfg, FitConfig())
    assert len(multi) == 1
    assert multi[0].selected_ids == single.selected_ids
    assert ds.ids[final_rows(ds, multi)].tolist() == single.selected_ids
    assert np.array_equal(multi[0].scores, single.scores)
    assert multi[0].stats == selection_precision_recall(single.keep, ds.clean_mask())


def test_multiround_rounds_shrink_and_precision_trend():
    blobs = benchmark_dataset()
    # the same rows shuffled: test rows among the training rows and ids out of
    # row order, so that a training row's index is not its dataset position
    order = np.random.default_rng(0).permutation(len(blobs.ids))
    shuffled = replace(blobs, ids=blobs.ids[order], features=blobs.features[order],
                       observed_labels=blobs.observed_labels[order],
                       true_labels=blobs.true_labels[order], split=blobs.split[order])
    assert not np.array_equal(shuffled.train_positions, np.arange(len(order) * 4 // 5))
    for ds in (blobs, shuffled):
        rounds = results(run_multiround(
            ds, benchmark_trainer(), RoundConfig(epochs=30, rounds=3), FitConfig()
        ))
        sizes = [len(r.selected_ids) for r in rounds]
        assert sizes[0] >= sizes[1] >= sizes[2]
        # every round's stats count against the clean instances of the original set
        is_clean = dict(zip(ds.train_ids, ds.clean_mask().tolist()))
        for r in rounds:
            assert (r.stats.precision, r.stats.recall, r.stats.kept) == (
                oracle_precision_recall(r.selected_ids, is_clean))
        # selections nest: each round's input is the previous round's output
        ids_by_round = [set(r.selected_ids) for r in rounds]
        assert ids_by_round[2] <= ids_by_round[1] <= ids_by_round[0]
        assert ds.ids[final_rows(ds, rounds)].tolist() == rounds[-1].selected_ids
        assert rounds[-1].stats.precision > rounds[0].stats.precision


def test_multiround_deterministic():
    ds = benchmark_dataset()
    runs = [
        results(run_multiround(
            ds, benchmark_trainer(), RoundConfig(epochs=15, rounds=2), FitConfig()
        ))
        for _ in range(2)
    ]
    for a, b in zip(runs[0], runs[1]):
        assert a.selected_ids == b.selected_ids
        assert a.threshold == b.threshold


def test_multiround_sequences_reset_each_round():
    ds = benchmark_dataset()
    trainer = benchmark_trainer()
    cfg = RoundConfig(epochs=7, rounds=2)
    list(run_multiround(ds, trainer, cfg, FitConfig()))
    # every fit_round call produced sequences of exactly the round's epochs
    # (would be longer if they accumulated across rounds)
    log = trainer.fit_round(ds, ds.train_positions[:50], 5)
    assert log.bits.shape == (50, 5)


def three_round_fake():
    """A FakeDataset, a FakeTrainer and a 3-round config in which every
    round keeps 90% of its rows (one epoch: a ratio fallback)."""
    ids = [f"i{k:02d}" for k in range(40)]
    seqs = {i: np.array([k % 2], dtype=np.int8) for k, i in enumerate(ids)}
    return FakeDataset(ids), FakeTrainer(seqs), RoundConfig(epochs=1, rounds=3)


def test_multiround_trains_a_round_only_when_asked():
    dataset, trainer, config = three_round_fake()
    rounds = run_multiround(dataset, trainer, config, FitConfig())
    assert trainer.fit_calls == []
    result, log = next(rounds)
    assert len(trainer.fit_calls) == 1 and result.round_index == 1
    assert log.ids == dataset.ids.tolist()
    next(rounds)
    assert len(trainer.fit_calls) == 2
    assert trainer.fit_calls[1][0] == result.selected_ids


def test_multiround_holds_no_log_across_rounds():
    dataset, trainer, config = three_round_fake()
    fit_round, earlier = trainer.fit_round, []

    def spy(dataset, rows, epochs):
        # the previous round's log must be gone before this round trains
        assert all(ref() is None for ref in earlier)
        log = fit_round(dataset, rows, epochs)
        earlier.append(weakref.ref(log))
        return log

    trainer.fit_round = spy
    for result, log in run_multiround(dataset, trainer, config, FitConfig()):
        del log  # as a caller that writes a round and goes on does
    assert len(earlier) == 3


def test_multiround_stopped_after_round_1_trains_nothing_more():
    dataset, trainer, config = three_round_fake()
    for result, log in run_multiround(dataset, trainer, config, FitConfig()):
        break
    assert result.round_index == 1
    assert len(trainer.fit_calls) == 1


# ---------------------------------------------------------------------------
# strategy comparison harness


def test_compare_strategies_table_shape():
    ds = benchmark_dataset(noise=0.2, spread=4.0)
    rows = compare_strategies(
        ds,
        benchmark_trainer(),
        RoundConfig(epochs=20, rounds=2),
        FitConfig(),
    )
    assert [r["strategy"] for r in rows] == [
        "mixture_threshold",
        "ratio",
        "small_loss",
    ]
    for row in rows:
        assert set(row) == {"strategy", "kept", "precision", "recall", "accuracy"}
        assert 0 <= row["precision"] <= 1
        assert 0 <= row["recall"] <= 1


def reference_compare(dataset, make_trainer, config, fit_config):
    """Each strategy trains every round itself, round 1 included: the final
    round of each and the table row made from it."""
    finals, rows = [], []
    for strategy in STRATEGIES:
        last = results(run_multiround(dataset, make_trainer(),
                                      replace(config, strategy=strategy), fit_config))[-1]
        finals.append(last)
        rows.append({"strategy": strategy, "kept": len(last.selected_ids),
                     "precision": last.stats.precision, "recall": last.stats.recall,
                     "accuracy": last.test_accuracy})
    return finals, rows


@pytest.mark.parametrize("case", ["one_round", "three_rounds"])
def test_compare_strategies_matches_per_strategy_training(case, monkeypatch):
    ds = benchmark_dataset(noise=0.2, spread=4.0)
    config = RoundConfig(epochs=10, rounds=1 if case == "one_round" else 3)
    finals, expected_rows = reference_compare(ds, benchmark_trainer, config, FitConfig())

    seen = {}
    finish_round = selection_mod._finish_round

    def spy(dataset, trainer, log, rows, config, *args, **kwargs):
        seen[config.strategy] = finish_round(dataset, trainer, log, rows, config, *args,
                                             **kwargs)
        return seen[config.strategy]

    monkeypatch.setattr(selection_mod, "_finish_round", spy)
    rows = compare_strategies(ds, benchmark_trainer(), config, FitConfig())
    assert rows == expected_rows
    for strategy, want in zip(STRATEGIES, finals):
        got = seen[strategy]
        assert got.round_index == want.round_index
        assert got.scores.tobytes() == want.scores.tobytes()
        assert np.array_equal(got.keep, want.keep)
        assert got.selected_ids == want.selected_ids
        assert got.stats == want.stats
        assert got.test_accuracy == want.test_accuracy


@pytest.mark.parametrize("rounds", [1, 3])
def test_compare_strategies_trains_round_one_once(rounds, monkeypatch):
    ds = benchmark_dataset(noise=0.2, spread=4.0)
    fit_round = SGDTrainer.fit_round
    calls, first_log = [], []

    def spy(self, dataset, rows, epochs):
        # round 1's log must be gone before any later round trains
        calls.append(bool(first_log) and first_log[0]() is not None)
        log = fit_round(self, dataset, rows, epochs)
        if not first_log:
            first_log.append(weakref.ref(log))
        return log

    monkeypatch.setattr(SGDTrainer, "fit_round", spy)
    compare_strategies(ds, benchmark_trainer(), RoundConfig(epochs=5, rounds=rounds),
                       FitConfig())
    assert len(calls) == 1 + len(STRATEGIES) * (rounds - 1)
    assert not any(calls)
