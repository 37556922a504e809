"""Clean-sample selection for noisy labels via per-instance learning dynamics."""

from .dynamics import score_sequences
from .mixture import (
    FitConfig,
    MixtureFit,
    WeibullParams,
    fit_metric_scores,
    threshold,
    weibull_pdf,
)
from .selection import (
    RoundConfig,
    SelectionResult,
    compare_strategies,
    run_multiround,
    select_round,
    select_by_ratio,
    select_by_threshold,
    small_loss_select,
)
from .trainer import (
    DynamicsModel,
    RoundLog,
    SGDTrainer,
    ToyDataset,
    TrainerConfig,
    circular_class_map,
    inject_asymmetric_noise,
    inject_symmetric_noise,
    make_blobs,
    simulate_dynamics,
)
from .evaluation import (
    SelectionStats,
    histogram_export,
    selection_precision_recall,
    test_accuracy,
)
from .logio import (
    ExternalTrainer,
    read_dataset_csv,
    read_prediction_log,
    write_dataset_csv,
    write_prediction_log,
)

__version__ = "0.1.0"
