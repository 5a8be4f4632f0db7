"""The classifier families and the shared training loop."""

from .bigcn import BiGcnModel
from .classic import (
    ClassicLearner,
    ClassicModel,
    forest_from_text,
    forest_to_text,
    predict_classic,
    train_classic,
)
from .lstm import LstmModel
from .trainer import EpochRecord, FitResult, GradientModel, fit, predict_threads

__all__ = [
    "BiGcnModel", "ClassicLearner", "ClassicModel", "EpochRecord", "FitResult",
    "GradientModel", "LstmModel",
    "fit", "forest_from_text", "forest_to_text", "predict_classic",
    "predict_threads", "train_classic",
]
