"""The classifier families and the shared training loop."""

from .bigcn import BiGcnModel
from .classic import (
    ClassicModel,
    forest_from_text,
    forest_to_text,
    predict_classic,
    smote_balance,
    train_classic,
)
from .lstm import LstmModel
from .trainer import EpochRecord, FitResult, fit, predict_threads

__all__ = [
    "BiGcnModel", "ClassicModel", "EpochRecord", "FitResult", "LstmModel",
    "fit", "forest_from_text", "forest_to_text", "predict_classic",
    "predict_threads", "smote_balance", "train_classic",
]
