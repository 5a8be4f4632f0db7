"""Reverse-mode gradient engine: tensors, losses, optimizers, checks."""

from .checkpoint import CKPT_FORMAT_VERSION, load_checkpoint, save_checkpoint
from .gradcheck import grad_check
from .losses import bce_loss, hinge_loss, weighted_ce_loss
from .optim import OptimizerState, optimizer_step
from .sparse import SparseMatrix
from .tensor import (
    Tensor,
    add,
    backward,
    concat,
    gather_rows,
    lstm_layer,
    mask_mul,
    matmul,
    mean_all,
    mul,
    parameter,
    relu,
    segment_mean,
    sigmoid,
    softmax_rows,
    spmm,
    sum_all,
    tanh,
)

__all__ = [
    "CKPT_FORMAT_VERSION", "OptimizerState", "SparseMatrix", "Tensor",
    "add", "backward", "bce_loss", "concat", "gather_rows",
    "grad_check", "hinge_loss", "load_checkpoint", "lstm_layer", "mask_mul",
    "matmul", "mean_all", "mul", "optimizer_step", "parameter", "relu",
    "save_checkpoint", "segment_mean", "sigmoid", "softmax_rows", "spmm",
    "sum_all", "tanh", "weighted_ce_loss",
]
