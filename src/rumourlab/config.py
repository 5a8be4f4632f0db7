"""Flat key = value run configuration with a canonical digest.

Config files hold one ``key = value`` pair per line; ``#`` starts a
comment. Command-line flags override file values. The canonical text
(sorted keys, normalized values) feeds the run-directory digest, so
identical configurations land in identical directories. Every setting
with a range has one rule in `_RANGES`; each parsed value and every
field of a built `RunConfig` is checked against it, whichever model runs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence

from .errors import ValidationError, read_utf8, split_lines

MODEL_KINDS = ("lstm", "bigcn", "logreg", "svm", "rf")
FEATURE_MODES = ("handcrafted", "tfidf", "both")


@dataclass(frozen=True)
class RunConfig:
    dataset: str = ""
    model: str = "logreg"
    out_dir: str = "runs"
    # Splitting
    ratios: tuple[float, float, float] = (0.7, 0.15, 0.15)
    split_seed: int = 13
    # Ensemble seeds: one training run per seed, majority-voted.
    seeds: tuple[int, ...] = (1,)
    # Gradient training
    lr: float = 0.01
    weight_decay: float = 0.0
    epsilon: float = 1e-8
    batch_size: int = 16
    max_epochs: int = 30
    patience: int = 5
    class_weights: bool = True
    dropout: float = 0.0
    # LSTM
    vocab_cap: int = 20_000
    embed_dim: int = 64
    hidden_dim: int = 128
    perceptron_dim: int = 64
    max_len: int = 128
    # Bi-GCN / trees
    tfidf_top_k: int = 5000
    bigcn_hidden_dim: int = 64
    bigcn_out_dim: int = 64
    drop_edge_rate: float = 0.2
    # Ablation switches: store raw term counts in tree features instead
    # of tf-idf; keep reply-to-reply parent links instead of flattening.
    tree_raw_counts: bool = False
    keep_reply_links: bool = False
    # Classic models
    features: str = "both"
    smote: bool = False
    smote_k: int = 5
    rf_trees: int = 100
    rf_max_depth: Optional[int] = None
    rf_feature_subsample: str = "sqrt"
    logreg_l2: float = 0.0
    svm_l2: float = 1e-4
    classic_lr: float = 0.1
    classic_iters: int = 500
    svm_iters: int = 2000

    def __post_init__(self):
        for name in _RANGES:
            _check(name, getattr(self, name))

    def canonical_text(self) -> str:
        """Sorted key = value lines covering every experiment-defining
        field; out_dir only says where artifacts land, so it is omitted
        and the digest identifies the experiment itself."""
        lines = []
        for field_info in sorted(fields(self), key=lambda f: f.name):
            if field_info.name == "out_dir":
                continue
            value = getattr(self, field_info.name)
            lines.append(f"{field_info.name} = {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()[:12]


def _one_of(*options):
    return (lambda v: v in options, "one of " + ", ".join(options))


# Setting -> (accepts value, what it must be). Settings without a range
# (switches, the split seed, out_dir) are absent.
_RANGES = {
    **dict.fromkeys(("batch_size", "max_epochs", "patience", "embed_dim", "hidden_dim",
                     "perceptron_dim", "max_len", "tfidf_top_k", "bigcn_hidden_dim",
                     "bigcn_out_dim", "smote_k", "rf_trees", "classic_iters", "svm_iters"),
                    (lambda v: v >= 1, "at least 1")),
    **dict.fromkeys(("lr", "epsilon", "classic_lr"),
                    (lambda v: math.isfinite(v) and v > 0, "finite and positive")),
    **dict.fromkeys(("weight_decay", "logreg_l2", "svm_l2"),
                    (lambda v: math.isfinite(v) and v >= 0, "finite and non-negative")),
    **dict.fromkeys(("dropout", "drop_edge_rate"), (lambda v: 0.0 <= v < 1.0, "in [0, 1)")),
    "model": _one_of(*MODEL_KINDS),
    "features": _one_of(*FEATURE_MODES),
    "rf_feature_subsample": _one_of("sqrt", "all"),
    "ratios": (lambda v: len(v) == 3 and all(r > 0 for r in v) and abs(sum(v) - 1.0) <= 1e-9,
               "three positive fractions that sum to 1"),
    "seeds": (lambda v: len(v) == len(set(v)) >= 1 and min(v) >= 0,
              "one or more distinct non-negative integers"),
    # The three reserved ids (pad/unk/sep) plus at least one term.
    "vocab_cap": (lambda v: v >= 4, "at least 4"),
    # Depth 0 is a single majority leaf.
    "rf_max_depth": (lambda v: v is None or v >= 0, "none or non-negative"),
    # config.txt must read the path back, and it strips values and cuts them at '#'.
    "dataset": (lambda v: v == v.strip() and not any(c in v for c in "#\n\r"),
                "a path without '#', a line break or outer spaces"),
}


def _check(name: str, value) -> None:
    """Raise a ValidationError naming `name` when `value` is outside its range."""
    accepts, requirement = _RANGES.get(name, (None, ""))
    try:
        ok = accepts is None or accepts(value)
    except TypeError:
        ok = False
    if not ok:
        raise ValidationError(f"{name} must be {requirement}")


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(name: str, raw: str):
    raw = raw.strip()
    kind = _FIELD_TYPES.get(name)
    if kind is None:
        raise ValidationError(f"unknown config key {name!r}")
    if name == "ratios":
        parts = [float(p) for p in raw.split(",")]
        return tuple(parts)
    if name == "seeds":
        return tuple(int(p) for p in raw.split(","))
    if name == "rf_max_depth":
        return None if raw.lower() in ("none", "") else int(raw)
    if kind == "bool":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValidationError(f"config key {name!r}: expected true/false, got {raw!r}")
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def _parse_line(line: str, where: str, updates: dict) -> None:
    """Add one `key = value` line to `updates`; errors start with `where`."""
    line = line.split("#", 1)[0].strip()
    if not line:
        return
    if "=" not in line:
        raise ValidationError(f"{where}: expected key = value")
    name, raw = line.split("=", 1)
    name = name.strip()
    try:
        updates[name] = _parse_value(name, raw)
        _check(name, updates[name])
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None
    except ValueError:
        raise ValidationError(f"{where}: bad value for {name!r}: {raw.strip()!r}") from None


def parse_config_text(text: str, base: Optional[RunConfig] = None,
                      source: str = "config") -> RunConfig:
    """Apply config text to `base`; errors name `source` and the line."""
    updates = {}
    for line_no, line in enumerate(split_lines(text), start=1):
        _parse_line(line, f"{source} line {line_no}", updates)
    return replace(base or RunConfig(), **updates)


def apply_settings(settings: Sequence[str], base: RunConfig) -> RunConfig:
    """Apply `key = value` strings given one per `--set` flag."""
    updates = {}
    for setting in settings:
        _parse_line(setting, f"--set {setting!r}", updates)
    return replace(base, **updates)


def load_config(path, base: Optional[RunConfig] = None) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    return parse_config_text(read_utf8(path), base, source=str(path))
