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
from itertools import zip_longest
from pathlib import Path
from typing import Optional, Sequence

from .errors import ParseError, ValidationError, read_utf8, split_lines

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
            check_setting(name, getattr(self, name))

    def canonical_lines(self) -> list[str]:
        """Sorted key = value lines covering every experiment-defining
        field; out_dir only says where artifacts land, so it is omitted
        and the digest identifies the experiment itself."""
        return [f"{f.name} = {_format_value(getattr(self, f.name))}"
                for f in sorted(fields(self), key=lambda f: f.name) if f.name != "out_dir"]

    def canonical_text(self) -> str:
        return "\n".join(self.canonical_lines()) + "\n"

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


def check_setting(name: str, value) -> None:
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


def _parse_line(line: str, where: str, updates: dict) -> Optional[str]:
    """Add a `key = value` line to `updates`; return the key. Errors start with `where`."""
    line = line.split("#", 1)[0].strip()
    if not line:
        return
    if "=" not in line:
        raise ValidationError(f"{where}: expected key = value")
    name, raw = line.split("=", 1)
    name = name.strip()
    try:
        updates[name] = _parse_value(name, raw)
        check_setting(name, updates[name])
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None
    except ValueError:
        raise ValidationError(f"{where}: bad value for {name!r}: {raw.strip()!r}") from None
    return name


def parse_config_text(text: str, source: str = "config") -> RunConfig:
    """Apply config text over `RunConfig()`; errors name `source` and the line.
    No key may repeat."""
    updates, first_line = {}, {}
    for line_no, line in enumerate(split_lines(text), start=1):
        name = _parse_line(line, f"{source} line {line_no}", updates)
        if name is not None and first_line.setdefault(name, line_no) != line_no:
            raise ValidationError(f"{source} line {line_no}: config key {name!r} repeated "
                                  f"(first given on line {first_line[name]})")
    return RunConfig(**updates)


def apply_settings(settings: Sequence[str], base: RunConfig) -> RunConfig:
    """Apply `key = value` strings given one per `--set` flag. No key may repeat."""
    updates, first = {}, {}
    for index, setting in enumerate(settings):
        name = _parse_line(setting, f"--set {setting!r}", updates)
        if name is not None and first.setdefault(name, index) != index:
            raise ValidationError(f"--set {setting!r}: config key {name!r} repeated "
                                  f"(first given by --set {settings[first[name]]!r})")
    return replace(base, **updates)


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    return parse_config_text(read_utf8(path), source=str(path))


def load_run_config(path) -> RunConfig:
    """A run directory's config.txt, which must be the canonical text of
    the settings it holds: missing keys would take their defaults, so a
    cut or edited file could load as another run whose checkpoints fit."""
    text = read_utf8(path)
    config = parse_config_text(text, source=str(path))
    have, want = text.split("\n"), config.canonical_lines() + [""]
    if have != want:
        line_no = next(n for n, (a, b) in enumerate(zip_longest(have, want), 1) if a != b)
        there = f"reads {want[line_no - 1]!r}" if line_no < len(want) else "has ended"
        raise ParseError(f"{path} line {line_no}: differs from the canonical text of its "
                         f"settings, which {there} here")
    return config
