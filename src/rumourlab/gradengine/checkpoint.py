"""Self-describing text checkpoints with bit-exact round trips.

Format: a version line, then one UTF-8 line per parameter:
``<name> <d1>x<d2>x... <payload>``, where the payload is the base64 of
the array's little-endian float64 bytes. Only v2 loads: the v1 format
(one printed float per value) belongs to run directories whose
``config.txt`` no longer loads.
"""

from __future__ import annotations

import base64
import math
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from ..errors import ParseError, ValidationError, read_utf8, split_lines
from .tensor import Tensor

CKPT_FORMAT_VERSION = "rumourlab-ckpt v2"


def save_checkpoint(params: Mapping[str, Union[Tensor, np.ndarray]], path) -> None:
    lines = [f"# {CKPT_FORMAT_VERSION}"]
    for name in sorted(params):
        if " " in name:
            raise ValidationError(f"parameter name {name!r} contains a space")
        values = params[name].values if isinstance(params[name], Tensor) else np.asarray(params[name])
        shape = "x".join(str(d) for d in values.shape) or "1"
        payload = base64.b64encode(values.astype("<f8").tobytes()).decode("ascii")
        lines.append(f"{name} {shape} {payload}".rstrip())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_checkpoint(path) -> dict[str, np.ndarray]:
    lines = split_lines(read_utf8(path))
    if lines[:1] != [f"# {CKPT_FORMAT_VERSION}"]:
        raise ParseError(f"{path}: not a {CKPT_FORMAT_VERSION} checkpoint")
    params: dict[str, np.ndarray] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        where = f"{path} line {line_no}"
        parts = line.split(" ")
        try:
            shape = tuple(int(d) for d in parts[1].split("x"))
            if len(parts) > 3 or min(shape) < 0:
                raise ValueError(line)
        except (IndexError, ValueError):
            raise ParseError(f"{where}: malformed parameter line") from None
        try:
            data = base64.b64decode(parts[2] if len(parts) == 3 else "", validate=True)
        except ValueError:  # binascii.Error, or a non-ASCII character
            raise ParseError(f"{where}: payload is not base64") from None
        if len(data) % 8:
            raise ParseError(f"{where}: payload of {len(data)} bytes is not whole float64 values")
        if len(data) // 8 != math.prod(shape):
            raise ParseError(f"{where}: {len(data) // 8} values for shape {parts[1]}")
        params[parts[0]] = np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(shape)
    return params
