"""Self-describing text checkpoints with bit-exact round trips.

Format: a version line, then one UTF-8 line per parameter:
``<name> <d1>x<d2>x... <payload>``. In v2 the payload is the base64 of
the array's little-endian float64 bytes. v1 wrote one repr-precision
float per value, separated by spaces; v1 files still load.
"""

from __future__ import annotations

import base64
import math
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from ..errors import ParseError, ValidationError
from .tensor import Tensor

CKPT_FORMAT_VERSION = "rumourlab-ckpt v2"
_V1_FORMAT_VERSION = "rumourlab-ckpt v1"


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


def _v2_values(payload: str, where: str) -> np.ndarray:
    try:
        data = base64.b64decode(payload, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII character
        raise ParseError(f"{where}: payload is not base64") from None
    if len(data) % 8:
        raise ParseError(f"{where}: payload of {len(data)} bytes is not whole float64 values")
    return np.frombuffer(data, dtype="<f8").astype(np.float64)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    path = Path(path)
    lines = []
    for line_no, raw in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            raise ParseError(f"{path} line {line_no}: invalid UTF-8") from None
    if not lines or lines[0] not in (f"# {CKPT_FORMAT_VERSION}", f"# {_V1_FORMAT_VERSION}"):
        raise ParseError(f"{path}: not a {CKPT_FORMAT_VERSION} or v1 checkpoint")
    v1 = lines[0] == f"# {_V1_FORMAT_VERSION}"
    params: dict[str, np.ndarray] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        where = f"{path} line {line_no}"
        parts = line.split(" ")
        if len(parts) < 2 or (not v1 and len(parts) > 3):
            raise ParseError(f"{where}: malformed parameter line")
        name, shape_text = parts[0], parts[1]
        try:
            shape = tuple(int(d) for d in shape_text.split("x"))
            if min(shape) < 0:
                raise ValueError(shape_text)
            if v1:
                values = np.array([float(v) for v in parts[2:]], dtype=np.float64)
        except ValueError:
            raise ParseError(f"{where}: malformed parameter line") from None
        if not v1:
            values = _v2_values(parts[2] if len(parts) == 3 else "", where)
        if values.size != math.prod(shape):
            raise ParseError(f"{where}: {values.size} values for shape {shape_text}")
        params[name] = values.reshape(shape)
    return params
