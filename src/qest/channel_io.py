"""JSON channel files: parsing, validation and export.

Schema::

    {
      "dim": 2,                    # 2 for every type but low_noise
      "type": "low_noise" | "depolarizing" | "gad" | "unitary_rotation",
      "M":     [matrix, ...],      # low_noise: noise operators
      "kappa": [complex, ...],     # low_noise, optional: declared kappas
      "N1":    [matrix, ...],      # low_noise, optional: first-order operators
      "betaE": 1.0,                # gad
      "axis":  [0.0, 0.0, 1.0]     # unitary_rotation
    }

Complex numbers serialize as two-element arrays ``[re, im]``; matrices as
row-major nested arrays of those.  When a low-noise file declares explicit
``kappa``/``N1`` data it is validated against the noise operators, while
instantiation always goes through the canonical exact square-root generator,
whose leading behavior depends on the noise operators alone.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import catalog
from .channels import LowNoiseChannel, from_noise_operators
from .errors import SchemaError
from .unitary import UnitaryFamily

CHANNEL_TYPES = ("low_noise", "depolarizing", "gad", "unitary_rotation")


@dataclass(frozen=True)
class ParsedChannel:
    """A channel file after the parse -> build pipeline."""

    kind: str
    dim: int
    low_noise: LowNoiseChannel | None = None
    unitary: UnitaryFamily | None = None


def number_from_json(value, path: str) -> float:
    """A finite JSON number as a float.

    Python's ``json`` reads ``NaN`` and ``Infinity`` as floats and ``true`` as
    an int subclass, so all three are refused here with the path.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max
    ):
        raise SchemaError("expected a finite number", path)
    return float(value)


def complex_from_json(value, path: str) -> complex:
    if not isinstance(value, list):
        return complex(number_from_json(value, path))
    if len(value) != 2:
        raise SchemaError("expected a number or [re, im] pair", path)
    return complex(
        number_from_json(value[0], f"{path}[0]"), number_from_json(value[1], f"{path}[1]")
    )


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix_from_json(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise SchemaError("expected a non-empty nested array (matrix rows)", path)
    rows = []
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise SchemaError("expected a non-empty array of entries", f"{path}[{i}]")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"row has {len(row)} entries, expected {width}", f"{path}[{i}]")
        rows.append([complex_from_json(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(rows, dtype=complex)


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[complex_to_json(z) for z in row] for row in m]


def _require(d: dict, key: str, kinds, path: str = "$"):
    if key not in d:
        raise SchemaError(f"missing required field {key!r}", path)
    value = d[key]
    if kinds is not None and not isinstance(value, kinds):
        raise SchemaError(f"field {key!r} has wrong type {type(value).__name__}", f"{path}.{key}")
    return value


def _operators(data: dict, key: str, dim: int) -> list[np.ndarray]:
    """The required list ``data[key]`` of ``dim x dim`` matrices."""
    ops = []
    for i, raw in enumerate(_require(data, key, list)):
        m = matrix_from_json(raw, f"$.{key}[{i}]")
        if m.shape != (dim, dim):
            raise SchemaError(f"operator shape {m.shape} does not match dim {dim}", f"$.{key}[{i}]")
        ops.append(m)
    return ops


def channel_from_dict(data) -> ParsedChannel:
    """Build a channel from its JSON dictionary form.

    Structural problems raise SchemaError (a parse-level failure); physical
    problems such as a kappa normalization violation surface as
    ValidationError from the channel constructors.
    """
    if not isinstance(data, dict):
        raise SchemaError(f"top level must be an object, got {type(data).__name__}")
    kind = _require(data, "type", str)
    if kind not in CHANNEL_TYPES:
        raise SchemaError(f"unknown channel type {kind!r}", "$.type")
    dim = _require(data, "dim", int)
    if dim < 2:
        raise SchemaError(f"dim must be >= 2, got {dim}", "$.dim")
    if kind != "low_noise" and dim != 2:
        raise SchemaError(f"a {kind} channel acts on a qubit: dim must be 2, got {dim}", "$.dim")

    if kind == "depolarizing":
        return ParsedChannel(kind=kind, dim=2, low_noise=catalog.depolarizing())

    if kind == "gad":
        beta_e = number_from_json(_require(data, "betaE", None), "$.betaE")
        return ParsedChannel(kind=kind, dim=2, low_noise=catalog.gad(beta_e))

    if kind == "unitary_rotation":
        axis = _require(data, "axis", list)
        if len(axis) != 3:
            raise SchemaError("axis must be a 3-vector of numbers", "$.axis")
        axis = [number_from_json(v, f"$.axis[{i}]") for i, v in enumerate(axis)]
        return ParsedChannel(kind=kind, dim=2, unitary=catalog.rotation_unitary(axis))

    ms = _operators(data, "M", dim)
    if not ms:
        raise SchemaError("need at least one noise operator", "$.M")

    if "kappa" not in data and "N1" not in data:
        return ParsedChannel(kind=kind, dim=dim, low_noise=from_noise_operators(ms))

    kappas = [
        complex_from_json(v, f"$.kappa[{i}]")
        for i, v in enumerate(_require(data, "kappa", list))
    ]
    n1 = _operators(data, "N1", dim)
    if len(kappas) != len(n1):
        raise SchemaError("kappa and N1 must have the same length", "$.N1")
    ln = replace(from_noise_operators(ms), kappas=kappas, first_order=n1)
    return ParsedChannel(kind=kind, dim=dim, low_noise=ln)


def load_channel_file(path: str) -> ParsedChannel:
    """Read and build a channel file; JSONDecodeError propagates with position."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return channel_from_dict(data)


def demo_dict(name: str, beta_e: float = 1.0, axis=(0.0, 0.0, 1.0),
              seed: int = 42, num_m: int = 3, scale: float = 1.0) -> dict:
    """Exportable JSON dictionary for a named catalog channel."""
    if name == "depolarizing":
        return {"dim": 2, "type": "depolarizing"}
    if name == "gad":
        catalog.gad(beta_e)  # reject bad parameters before exporting them
        return {"dim": 2, "type": "gad", "betaE": float(beta_e)}
    if name == "unitary_rotation":
        catalog.rotation_unitary(axis)
        return {"dim": 2, "type": "unitary_rotation", "axis": [float(v) for v in axis]}
    if name == "random":
        ln = catalog.random_low_noise(seed, num_m=num_m, scale=scale)
        return {
            "dim": 2,
            "type": "low_noise",
            "M": [matrix_to_json(m) for m in ln.noise_ops],
        }
    raise SchemaError(
        f"unknown demo name {name!r}; pick one of depolarizing, gad, unitary_rotation, random"
    )
