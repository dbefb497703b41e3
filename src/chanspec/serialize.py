"""Channel JSON schema and deterministic JSON/CSV emission.

Channel files look like ``{"dim": d, "format": "kraus" | "superoperator" |
"transfer", "data": ...}``.  Complex numbers are encoded as ``[re, im]``
pairs and matrices are serialized row-major; the transfer format carries
``{"k": [...], "T": [[...]]}`` with plain reals.  Spectral payloads use
``{"spectrum": [[re, im], ...]}``.

All numbers are printed with 17 significant digits so that emitted files
round-trip exactly and identical inputs produce byte-identical output.
"""

import cmath
import json
import numbers

import numpy as np

from .channel import KrausSet, Superoperator, TransferMatrix
from .exceptions import MalformedSpectrumError, StructuralError
from .spectra import Spectrum, build_spectrum


def complex_to_pair(value):
    value = complex(value)
    return [value.real, value.imag]


def matrix_to_pairs(matrix):
    return [[complex_to_pair(entry) for entry in row] for row in np.asarray(matrix)]


def pairs_to_matrix(rows) -> np.ndarray:
    """Row-major matrix from a list of equal-length rows of ``[re, im]`` pairs."""
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and len(row) == len(rows[0]) for row in rows
    ):
        raise StructuralError("a matrix must be a list of equal-length lists of [re, im] pairs")
    return np.array([[_finite_pair(v, StructuralError, "matrix entries") for v in row] for row in rows])


def channel_to_dict(channel) -> dict:
    """Serialize any channel representation into the channel schema."""
    if isinstance(channel, KrausSet):
        return {
            "dim": channel.dim,
            "format": "kraus",
            "data": [matrix_to_pairs(k) for k in channel.operators],
        }
    if isinstance(channel, Superoperator):
        return {
            "dim": channel.dim,
            "format": "superoperator",
            "data": matrix_to_pairs(channel.matrix),
        }
    if isinstance(channel, TransferMatrix):
        return {
            "dim": channel.dim,
            "format": "transfer",
            "data": {
                "k": [float(v) for v in channel.translation],
                "T": [[float(v) for v in row] for row in channel.bloch_map],
            },
        }
    raise TypeError(f"cannot serialize {type(channel)} as a channel")


def channel_from_dict(payload: dict):
    """Parse a channel-schema dictionary into the matching representation."""
    try:
        dim = int(payload["dim"])
        fmt = payload["format"]
        data = payload["data"]
    except (KeyError, TypeError, OverflowError) as exc:
        raise StructuralError(f"malformed channel payload: missing {exc}") from exc
    if fmt == "kraus":
        if not isinstance(data, list):
            raise StructuralError("kraus data must be a list of matrices")
        operators = [pairs_to_matrix(rows) for rows in data]
        ks = KrausSet.from_operators(operators)
        if ks.dim != dim:
            raise StructuralError(f"declared dim {dim} but operators are {ks.dim}x{ks.dim}")
        return ks
    if fmt == "superoperator":
        phi = Superoperator.from_matrix(pairs_to_matrix(data))
        if phi.dim != dim:
            raise StructuralError(f"declared dim {dim} but matrix implies dim {phi.dim}")
        return phi
    if fmt == "transfer":
        if not isinstance(data, dict) or not all(isinstance(data.get(b), list) for b in "kT"):
            raise StructuralError('transfer data must be an object holding lists "k" and "T"')
        tm = TransferMatrix.from_blocks(data["k"], data["T"])
        if tm.dim != dim:
            raise StructuralError(f"declared dim {dim} but blocks imply dim {tm.dim}")
        return tm
    raise StructuralError(f"unknown channel format {fmt!r}")


def spectrum_to_dict(sp: Spectrum) -> dict:
    return {
        "dim": sp.dim,
        "spectrum": [complex_to_pair(v) for v in sp.values],
        "unit_index": sp.unit_index,
        "gap": sp.gap,
        "peripheral_count": sp.peripheral_count(),
        "flagged": sp.flagged,
    }


def _finite_pair(entry, error=MalformedSpectrumError, what="spectrum entries") -> complex:
    """One ``[re, im]`` entry; anything but two finite numbers raises ``error``."""
    if (
        isinstance(entry, (list, tuple))
        and len(entry) == 2
        and all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in entry)
    ):
        try:
            value = complex(entry[0], entry[1])
        except OverflowError:  # an integer literal too large for a float
            pass
        else:
            if cmath.isfinite(value):
                return value
    raise error(f"{what} must be [re, im] pairs of finite numbers, got {entry!r}")


def spectrum_from_dict(payload: dict) -> Spectrum:
    entries = payload["spectrum"]
    if not isinstance(entries, list) or not entries:
        raise MalformedSpectrumError("spectrum must be a non-empty list of [re, im] pairs")
    values = np.array([_finite_pair(entry) for entry in entries])
    dim = int(round(np.sqrt(len(values))))
    if dim * dim != len(values):
        raise StructuralError(f"spectrum length {len(values)} is not a perfect square")
    declared = payload.get("dim")
    if declared is not None and int(declared) != dim:
        raise StructuralError(f"declared dim {declared} inconsistent with {len(values)} values")
    return build_spectrum(values, dim)


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise StructuralError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise StructuralError(f"{path} must hold a JSON object")
    return payload


def _format_number(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"cannot serialize non-finite number {value}")
    text = format(value, ".17g")
    # keep a float marker so the value parses back as float
    if "e" not in text and "." not in text and "n" not in text:
        text += ".0"
    return text


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {dumps(value, indent + 2)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        rendered = [dumps(value, indent + 2) for value in obj]
        if all("\n" not in r for r in rendered) and sum(len(r) for r in rendered) < 72:
            return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(inner + r for r in rendered) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return _format_number(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def write_text(text: str, out_path=None) -> None:
    if out_path is None:
        print(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")
