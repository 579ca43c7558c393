"""File formats: states, reference configs, records, windows, traces, reports.

All JSON written here is deterministic (sorted keys, fixed separators);
non-finite floats are rendered as the strings "inf"/"-inf"/"nan" so reports
never depend on a JSON dialect.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .operators import DensityOperator, validate_density
from .records import MeasurementRecord, _is_integer
from .reference import (
    DIM_CAP_ENV,
    ReferenceSet,
    block_reference,
    build_reference,
    dim_cap,
    sector_reference,
    stabilizer_reference,
)
from .windows import BlockPartition, ObservationWindow, ProcessTrace, WindowFamily


@contextmanager
def _content_errors(where):
    """Report bad file content inside as one ConfigError naming where: a
    missing key by its name, any other error by its message; a ConfigError
    passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{where}: missing key {exc}") from exc
    except Exception as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"file not found: {path}") from exc
    except ValueError as exc:  # malformed JSON or bytes that are not UTF-8
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc


def _matrix_from_payload(payload, where: str) -> np.ndarray:
    """The complex matrix of a {'dim', 're', 'im'} payload.

    The dimension is checked against the cap before anything of that size
    is built, and every entry must be a JSON number (not a bool or string).
    """
    if not isinstance(payload, dict) or "dim" not in payload or "re" not in payload:
        raise ConfigError(f"{where}: expected keys 'dim' and 're'")
    dim = payload["dim"]
    if not _is_integer(dim) or dim < 1:
        raise ConfigError(f"{where}: 'dim' must be a positive integer, got {dim!r}")
    if dim > dim_cap():
        raise ConfigError(
            f"{where}: dim {dim} exceeds the cap {dim_cap()} "
            f"(override with {DIM_CAP_ENV})"
        )
    parts = []
    for name in ("re", "im"):
        rows = payload.get(name)
        if rows is None and name == "im":
            parts.append(0.0)
            continue
        if not isinstance(rows, list) or len(rows) != dim or any(
            not isinstance(r, list) or len(r) != dim for r in rows
        ):
            raise ConfigError(f"{where}: '{name}' must be a {dim}x{dim} array")
        if not set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
            raise ConfigError(f"{where}: '{name}' entries must be numbers")
        try:
            parts.append(np.array(rows, dtype=float))
        except OverflowError as exc:
            raise ConfigError(f"{where}: '{name}' entries must fit a float: {exc}") from exc
    return parts[0] + 1j * parts[1]


def matrix_to_payload(matrix: np.ndarray) -> dict:
    m = np.asarray(matrix, dtype=complex)
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def read_matrix(path) -> np.ndarray:
    """The complex matrix of a file in the state-file layout, not yet
    checked as a state or a projector."""
    return _matrix_from_payload(_read_json(path), str(path))


def load_state(path) -> DensityOperator:
    """Load a density operator from a state file, repairing tolerable drift."""
    matrix = read_matrix(path)
    with _content_errors(path):
        return validate_density(matrix)


def dump_state(rho: DensityOperator, path) -> None:
    write_json(matrix_to_payload(rho.matrix), path)


def _integer(cfg: dict, key: str, where: str) -> int:
    value = cfg[key]
    if not _is_integer(value):
        raise ConfigError(f"{where}: {key!r} must be an integer, got {value!r}")
    return value


def _integer_blocks(blocks, where) -> list:
    """blocks, if they are a list of lists of integers (JSON integers, not
    booleans or integral floats); a ConfigError otherwise."""
    if not isinstance(blocks, list) or not all(
        isinstance(b, list) and all(map(_is_integer, b)) for b in blocks
    ):
        raise ConfigError(f"{where}: 'blocks' must be a list of lists of integers")
    return blocks


def reference_from_config(cfg: dict, where: str = "reference config") -> ReferenceSet:
    """Build a reference set from its JSON description."""
    if not isinstance(cfg, dict) or not {"type", "g", "addressable_units"} <= cfg.keys():
        raise ConfigError(f"{where}: expected keys 'type', 'g', 'addressable_units'")
    kind = cfg["type"]
    g = _integer(cfg, "g", where)
    units = _integer(cfg, "addressable_units", where)
    with _content_errors(where):
        if kind == "projectors":
            mats = [
                _matrix_from_payload(p, f"{where}: projector {i}")
                for i, p in enumerate(cfg.get("projectors", []))
            ]
            return build_reference(mats, g, units)
        if kind == "sector":
            return sector_reference(
                _integer(cfg, "n_qubits", where),
                _integer(cfg, "hamming_weight", where),
                g,
                units,
            )
        if kind == "stabilizer":
            return stabilizer_reference(
                _integer(cfg, "n_qubits", where), cfg["generators"], g, units
            )
        if kind == "blocks":
            return block_reference(_integer_blocks(cfg["blocks"], where), g, units)
    raise ConfigError(f"{where}: unknown reference type {kind!r}")


def load_reference(path) -> ReferenceSet:
    return reference_from_config(_read_json(path), str(path))


_RECORD_SHAPE = (
    "a record is an object with a string 'protocol', an integer 'n', 'counts' "
    "(an object of label -> integer count) and an optional object 'meta'"
)


def _record_shape_problem(payload) -> str | None:
    """What keeps a decoded JSON value from having the shape of a record."""
    if not isinstance(payload, dict):
        return "the file does not hold an object"
    missing = [key for key in ("protocol", "n", "counts") if key not in payload]
    if missing:
        return f"missing {', '.join(map(repr, missing))}"
    if not isinstance(payload["protocol"], str):
        return "'protocol' is not a string"
    if not isinstance(payload["counts"], dict):
        return "'counts' is not an object"
    return None


def load_record(path) -> MeasurementRecord:
    payload = _read_json(path)
    problem = _record_shape_problem(payload)
    if problem is not None:
        raise ConfigError(f"{path}: {problem}; {_RECORD_SHAPE}")
    with _content_errors(path):
        return MeasurementRecord(
            protocol=payload["protocol"],
            n=payload["n"],
            counts=payload["counts"],
            meta=payload.get("meta", {}),
        )


def record_to_payload(record: MeasurementRecord) -> dict:
    return {
        "protocol": record.protocol,
        "n": record.n,
        "counts": dict(record.counts),
        "meta": dict(record.meta),
    }


def dump_record(record: MeasurementRecord, path) -> None:
    write_json(record_to_payload(record), path)


def load_window_family(path) -> WindowFamily:
    """Read a window family: each window's 'blocks' are lists of integer
    basis indices and its 'xi' a finite number."""
    payload = _read_json(path)
    with _content_errors(path):
        windows = []
        for w in payload["windows"]:
            blocks, xi = _integer_blocks(w["blocks"], path), w["xi"]
            if isinstance(xi, bool) or not isinstance(xi, (int, float)) or not math.isfinite(xi):
                raise ConfigError(f"{path}: 'xi' must be a finite number, got {xi!r}")
            windows.append(ObservationWindow(BlockPartition(tuple(map(tuple, blocks))), float(xi)))
        return WindowFamily(tuple(windows))


_TRACE_COLUMNS = ("t", "Pi", "T", "C")


def load_trace_csv(path) -> ProcessTrace:
    """Read a process trace with columns t, Pi, T, C (in any order, others
    ignored); every row has an entry per column, and the four are finite
    numbers."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if not set(_TRACE_COLUMNS) <= set(header):
                raise ConfigError(f"{path}: trace CSV needs columns t, Pi, T, C")
            cols = [header.index(c) for c in _TRACE_COLUMNS]
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ConfigError(
                        f"{path}: line {reader.line_num} has {len(row)} entries, "
                        f"not {len(header)}"
                    )
                rows.append(tuple(float(row[i]) for i in cols))
    except FileNotFoundError as exc:
        raise ConfigError(f"file not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: cannot be decoded as UTF-8 text "
                          f"({exc.reason} at byte {exc.start})") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: bad numeric value: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    if len(rows) < 2:
        raise ConfigError(f"{path}: a trace needs at least 2 rows")
    with _content_errors(path):
        return ProcessTrace(*(np.array(c) for c in zip(*rows)))


def dumps_sweep_csv(rows) -> str:
    """Window-sweep rows (xi, entropy bits, complexity structons) as CSV
    text, one line per row, each ending in a newline."""
    lines = ["xi,S_bits,C_structons"] + [",".join(repr(float(x)) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _sanitize(obj):
    """Replace non-finite floats so serialized reports are dialect-free."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
    return obj


def dumps_json(payload: dict) -> str:
    return json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n"


def write_json(payload: dict, path) -> None:
    Path(path).write_text(dumps_json(payload), encoding="utf-8")
