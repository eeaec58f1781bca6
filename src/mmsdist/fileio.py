"""File formats: plain matrix files, metric-measure-space JSON, model-space
JSON and mass vectors.

Plain matrix format: first line n, then n whitespace-separated rows.

FiniteMMS JSON: object with "labels" (strings, optional), "mass" (optional,
defaults to uniform) and either "dist" (n x n array) or "coords" (points in
Euclidean space; distances computed as Euclidean).
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

from .core import DEFAULT_TOL, DistanceMatrix, FiniteMMS, validate_distance_matrix

__all__ = [
    "read_matrix",
    "format_matrix",
    "write_matrix",
    "read_mms",
    "read_mass_vector",
    "read_model_space",
]


@contextmanager
def _naming(path):
    """Every ValueError raised inside, a JSON syntax error included, names
    ``path`` once, in front of its message, and keeps its type."""
    try:
        yield
    except UnicodeDecodeError as exc:  # its message ignores args
        raise ValueError(f"{path}: {exc}") from None
    except ValueError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def read_matrix(path) -> np.ndarray:
    """Read a plain matrix file: first line n, then n rows."""
    with _naming(path), open(path) as fh:
        tokens = fh.read().split()
        if not tokens:
            raise ValueError("empty matrix file")
        try:
            n = int(tokens[0])
        except ValueError:
            n = -1
        if n < 0:
            raise ValueError(f"the size line must be a non-negative integer, got {tokens[0]!r}")
        try:
            vals = [float(t) for t in tokens[1:]]
        except ValueError as exc:  # float's message names the token
            raise ValueError(f"matrix entries must be numbers; {exc}") from None
        if len(vals) != n * n:
            raise ValueError(f"expected {n * n} entries, found {len(vals)}")
        return np.array(vals).reshape(n, n)


def format_matrix(entries) -> str:
    """A matrix in the plain matrix format, each entry as its float repr."""
    a = np.asarray(entries, dtype=float)
    return f"{a.shape[0]}\n" + "".join(" ".join(repr(float(x)) for x in row) + "\n" for row in a)


def write_matrix(path, entries) -> None:
    with open(path, "w") as fh:
        fh.write(format_matrix(entries))


def _array(value, field: str, numeric: bool = True):
    """A JSON field that must be an array: as a float array when ``numeric``,
    else as the list itself.  Any other JSON value, or an array that is not
    numeric where a number array is needed, raises ValueError naming the
    field."""
    if not isinstance(value, list):
        raise ValueError(f"JSON field '{field}' must be an array, got {value!r}")
    if not numeric:
        return value
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:  # nested objects, strings, ragged rows
        raise ValueError(f"JSON field '{field}' must be an array of numbers: {exc}") from None


def _mms_from_dict(obj: dict, tol: float) -> FiniteMMS:
    coords = _array(obj["coords"], "coords") if "coords" in obj else None
    if "dist" in obj:  # a JSON array is never 0 x 0, so this has points
        dist = validate_distance_matrix(_array(obj["dist"], "dist"), tol)
    elif coords is None:
        raise ValueError("space JSON needs a 'dist' or 'coords' field")
    elif not len(coords):
        raise ValueError("space JSON has no points")
    else:
        dist = DistanceMatrix.from_points(coords)
    n = dist.n
    labels = _array(obj.get("labels", [f"p{i}" for i in range(n)]), "labels", numeric=False)
    mass = _array(obj.get("mass", [1.0 / n] * n), "mass")
    return FiniteMMS(labels=tuple(labels), dist=dist, mass=mass, coords=coords, tol=tol)


def read_mms(path, tol: float = DEFAULT_TOL) -> FiniteMMS:
    with _naming(path), open(path) as fh:
        obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError("expected a JSON object")
        return _mms_from_dict(obj, tol)


def read_mass_vector(path) -> np.ndarray:
    """Read a mass vector: either a bare JSON array or {"mass": [...]}."""
    with _naming(path), open(path) as fh:
        obj = json.load(fh)
        if isinstance(obj, dict):
            if "mass" not in obj:
                raise ValueError("mass JSON object needs a 'mass' field")
            obj = obj["mass"]
        return _array(obj, "mass")


def read_model_space(path, tol: float = DEFAULT_TOL):
    """Read a model-space JSON file ({"kind": ...} plus kind-specific fields)."""
    from .sampling import ModelSpace

    with _naming(path), open(path) as fh:
        obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError("expected a JSON object")
        kind = obj.get("kind")
        if kind == "finite":
            return ModelSpace.finite(_mms_from_dict(obj, tol))
        if kind == "circle":
            c = obj.get("circumference", 1.0)
            if isinstance(c, bool) or not isinstance(c, (int, float)):
                raise ValueError(f"circle 'circumference' must be a number, got {c!r}")
            try:
                c = float(c)
            except OverflowError:  # a JSON integer beyond the float range
                raise ValueError("circle 'circumference' is too large for a float") from None
            return ModelSpace.circle(c)
        if kind == "interval":
            return ModelSpace.interval()
        if kind == "euclideanPoints":
            if "coords" not in obj:
                raise ValueError("euclideanPoints model space needs a 'coords' field")
            mass = obj.get("mass")
            mass = None if mass is None else _array(mass, "mass")
            return ModelSpace.euclidean_points(_array(obj["coords"], "coords"), mass, tol)
        raise ValueError(f"unknown model space kind: {kind!r}")
