"""File formats: plain matrix files, metric-measure-space JSON, model-space
JSON and mass vectors.

Plain matrix format: first line n, then n whitespace-separated rows.

FiniteMMS JSON: object with "labels" (strings, optional), "mass" (optional,
defaults to uniform) and either "dist" (n x n array) or "coords" (points in
Euclidean space; distances computed as Euclidean).
"""

from __future__ import annotations

import json

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


def read_matrix(path) -> np.ndarray:
    """Read a plain matrix file: first line n, then n rows."""
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty matrix file")
    n = int(tokens[0])
    vals = [float(t) for t in tokens[1:]]
    if len(vals) != n * n:
        raise ValueError(f"{path}: expected {n * n} entries, found {len(vals)}")
    return np.array(vals).reshape(n, n)


def format_matrix(entries) -> str:
    """A matrix in the plain matrix format, each entry as its float repr."""
    a = np.asarray(entries, dtype=float)
    return f"{a.shape[0]}\n" + "".join(" ".join(repr(float(x)) for x in row) + "\n" for row in a)


def write_matrix(path, entries) -> None:
    with open(path, "w") as fh:
        fh.write(format_matrix(entries))


def _mms_from_dict(obj: dict, tol: float) -> FiniteMMS:
    coords = None
    if "dist" in obj:
        dist = validate_distance_matrix(obj["dist"], tol)
        if "coords" in obj:
            coords = np.asarray(obj["coords"], dtype=float)
    elif "coords" in obj:
        coords = np.asarray(obj["coords"], dtype=float)
        dist = DistanceMatrix.from_points(coords)
    else:
        raise ValueError("space JSON needs a 'dist' or 'coords' field")
    n = dist.n
    labels = obj.get("labels", [f"p{i}" for i in range(n)])
    mass = obj.get("mass", np.full(n, 1.0 / n))
    return FiniteMMS(labels=tuple(labels), dist=dist, mass=np.asarray(mass, float), coords=coords)


def read_mms(path, tol: float = DEFAULT_TOL) -> FiniteMMS:
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return _mms_from_dict(obj, tol)


def read_mass_vector(path) -> np.ndarray:
    """Read a mass vector: either a bare JSON array or {"mass": [...]}."""
    with open(path) as fh:
        obj = json.load(fh)
    if isinstance(obj, dict):
        obj = obj["mass"]
    return np.asarray(obj, dtype=float)


def read_model_space(path, tol: float = DEFAULT_TOL):
    """Read a model-space JSON file ({"kind": ...} plus kind-specific fields)."""
    from .sampling import ModelSpace

    with open(path) as fh:
        obj = json.load(fh)
    kind = obj.get("kind")
    if kind == "finite":
        return ModelSpace.finite(_mms_from_dict(obj, tol))
    if kind == "circle":
        return ModelSpace.circle(float(obj.get("circumference", 1.0)))
    if kind == "interval":
        return ModelSpace.interval()
    if kind == "euclideanPoints":
        coords = np.asarray(obj["coords"], dtype=float)
        mass = obj.get("mass")
        mass = None if mass is None else np.asarray(mass, dtype=float)
        return ModelSpace.euclidean_points(coords, mass)
    raise ValueError(f"unknown model space kind: {kind!r}")
