"""Output checks that share no code with the library's solvers.

Each check returns a list of problems (empty when the output is correct).
They re-derive what a witness certifies with plain numpy: bijective
permutations and exclusion sets for the matrix metrics, marginals and the
concentration of a coupling for Prokhorov values, isometric gluings for
space-distance brackets, and reconstruction for Birkhoff decompositions.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(Exception):
    """An output could not be read, so nothing else about it can be checked."""


def concentration(mass, dist) -> float:
    """Least r >= 0 with coupling mass >= 1 - r on pairs at distance <= r,
    by sorting the pair distances and scanning their cumulative mass."""
    levels, inverse = np.unique(np.asarray(dist, dtype=float).ravel(), return_inverse=True)
    within = np.cumsum(np.bincount(inverse, weights=np.asarray(mass, dtype=float).ravel()))
    # below the smallest level no mass is within reach, which costs 1
    return float(min(1.0, np.maximum(levels, 1.0 - within).min()))


def matrix_witness(a, b, value, perm, excluded, tol) -> list:
    """dm/dpi witness: ``perm`` is a bijection, the exclusion set is small
    enough, and every gap outside it is at most the value."""
    problems = []
    n = a.shape[0]
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(n)):
        return [f"permutation {perm} is not a bijection of 0..{n - 1}"]
    excluded = sorted(int(e) for e in excluded)
    if len(set(excluded)) != len(excluded) or any(not 0 <= e < n for e in excluded):
        return [f"exclusion set {excluded} is not a subset of 0..{n - 1}"]
    if len(excluded) > n * value + tol:
        problems.append(f"|excluded| = {len(excluded)} exceeds n * value = {n * value}")
    keep = np.ones(n, dtype=bool)
    keep[excluded] = False
    gaps = np.abs(a - b[np.ix_(perm, perm)])[np.ix_(keep, keep)]
    worst = float(gaps.max()) if gaps.size else 0.0
    if worst > value + tol:
        problems.append(f"gap {worst} outside the exclusion set exceeds the value {value}")
    return problems


def coupling(mass, dist, p, q, value, tol) -> list:
    """Prokhorov witness: the coupling has marginals p and q, and its
    concentration over the ground distances equals the value."""
    mass = np.asarray(mass, dtype=float)
    problems = []
    if float(mass.min(initial=0.0)) < -tol:
        problems.append(f"negative coupling mass {float(mass.min())}")
    for name, got, want in (("row", mass.sum(axis=1), p), ("column", mass.sum(axis=0), q)):
        err = float(np.abs(got - np.asarray(want, dtype=float)).max())
        if err > tol:
            problems.append(f"{name} marginal off by {err}")
    conc = concentration(mass, dist)
    if abs(conc - value) > tol:
        problems.append(f"coupling concentration {conc} differs from the value {value}")
    return problems


def gluing(dx, dy, cross, mass, px, py, upper, lower, tol) -> list:
    """Space-distance bracket: lower <= upper, the glued space extends both
    sides isometrically (the block matrix is a pseudo-metric, so no path
    through the other side shortens a distance), and the coupling realises
    ``upper`` over the glued cross distances."""
    problems = []
    if lower > upper + tol:
        problems.append(f"lower bound {lower} exceeds upper bound {upper}")
    if cross.shape != (dx.shape[0], dy.shape[0]):
        return problems + [f"cross grid has shape {cross.shape}"]
    full = np.block([[dx, cross], [cross.T, dy]])
    if float(full.min()) < -tol:
        problems.append("negative glued distance")
    # full[i, j] <= full[i, k] + full[k, j] for every k
    shortcut = float((full[:, None, :] - full[:, :, None] - full[None, :, :]).max())
    if shortcut > tol:
        problems.append(f"gluing is not isometric: a path is shorter by {shortcut}")
    return problems + coupling(mass, cross, px, py, upper, tol)


def birkhoff(s, terms, tol) -> list:
    """Birkhoff witness: positive coefficients summing to 1, each term a
    permutation, and the combination reproduces the input."""
    n = s.shape[0]
    recon = np.zeros_like(s)
    problems = []
    for coeff, sigma in terms:
        if coeff <= 0:
            problems.append(f"coefficient {coeff} is not positive")
        if sorted(sigma) != list(range(n)):
            return problems + [f"term {sigma} is not a permutation"]
        recon[np.arange(n), list(sigma)] += coeff
    total = sum(c for c, _ in terms)
    if abs(total - 1.0) > tol:
        problems.append(f"coefficients sum to {total}")
    err = float(np.abs(recon - s).max())
    if err > tol:
        problems.append(f"reconstruction error {err}")
    return problems
