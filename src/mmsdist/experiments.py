"""Experiment harness: the library's headline inequalities checked exactly
on enumerable instances and statistically at desk scale, with
machine-readable reports.

Every check is a pure function of its configuration and seed; reports
serialise to canonical JSON (sorted keys) so equal inputs give
byte-identical output.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    BudgetError,
    DistanceMatrix,
    FiniteMMS,
    validate_distance_matrix,
)
from .coupling import prokhorov_distance
from .ghp import ghp_bounds_uniform, ghp_upper_bound
from .matmetric import dm_distance, dpi_distance
from .sampling import (
    ModelSpace,
    enumerate_matrix_ensemble,
    rng_stream,
    sample_indices,
)

__all__ = [
    "ExperimentReport",
    "write_report",
    "write_report_csv",
    "random_euclidean_dmatrix",
    "two_point_space",
    "sharp_pair",
    "four_point_square",
    "binomial_tail_above",
    "check_finspc_sandwich",
    "check_hoelder_small_n",
    "check_sharp_exponent",
    "check_sampling_convergence",
    "check_group_invariance",
]


@dataclass(frozen=True)
class ExperimentReport:
    """One experiment run: configuration, measured values, the bounds they
    were compared against, and a pass flag per assertion."""

    name: str
    config: dict
    observed: dict
    bound: dict
    passed: dict
    notes: tuple = ()

    def all_passed(self) -> bool:
        return all(self.passed.values())

    def to_json(self) -> str:
        payload = asdict(self)
        payload["notes"] = list(self.notes)
        return json.dumps(payload, indent=2, sort_keys=True)


def write_report(report: ExperimentReport, path) -> None:
    with open(path, "w") as fh:
        fh.write(report.to_json() + "\n")


def write_report_csv(report: ExperimentReport, path) -> None:
    """Flatten a report into (report, section, key, value) rows."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["report", "section", "key", "value"])
        for section in ("config", "observed", "bound", "passed"):
            for key in sorted(getattr(report, section)):
                w.writerow([report.name, section, key, getattr(report, section)[key]])


# ---------------------------------------------------------------------------
# instance builders


def random_euclidean_dmatrix(rng: np.random.Generator, n: int, dim: int = 2, scale: float = 1.0) -> DistanceMatrix:
    """Distance matrix of n uniform random points in [0, scale]^dim."""
    pts = rng.random((n, dim)) * scale
    return validate_distance_matrix(DistanceMatrix.from_points(pts).entries)


def two_point_space(diameter: float, epsilon: float, light_label: str) -> FiniteMMS:
    """Two points at the given distance with masses (1 - eps, eps); the
    heavy point is labelled "o" so that pairs of these spaces share it."""
    d = np.array([[0.0, diameter], [diameter, 0.0]])
    return FiniteMMS(
        labels=("o", light_label),
        dist=DistanceMatrix(d),
        mass=np.array([1.0 - epsilon, epsilon]),
    )


def sharp_pair(c: float, epsilon: float):
    """The sharpness construction: diameters 2C and 4C, masses (1-eps, eps),
    heavy points shared."""
    return (
        two_point_space(2.0 * c, epsilon, "x"),
        two_point_space(4.0 * c, epsilon, "y"),
    )


def four_point_square(side: float = 1.0) -> FiniteMMS:
    """Uniform measure on the corners of a square (the default sampling
    ground space)."""
    pts = np.array([[0.0, 0.0], [side, 0.0], [0.0, side], [side, side]])
    return FiniteMMS(
        labels=("a", "b", "c", "d"),
        dist=DistanceMatrix.from_points(pts),
        mass=np.full(4, 0.25),
        coords=pts,
    )


def binomial_tail_above(n: int, p: float, m: float) -> float:
    """Exact P(B > m) for B ~ Binomial(n, p), by direct CDF summation."""
    total = 0.0
    for k in range(n + 1):
        if k > m:
            total += math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
    return total


def _ensemble_cross_grid(ens_x, ens_y, distance, tol: float, budget: int):
    """Grid of ``distance`` (dm_distance or dpi_distance) between two
    ensembles' atoms; raises :class:`BudgetError` before allocating when it
    has more than ``budget`` cells."""
    ax = ens_x.matrices()
    ay = ens_y.matrices()
    if len(ax) * len(ay) > budget:
        raise BudgetError(f"{len(ax)} x {len(ay)} grid exceeds the budget of {budget}")
    grid = np.zeros((len(ax), len(ay)))
    for i, mi in enumerate(ax):
        for j, mj in enumerate(ay):
            grid[i, j] = distance(mi.entries, mj.entries, tol=tol).value
    return grid


# ---------------------------------------------------------------------------
# checks


def check_finspc_sandwich(
    n: int = 5, trials: int = 200, seed: int = 0, tol: float = DEFAULT_TOL
) -> ExperimentReport:
    """Sandwich between the quotient matrix distance and the space distance
    on random Euclidean distance matrices: upper <= d_pi and d_pi <= 2*upper
    must hold on every trial."""
    if n < 1:
        raise ValueError("need at least one point per matrix")
    worst_upper_excess = -math.inf
    worst_sandwich_excess = -math.inf
    violations = 0
    for t in range(trials):
        rng = rng_stream(seed, t)
        a = random_euclidean_dmatrix(rng, n)
        b = random_euclidean_dmatrix(rng, n)
        bounds = ghp_bounds_uniform(a, b, tol=tol, exact_limit=max(8, n))
        dpi = 2.0 * bounds.lower  # the lower bound is half the exact dpi
        worst_upper_excess = max(worst_upper_excess, bounds.upper - dpi)
        worst_sandwich_excess = max(worst_sandwich_excess, dpi - 2.0 * bounds.upper)
        if bounds.upper > dpi + tol or dpi > 2.0 * bounds.upper + tol:
            violations += 1
    return ExperimentReport(
        name="finspc_sandwich",
        config={"n": n, "trials": trials, "seed": seed, "tol": tol},
        observed={
            "max_upper_minus_dpi": worst_upper_excess,
            "max_dpi_minus_2upper": worst_sandwich_excess,
            "violations": violations,
        },
        bound={"tolerance": tol},
        passed={
            "upper_le_dpi": worst_upper_excess <= tol,
            "dpi_le_2upper": worst_sandwich_excess <= tol,
        },
    )


def check_hoelder_small_n(
    epsilon: float = 0.1,
    n: int = 4,
    seed: int = 0,
    mc_trials: int = 0,
    budget: int = 10**6,
    tol: float = DEFAULT_TOL,
) -> ExperimentReport:
    """Square-root bound for ensembles of the two-point pair at sample size
    n: the exact ensemble distance under the permutation-quotient ground
    metric must not exceed sqrt(eps).

    With ``mc_trials`` > 0 additionally samples coupled pairs from the
    witness coupling and checks, per sample, that the quotient distance of
    the two sampled matrices is at most max(B/n, 2*eps), B counting sampled
    pairs at ambient distance >= eps.
    """
    if not 0.0 < epsilon < 0.25:
        raise ValueError("epsilon must lie in (0, 1/4)")
    x, y = sharp_pair(0.25, epsilon)
    ghp = ghp_upper_bound(x, y, "identify", tol=tol)
    ens_x = enumerate_matrix_ensemble(ModelSpace.finite(x), n, budget)
    ens_y = enumerate_matrix_ensemble(ModelSpace.finite(y), n, budget)
    grid = _ensemble_cross_grid(ens_x, ens_y, dpi_distance, tol, budget)
    dp = prokhorov_distance(
        ens_x.probabilities(), ens_y.probabilities(), grid, tol=tol, exact=True
    ).value
    observed = {"dp_ensemble": dp, "ghp_upper": ghp.upper, "atoms_x": ens_x.size, "atoms_y": ens_y.size}
    bound = {"sqrt_eps": math.sqrt(epsilon), "sqrt_ghp_upper": math.sqrt(ghp.upper)}
    passed = {
        "dp_le_sqrt_eps": dp <= math.sqrt(epsilon) + tol,
        "dp_le_sqrt_ghp_upper": dp <= math.sqrt(ghp.upper) + tol,
    }
    notes = []
    if mc_trials > 0:
        flat_mass = ghp.coupling.mass.ravel()
        cross = ghp.coupling.ground_dist
        cols = cross.shape[1]
        mc_violations = 0
        worst_gap = -math.inf
        for t in range(mc_trials):
            rng = rng_stream(seed, t)
            cells = sample_indices(flat_mass, n, rng)
            xi = cells // cols
            yi = cells % cols
            mx = x.dist.entries[np.ix_(xi, xi)]
            my = y.dist.entries[np.ix_(yi, yi)]
            b_count = int((cross[xi, yi] >= epsilon).sum())
            dpi = dpi_distance(mx, my, tol=tol).value
            cap = max(b_count / n, 2.0 * epsilon)
            worst_gap = max(worst_gap, dpi - cap)
            if dpi > cap + tol:
                mc_violations += 1
        observed["mc_trials"] = mc_trials
        observed["mc_worst_gap"] = worst_gap
        observed["mc_violations"] = mc_violations
        passed["per_sample_cases_bound"] = mc_violations == 0
        notes.append("per-sample bound checked on coupled draws")
    return ExperimentReport(
        name="hoelder_small_n",
        config={
            "epsilon": epsilon,
            "n": n,
            "seed": seed,
            "mc_trials": mc_trials,
            "budget": budget,
            "tol": tol,
        },
        observed=observed,
        bound=bound,
        passed=passed,
        notes=tuple(notes),
    )


def sharp_window(c: float, alpha: float, epsilon: float):
    """Integer sample sizes N with 1/2 < N*C*eps^alpha < 1."""
    if not (c > 0.0 and 0.0 < epsilon < 1.0):
        raise ValueError("need C > 0 and 0 < eps < 1")
    unit = c * epsilon**alpha
    lo, hi = 0.5 / unit, 1.0 / unit
    n_min = math.floor(lo) + 1
    if not lo < n_min < hi:
        raise ValueError(
            f"no integer N in the window ({lo}, {hi}); choose a smaller epsilon"
        )
    return n_min, lo, hi


def check_sharp_exponent(
    c: float = 1.0,
    alpha: float = 0.75,
    epsilon: float = 0.01,
    n: int | None = None,
    budget: int = 10**6,
    tol: float = DEFAULT_TOL,
) -> ExperimentReport:
    """Sharpness of the square-root exponent: for the two-point pair with
    diameters 2C/4C and the window sample size, the probability that the
    first sampled matrix is nonzero already exceeds C*eps^alpha, which
    certifies the same lower bound for the ensemble distance (below the
    threshold no row may be excluded, forcing both matrices to vanish).
    The exact ensemble distance is compared too when the 2^n sample tuples
    and the atoms_x x atoms_y dpi grid both fit the budget; else a note says why.
    """
    if not 0.5 < alpha < 1.0:
        raise ValueError("alpha must lie in (1/2, 1)")
    n_default, lo, hi = sharp_window(c, alpha, epsilon)
    if n is None:
        n = n_default
    unit = n * c * epsilon**alpha
    if not 0.5 < unit < 1.0:
        raise ValueError(f"N={n} violates the window: N*C*eps^alpha = {unit}")
    threshold = c * epsilon**alpha
    p_nonzero = 1.0 - (1.0 - epsilon) ** n - epsilon**n
    certified_lower = min(threshold, p_nonzero)
    observed = {"p_matrix_nonzero": p_nonzero, "window_n": n}
    bound = {
        "c_eps_alpha": threshold,
        "dp_lower_certified": certified_lower,
        "window": (lo, hi),
    }
    passed = {"marginal_exceeds_threshold": p_nonzero > threshold}
    notes = []
    try:
        if 2**n > budget:
            raise BudgetError(f"2^{n} exceeds the budget")
        x, y = sharp_pair(c, epsilon)
        ens_x = enumerate_matrix_ensemble(ModelSpace.finite(x), n, budget)
        ens_y = enumerate_matrix_ensemble(ModelSpace.finite(y), n, budget)
        grid = _ensemble_cross_grid(ens_x, ens_y, dpi_distance, tol, budget)
    except BudgetError as exc:
        notes.append(f"{exc}; exact ensemble step skipped")
    else:
        dp = prokhorov_distance(
            ens_x.probabilities(), ens_y.probabilities(), grid, tol=tol, exact=True
        ).value
        observed["dp_ensemble"] = dp
        if abs(dp - threshold) <= tol:
            passed["dp_exceeds_threshold"] = True
            notes.append("boundary: exact distance meets the threshold within tol")
        else:
            passed["dp_exceeds_threshold"] = dp > threshold
    return ExperimentReport(
        name="sharp_exponent",
        config={
            "c": c,
            "alpha": alpha,
            "epsilon": epsilon,
            "n": n,
            "budget": budget,
            "tol": tol,
        },
        observed=observed,
        bound=bound,
        passed=passed,
        notes=tuple(notes),
    )


def check_sampling_convergence(
    space: ModelSpace | None = None,
    epsilon: float = 0.1,
    n: int = 1000,
    trials: int = 200,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> ExperimentReport:
    """Empirical measures concentrate: the frequency of trials whose
    same-space coupling bound exceeds 3*eps must stay below eps (plus the
    reported binomial 95% slack).

    The per-trial statistic is the exact Prokhorov distance between the
    empirical mass vector and the model measure over the model's own
    distance grid, which dominates the space distance of the empirical
    space from the model."""
    if n < 1:
        raise ValueError("need at least one sample point")
    if space is None:
        space = ModelSpace.finite(four_point_square())
    base = space.atom_space()
    d = base.dist.entries
    p = base.mass
    exceed = 0
    dps = np.zeros(trials)
    for t in range(trials):
        rng = rng_stream(seed, t)
        idx = sample_indices(p, n, rng)
        counts = np.bincount(idx, minlength=base.n)
        q = counts / n
        dp = prokhorov_distance(q, p, d, tol=tol).value
        dps[t] = dp
        if dp > 3.0 * epsilon:
            exceed += 1
    freq = exceed / trials
    slack = 1.96 * math.sqrt(epsilon * (1.0 - epsilon) / trials)
    return ExperimentReport(
        name="sampling_convergence",
        config={"epsilon": epsilon, "n": n, "trials": trials, "seed": seed, "tol": tol},
        observed={
            "frequency_above_3eps": freq,
            "mean_dp": float(dps.mean()),
            "max_dp": float(dps.max()),
        },
        bound={"epsilon": epsilon, "binomial_95_slack": slack},
        passed={"frequency_below_eps": freq < epsilon + slack},
    )


def check_group_invariance(
    space1: ModelSpace | None = None,
    space2: ModelSpace | None = None,
    n: int = 3,
    budget: int = 10**6,
    tol: float = DEFAULT_TOL,
) -> ExperimentReport:
    """Ensembles of i.i.d. samples are exchangeable, so their coupling
    distance is the same under the full matrix metric and its permutation
    quotient; computed exactly both ways (rational flows) and compared.

    Also reports, without asserting, the gap after artificially breaking
    the symmetry by deleting an ensemble atom."""
    if space1 is None:
        space1 = ModelSpace.finite(two_point_space(0.5, 0.1, "x"))
    if space2 is None:
        space2 = ModelSpace.finite(two_point_space(1.0, 0.1, "y"))
    ens1 = enumerate_matrix_ensemble(space1, n, budget)
    ens2 = enumerate_matrix_ensemble(space2, n, budget)
    p1, p2 = ens1.probabilities(), ens2.probabilities()
    grid_dm = _ensemble_cross_grid(ens1, ens2, dm_distance, tol, budget)
    grid_dpi = _ensemble_cross_grid(ens1, ens2, dpi_distance, tol, budget)
    dp_dm = prokhorov_distance(p1, p2, grid_dm, tol=tol, exact=True).value
    dp_dpi = prokhorov_distance(p1, p2, grid_dpi, tol=tol, exact=True).value
    observed = {"dp_under_dm": dp_dm, "dp_under_dpi": dp_dpi, "gap": abs(dp_dm - dp_dpi)}
    notes = []
    if ens1.size > 1:
        # negative control: drop the lightest atom and renormalise
        drop = int(np.argmin(p1))
        keep = [k for k in range(ens1.size) if k != drop]
        q1 = p1[keep] / p1[keep].sum()
        dm_desym = prokhorov_distance(q1, p2, grid_dm[keep], tol=tol).value
        dpi_desym = prokhorov_distance(q1, p2, grid_dpi[keep], tol=tol).value
        observed["desym_gap"] = abs(dm_desym - dpi_desym)
        notes.append("desym_gap is reported only; invariance needs exchangeability")
    return ExperimentReport(
        name="group_invariance",
        config={"n": n, "budget": budget, "tol": tol},
        observed=observed,
        bound={"tolerance": tol},
        passed={"dp_values_equal": abs(dp_dm - dp_dpi) <= tol},
        notes=tuple(notes),
    )
