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
import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    BudgetError,
    DistanceMatrix,
    FiniteMMS,
    SizeLimitError,
    check_tol,
    validate_distance_matrix,
)
from .coupling import _ProkhorovTo, prokhorov_distance
from .ghp import ghp_bounds_uniform, ghp_upper_bound
from .matmetric import (
    DPI_EXACT_LIMIT,
    _check_exact_limit,
    _cross_grid,
    dpi_distance,
)
from .sampling import (
    ModelSpace,
    enumerate_matrix_ensemble,
    sample_counts,
    sample_indices,
    trial_streams,
)

__all__ = [
    "ExperimentReport",
    "write_report",
    "write_report_csv",
    "random_euclidean_dmatrix",
    "two_point_space",
    "sharp_pair",
    "four_point_square",
    "sharp_window",
    "check_finspc_sandwich",
    "check_hoelder_small_n",
    "check_sharp_exponent",
    "check_sampling_convergence",
    "check_group_invariance",
]

log = logging.getLogger("mmsdist")


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


def random_euclidean_dmatrix(rng: np.random.Generator, n: int) -> DistanceMatrix:
    """Distance matrix of n uniform random points in the unit square."""
    pts = rng.random((n, 2))
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


def four_point_square() -> FiniteMMS:
    """Uniform measure on the corners of the unit square (the default
    sampling ground space)."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return FiniteMMS(
        labels=("a", "b", "c", "d"),
        dist=DistanceMatrix.from_points(pts),
        mass=np.full(4, 0.25),
        coords=pts,
    )


def _ensemble_grids(space_x, space_y, n: int, quotients, budget: int, tol: float):
    """Exact ensembles of n draws from ``space_x`` and ``space_y``, one
    :func:`matmetric._cross_grid` of the two per entry of ``quotients``
    (True: exact dpi, False: dm), and the ensemble distance over each grid,
    ``prokhorov_distance(...).value``: (ens_x, ens_y, grids, values).

    Each guard runs once, before the work it protects: the exact limit when
    any grid is dpi, before enumerating; the k^n tuple budget in
    :func:`enumerate_matrix_ensemble`; the grid budget (:class:`BudgetError`)
    before any grid is built.  So when the limit and a budget both fail, the
    error names the limit."""
    if any(quotients):
        _check_exact_limit(n)
    ens_x, ens_y = (enumerate_matrix_ensemble(s, n, budget, tol) for s in (space_x, space_y))
    if ens_x.size * ens_y.size > budget:
        raise BudgetError(f"{ens_x.size} x {ens_y.size} grid exceeds the budget of {budget}")
    grids = _cross_grid(ens_x, ens_y, quotients, tol)
    p, q = ens_x.probabilities(), ens_y.probabilities()
    return ens_x, ens_y, grids, [prokhorov_distance(p, q, grid, tol=tol).value for grid in grids]


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
    if trials < 1:
        raise ValueError("need at least one trial")
    worst_upper_excess = -math.inf
    worst_sandwich_excess = -math.inf
    violations = 0
    for rng in trial_streams(seed, trials):
        a = random_euclidean_dmatrix(rng, n)
        b = random_euclidean_dmatrix(rng, n)
        bounds = ghp_bounds_uniform(a, b, tol=tol, exact_limit=max(DPI_EXACT_LIMIT, n))
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
    if mc_trials < 0:
        raise ValueError(f"mc_trials must be >= 0, got {mc_trials}")
    streams = trial_streams(seed, mc_trials)  # checks the seed even at mc_trials = 0
    x, y = sharp_pair(0.25, epsilon)
    ens_x, ens_y, _, (dp,) = _ensemble_grids(ModelSpace.finite(x), ModelSpace.finite(y), n, (True,), budget, tol)
    ghp = ghp_upper_bound(x, y, "identify", tol=tol)
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
        for rng in streams:
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


def sharp_window(c: float, alpha: float, epsilon: float, n: int | None = None):
    """``(n, lo, hi)`` with lo < n < hi, the sharpness window: lo is
    1/(2*C*eps^alpha) and hi is 1/(C*eps^alpha); n defaults to the least
    integer above lo.  ValueError unless 1/2 < alpha < 1, 0 < C < inf,
    0 < eps < 1, 1/(C*eps^alpha) is finite and n is in the window."""
    if not (0.5 < alpha < 1.0 and 0.0 < c < math.inf and 0.0 < epsilon < 1.0):  # NaN fails this
        raise ValueError("need alpha in (1/2, 1), C positive and finite and 0 < eps < 1")
    unit = c * epsilon**alpha
    if not (unit > 0.0 and 1.0 / unit < math.inf):
        raise ValueError(f"C*eps^alpha = {unit} has no finite reciprocal")
    lo, hi = 0.5 / unit, 1.0 / unit
    pick = math.floor(lo) + 1 if n is None else n
    if not lo < pick < hi:
        raise ValueError(
            f"no integer N in the window ({lo}, {hi}); choose a smaller epsilon" if n is None
            else f"N={n} is outside the window ({lo}, {hi})"
        )
    return pick, lo, hi


def check_sharp_exponent(
    c: float = 1.0,
    alpha: float = 0.75,
    epsilon: float = 0.01,
    n: int | None = None,
    budget: int = 10**6,
    tol: float = DEFAULT_TOL,
) -> ExperimentReport:
    """Sharpness of the square-root exponent: for the two-point pair with
    diameters 2C/4C and a sample size in the window (:func:`sharp_window`
    picks or checks n), the probability that the first sampled matrix is
    nonzero already exceeds C*eps^alpha, which certifies the same lower
    bound for the ensemble distance (below the threshold no row may be
    excluded, forcing both matrices to vanish).
    The exact ensemble distance is compared too when n is within the exact
    dpi limit and the 2^n sample tuples and the atoms_x x atoms_y dpi grid
    both fit the budget; else a note names the first of these that fails.
    The limit is checked before the ensembles are enumerated.
    """
    check_tol(tol)
    n, lo, hi = sharp_window(c, alpha, epsilon, n)
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
        x, y = sharp_pair(c, epsilon)
        *_, (dp,) = _ensemble_grids(ModelSpace.finite(x), ModelSpace.finite(y), n, (True,), budget, tol)
    except (BudgetError, SizeLimitError) as exc:
        notes.append(f"{exc}; exact ensemble step skipped")
    else:
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
    space from the model.  The grid and the model measure are prepared once
    (:class:`mmsdist.coupling._ProkhorovTo`, the path every Prokhorov
    distance takes).  Trial t draws from Philox stream (seed, t), walked on
    one re-keyed generator (:func:`mmsdist.sampling.trial_streams`), counts
    its n draws per atom by one sort (:func:`mmsdist.sampling.sample_counts`)
    and runs only the breakpoint search.  Its ``counts / n`` is passed
    unchecked, as it is a mass vector by construction, so the check runs at
    tol = 0 too."""
    if n < 1:
        raise ValueError("need at least one sample point")
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0.0 < epsilon <= 1.0:  # NaN fails this too
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if space is None:
        space = ModelSpace.finite(four_point_square())
    base = space.atom_space(tol)
    p = base.mass
    dp_to_model = _ProkhorovTo(p, base.dist.entries, tol)
    exceed = 0
    dps = np.zeros(trials)
    for t, rng in enumerate(trial_streams(seed, trials)):
        dp = dp_to_model.solve(sample_counts(p, n, rng) / n)[0]
        dps[t] = dp
        if dp > 3.0 * epsilon:
            exceed += 1
    log.debug(
        "sampconv: %d trials on %d x %d atoms, %d levels, %d max-flows solved, one per level probed",
        trials, base.n, base.n, len(dp_to_model.levels), dp_to_model.flows,
    )
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
    quotient; computed exactly both ways and compared.

    Also reports, without asserting, the gap after artificially breaking
    the symmetry by deleting an ensemble atom."""
    if space1 is None:
        space1 = ModelSpace.finite(two_point_space(0.5, 0.1, "x"))
    if space2 is None:
        space2 = ModelSpace.finite(two_point_space(1.0, 0.1, "y"))
    ens1, ens2, (grid_dm, grid_dpi), (dp_dm, dp_dpi) = _ensemble_grids(space1, space2, n, (False, True), budget, tol)
    observed = {"dp_under_dm": dp_dm, "dp_under_dpi": dp_dpi, "gap": abs(dp_dm - dp_dpi)}
    notes = []
    if ens1.size > 1:
        # negative control: drop the lightest atom and renormalise
        p1, p2 = ens1.probabilities(), ens2.probabilities()
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
