"""Bad input at every public entry point: NaN, inf, empty, asymmetric,
non-probability and wrong-shape arguments, each placed by hypothesis.

Each case raises a ValueError subclass whose text names the argument (a
role name such as "first marginal" counts).  The inputs with a defined
answer are listed in ``DEFINED`` and keep that answer."""

import json
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsdist import (
    Coupling,
    DistanceMatrix,
    FiniteMMS,
    MatrixEnsemble,
    ModelSpace,
    birkhoff_decompose,
    delta_of_coupling,
    dm_distance,
    dpi_distance,
    empirical_space,
    enumerate_matrix_ensemble,
    epsilon_matching,
    find_isometric_embeddings,
    ghp_upper_bound,
    glue_by_relation,
    kl_divergence,
    min_vertex_cover,
    prokhorov_distance,
    relative_entropy,
    theta_map,
    validate_distance_matrix,
)
from mmsdist.cli import main
from mmsdist.experiments import check_hoelder_small_n, check_sharp_exponent, sharp_window
from mmsdist.sampling import rng_stream


def _bad(draw):
    return draw(st.sampled_from([np.nan, np.inf, -np.inf]))


def _sym(draw, n):
    """A symmetric n x n grid with zero diagonal and entries in [0, 2]."""
    g = np.zeros((n, n))
    for i in range(n):
        for j in range(i):
            g[i, j] = g[j, i] = draw(st.floats(0.0, 2.0))
    return g


def _with(draw, a, value):
    """``a`` with ``value`` at one drawn cell (and at its mirror, on a
    square grid)."""
    a = np.array(a, dtype=float)
    cell = tuple(draw(st.integers(0, k - 1)) for k in a.shape)
    a[cell] = value
    if a.ndim == 2 and a.shape[0] == a.shape[1]:
        a[cell[::-1]] = value
    return a


def _skewed(draw, a):
    """``a`` with one off-diagonal entry moved by 0.5 from its mirror."""
    a = np.array(a, dtype=float)
    i = draw(st.integers(1, len(a) - 1))
    a[i, draw(st.integers(0, i - 1))] += 0.5
    return a


def _mass(draw, n):
    """A probability vector of length n over multiples of 1/8."""
    cuts = sorted(draw(st.lists(st.integers(0, 8), min_size=n - 1, max_size=n - 1)))
    return np.diff([0, *cuts, 8]) / 8.0


def _negative(draw, p):
    """``p`` with 1.5 moved from one entry to another: it still sums to 1,
    and the entry it left is negative."""
    p = np.array(p, dtype=float)
    i, j = draw(st.permutations(range(len(p))))[:2]
    p[i] -= 1.5
    p[j] += 1.5
    return p


def _marginals(draw, n, p, q):
    """check_marginals of a diagonal coupling of a drawn mass m, against
    p(m) and q(m)."""
    m = _mass(draw, n)
    return partial(Coupling(np.diag(m), _sym(draw, n)).check_marginals, p(m), q(m))


def _space(n, mass=None, coords=None):
    d = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]).astype(float)
    m = np.full(n, 1.0 / n) if mass is None else mass
    return FiniteMMS(tuple(f"p{i}" for i in range(n)), DistanceMatrix(d), m, coords)


# case name -> (build, text): build(draw, n) gives the call, with every
# argument drawn, that must raise a ValueError whose text holds ``text``
CASES = {}

for _name, _fn in [
    ("dm", dm_distance),
    ("exact dpi", dpi_distance),
    ("heuristic dpi", partial(dpi_distance, mode="heuristic")),
]:
    CASES.update({
        f"{_name}: NaN or inf in the first matrix": (
            lambda d, n, f=_fn: partial(f, _with(d, _sym(d, n), _bad(d)), _sym(d, n)),
            "first matrix has a non-finite entry",
        ),
        f"{_name}: NaN or inf in the second matrix": (
            lambda d, n, f=_fn: partial(f, _sym(d, n), _with(d, _sym(d, n), _bad(d))),
            "second matrix has a non-finite entry",
        ),
        f"{_name}: asymmetric first matrix": (
            lambda d, n, f=_fn: partial(f, _skewed(d, _sym(d, n)), _sym(d, n)),
            "first matrix is not symmetric",
        ),
        f"{_name}: asymmetric second matrix": (
            lambda d, n, f=_fn: partial(f, _sym(d, n), _skewed(d, _sym(d, n))),
            "second matrix is not symmetric",
        ),
        f"{_name}: non-square first matrix": (
            lambda d, n, f=_fn: partial(f, np.zeros((n, n + 1)), _sym(d, n)),
            "first matrix is not square",
        ),
        f"{_name}: flat second matrix": (
            lambda d, n, f=_fn: partial(f, _sym(d, n), np.zeros(n)),
            "second matrix is not square",
        ),
        f"{_name}: sizes differ": (
            lambda d, n, f=_fn: partial(f, _sym(d, n), _sym(d, n + 1)),
            "dimension mismatch",
        ),
    })

CASES.update({
    "dpi: unknown mode": (
        lambda d, n: partial(dpi_distance, _sym(d, n), _sym(d, n), mode="fast"),
        "unknown mode",
    ),
    "vertex cover: a vertex outside the graph": (
        lambda d, n: partial(min_vertex_cover, n, [(0, n)]),
        "edges must be pairs of vertices",
    ),
    # couplings
    "prokhorov: NaN or inf in the first marginal": (
        lambda d, n: partial(prokhorov_distance, _with(d, _mass(d, n), _bad(d)), _mass(d, n), _sym(d, n)),
        "first marginal has a non-finite entry",
    ),
    "prokhorov: negative first marginal": (
        lambda d, n: partial(prokhorov_distance, _negative(d, _mass(d, n)), _mass(d, n), _sym(d, n)),
        "first marginal has a negative entry",
    ),
    "prokhorov: second marginal not summing to 1": (
        lambda d, n: partial(prokhorov_distance, _mass(d, n), _mass(d, n) / 2, _sym(d, n)),
        "second marginal sums to",
    ),
    "prokhorov: 2-d first marginal": (
        lambda d, n: partial(prokhorov_distance, [_mass(d, n)], _mass(d, n), _sym(d, n)),
        "first marginal must be 1-dimensional",
    ),
    "prokhorov: empty marginals": (
        lambda d, n: partial(prokhorov_distance, [], [], np.zeros((0, 0))),
        "first marginal sums to 0.0",
    ),
    "prokhorov: NaN or inf in the grid": (
        lambda d, n: partial(prokhorov_distance, _mass(d, n), _mass(d, n), _with(d, _sym(d, n), _bad(d))),
        "distance grid has a non-finite entry",
    ),
    "prokhorov: negative grid": (
        lambda d, n: partial(prokhorov_distance, _mass(d, n), _mass(d, n), _with(d, _sym(d, n), -0.5)),
        "distance grid has a negative entry",
    ),
    "prokhorov: grid of the wrong shape": (
        lambda d, n: partial(prokhorov_distance, _mass(d, n), _mass(d, n), np.zeros((n, n + 1))),
        "distance grid shape",
    ),
    "delta: NaN or inf in the mass": (
        lambda d, n: partial(delta_of_coupling, Coupling(_with(d, np.diag(_mass(d, n)), _bad(d)), _sym(d, n))),
        "coupling mass has a non-finite entry",
    ),
    "delta: mass not summing to 1": (
        lambda d, n: partial(delta_of_coupling, Coupling(np.diag(_mass(d, n)) / 2, _sym(d, n))),
        "coupling mass sums to",
    ),
    "delta: empty coupling": (
        lambda d, n: partial(delta_of_coupling, Coupling(np.zeros((0, 0)), np.zeros((0, 0)))),
        "coupling mass sums to 0.0",
    ),
    "delta: NaN or inf in the grid": (
        lambda d, n: partial(delta_of_coupling, Coupling(np.diag(_mass(d, n)), _with(d, _sym(d, n), _bad(d)))),
        "coupling distance grid has a non-finite entry",
    ),
    "delta: negative grid": (
        lambda d, n: partial(delta_of_coupling, Coupling(np.diag(_mass(d, n)), _with(d, _sym(d, n), -0.5))),
        "coupling distance grid has a negative entry",
    ),
    # a NaN gap passed (Python's max(0.0, nan) is 0.0), a length-1 marginal
    # broadcast, and a longer one raised numpy's broadcast error
    "marginals: NaN in the first marginal": (
        lambda d, n: _marginals(d, n, lambda m: _with(d, m, np.nan), lambda m: m),
        "coupling first marginal off by nan",
    ),
    "marginals: NaN in the second marginal": (
        lambda d, n: _marginals(d, n, lambda m: m, lambda m: _with(d, m, np.nan)),
        "coupling second marginal off by nan",
    ),
    "marginals: first marginal of length 1": (
        lambda d, n: _marginals(d, n, lambda m: m[:1], lambda m: m),
        "first marginal has shape (1,)",
    ),
    "marginals: second marginal one too long": (
        lambda d, n: _marginals(d, n, lambda m: m, lambda m: np.append(m, 0.0)),
        "second marginal has shape",
    ),
    "marginals: 2-d first marginal": (
        lambda d, n: _marginals(d, n, lambda m: [m], lambda m: m),
        "first marginal has shape (1,",
    ),
    "birkhoff: NaN or inf": (
        lambda d, n: partial(birkhoff_decompose, _with(d, np.eye(n), _bad(d))),
        "grid has a non-finite entry",
    ),
    "birkhoff: negative entry": (
        lambda d, n: partial(birkhoff_decompose, np.eye(n)[d(st.permutations(range(n)))] * 2 - 1 / n),
        "grid has a negative entry",
    ),
    "birkhoff: not doubly stochastic": (
        lambda d, n: partial(birkhoff_decompose, np.eye(n) / 2),
        "grid is not doubly stochastic",
    ),
    "birkhoff: non-square grid": (
        lambda d, n: partial(birkhoff_decompose, np.zeros((n, n + 1))),
        "expected a square grid",
    ),
    "birkhoff: flat grid": (
        lambda d, n: partial(birkhoff_decompose, np.ones(n)),
        "expected a square grid",
    ),
    "matching: NaN or inf": (
        lambda d, n: partial(epsilon_matching, _with(d, _sym(d, n), _bad(d)), 0.5),
        "distance grid has a non-finite entry",
    ),
    # accepted before the grid check moved to core
    "matching: negative grid": (
        lambda d, n: partial(epsilon_matching, _with(d, _sym(d, n), -1.0), 0.5),
        "distance grid has a negative entry",
    ),
    "matching: flat grid": (
        lambda d, n: partial(epsilon_matching, np.zeros(n), 0.5),
        "expected a 2-d distance grid",
    ),
    "matching: NaN epsilon": (
        lambda d, n: partial(epsilon_matching, _sym(d, n), np.nan),
        "epsilon must be positive",
    ),
    # measures and spaces
    "kl: NaN or inf in nu": (
        lambda d, n: partial(kl_divergence, _with(d, _mass(d, n), _bad(d)), _mass(d, n)),
        "nu has a non-finite entry",
    ),
    "kl: negative mu": (
        lambda d, n: partial(kl_divergence, _mass(d, n), _negative(d, _mass(d, n))),
        "mu has a negative entry",
    ),
    "kl: mu not summing to 1": (
        lambda d, n: partial(kl_divergence, _mass(d, n), _mass(d, n) / 2),
        "mu sums to",
    ),
    "kl: empty": (lambda d, n: partial(kl_divergence, [], []), "nu sums to 0.0"),
    "kl: lengths differ": (
        lambda d, n: partial(kl_divergence, _mass(d, n), _mass(d, n + 1)),
        "length mismatch",
    ),
    "space: NaN or inf in the mass": (
        lambda d, n: partial(_space, n, _with(d, _mass(d, n), _bad(d))),
        "mass vector has a non-finite entry",
    ),
    "space: mass not summing to 1": (
        lambda d, n: partial(_space, n, _mass(d, n) / 2),
        "mass vector sums to",
    ),
    "space: mass of the wrong size": (
        lambda d, n: partial(_space, n, _mass(d, n + 1)),
        "inconsistent sizes",
    ),
    # accepted before FiniteMMS checked its coordinates
    "space: NaN or inf in the coordinates": (
        lambda d, n: partial(_space, n, None, _with(d, np.zeros((n, 2)), _bad(d))),
        "coords needs points with finite coordinates",
    ),
    "space: coordinates of the wrong size": (
        lambda d, n: partial(_space, n, None, np.zeros((n + 1, 2))),
        "coords row count",
    ),
    "ensemble: NaN or inf probability": (
        lambda d, n: partial(MatrixEnsemble, tuple((DistanceMatrix(_sym(d, n)), p) for p in (_bad(d), 1.0))),
        "atom probability vector has a non-finite entry",
    ),
    "ensemble: probabilities not summing to 1": (
        lambda d, n: partial(MatrixEnsemble, ((DistanceMatrix(_sym(d, n)), 0.5),)),
        "atom probability vector sums to",
    ),
    "ensemble: no atom": (
        lambda d, n: partial(MatrixEnsemble, ()),
        "ensemble needs at least one atom",
    ),
    "uniform space: no point": (
        lambda d, n: partial(theta_map, DistanceMatrix(np.zeros((0, 0)))),
        "uniform space needs at least one point",
    ),
    "metric: NaN or inf": (
        lambda d, n: partial(validate_distance_matrix, _with(d, _sym(d, n), _bad(d))),
        "non_finite",
    ),
    "metric: asymmetric": (
        lambda d, n: partial(validate_distance_matrix, _skewed(d, _sym(d, n))),
        "asymmetric",
    ),
    # model spaces and sampling
    "point cloud: NaN or inf": (
        lambda d, n: partial(ModelSpace.euclidean_points, _with(d, np.zeros((n, 2)), _bad(d))),
        "point cloud needs points with finite coordinates",
    ),
    "point cloud: empty": (
        lambda d, n: partial(ModelSpace.euclidean_points, []),
        "point cloud needs points with finite coordinates",
    ),
    "point cloud: 3-d": (
        lambda d, n: partial(ModelSpace.euclidean_points, np.zeros((n, 1, 1))),
        "point cloud needs points with finite coordinates",
    ),
    # from_points gave a NaN or inf distance matrix
    "from_points: NaN or inf in the coordinates": (
        lambda d, n: partial(DistanceMatrix.from_points, _with(d, np.zeros((n, 2)), _bad(d))),
        "coords needs points with finite coordinates",
    ),
    "point cloud: weights not summing to 1": (
        lambda d, n: partial(ModelSpace.euclidean_points, np.zeros((n, 2)), _mass(d, n) / 2),
        "weights sums to",
    ),
    "point cloud: NaN or inf weight": (
        lambda d, n: partial(ModelSpace.euclidean_points, np.zeros((n, 2)), _with(d, _mass(d, n), _bad(d))),
        "weights has a non-finite entry",
    ),
    "point cloud: weights of the wrong size": (
        lambda d, n: partial(ModelSpace.euclidean_points, np.zeros((n, 2)), _mass(d, n + 1)),
        "weights for",
    ),
    "circle: NaN circumference": (
        lambda d, n: partial(ModelSpace.circle, np.nan),
        "circumference must be positive",
    ),
    "ensemble enumeration: no sample point": (
        lambda d, n: partial(enumerate_matrix_ensemble, ModelSpace.finite(_space(n)), 0),
        "need at least one sample point",
    ),
    "sampling: no sample point": (
        lambda d, n: partial(empirical_space, ModelSpace.interval(), 0, 0),
        "need at least one sample point",
    ),
    # a negative seed ended in an OverflowError, a float one was truncated
    "sampling: seed outside [0, 2**64)": (
        lambda d, n: partial(empirical_space, ModelSpace.interval(), n, d(st.sampled_from([-1, 2**64, 1.5]))),
        "seed must be an integer in [0, 2**64)",
    ),
    "sampling: stream outside [0, 2**64)": (
        lambda d, n: partial(rng_stream, 0, d(st.sampled_from([-1, 2**64, 1.5]))),
        "stream must be an integer in [0, 2**64)",
    ),
    # checks
    "hoelder check: negative mc_trials": (
        lambda d, n: partial(check_hoelder_small_n, n=n, mc_trials=-d(st.integers(1, 5))),
        "mc_trials must be >= 0",
    ),
    # sharp_window read a NaN alpha as "cannot convert float NaN to
    # integer" and an infinite C as the empty window (0.0, 0.0)
    "sharp window: NaN or out-of-range alpha": (
        lambda d, n: partial(sharp_window, 1.0, d(st.sampled_from([np.nan, 0.5, 1.0])), 0.01),
        "need alpha in (1/2, 1)",
    ),
    "sharp window: NaN or inf C": (
        lambda d, n: partial(sharp_window, _bad(d), 0.75, 0.01),
        "C positive and finite",
    ),
    # a zero C*eps^alpha raised ZeroDivisionError, a subnormal one OverflowError
    "sharp window: C*eps^alpha without a finite reciprocal": (
        lambda d, n: partial(sharp_window, 1e-300, 0.75, d(st.sampled_from([1e-300, 1e-20]))),
        "has no finite reciprocal",
    ),
    "sharp window: N outside it": (
        lambda d, n: partial(check_sharp_exponent, 1.0, 0.75, 0.01, d(st.sampled_from([15, 32, np.nan]))),
        "is outside the window (15.8",
    ),
    # gluings
    # named a bridge length before the cross grid was checked
    "net: negative cross grid": (
        lambda d, n: partial(ghp_upper_bound, _space(n), _space(n), "net", cross=_with(d, _sym(d, n), -1.0)),
        "cross grid has a negative entry",
    ),
    "net: NaN or inf in the cross grid": (
        lambda d, n: partial(ghp_upper_bound, _space(n), _space(n), "net", cross=_with(d, _sym(d, n), _bad(d))),
        "cross grid has a non-finite entry",
    ),
    "net: cross grid of the wrong shape": (
        lambda d, n: partial(ghp_upper_bound, _space(n), _space(n), "net", cross=np.zeros((n, n + 1))),
        "cross grid shape",
    ),
    "glue: NaN bridge length": (
        lambda d, n: partial(glue_by_relation, _space(n), _space(n), [(0, 0)], np.nan),
        "bridge length",
    ),
    "glue: empty relation": (
        lambda d, n: partial(glue_by_relation, _space(n), _space(n), [], 0.5),
        "at least one bridge",
    ),
})


@pytest.mark.parametrize("case", list(CASES))
@settings(max_examples=15, deadline=None)
@given(data=st.data(), n=st.integers(2, 4))
def test_bad_input_raises_an_error_naming_the_argument(case, data, n):
    build, text = CASES[case]
    call = build(data.draw, n)
    with pytest.raises(ValueError) as info:
        call()
    assert text in str(info.value)


# inputs with a defined answer: (call, its result)
DEFINED = {
    "dm of two 0 x 0 grids": (
        lambda: dm_distance(np.zeros((0, 0)), np.zeros((0, 0))),
        "DmWitness(value=0.0, excluded=(), max_residual=0.0)",
    ),
    "exact dpi of two 0 x 0 grids": (
        lambda: dpi_distance(np.zeros((0, 0)), np.zeros((0, 0))).permutation,
        "()",
    ),
    "heuristic dpi of two 0 x 0 grids": (
        lambda: dpi_distance(np.zeros((0, 0)), np.zeros((0, 0)), mode="heuristic").value,
        "0.0",
    ),
    "Birkhoff of the 0 x 0 grid": (
        lambda: birkhoff_decompose(np.zeros((0, 0))).terms,
        "((1.0, ()),)",
    ),
    "matching on the 0 x 0 grid": (lambda: epsilon_matching(np.zeros((0, 0)), 0.5).pairs, "()"),
    "the 0 x 0 metric": (lambda: validate_distance_matrix(np.zeros((0, 0))).n, "0"),
    "masses within tol below 0": (
        lambda: prokhorov_distance([1.0 + 1e-10, -1e-10], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]]).value,
        "0.5",
    ),
    "a cross grid within tol below 0": (
        lambda: ghp_upper_bound(_space(1), _space(1), "net", cross=[[-1e-10]]).upper,
        "0.0",
    ),
}


@pytest.mark.parametrize("name", list(DEFINED))
def test_degenerate_input_keeps_its_defined_answer(name):
    call, want = DEFINED[name]
    assert repr(call()) == want


# ---------------------------------------------------------------------------
# a tol that is not finite and >= 0, at every entry point above that takes
# one, on input that is valid at any tol

_D2 = [[0.0, 1.0], [1.0, 0.0]]

TOL_CALLS = {
    "dm": lambda tol: dm_distance(_D2, _D2, tol),
    "exact dpi": lambda tol: dpi_distance(_D2, _D2, tol=tol),
    "heuristic dpi": lambda tol: dpi_distance(_D2, _D2, mode="heuristic", tol=tol),
    "prokhorov": lambda tol: prokhorov_distance([0.5, 0.5], [0.5, 0.5], _D2, tol),
    "delta": lambda tol: delta_of_coupling(Coupling(np.eye(2) / 2, _D2), tol),
    "marginals": lambda tol: Coupling(np.eye(2) / 2, _D2).check_marginals([0.5, 0.5], [0.5, 0.5], tol),
    "birkhoff": lambda tol: birkhoff_decompose(np.eye(2), tol),
    "matching": lambda tol: epsilon_matching(_D2, 0.5, tol),
    "kl": lambda tol: kl_divergence([0.5, 0.5], [0.5, 0.5], tol),
    "embeddings": lambda tol: find_isometric_embeddings(_space(2), _space(2), tol),
    "relative entropy": lambda tol: relative_entropy(_space(2), _space(2), tol),
    "space": lambda tol: FiniteMMS(("p0", "p1"), DistanceMatrix(_D2), [0.5, 0.5], tol=tol),
    "ensemble": lambda tol: MatrixEnsemble(((DistanceMatrix(_D2), 1.0),), tol=tol),
    "metric": lambda tol: validate_distance_matrix(_D2, tol),
    "point cloud": lambda tol: ModelSpace.euclidean_points(np.zeros((2, 2)), [0.5, 0.5], tol),
    "uniform point cloud": lambda tol: ModelSpace.euclidean_points(np.zeros((2, 2)), tol=tol),
    "sharp check": lambda tol: check_sharp_exponent(tol=tol),
    "ensemble enumeration": lambda tol: enumerate_matrix_ensemble(ModelSpace.finite(_space(2)), 2, tol=tol),
    "permutation bound": lambda tol: ghp_upper_bound(_space(2), _space(2), "permutation", tol),
    "identify bound": lambda tol: ghp_upper_bound(_space(2), _space(2), "identify", tol),
    "net bound": lambda tol: ghp_upper_bound(_space(2), _space(2), "net", tol, cross=_D2),
    "glue": lambda tol: glue_by_relation(_space(2), _space(2), [(0, 0)], 0.5, tol),
}

BAD_TOLS = [np.nan, np.inf, -1.0]


@pytest.mark.parametrize("tol", BAD_TOLS)
@pytest.mark.parametrize("name", list(TOL_CALLS))
def test_bad_tol_raises_an_error_naming_tol(name, tol):
    TOL_CALLS[name](1e-9)  # valid at a valid tol
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        TOL_CALLS[name](tol)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_cli_rejects_a_bad_tol(tmp_path, capsys, tol):
    # a NaN tol passed an asymmetric matrix and marginals summing to 0.4
    a = tmp_path / "a.mat"
    a.write_text("2\n0 1\n2 0\n")
    p = tmp_path / "p.json"
    p.write_text("[0.2, 0.2]")
    # check sharp at its defaults skips the exact step, so it compares no tol
    for argv in (["dm", str(a), str(a)], ["prokhorov", str(p), str(p), str(a)], ["check", "sharp"]):
        assert main(["--tol", str(tol), *argv]) == 2
        assert "tol must be finite and >= 0" in capsys.readouterr().err


def test_rng_stream_keys_philox_by_seed_and_stream():
    # the check leaves every valid key's stream as it was
    for seed, stream in [(0, 0), (7, 3), (2**64 - 1, 2**63), (np.uint64(5), np.int64(2))]:
        want = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
        assert rng_stream(seed, stream).integers(2**63, size=4).tolist() == want.integers(2**63, size=4).tolist()


@pytest.mark.parametrize(
    "argv, text",
    [
        (["check", "finspc", "--seed", "-1"], "seed must be an integer in [0, 2**64)"),
        (["check", "sampconv", "--seed", "-1"], "seed must be an integer in [0, 2**64)"),
        (["sample", "{space}", "--n", "2", "--seed", "-1"], "seed must be an integer in [0, 2**64)"),
        (["check", "hoelder", "--mc-trials", "-3"], "mc_trials must be >= 0"),
        (["check", "hoelder", "--seed", "-1"], "seed must be an integer in [0, 2**64)"),
    ],
    ids=["finspc seed", "sampconv seed", "sample seed", "hoelder mc_trials", "hoelder seed"],
)
def test_cli_rejects_a_bad_seed_or_trial_count(tmp_path, capsys, argv, text):
    # a negative seed ended in an OverflowError traceback (exit 1), and
    # check hoelder ran and reported "mc_trials": -3, or "seed": -1 when it
    # drew no trial (exit 0)
    space = tmp_path / "space.json"
    space.write_text('{"kind": "interval"}')
    assert main([a.format(space=space) for a in argv]) == 2
    assert text in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the CLI's --tol reaches every mass check of a space file


@pytest.mark.parametrize(
    "argv",
    [
        ["ensemble", "{fin}", "--n", "2"],
        ["check", "gpaction", "--space", "{fin}", "--n", "2"],
        ["sample", "{ep}", "--n", "2"],
        ["ensemble", "{ep}", "--n", "2"],
        ["check", "sampconv", "--space", "{ep}", "--n", "20", "--trials", "3"],
    ],
    ids=["finite ensemble", "finite gpaction", "points sample", "points ensemble", "points sampconv"],
)
def test_cli_tol_reaches_model_space_masses(tmp_path, capsys, argv):
    # masses summing to 1.000001 were checked at 1e-9 whatever --tol said
    mass = "[0.5, 0.500001]"
    fin = tmp_path / "fin.json"
    fin.write_text(f'{{"kind": "finite", "dist": [[0, 1], [1, 0]], "mass": {mass}}}')
    ep = tmp_path / "ep.json"
    ep.write_text(f'{{"kind": "euclideanPoints", "coords": [[0, 0], [1, 0]], "mass": {mass}}}')
    argv = [a.format(fin=fin, ep=ep) for a in argv]
    assert main(["--tol", "1e-3", *argv]) == 0, capsys.readouterr().err
    capsys.readouterr()
    assert main(argv) == 2
    assert "expected 1 within 1e-09" in capsys.readouterr().err


def test_cli_ensemble_at_tol_gives_the_library_ensemble(tmp_path, capsys):
    fin = tmp_path / "fin.json"
    fin.write_text('{"kind": "finite", "dist": [[0, 1], [1, 0]], "mass": [0.5, 0.500001]}')
    assert main(["--tol", "1e-3", "ensemble", str(fin), "--n", "2"]) == 0
    atoms = json.loads(capsys.readouterr().out)["atoms"]
    space = FiniteMMS(("p0", "p1"), DistanceMatrix([[0.0, 1.0], [1.0, 0.0]]), [0.5, 0.500001], tol=1e-3)
    want = enumerate_matrix_ensemble(ModelSpace.finite(space), 2, tol=1e-3)
    assert [(a["matrix"], a["probability"]) for a in atoms] == [(m.entries.tolist(), p) for m, p in want.atoms]
