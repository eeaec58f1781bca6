import json

import numpy as np
import pytest

import mmsdist
from mmsdist import (
    DistanceMatrix,
    FiniteMMS,
    ValidationError,
    check_distance_matrix,
    theta_map,
    validate_distance_matrix,
)
from mmsdist.core import as_prob_vector
from mmsdist.fileio import read_matrix, read_mms, write_matrix
from mmsdist.sampling import rng_stream


def test_two_point_metric_is_valid():
    dm = validate_distance_matrix([[0, 1], [1, 0]])
    assert dm.n == 2
    assert dm.entries[0, 1] == 1.0


def test_nonzero_diagonal_reported():
    violations = check_distance_matrix([[0, 5], [5, 0.1]])
    kinds = {v.kind for v in violations}
    assert kinds == {"diagonal"}
    assert violations[0].indices == (1, 1)


def test_triangle_violation_reported_with_indices():
    violations = check_distance_matrix([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    assert all(v.kind == "triangle" for v in violations)
    # d(0,2) = 3 > d(0,1) + d(1,2) = 2, middle point as the witness
    assert (0, 2, 1) in {v.indices for v in violations}


def test_each_violation_kind_distinct():
    assert check_distance_matrix([[0, 1], [1, 0], [0, 0]])[0].kind == "non_square"
    assert "negative" in {v.kind for v in check_distance_matrix([[0, -1], [-1, 0]])}
    assert "asymmetric" in {v.kind for v in check_distance_matrix([[0, 1], [2, 0]])}
    with pytest.raises(ValidationError):
        validate_distance_matrix([[0, 1], [2, 0]])


def test_zero_off_diagonal_is_allowed_pseudo_metric():
    assert check_distance_matrix([[0, 0], [0, 0]]) == []


def test_theta_map_examples():
    single = theta_map(validate_distance_matrix([[0.0]]))
    assert single.n == 1 and single.mass[0] == 1.0
    two = theta_map(validate_distance_matrix([[0, 2], [2, 0]]))
    assert two.mass.tolist() == [0.5, 0.5]
    four = theta_map(DistanceMatrix.from_points(np.arange(4.0)[:, None]))
    assert np.all(four.mass == 0.25)
    assert abs(four.mass.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError, match="at least one point"):
        theta_map(validate_distance_matrix(np.zeros((0, 0))))


def test_space_json_without_points_is_a_typed_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"coords": []}')
    with pytest.raises(ValueError, match="no points"):
        read_mms(path)


def test_space_json_errors_name_the_file_and_keep_their_type(tmp_path):
    path = tmp_path / "asym.json"
    path.write_text('{"dist": [[0, 1], [2, 0]]}')
    with pytest.raises(ValidationError) as info:
        read_mms(path)
    assert str(info.value).startswith(f"{path}: 1 violation(s)")
    assert [(v.kind, v.indices) for v in info.value.violations] == [("asymmetric", (0, 1))]
    path.write_text('{"dist": [[0, 1], [1, 0]]')
    with pytest.raises(json.JSONDecodeError) as info:
        read_mms(path)
    assert str(info.value).startswith(f"{path}: Expecting")


def test_finite_mms_rejects_a_0d_mass():
    # the size message read mass.shape[0], an IndexError on a 0-d array
    with pytest.raises(ValueError, match="inconsistent sizes"):
        FiniteMMS(labels=("a",), dist=DistanceMatrix(np.zeros((1, 1))), mass=np.float64(1.0))


def test_scalar_coordinates_are_rejected():
    # each read shape[0] or shape[1] of a 0-d array, an IndexError
    one = DistanceMatrix(np.zeros((1, 1)))
    with pytest.raises(ValueError, match="coords row count"):
        FiniteMMS(labels=("a",), dist=one, mass=[1.0], coords=5.0)
    with pytest.raises(ValueError, match="coords needs points with finite coordinates"):
        DistanceMatrix.from_points(5.0)


def test_generated_matrices_validate():
    rng = rng_stream(11)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        dm = DistanceMatrix.from_points(rng.random((n, 3)))
        assert check_distance_matrix(dm.entries) == []


def test_entries_are_read_only():
    dm = validate_distance_matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        dm.entries[0, 1] = 5.0


def test_matrix_file_roundtrip(tmp_path):
    path = tmp_path / "m.mat"
    a = np.array([[0.0, 1.25], [1.25, 0.0]])
    write_matrix(path, a)
    assert np.array_equal(read_matrix(path), a)


def test_mms_json_coords_and_dist(tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"labels": ["a", "b"], "coords": [[0, 0], [3, 4]], "mass": [0.5, 0.5]}')
    s = read_mms(path)
    assert s.dist.entries[0, 1] == pytest.approx(5.0)
    path.write_text('{"dist": [[0, 2], [2, 0]]}')
    s = read_mms(path)
    assert s.labels == ("p0", "p1")
    assert s.mass.tolist() == [0.5, 0.5]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_prob_vector_rejects_non_finite(bad):
    # NaN compares false against every bound, so only an explicit
    # finiteness check stops it
    with pytest.raises(ValueError, match="non-finite"):
        as_prob_vector([bad, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        FiniteMMS(labels=("a", "b"), dist=DistanceMatrix(np.array([[0.0, 1], [1, 0]])), mass=[bad, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_entries_rejected(bad):
    # NaN passed every other axiom check, since it compares false
    with pytest.raises(ValidationError) as info:
        validate_distance_matrix([[0, bad], [bad, 0]])
    assert [(v.kind, v.indices) for v in info.value.violations] == [
        ("non_finite", (0, 1)),
        ("non_finite", (1, 0)),
    ]


def test_package_exports_each_submodule_all():
    assert mmsdist.__all__ == [
        # core
        "DEFAULT_TOL", "Violation", "ValidationError", "GluingError", "BudgetError",
        "SizeLimitError", "DegenerateSupportError", "DistanceMatrix", "FiniteMMS",
        "Coupling", "MatrixEnsemble", "check_distance_matrix", "validate_distance_matrix",
        "theta_map",
        # coupling
        "ProkhorovResult", "BirkhoffDecomposition", "EpsMatching", "delta_of_coupling",
        "prokhorov_distance", "birkhoff_decompose", "epsilon_matching",
        # entropy
        "EmbeddingSet", "kl_divergence", "find_isometric_embeddings", "relative_entropy",
        "relative_entropy_witness",
        # ghp
        "GluedSpace", "GhpBound", "StrategyError", "glue_by_relation", "ghp_upper_bound",
        "best_ghp_upper_bound", "ghp_bounds_uniform", "STRATEGIES",
        # matmetric
        "DPI_EXACT_LIMIT", "DmWitness", "PiWitness", "dm_distance", "dpi_distance",
        "min_vertex_cover",
        # sampling
        "ModelSpace", "rng_stream", "trial_streams", "empirical_space", "sample_indices",
        "sample_counts", "enumerate_matrix_ensemble",
    ]
    assert all(hasattr(mmsdist, name) for name in mmsdist.__all__)
