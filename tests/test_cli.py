import json

import numpy as np
import pytest

from mmsdist import cli, experiments, fileio
from mmsdist.cli import main
from mmsdist.entropy import find_isometric_embeddings, kl_divergence


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def files(tmp_path):
    a = _write(tmp_path / "A.mat", "3\n0 1 3\n1 0 2\n3 2 0\n")
    b = _write(tmp_path / "B.mat", "3\n0 2 3\n2 0 1\n3 1 0\n")
    p = _write(tmp_path / "P.json", "[0.5, 0.5, 0.0]")
    q = _write(tmp_path / "Q.json", '{"mass": [0.0, 0.5, 0.5]}')
    d = _write(tmp_path / "D.mat", "3\n0 1 2\n1 0 1\n2 1 0\n")
    s = _write(tmp_path / "S.mat", "2\n0.5 0.5\n0.5 0.5\n")
    x = _write(
        tmp_path / "X.json",
        '{"labels": ["o", "x"], "dist": [[0, 0.5], [0.5, 0]], "mass": [0.9, 0.1]}',
    )
    y = _write(
        tmp_path / "Y.json",
        '{"labels": ["o", "y"], "dist": [[0, 1.0], [1.0, 0]], "mass": [0.9, 0.1]}',
    )
    space = _write(
        tmp_path / "space.json",
        '{"kind": "finite", "labels": ["o", "x"], "dist": [[0, 0.5], [0.5, 0]],'
        ' "mass": [0.9, 0.1]}',
    )
    return dict(a=a, b=b, p=p, q=q, d=d, s=s, x=x, y=y, space=space, dir=tmp_path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_dm_command(files, capsys):
    code, out = _run(capsys, ["dm", files["a"], files["b"]])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(1 / 3)
    assert payload["excluded"] == [1]


def test_dpi_command(files, capsys):
    code, out = _run(capsys, ["dpi", files["a"], files["b"]])
    payload = json.loads(out)
    assert code == 0
    assert payload["value"] == 0.0
    assert payload["permutation"] == [2, 1, 0]
    assert payload["exact"] is True
    code, out = _run(capsys, ["dpi", files["a"], files["b"], "--heuristic"])
    assert json.loads(out)["exact"] is False


def test_prokhorov_command(files, capsys):
    code, out = _run(capsys, ["prokhorov", files["p"], files["q"], files["d"]])
    payload = json.loads(out)
    assert code == 0
    assert payload["value"] == 0.5
    assert payload["coupling"][1][1] == pytest.approx(0.5)


def test_birkhoff_command(files, capsys):
    code, out = _run(capsys, ["birkhoff", files["s"]])
    payload = json.loads(out)
    assert code == 0
    assert payload["term_count"] == 2
    assert payload["reconstruction_error"] <= 1e-12


def test_birkhoff_command_on_the_empty_grid(files, capsys):
    code, out = _run(capsys, ["birkhoff", _write(files["dir"] / "E.mat", "0\n")])
    payload = json.loads(out)
    assert code == 0
    assert payload["terms"] == [{"coefficient": 1.0, "permutation": []}]
    assert payload["reconstruction_error"] == 0.0


def test_sample_rejects_weights_that_are_not_a_probability_vector(files, capsys):
    bad = _write(files["dir"] / "w.json", '{"kind": "euclideanPoints", "coords": [[0], [1]], "mass": [0.9, 0.9]}')
    assert main(["sample", bad, "--n", "3"]) == 2
    assert "weights sums to 1.8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("sample", '{"kind": "euclideanPoints"}', "needs a 'coords' field"),
        ("sample", "[1, 2]", "expected a JSON object"),
        ("prokhorov", '{"foo": 1}', "needs a 'mass' field"),
        ("prokhorov", '{"mass": {"a": 1}}', "'mass' must be an array"),
        ("prokhorov", '{"mass": [0.5, "a"]}', "'mass' must be an array of numbers"),
        ("sample", '{"coords": [[0, 0], [1, "x"]]}', "unknown model space kind: None"),
        ("sample", '{"kind": "circle", "circumference": 2', "Expecting ',' delimiter"),
        ("prokhorov", '{"mass": [0.5, 0.5]', "Expecting ',' delimiter"),
    ],
)
def test_malformed_json_is_a_typed_error(files, capsys, command, text, message):
    # each of these ended in a KeyError, AttributeError or TypeError
    # traceback, or in a message that did not name the file
    bad = _write(files["dir"] / "bad.json", text)
    argv = ["sample", bad, "--n", "3"] if command == "sample" else ["prokhorov", bad, files["q"], files["d"]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and message in err and err.count(bad) == 1


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("sample", '{"kind": "finite", "labels": 5, "dist": [[0, 1], [1, 0]]}', "'labels' must be an array"),
        ("ghp", '{"dist": [[0, 1], [1, 0]], "mass": null}', "'mass' must be an array"),
        ("sample", '{"kind": "circle", "circumference": null}', "'circumference' must be a number"),
        ("ghp", '{"dist": {"a": 1}}', "'dist' must be an array"),
        ("ghp", '{"coords": {"a": 1}}', "'coords' must be an array"),
        ("ghp", '{"coords": 5}', "'coords' must be an array"),
        ("ghp", '{"dist": [[0, 1], [1, 0]], "coords": 5}', "'coords' must be an array"),
        ("ghp", '{"dist": [[0, {"a": 1}], [1, 0]]}', "'dist' must be an array of numbers"),
        ("sample", '{"kind": "euclideanPoints", "coords": {"a": 1}}', "'coords' must be an array"),
        ("ghp", '{"dist": [[0, 1], [1, 0]], "mass": [0.5, "a"]}', "'mass' must be an array of numbers"),
        ("ghp", '{"labels": ["o", "x"], "dist": [[0, 0.5], [0.5, 0]], "mass": [0.9, 0.1]', "Expecting ',' delimiter"),
    ],
)
def test_malformed_json_fields_are_typed_errors(files, capsys, command, text, message):
    # each of these ended in a TypeError or IndexError traceback, or in a
    # message that did not name the file
    bad = _write(files["dir"] / "bad.json", text)
    argv = ["sample", bad, "--n", "3"] if command == "sample" else ["ghp", bad, files["y"]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and message in err and err.count(bad) == 1


@pytest.mark.parametrize("command", ["ghp", "dm"])
def test_undecodable_input_names_the_file(files, capsys, command):
    bad = files["dir"] / "bad.bin"
    bad.write_bytes(b"\xff\xfe{}")
    argv = ["ghp", str(bad), files["y"]] if command == "ghp" else ["dm", str(bad), files["a"]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "can't decode" in err


def test_oversized_circumference_is_a_typed_error(files, capsys):
    # a JSON integer beyond the float range ended in an OverflowError traceback
    bad = _write(files["dir"] / "bad.json", '{"kind": "circle", "circumference": 1' + "0" * 400 + "}")
    assert main(["sample", bad, "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'circumference' is too large for a float" in err


def test_ghp_command(files, capsys):
    code, out = _run(capsys, ["ghp", files["x"], files["y"]])
    payload = json.loads(out)
    assert code == 0
    assert payload["method"] == "identify"
    assert payload["upper"] == pytest.approx(0.1)


def test_identify_on_non_isometric_shared_labels_is_a_gluing_error(files, capsys):
    # both files label their points o and x, at distances 0.5 and 1.0
    y = _write(files["dir"] / "Yox.json", '{"labels": ["o", "x"], "dist": [[0, 1.0], [1.0, 0]]}')
    assert main(["ghp", files["x"], y, "--strategy", "identify"]) == 2
    assert "not isometric: gluing shortens internal distances by 0.5" in capsys.readouterr().err


def test_global_tol_reaches_space_file_masses(files, capsys):
    # X's masses sum to 1.000001: accepted at --tol 1e-3, as prokhorov accepts them
    x = _write(
        files["dir"] / "Xoff.json",
        '{"labels": ["o", "x"], "dist": [[0, 0.5], [0.5, 0]], "mass": [0.9, 0.100001]}',
    )
    code, out = _run(capsys, ["--tol", "1e-3", "ghp", x, files["y"]])
    assert code == 0 and json.loads(out)["method"] == "identify"
    assert main(["ghp", x, files["y"]]) == 2
    err = capsys.readouterr().err
    assert "mass vector sums to 1.0000010000000001, expected 1 within 1e-09" in err


def test_ghp_command_on_1d_coordinates(files, capsys):
    x = _write(files["dir"] / "x1.json", '{"coords": [0.0, 1.0, 3.0]}')
    y = _write(files["dir"] / "y1.json", '{"coords": [0.0, 1.25, 3.0, 4.0]}')
    code, out = _run(capsys, ["ghp", x, y])
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "net" and 0.0 < payload["upper"] <= 1.0
    # a 1-D space against a planar one is a typed error, not a traceback
    z = _write(files["dir"] / "z2.json", '{"coords": [[0.0, 1.0], [2.0, 0.0]]}')
    assert main(["ghp", x, z, "--strategy", "net"]) == 2
    assert "coordinate dimensions differ" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["entropy", "ghp"])
def test_space_file_with_non_finite_coords_is_an_error(files, capsys, command):
    # entropy exited 0 with the value "inf", and ghp reported "first matrix
    # has a non-finite entry"
    bad = _write(files["dir"] / "nanc.json", '{"coords": [[0, 0], [1, NaN]]}')
    assert main([command, bad, files["x"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "coords needs points with finite coordinates" in err


def test_sample_text_reads_back_as_its_json(files, capsys):
    argv = ["sample", files["space"], "--n", "4", "--seed", "3", "--count", "3"]
    code, text = _run(capsys, argv)
    assert code == 0
    code, out = _run(capsys, argv + ["--json"])
    lines = text.splitlines()
    assert len(lines) == 3 * 5
    for k, want in enumerate(json.loads(out)):
        path = _write(files["dir"] / f"m{k}.mat", "\n".join(lines[5 * k : 5 * k + 5]))
        assert fileio.read_matrix(path).tolist() == want


@pytest.mark.parametrize("count", ["0", "-1"])
@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_sample_rejects_a_count_below_one(files, capsys, count, fmt):
    assert main(["sample", files["space"], "--n", "2", "--count", count, *fmt]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --count must be at least 1, got {count}\n"


def test_sample_and_ensemble_commands(files, capsys):
    code, out = _run(
        capsys, ["sample", files["space"], "--n", "3", "--seed", "1", "--count", "2"]
    )
    assert code == 0
    assert out.splitlines()[0] == "3"
    code, out = _run(capsys, ["sample", files["space"], "--n", "2", "--json"])
    mats = json.loads(out)
    assert len(mats) == 1 and len(mats[0]) == 2
    code, out = _run(capsys, ["ensemble", files["space"], "--n", "2"])
    payload = json.loads(out)
    assert code == 0
    assert sum(a["probability"] for a in payload["atoms"]) == pytest.approx(1.0)


def test_entropy_command(files, capsys):
    code, out = _run(capsys, ["entropy", files["x"], files["x"]])
    payload = json.loads(out)
    assert code == 0
    assert payload["value"] == 0.0
    assert payload["embedding_count"] >= 1
    # diameters clash: no embedding, infinite value
    code, out = _run(capsys, ["entropy", files["y"], files["x"]])
    assert json.loads(out)["value"] == "inf"


def test_entropy_command_global_tol_and_argmin(files, capsys):
    # Y's only distance is 1e-7 off every distance of X: it embeds only
    # under the global --tol, and every injective map then embeds
    x = _write(
        files["dir"] / "X3.json",
        '{"labels": ["a", "b", "c"], "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],'
        ' "mass": [0.5, 0.3, 0.2]}',
    )
    y = _write(
        files["dir"] / "Y2.json",
        '{"labels": ["p", "q"], "dist": [[0, 1.0000001], [1.0000001, 0]], "mass": [0.3, 0.7]}',
    )
    code, out = _run(capsys, ["--tol", "1e-6", "entropy", y, x])
    payload = json.loads(out)
    assert code == 0
    ys, xs = fileio.read_mms(y), fileio.read_mms(x)

    def pushforward_kl(iota):
        nu = np.zeros(xs.n)
        nu[list(iota)] = ys.mass
        return kl_divergence(nu, xs.mass)

    maps = find_isometric_embeddings(ys, xs, tol=1e-6).maps
    best = min(maps, key=pushforward_kl)
    assert payload["embedding_count"] == len(maps) == 6
    assert payload["embedding"] == list(best)
    assert payload["value"] == pytest.approx(pushforward_kl(best))


@pytest.mark.parametrize(
    "argv, name, kwargs",
    [
        (["finspc", "--n", "3", "--trials", "2"], "check_finspc_sandwich", dict(n=3, trials=2)),
        (["hoelder", "--eps", "0.1", "--n", "3"], "check_hoelder_small_n", dict(epsilon=0.1, n=3)),
        (["sharp", "--eps", "0.05", "--n", "5"], "check_sharp_exponent", dict(epsilon=0.05, n=5)),
        (["sampconv", "--n", "50", "--trials", "5"], "check_sampling_convergence", dict(n=50, trials=5)),
        (["gpaction", "--n", "2"], "check_group_invariance", dict(n=2)),
    ],
)
def test_check_cli_keeps_library_defaults(argv, name, kwargs, capsys):
    # options the CLI leaves out must fall back to the library's defaults
    _, out = _run(capsys, ["check", *argv])
    report = getattr(experiments, name)(**kwargs)
    assert json.loads(out)["config"] == json.loads(report.to_json())["config"]
    assert out == report.to_json() + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["finspc", "--n", "0"],
        ["hoelder", "--n", "0"],
        ["sampconv", "--n", "0"],
        ["gpaction", "--n", "0"],
        ["sharp", "--eps", "0"],
        ["finspc", "--trials", "0"],  # passed vacuously and printed -Infinity
    ],
)
def test_check_rejects_explicit_zero(argv, capsys):
    assert main(["check", *argv]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["finspc", "--eps", "0.5"], "--eps"),
        (["sampconv", "--budget", "7"], "--budget"),
        (["hoelder", "--trials", "1"], "--trials"),
        (["sharp", "--space2", "never-read.json"], "--space2"),
    ],
)
def test_check_rejects_options_it_does_not_take(argv, flag, capsys):
    assert main(["check", *argv]) == 2
    assert capsys.readouterr().err == f"error: check {argv[0]} does not take {flag}\n"


def test_check_command_exit_codes_and_reports(files, capsys):
    out_json = files["dir"] / "r.json"
    out_csv = files["dir"] / "r.csv"
    code, out = _run(
        capsys,
        [
            "check",
            "gpaction",
            "--n",
            "3",
            "--out",
            str(out_json),
            "--csv",
            str(out_csv),
        ],
    )
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["passed"]["dp_values_equal"] is True
    assert out_csv.read_text().startswith("report,section,key,value")


def test_check_hoelder_cli(files, capsys):
    code, out = _run(capsys, ["check", "hoelder", "--eps", "0.1", "--n", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]["dp_le_sqrt_eps"] is True


def test_check_nonzero_exit_on_failure(files, capsys):
    # an absurdly small epsilon makes the concentration assertion fail
    code, out = _run(
        capsys,
        ["check", "sampconv", "--eps", "0.001", "--n", "50", "--trials", "10"],
    )
    assert code == 1
    assert json.loads(out)["passed"]["frequency_below_eps"] is False


def test_cli_error_paths(files, capsys):
    code = main(["dm", files["a"], str(files["dir"] / "missing.mat")])
    assert code == 2
    empty = _write(files["dir"] / "empty.json", '{"coords": []}')
    assert main(["ghp", empty, empty]) == 2
    assert "no points" in capsys.readouterr().err
    bad = _write(files["dir"] / "bad.mat", "2\n0 1\n")
    code = main(["dm", files["a"], bad])
    assert code == 2


@pytest.mark.parametrize(
    "text, token",
    [("-1\n0\n", "'-1'"), ("2.5\n0\n", "'2.5'"), ("2\n0 x\n1 0\n", "'x'")],
    ids=["-1", "2.5", "entry x"],
)
def test_dm_rejects_a_bad_size_line_naming_the_file(files, capsys, text, token):
    # a size line of "-1" failed with numpy's "can only specify one unknown
    # dimension", "2.5" with "invalid literal for int()" and an entry "x"
    # with "could not convert string to float: 'x'", none naming the file
    bad = _write(files["dir"] / "bad.mat", text)
    assert main(["dm", files["a"], bad]) == 2
    err = capsys.readouterr().err
    assert bad in err and token in err


def _outcomes(capsys, argvs):
    """(exit code, stdout, stderr) of ``main`` on each argv in turn; a
    parser exit counts by its code."""
    got = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got.append((code, *capsys.readouterr()))
    return got


def test_successive_calls_match_a_fresh_parser_per_call(files, capsys, monkeypatch):
    # one parser serves every call; successes, library errors, parser
    # errors and help, in any order, give what a parser built per call gives
    argvs = [
        ["dpi", files["a"], files["b"]],
        ["dpi", files["a"], files["b"], "--limit", "2"],
        ["dpi", files["a"], files["b"], "--heuristic"],
        ["dm", files["a"], str(files["dir"] / "missing.mat")],
        ["dm", files["a"]],
        ["dpi", files["a"], files["b"], "--limit", "x"],
        ["nope"],
        ["ghp", files["x"], files["y"], "--strategy", "identify"],
        ["ghp", files["x"], files["y"]],
        ["--help"],
        ["dm", files["a"], files["b"]],
        ["check", "hoelder", "--eps", "0.1", "--n", "3"],
        ["dm", files["a"], files["b"]],
    ]
    shared = _outcomes(capsys, argvs)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert shared == _outcomes(capsys, argvs)
    assert [code for code, _, _ in shared] == [0, 2, 0, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0]
