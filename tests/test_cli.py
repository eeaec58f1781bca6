import json

import numpy as np
import pytest

from mmsdist import experiments, fileio
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


def test_ghp_command(files, capsys):
    code, out = _run(capsys, ["ghp", files["x"], files["y"]])
    payload = json.loads(out)
    assert code == 0
    assert payload["method"] == "identify"
    assert payload["upper"] == pytest.approx(0.1)


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
    ],
)
def test_check_rejects_explicit_zero(argv, capsys):
    assert main(["check", *argv]) == 2
    assert capsys.readouterr().err.startswith("error:")


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
    bad = _write(files["dir"] / "bad.mat", "2\n0 1\n")
    code = main(["dm", files["a"], bad])
    assert code == 2
