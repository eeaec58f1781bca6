"""Seeded task lists for the three benchmark workloads.

A workload is a fixed cycle of task slots.  Task ``i`` fills slot
``i % len(cycle)`` of cycle ``i // len(cycle)``: the slot fixes the kind and
the size range, a golden-ratio sequence over the cycle number spreads the
sizes evenly over that range for any prefix of the task list, and the
instance itself is drawn from a Philox stream keyed by ``(seed, i)``.  Every
seed therefore gives the same mix of kinds and sizes, and only the instance
values change.

Each task calls public library entry points only (``experiments.check_*``,
``cli.main`` or a public solver), so a change anywhere inside a pipeline
shows up.  Its output is checked afterwards by ``checks``, which shares no
code with the solvers.

Why these cycles:

* ``ensemble``: exact ensemble distances on exchangeable inputs, where exact
  ``dpi`` on small symmetric matrices dominates.  Fifteen cheap tasks
  (n = 4) and five heavy ones (n = 5) per cycle put the median inside the
  cheap ``gpaction`` tasks and the tail among the ``hoelder`` and ``sharp``
  tasks at n = 5, whose times vary little.  ``gpaction`` stays at n = 4:
  at n = 5 its time doubles or halves with the two spaces' diameters,
  which would set the tail by chance.  n = 6 is left out: one 6-7 s task
  would set the tail alone.  ``check_sharp_exponent`` runs at window-valid
  settings with N <= 5, because its defaults (eps = 0.01, N = 16) run out
  of memory (see README.md).
* ``transport``: optimal couplings, max-flow level scans, epsilon-matchings
  and Birkhoff peeling on generic measures; no matrix metric runs.  Two thirds of
  the slots are ``check_sampling_convergence`` (many 4-atom flows, all
  about as costly), which holds the median; two slots of float Prokhorov
  at 26-28 atoms are the heaviest and hold the tail.  Larger scans (1.8 s
  at 40 atoms) are left out: tasks that long vary with the host's speed
  within the task, and the ten-plus of them a tail needs would not fit in
  a run.
* ``pairs``: matrix comparisons on generic inputs without ties or symmetry,
  three of eight slots through the command line on files written at
  set-up.  ``dm`` at n = 60-64 holds the tail.  Exact ``dpi`` at n = 7 and
  heuristic ``dpi`` above n = 14 are left out: their times vary by 40-80 %
  from one instance to the next, which would set the tail by chance.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

PHI = (5**0.5 - 1) / 2

# (kind, size or (lo, hi), smoke size); the size means atoms, points or n
CYCLES = {
    "ensemble": [
        ("hoelder", 5, 3),
        ("gpaction", 4, 3),
        ("sharp", 4, 3),
        ("gpaction", 4, 3),
        ("sharp", 5, 3),
        ("gpaction", 4, 3),
        ("sharp", 4, 3),
        ("gpaction", 4, 3),
        ("hoelder", 5, 3),
        ("sharp", 4, 3),
        ("hoelder", 5, 3),
        ("gpaction", 4, 3),
        ("sharp", 4, 3),
        ("gpaction", 4, 3),
        ("sharp", 5, 3),
        ("gpaction", 4, 3),
        ("sharp", 4, 3),
        ("gpaction", 4, 3),
        ("sharp", 4, 3),
        ("gpaction", 4, 3),
    ],
    "transport": [
        ("prokhorov_float", (26, 28), 6),
        ("sampconv", (120, 160), 10),
        ("sampconv", (120, 160), 10),
        ("prokhorov_exact", (10, 13), 4),
        ("sampconv", (120, 160), 10),
        ("sampconv", (120, 160), 10),
        ("ghp_net", (15, 20), 5),
        ("sampconv", (120, 160), 10),
        ("sampconv", (120, 160), 10),
        ("prokhorov_float", (26, 28), 6),
        ("sampconv", (120, 160), 10),
        ("sampconv", (120, 160), 10),
        ("prokhorov_float", (20, 24), 6),
        ("sampconv", (120, 160), 10),
        ("sampconv", (120, 160), 10),
        ("birkhoff", (30, 40), 6),
        ("sampconv", (120, 160), 10),
        ("sampconv", (120, 160), 10),
    ],
    "pairs": [
        ("finspc", 6, 4),
        ("dm", (60, 64), 8),
        ("cli_ghp", 6, 4),
        ("dpi_heuristic", (12, 14), 6),
        ("cli_dpi", 6, 4),
        ("dm", (60, 64), 8),
        ("cli_dm", (48, 64), 8),
        ("dpi_heuristic", (12, 14), 6),
    ],
}

TOL = 1e-9  # the library's DEFAULT_TOL; also the tolerance of every check


@dataclass
class Task:
    index: int
    kind: str
    size: int
    run: Callable[[], object]
    check: Callable[[object], list]  # output -> list of problems
    values: Callable[[object], list]  # output -> floats compared to the reference


def task_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def slot_size(spec, cycle: int, slot: int) -> int:
    if isinstance(spec, int):
        return spec
    lo, hi = spec
    u = ((cycle + 1) * PHI + slot * 0.5) % 1.0
    return lo + int(u * (hi - lo + 1))


class TaskList:
    """Lazily built, memoised tasks of one workload for one seed."""

    def __init__(self, lib, workload: str, seed: int, workdir: str, smoke: bool = False):
        self.lib = lib
        self.cycle = CYCLES[workload]
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self._tasks: dict = {}

    def get(self, i: int) -> Task:
        task = self._tasks.get(i)
        if task is None:
            kind, spec, smoke_size = self.cycle[i % len(self.cycle)]
            size = smoke_size if self.smoke else slot_size(spec, i // len(self.cycle), i % len(self.cycle))
            run, check, values = BUILDERS[kind](self.lib, task_rng(self.seed, i), size, self.workdir, i)
            task = self._tasks[i] = Task(i, kind, size, run, check, values)
        return task


# ---------------------------------------------------------------------------
# input generators (numpy only; the library receives the generated inputs)


def _mass(rng, k):
    w = rng.random(k) + 0.1
    return w / w.sum()


def _points(rng, k):
    return rng.random((k, 2))


def _euclid(pts):
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def _space(lib, pts, mass):
    d = _euclid(pts)
    return lib.M.FiniteMMS(
        labels=tuple(f"p{i}" for i in range(len(pts))),
        dist=lib.M.DistanceMatrix(d),
        mass=mass,
        coords=pts,
    )


def _two_point(lib, diameter, eps, light):
    return lib.M.FiniteMMS(
        labels=("o", light),
        dist=lib.M.DistanceMatrix(np.array([[0.0, diameter], [diameter, 0.0]])),
        mass=np.array([1.0 - eps, eps]),
    )


def _report(report):
    return [] if report.all_passed() else [f"{report.name}: failed {sorted(k for k, v in report.passed.items() if not v)}"]


def _observed(report):
    return [float(report.observed[k]) for k in sorted(report.observed)]


def _write_matrix(path, a):
    with open(path, "w") as fh:
        fh.write(f"{a.shape[0]}\n")
        for row in a:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def _write_space(path, pts):
    with open(path, "w") as fh:
        json.dump({"labels": [f"p{i}" for i in range(len(pts))], "coords": pts.tolist()}, fh)


def _cli(lib, argv):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lib.cli.main(argv)
        return code, buf.getvalue()

    return run


def _cli_output(out):
    code, text = out
    if code != 0:
        raise checks.CheckFailed(f"cli exited {code}")
    return json.loads(text)


# ---------------------------------------------------------------------------
# task kinds: each returns (run, check, values)


def _hoelder(lib, rng, n, workdir, i):
    eps = float(rng.uniform(0.02, 0.24))
    run = lambda: lib.E.check_hoelder_small_n(eps, n)
    return run, _report, _observed


def _gpaction(lib, rng, n, workdir, i):
    d1, d2 = rng.uniform(0.2, 1.5, size=2)
    e1, e2 = rng.uniform(0.05, 0.45, size=2)
    s1 = lib.M.ModelSpace.finite(_two_point(lib, float(d1), float(e1), "x"))
    s2 = lib.M.ModelSpace.finite(_two_point(lib, float(d2), float(e2), "y"))
    run = lambda: lib.E.check_group_invariance(s1, s2, n=n)
    return run, _report, _observed


def _sharp(lib, rng, n, workdir, i):
    # n * c * eps**alpha = u lies inside the window (1/2, 1), and eps >= 0.1
    # with u <= 0.75 keeps P(matrix nonzero) above c * eps**alpha for n >= 3
    alpha = float(rng.uniform(0.6, 0.9))
    eps = float(rng.uniform(0.1, 0.2))
    u = float(rng.uniform(0.55, 0.75))
    c = u / (n * eps**alpha)
    run = lambda: lib.E.check_sharp_exponent(c=c, alpha=alpha, epsilon=eps, n=n)
    return run, _report, lambda r: [float(r.observed["dp_ensemble"]), float(r.observed["p_matrix_nonzero"])]


def _prokhorov(exact):
    def build(lib, rng, k, workdir, i):
        p, q, d = _mass(rng, k), _mass(rng, k), rng.random((k, k))
        run = lambda: lib.M.prokhorov_distance(p, q, d, exact=exact)
        check = lambda r: checks.coupling(r.coupling.mass, d, p, q, r.value, TOL)
        return run, check, lambda r: [r.value]

    return build


def _sampconv(lib, rng, trials, workdir, i):
    pts = _points(rng, 4)
    space = lib.M.ModelSpace.finite(_space(lib, pts, _mass(rng, 4)))
    s = int(rng.integers(1 << 30))
    run = lambda: lib.E.check_sampling_convergence(space, epsilon=0.1, n=1000, trials=trials, seed=s)
    return run, _report, _observed


def _ghp_net(lib, rng, k, workdir, i):
    px, py = _points(rng, k), _points(rng, k)
    mx, my = _mass(rng, k), _mass(rng, k)
    x, y = _space(lib, px, mx), _space(lib, py, my)
    run = lambda: lib.M.ghp_upper_bound(x, y, "net")
    check = lambda b: checks.gluing(
        _euclid(px), _euclid(py), b.glued.cross, b.coupling.mass, mx, my, b.upper, b.lower, TOL
    )
    return run, check, lambda b: [b.upper, b.lower]


def _birkhoff(lib, rng, n, workdir, i):
    w = rng.random(n // 2) + 0.2
    w /= w.sum()
    s = np.zeros((n, n))
    for wi in w:
        s[np.arange(n), rng.permutation(n)] += wi
    run = lambda: lib.M.birkhoff_decompose(s)
    return run, lambda r: checks.birkhoff(s, r.terms, TOL), lambda r: [float(r.size)]


def _finspc(lib, rng, n, workdir, i):
    s = int(rng.integers(1 << 30))
    run = lambda: lib.E.check_finspc_sandwich(n=n, trials=1, seed=s)
    return run, _report, _observed


def _matrix_pair(rng, n):
    return _euclid(_points(rng, n)), _euclid(_points(rng, n))


def _dpi_heuristic(lib, rng, n, workdir, i):
    a, b = _matrix_pair(rng, n)
    run = lambda: lib.M.dpi_distance(a, b, mode="heuristic")
    check = lambda w: checks.matrix_witness(a, b, w.value, w.permutation, w.inner.excluded, TOL)
    return run, check, lambda w: [w.value]


def _dm(lib, rng, n, workdir, i):
    a, b = _matrix_pair(rng, n)
    run = lambda: lib.M.dm_distance(a, b)
    check = lambda w: checks.matrix_witness(a, b, w.value, tuple(range(n)), w.excluded, TOL)
    return run, check, lambda w: [w.value]


def _cli_matrix(command):
    def build(lib, rng, n, workdir, i):
        a, b = _matrix_pair(rng, n)
        pa, pb = (os.path.join(workdir, f"{i}-{s}.mat") for s in "ab")
        _write_matrix(pa, a)
        _write_matrix(pb, b)

        def check(out):
            res = _cli_output(out)
            perm = res.get("permutation", list(range(n)))
            return checks.matrix_witness(a, b, res["value"], perm, res["excluded"], TOL)

        return _cli(lib, [command, pa, pb]), check, lambda out: [_cli_output(out)["value"]]

    return build


def _cli_ghp(lib, rng, n, workdir, i):
    px, py = _points(rng, n), _points(rng, n)
    fx, fy = (os.path.join(workdir, f"{i}-{s}.json") for s in "xy")
    _write_space(fx, px)
    _write_space(fy, py)
    uniform = np.full(n, 1.0 / n)

    def check(out):
        r = _cli_output(out)
        return checks.gluing(
            _euclid(px), _euclid(py), np.array(r["cross"]), np.array(r["coupling"]),
            uniform, uniform, r["upper"], r["lower"], TOL,
        )

    values = lambda out: [_cli_output(out)[k] for k in ("upper", "lower")]
    return _cli(lib, ["ghp", fx, fy, "--strategy", "best"]), check, values


BUILDERS = {
    "hoelder": _hoelder,
    "gpaction": _gpaction,
    "sharp": _sharp,
    "prokhorov_float": _prokhorov(False),
    "prokhorov_exact": _prokhorov(True),
    "sampconv": _sampconv,
    "ghp_net": _ghp_net,
    "birkhoff": _birkhoff,
    "finspc": _finspc,
    "dpi_heuristic": _dpi_heuristic,
    "dm": _dm,
    "cli_dpi": _cli_matrix("dpi"),
    "cli_dm": _cli_matrix("dm"),
    "cli_ghp": _cli_ghp,
}
