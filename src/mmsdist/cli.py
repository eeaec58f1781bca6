"""Command-line interface.

Subcommands mirror the library: matrix distances (dm, dpi), coupling
computations (prokhorov, birkhoff), space bounds (ghp), sampling (sample,
ensemble), relative entropy (entropy) and the experiment checks (check).
All structured output is JSON on stdout; ``check`` exits nonzero when any
assertion fails.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys

import numpy as np

from . import experiments, fileio
from .core import DEFAULT_TOL
from .coupling import birkhoff_decompose, prokhorov_distance
from .entropy import relative_entropy_witness
from .ghp import STRATEGIES, best_ghp_upper_bound, ghp_upper_bound
from .matmetric import dm_distance, dpi_distance
from .sampling import empirical_space, enumerate_matrix_ensemble


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(obj) -> None:
    print(json.dumps(_jsonable(obj), indent=2, sort_keys=True))


def _given(args, *names) -> dict:
    """The named options the user gave; the others keep the defaults of the
    library signature they are forwarded to."""
    return {k: getattr(args, k) for k in names if k in args}


def _cmd_dm(args) -> int:
    a = fileio.read_matrix(args.a)
    b = fileio.read_matrix(args.b)
    w = dm_distance(a, b, tol=args.tol)
    _emit({"value": w.value, "excluded": list(w.excluded), "max_residual": w.max_residual})
    return 0


def _cmd_dpi(args) -> int:
    a = fileio.read_matrix(args.a)
    b = fileio.read_matrix(args.b)
    w = dpi_distance(a, b, tol=args.tol, **_given(args, "mode", "exact_limit"))
    _emit(
        {
            "value": w.value,
            "permutation": list(w.permutation),
            "excluded": list(w.inner.excluded),
            "max_residual": w.inner.max_residual,
            "exact": w.exact,
        }
    )
    return 0


def _cmd_prokhorov(args) -> int:
    p = fileio.read_mass_vector(args.p)
    q = fileio.read_mass_vector(args.q)
    d = fileio.read_matrix(args.d)
    res = prokhorov_distance(p, q, d, tol=args.tol)
    _emit(
        {
            "value": res.value,
            "breakpoint": res.breakpoint,
            "coupling": res.coupling.mass,
        }
    )
    return 0


def _cmd_birkhoff(args) -> int:
    s = fileio.read_matrix(args.s)
    dec = birkhoff_decompose(s, tol=args.tol)
    err = float(np.abs(dec.reconstruct() - s).max(initial=0.0))
    _emit(
        {
            "terms": [{"coefficient": c, "permutation": list(p)} for c, p in dec.terms],
            "term_count": dec.size,
            "reconstruction_error": err,
        }
    )
    return 0


def _cmd_ghp(args) -> int:
    x = fileio.read_mms(args.x, tol=args.tol)
    y = fileio.read_mms(args.y, tol=args.tol)
    limit = _given(args, "exact_limit")
    if args.strategy == "best":
        bound = best_ghp_upper_bound(x, y, tol=args.tol, **limit)
    else:
        bound = ghp_upper_bound(x, y, args.strategy, tol=args.tol, **limit)
    _emit(
        {
            "upper": bound.upper,
            "lower": bound.lower,
            "method": bound.method,
            "bridges": [list(b) for b in bound.glued.bridges],
            "cross": bound.glued.cross,
            "coupling": bound.coupling.mass,
        }
    )
    return 0


def _cmd_sample(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    space = fileio.read_model_space(args.space, tol=args.tol)
    mats = []
    for k in range(args.count):
        s = empirical_space(space, args.n, args.seed, stream=k)
        mats.append(s.dist.entries)
    if args.json:
        _emit([m for m in mats])
    else:
        for m in mats:
            sys.stdout.write(fileio.format_matrix(m))
    return 0


def _cmd_ensemble(args) -> int:
    space = fileio.read_model_space(args.space, tol=args.tol)
    ens = enumerate_matrix_ensemble(space, args.n, tol=args.tol, **_given(args, "budget"))
    _emit(
        {
            "n": ens.n,
            "atoms": [
                {"matrix": m.entries, "probability": p} for m, p in ens.atoms
            ],
        }
    )
    return 0


def _cmd_entropy(args) -> int:
    y = fileio.read_mms(args.y, tol=args.tol)
    x = fileio.read_mms(args.x, tol=args.tol)
    value, embedding, count = relative_entropy_witness(y, x, tol=args.tol)
    _emit({"value": value, "embedding": embedding, "embedding_count": count})
    return 0


# check name -> the experiments function it runs
CHECKS = {
    "finspc": experiments.check_finspc_sandwich,
    "hoelder": experiments.check_hoelder_small_n,
    "sharp": experiments.check_sharp_exponent,
    "sampconv": experiments.check_sampling_convergence,
    "gpaction": experiments.check_group_invariance,
}

# the keyword options of each check: its function's parameters but tol
_OPTIONS = {name: [k for k in inspect.signature(f).parameters if k != "tol"] for name, f in CHECKS.items()}

# every option some check takes, in the order a stray one is reported
_CHECK_OPTIONS = dict.fromkeys(k for options in _OPTIONS.values() for k in options)


def _cmd_check(args) -> int:
    options = _OPTIONS[args.which]
    if args.which == "gpaction" and "space" in args:
        args.space1 = args.space
        del args.space
    for key in _CHECK_OPTIONS:
        if key in args and key not in options:
            flag = "--eps" if key == "epsilon" else "--" + key.replace("_", "-")
            raise ValueError(f"check {args.which} does not take {flag}")
    opts = _given(args, *options)
    for key in ("space", "space1", "space2"):
        if key in opts:
            opts[key] = fileio.read_model_space(opts[key], tol=args.tol)
    report = CHECKS[args.which](tol=args.tol, **opts)
    print(report.to_json())
    if args.out:
        experiments.write_report(report, args.out)
    if args.csv:
        experiments.write_report_csv(report, args.csv)
    return 0 if report.all_passed() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mmsdist")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL, help="comparison tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dm", help="matrix distance with exclusions")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_dm)

    # options left unset are not forwarded, so the library's defaults apply
    unset = argparse.SUPPRESS

    p = sub.add_parser("dpi", help="matrix distance up to permutation", argument_default=unset)
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--heuristic", dest="mode", action="store_const", const="heuristic")
    p.add_argument("--limit", dest="exact_limit", type=int, help="exact-mode size limit")
    p.set_defaults(fn=_cmd_dpi)

    p = sub.add_parser("prokhorov", help="optimal coupling distance")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("d")
    p.set_defaults(fn=_cmd_prokhorov)

    p = sub.add_parser("birkhoff", help="decompose a doubly stochastic matrix")
    p.add_argument("s")
    p.set_defaults(fn=_cmd_birkhoff)

    p = sub.add_parser("ghp", help="space-distance bounds with witnesses", argument_default=unset)
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--strategy", choices=STRATEGIES + ("best",), default="best")
    p.add_argument("--limit", dest="exact_limit", type=int)
    p.set_defaults(fn=_cmd_ghp)

    p = sub.add_parser("sample", help="sample empirical distance matrices")
    p.add_argument("space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser(
        "ensemble", help="exact matrix ensemble of a finite space", argument_default=unset
    )
    p.add_argument("space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int)
    p.set_defaults(fn=_cmd_ensemble)

    p = sub.add_parser("entropy", help="relative entropy of two spaces")
    p.add_argument("y")
    p.add_argument("x")
    p.set_defaults(fn=_cmd_entropy)

    p = sub.add_parser("check", help="run a verification experiment", argument_default=unset)
    p.add_argument("which", choices=list(CHECKS))
    p.add_argument("--n", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--eps", dest="epsilon", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--budget", type=int)
    p.add_argument("--mc-trials", type=int)
    p.add_argument("--space")
    p.add_argument("--space2")
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=_cmd_check)

    return parser


# parsing leaves the parser unchanged, so one serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
