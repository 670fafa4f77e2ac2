"""Batch command-line interface.

Subcommands: normalize, scan, sos, theorem, audit, verify.  Results go to
stdout (or --out); progress notes go to stderr.  Exit codes: 0 success or
valid, 1 legitimate negative outcome (infeasible, exhausted, invalid
certificate, failed audit), 2 input error.  All JSON outputs carry a schema
version and echo enough configuration to reproduce the run; identical inputs
and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import certs, lie
from .auditor import OperatorAlgebraContext, full_audit
from .driver import TheoremInstance, search_certificate
from .errors import EnvSosError, ExprSyntaxError, NonCentralA
from .exprs import parse, render
from .numeric import SolveOptions
from .reps import direct_sum, make_point_rep, make_spin_rep, scan_dual_window, spin_window
from .sos import find_certificate

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2


def _progress(message: str):
    print(message, file=sys.stderr)


def _emit(payload, out_path: str | None):
    if isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _aliases(pairs):
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ValueError(f"alias must look like NAME=EXPR, got {item!r}")
        name, expr = item.split("=", 1)
        out[name.strip()] = expr
    return out


def _parse_exprs(texts, algebra, aliases):
    return [parse(t, algebra, aliases) for t in texts]


def _exact(value, what: str) -> Fraction:
    """A JSON string or integer of an instance file as an exact rational."""
    if type(value) not in (str, int):  # a float is not exact, and a bool is no int
        raise ValueError(f"{what} must be a JSON string or integer, not {value!r}")
    return Fraction(value)


JSON_TYPES = {str: "string", list: "array", dict: "object"}


def _json(value, expected: type, what: str):
    """value itself when an instance file gives it the JSON type expected."""
    if type(value) is not expected:
        raise ValueError(f"{what} must be a JSON {JSON_TYPES[expected]}, not {value!r}")
    return value


def _strings(value, what: str) -> list:
    """A JSON array of strings."""
    return [_json(text, str, f"an entry of {what}") for text in _json(value, list, what)]


INSTANCE_KEYS = {"algebra", "aliases", "c", "f", "epsilon", "n_max", "d_max", "level_cap",
                 "ore_family", "l_max", "window_points", "allow_evidence", "solver"}
SOLVER_KEYS = {"tol", "seed", "max_iters"}


def _object(value, keys, what: str) -> dict:
    """A JSON object whose keys are all among keys."""
    unknown = sorted(set(_json(value, dict, what)) - keys)
    if unknown:
        raise ValueError(f"{what} has unknown keys: {', '.join(unknown)}")
    return value


# -- subcommands --------------------------------------------------------------------


def cmd_normalize(args) -> int:
    algebra = lie.load(args.algebra)
    element = parse(args.expr, algebra, _aliases(args.alias))
    _emit({"schema_version": SCHEMA_VERSION, "normal_form": render(element)}, args.out)
    return EXIT_OK


def cmd_scan(args) -> int:
    algebra = lie.load(args.algebra)
    aliases = _aliases(args.alias)
    f = _parse_exprs(args.exprs, algebra, aliases)
    if algebra.is_abelian():
        if args.lmax is not None:
            raise ValueError("abelian scans take --points, not --lmax")
        if not args.points:
            raise ValueError("abelian scans need --points")
        window = [tuple(Fraction(v) for v in p.split(",")) for p in args.points]
    else:
        if args.points:
            raise ValueError("--points is for abelian algebras; this scan takes --lmax")
        window = spin_window(Fraction(args.lmax if args.lmax is not None else 3))
    _progress(f"scanning {len(window)} dual labels")
    result = scan_dual_window(algebra, f, window)
    payload = {"schema_version": SCHEMA_VERSION}
    payload.update(result.to_json_dict())
    _emit(payload, args.out)
    return EXIT_OK


def cmd_sos(args) -> int:
    algebra = lie.load(args.algebra)
    aliases = _aliases(args.alias)
    c = parse(args.expr, algebra, aliases)
    f = _parse_exprs(args.exprs or ["1"], algebra, aliases)
    opts = SolveOptions(tol=args.tol, seed=args.seed)
    _progress(f"membership search at degree {args.degree}")
    report = find_certificate(c, f, args.degree, opts=opts)
    if report.status == "certificate":
        _emit(report.certificate.to_json_dict(), args.out)
        return EXIT_OK
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "target": render(c),
            "generators": [render(g) for g in f],
            "degree": args.degree,
            "seed": opts.seed,
            "tol": opts.tol,
        },
    }
    payload.update(report.to_json_dict())
    _emit(payload, args.out)
    return EXIT_NEGATIVE


def cmd_theorem(args) -> int:
    with open(args.instance, "r", encoding="utf-8") as fh:
        data = _object(json.load(fh), INSTANCE_KEYS, "an instance file")
    if "l_max" in data and "window_points" in data:
        raise ValueError("an instance file gives l_max or window_points, not both")
    algebra_field = data["algebra"]
    algebra = lie.load(algebra_field) if isinstance(algebra_field, str) else lie.from_json_dict(algebra_field)
    aliases = _json(data.get("aliases", {}), dict, "aliases")
    _strings(list(aliases.values()), "aliases")
    c = parse(_json(data["c"], str, "c"), algebra, aliases)
    f = [parse(t, algebra, aliases) for t in _strings(data.get("f", ["1"]), "f")]
    window = None
    if args.lmax is not None:
        window = Fraction(args.lmax)
    elif "l_max" in data:
        window = _exact(data["l_max"], "l_max")
    elif "window_points" in data:
        window = [tuple(_exact(v, "a window_points coordinate")
                        for v in _json(point, list, "a window point"))
                  for point in _json(data["window_points"], list, "window_points")]
    solver_cfg = _object(data.get("solver", {}), SOLVER_KEYS, "solver")
    opts = SolveOptions(
        tol=args.tol if args.tol is not None else solver_cfg.get("tol", 1e-9),
        seed=args.seed if args.seed is not None else solver_cfg.get("seed", 0),
        max_iters=solver_cfg.get("max_iters", 20000),
    )
    allow_evidence = data.get("allow_evidence", True)
    if args.allow_evidence is not None:
        allow_evidence = args.allow_evidence == "yes"
    epsilon = (Fraction(args.epsilon) if args.epsilon
               else _exact(data.get("epsilon", "1"), "epsilon"))
    inst = TheoremInstance(
        algebra, c, f,
        epsilon=epsilon,
        n_max=args.nmax if args.nmax is not None else data.get("n_max", 2),
        d_max=args.dmax if args.dmax is not None else data.get("d_max", 8),
        level_cap=data.get("level_cap", 2),
        ore_family=(
            [parse(t, algebra, aliases) for t in _strings(data["ore_family"], "ore_family")]
            if "ore_family" in data else None
        ),
        window=window,
        allow_evidence=allow_evidence,
        solver=opts,
    )
    _progress("running hypothesis checks and certificate search")
    transcript = search_certificate(inst)
    _emit(transcript.to_json_dict(), args.out)
    return EXIT_OK if transcript.status == "found" else EXIT_NEGATIVE


def cmd_audit(args) -> int:
    from .errors import AlgebraValidationError

    try:
        algebra = lie.load(args.algebra)
    except AlgebraValidationError as exc:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "status": "fail",
            "violation": exc.__class__.__name__,
            "detail": str(exc),
        }
        residual = getattr(exc, "residual", None)
        if residual is not None:
            payload["residual"] = str(residual)
        _emit(payload, args.out)
        return EXIT_NEGATIVE
    contexts = []
    for spec_text in args.spins or []:
        spins = [Fraction(s) for s in spec_text.split("+")]
        reps = [make_spin_rep(l, algebra) for l in spins]
        contexts.append(OperatorAlgebraContext(direct_sum(*reps) if len(reps) > 1 else reps[0]))
    for spec_text in args.points or []:
        point = [Fraction(v) for v in spec_text.split(",")]
        contexts.append(OperatorAlgebraContext(make_point_rep(algebra, point)))
    _progress(f"auditing cleared identities and {len(contexts)} operator contexts")
    payload = {"schema_version": SCHEMA_VERSION}
    payload.update(full_audit(algebra, contexts, label=args.algebra))
    _emit(payload, args.out)
    passed = payload["cleared_commutator"]["status"] == "pass" and \
        payload["cleared_degree2"]["status"] == "pass"
    for entry in payload.get("contexts", []):
        for rel in entry["relations"].values():
            if rel["status"] != "pass":
                passed = False
    return EXIT_OK if passed else EXIT_NEGATIVE


def cmd_verify(args) -> int:
    with open(args.certificate, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    ok = certs.verify_certificate_json(data)
    _emit({"schema_version": SCHEMA_VERSION, "valid": bool(ok)}, args.out)
    return EXIT_OK if ok else EXIT_NEGATIVE


# -- argument plumbing ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="envsos",
        description="Exact weighted sum-of-squares certificates in enveloping algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, algebra=True):
        if algebra:
            p.add_argument("--algebra", required=True,
                           help="algebra JSON file or builtin name (su2, abelian(d), ...)")
        p.add_argument("--alias", action="append", metavar="NAME=EXPR",
                       help="expression alias, may repeat")
        p.add_argument("--out", help="write the result to this file instead of stdout")

    p = sub.add_parser("normalize", help="parse an expression and print its normal form")
    common(p)
    p.add_argument("--expr", required=True)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("scan", help="membership scan of a window of the unitary dual")
    common(p)
    p.add_argument("--exprs", nargs="+", required=True, help="generator expressions, unit first")
    p.add_argument("--lmax", help="largest spin label (non-abelian algebras; default 3)")
    p.add_argument("--points", action="append",
                   help="abelian dual point 'q1,q2,...', may repeat")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("sos", help="weighted sum-of-squares membership at a fixed degree")
    common(p)
    p.add_argument("--expr", required=True, help="target element")
    p.add_argument("--exprs", nargs="+", help="generators, unit first (default: just 1)")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sos)

    p = sub.add_parser("theorem", help="full hypothesis checks plus conjugated search")
    p.add_argument("--instance", required=True, help="instance JSON file")
    p.add_argument("--nmax", type=int)
    p.add_argument("--dmax", type=int)
    p.add_argument("--lmax")
    p.add_argument("--epsilon")
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--allow-evidence", choices=["yes", "no"], dest="allow_evidence",
                   help="accept window evidence without a direct margin proof (default yes)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_theorem)

    p = sub.add_parser("audit", help="exact audits of the operator relations")
    common(p)
    p.add_argument("--spins", action="append", metavar="L1+L2",
                   help="su(2) context as a direct sum of spins, e.g. 1/2+1; may repeat")
    p.add_argument("--points", action="append", metavar="Q1,Q2",
                   help="abelian context point; may repeat")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("verify", help="re-verify a certificate file, bit exactly")
    p.add_argument("--certificate", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ExprSyntaxError, NonCentralA) as exc:
        _progress(f"input error: {exc}")
        return EXIT_INPUT
    except (EnvSosError, ValueError, OSError, KeyError, ZeroDivisionError,
            json.JSONDecodeError) as exc:
        _progress(f"input error: {exc.__class__.__name__}: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
