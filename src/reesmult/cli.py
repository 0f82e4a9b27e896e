"""Command-line front end.

Parses ideals and models from inline JSON or files, runs the library,
and emits deterministic JSON reports (or terse text summaries).
Rationals are "p/q" strings in all I/O; no floats are accepted or
emitted.  Exit codes: 0 success/verified, 1 verified-false, 2 parse
error, 3 domain error, 4 resource guard, 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .errors import DomainError, NotNormalError, ParseError, ResourceLimitError
from .hypersurface import LocalHypersurfaceModel, verify_local_decomposition
from .ideals import (
    MonomialIdeal,
    integral_closure,
    jumping_numbers,
    lct,
    minimalize,
    multiplier_ideal,
    multiplier_module,
    newton,
)
from .polyhedra import cube, point_guard
from .rees import (
    canonical_module,
    extended_rees_cone,
    graded_piece,
    multiplier_module_general,
    multiplier_module_principal,
    rees_cone,
    rees_ideal_generators,
    verify_theoremA,
    verify_theoremB_S,
    verify_theoremB_T,
)
from .serialize import dumps_canonical, frac_str, parse_int, parse_rational

UNIT_IDEAL_WARNING = "ht(a)=0: unit ideal lies outside the positive-height hypotheses"


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _load_source(text: str):
    if text.lstrip().startswith(("{", "[")):
        raw = text
    else:
        try:
            with open(text, encoding="utf-8") as fh:
                raw = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read input file {text!r}: {exc}") from exc
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:  # also overlong integers, deep nesting
        raise ParseError(f"malformed JSON input: {exc}") from exc


def _load_object(text: str, kind: str, keys):
    """The values at ``keys`` of the JSON object ``text`` names, in order."""
    data = _load_source(text)
    if not isinstance(data, dict):
        raise ParseError(f"{kind} JSON must be an object")
    try:
        return [data[k] for k in keys]
    except KeyError as exc:
        raise ParseError(f"{kind} JSON missing key {exc}") from exc


def parse_ideal(text: str) -> MonomialIdeal:
    nvars, gens = _load_object(text, "ideal", ("nvars", "generators"))
    if not _is_int(nvars) or not isinstance(gens, list):
        raise ParseError("ideal JSON: nvars must be int, generators a list")
    for g in gens:
        if not isinstance(g, list) or not all(_is_int(e) for e in g):
            raise ParseError("ideal JSON: generators must be lists of integers")
    return minimalize([tuple(g) for g in gens], nvars)


def parse_model(text: str) -> LocalHypersurfaceModel:
    n, m, exps = _load_object(text, "model", ("n", "m", "exps"))
    if not (_is_int(n) and _is_int(m) and isinstance(exps, list)
            and all(_is_int(e) for e in exps)):
        raise ParseError("model JSON: n, m integers and exps a list of integers")
    return LocalHypersurfaceModel(n, m, tuple(exps))


def _int(text: str) -> int:
    return parse_int(text)


_int.__name__ = "int"  # argparse names it in "invalid int value: 'x'"


def _parse_range(text: str):
    try:
        lo, hi = map(parse_int, text.split(".."))
    except ValueError as exc:
        raise ParseError(f"range must be LO..HI, got {text!r}") from exc
    if lo > hi:
        raise ParseError(f"empty range {text!r}")
    return lo, hi


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "text":
        out = "\n".join(text_lines) + "\n"
    else:
        out = dumps_canonical(payload) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            raise ParseError(f"cannot write output file {args.output!r}: {exc}") from exc
    else:
        sys.stdout.write(out)


def _ideal_warnings(a: MonomialIdeal):
    return [UNIT_IDEAL_WARNING] if a.is_unit else []


def cmd_newton(args) -> int:
    a = parse_ideal(args.ideal)
    poly = newton(a)
    payload = poly.to_json()
    payload["warnings"] = _ideal_warnings(a)
    lines = [
        f"Newton polyhedron of {a.to_json()['generators']} in {a.nvars} variables:"
    ] + [
        f"  {_ineq_text(h.normal, h.threshold)}" for h in poly.facets
    ] + [f"  warning: {w}" for w in payload["warnings"]]
    _emit(args, payload, lines)
    return 0


def _ineq_text(normal, threshold):
    names = "XYZWVU"
    lhs = ""
    for i, c in enumerate(normal):
        if c == 0:
            continue
        var = names[i] if i < len(names) else f"X{i + 1}"
        mag = "" if abs(c) == 1 else str(abs(c))
        if not lhs:
            lhs = ("-" if c < 0 else "") + mag + var
        else:
            lhs += ("-" if c < 0 else "+") + mag + var
    return f"{lhs or '0'} >= {frac_str(threshold)}"


def cmd_multiplier(args) -> int:
    a = parse_ideal(args.ideal)
    lam = parse_rational(args.lam)
    module = multiplier_module(a, lam) if args.module else multiplier_ideal(a, lam)
    payload = module.to_json()
    lines = [f"multiplier {'module' if args.module else 'ideal'} at lambda={args.lam}:"]
    lines += [f"  {_ineq_text(w, t)}" for w, t in module.system.constraints]
    _emit(args, payload, lines)
    return 0


def cmd_lct(args) -> int:
    a = parse_ideal(args.ideal)
    value = lct(a)
    _emit(args, {"lct": frac_str(value)}, [f"lct = {frac_str(value)}"])
    return 0


def cmd_jumps(args) -> int:
    a = parse_ideal(args.ideal)
    lam_max = parse_rational(args.max)
    report = jumping_numbers(a, lam_max)
    payload = report.to_json()
    payload["note"] = (
        "jumping numbers of the multiplier ideal/module (identical under the "
        "diagonal shift); each jump recurs at +1 within range"
    )
    _emit(args, payload, ["jumps: " + ", ".join(frac_str(j) for j in report.jumps)])
    return 0


def _algebra(args, a: MonomialIdeal):
    return rees_cone(a) if args.algebra == "rees" else extended_rees_cone(a)


def cmd_canonical(args) -> int:
    a = parse_ideal(args.ideal)
    module = canonical_module(_algebra(args, a))
    payload = module.to_json()
    lines = [f"canonical module ({module.description}):"]
    lines += [f"  {_ineq_text(w, t)}" for w, t in module.system.constraints]
    _emit(args, payload, lines)
    return 0


def cmd_cone(args) -> int:
    a = parse_ideal(args.ideal)
    alg = _algebra(args, a)
    payload = alg.to_json()
    payload["warnings"] = _ideal_warnings(a)
    lines = [f"{args.algebra} cone in rank {alg.ambient_rank}:"]
    lines += [f"  {_ineq_text(w, t)}" for w, t in alg.cone.constraints]
    _emit(args, payload, lines)
    return 0


def cmd_graded_piece(args) -> int:
    a = parse_ideal(args.ideal)
    lam = parse_rational(args.lam)
    alg = _algebra(args, a)
    if args.algebra == "rees":
        module = multiplier_module_general(alg, rees_ideal_generators(a), lam)
    else:
        module = multiplier_module_principal(alg, alg.t_inverse(), lam)
    piece = graded_piece(module, args.k)
    payload = piece.to_json()
    payload["k"] = args.k
    lines = [f"graded piece at k={args.k}:"]
    lines += [f"  {_ineq_text(w, t)}" for w, t in piece.system.constraints]
    _emit(args, payload, lines)
    return 0


def cmd_verify(args) -> int:
    for opt, takers in (("k", "B2 local"), ("n", "B1"), ("box", "B1 B2 A"), ("box_c", "local"),
                        ("box_deg", "local"), ("input", "B1 B2 A"), ("model", "local"),
                        ("closure", "B1 B2 A")):
        if getattr(args, opt) is not None and args.theorem not in takers.split():
            raise ParseError(f"verify {args.theorem} takes no --{opt.replace('_', '-')}")
    lam = parse_rational(args.lam)
    local = args.theorem == "local"
    source = args.model if local else args.input
    if not source:
        raise ParseError(f"verify {args.theorem} needs {'-m MODEL' if local else '-i IDEAL'}")
    subject = parse_model(source) if local else parse_ideal(source)
    # only the options given reach the verifier: its signature owns each default
    options = {"k_range": args.k, "n_range": args.n, "box_deg": args.box_deg, "box_c": args.box_c}
    given = {key: _parse_range(value) if key.endswith("range") else value
             for key, value in options.items() if value is not None}
    if args.box is not None:
        given["box"] = cube(subject.nvars, 0, args.box)
    verifier = {"B2": verify_theoremB_T, "B1": verify_theoremB_S, "A": verify_theoremA,
                "local": verify_local_decomposition}[args.theorem]
    verify = partial(verifier, lam=lam, **given)
    # every ideal verifier first builds the cone, whose normality scan decides
    # whether the closure is needed: no separate scan before it
    extra = {}
    try:
        report = verify(subject)
    except NotNormalError as exc:
        if not args.closure:
            raise DomainError(f"{exc}; pass --closure to verify the closure instead")
        sys.stderr.write(
            "notice: input replaced by its integral closure; the decomposition "
            "statements concern the given ideal, not its closure\n"
        )
        report = verify(integral_closure(subject))
        extra = {"closureApplied": True}
    payload = {**report.to_json(), **extra}
    lines = [f"theorem {report.theorem}: {'VERIFIED' if report.overall else 'FAILED'}"]
    for p in report.per_k:
        lines.append(
            f"  k={p.k}: lhs={p.lhs_count} rhs={p.rhs_count} "
            f"{'ok' if p.equal else 'MISMATCH at ' + str(p.witness)}"
        )
    for key, value in sorted({**report.details, **extra}.items()):
        lines.append(f"  {key}: {value}")
    _emit(args, payload, lines)
    return 0 if report.overall else 1


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subcommand from clobbering globals given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    common.add_argument(
        "-o", "--output", default=argparse.SUPPRESS, help="write to file instead of stdout"
    )
    parser = argparse.ArgumentParser(
        prog="reesmult",
        parents=[common],
        description=(
            "Exact multiplier ideals/modules of monomial ideals via Newton "
            "polyhedra, with toric Rees-algebra models and decomposition verifiers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub_parents = {"parents": [common]}

    def add_ideal(p):
        p.add_argument(
            "-i", "--input", dest="ideal", required=True, help="ideal JSON or file path"
        )

    p = sub.add_parser("newton", help="irredundant Newton polyhedron facets", **sub_parents)
    add_ideal(p)
    p.set_defaults(func=cmd_newton)

    p = sub.add_parser("multiplier", help="multiplier ideal or module threshold system", **sub_parents)
    add_ideal(p)
    p.add_argument("--lambda", dest="lam", required=True, help='exponent as "p/q"')
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--module", action="store_true", help="submodule of omega_R")
    group.add_argument(
        "--ideal", dest="want_ideal", action="store_true", help="ideal in R"
    )
    p.set_defaults(func=cmd_multiplier)

    p = sub.add_parser("lct", help="log canonical threshold", **sub_parents)
    add_ideal(p)
    p.set_defaults(func=cmd_lct)

    p = sub.add_parser("jumps", help="jumping numbers up to a bound", **sub_parents)
    add_ideal(p)
    p.add_argument("--max", required=True, help='largest exponent as "p/q"')
    p.set_defaults(func=cmd_jumps)

    p = sub.add_parser("canonical", help="canonical module of a Rees-type algebra", **sub_parents)
    add_ideal(p)
    p.add_argument("--algebra", choices=("rees", "ext-rees"), default="ext-rees")
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("rees-cone", help="cone model of the Rees algebra", **sub_parents)
    add_ideal(p)
    p.set_defaults(func=cmd_cone, algebra="rees")

    p = sub.add_parser("ext-rees-cone", help="cone model of the extended Rees algebra", **sub_parents)
    add_ideal(p)
    p.set_defaults(func=cmd_cone, algebra="ext-rees")

    p = sub.add_parser("graded-piece", help="t-degree slice of a multiplier module", **sub_parents)
    add_ideal(p)
    p.add_argument("--algebra", choices=("rees", "ext-rees"), default="ext-rees")
    p.add_argument("--lambda", dest="lam", default="0", help='exponent as "p/q"')
    p.add_argument("--k", type=_int, required=True)
    p.set_defaults(func=cmd_graded_piece)

    p = sub.add_parser("verify", help="machine-verify a decomposition statement", **sub_parents)
    p.add_argument("theorem", choices=("B1", "B2", "A", "local"))
    p.add_argument("-i", "--input", help="ideal JSON or file path")
    p.add_argument("-m", "--model", help="hypersurface model JSON or file path")
    p.add_argument("--lambda", dest="lam", default="0", help='exponent as "p/q"')
    p.add_argument("--k", help="B2, local: t-degree range LO..HI")
    p.add_argument("--n", help="B1: decomposition index range LO..HI")
    p.add_argument("--box", type=_int, help="B1, B2: per-coordinate upper bound; A: recorded only")
    p.add_argument("--box-deg", type=_int, help="local: max x/y degree")
    p.add_argument("--box-c", type=_int, help="local: max s exponent")
    p.add_argument("--closure", action="store_true", default=None,
                   help="replace a non-normal ideal by its integral closure (with notice)")
    p.set_defaults(func=cmd_verify)
    return parser


def _join_range_options(argv):
    """Glue '--k -3..6' into '--k=-3..6' so argparse does not mistake the
    negative range bound for an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--k", "--n") and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_range_options(list(argv)))
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches the parse-error code
        return int(exc.code or 0)
    args.format = getattr(args, "format", None) or "json"
    args.output = getattr(args, "output", None)
    try:
        point_guard()
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 3
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource guard: {exc}\n")
        return 4
    except Exception as exc:
        # a kernel bug or a failed internal cross-check: never exit 1, which
        # means "computed, verified false"
        detail = " ".join(str(exc).split())
        sys.stderr.write(f"internal error: {type(exc).__name__}: {detail}\n")
        return 5


if __name__ == "__main__":
    raise SystemExit(main())
