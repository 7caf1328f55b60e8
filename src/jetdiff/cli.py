"""Batch front door: parse inputs, orchestrate the pipeline, emit JSON reports.

Subcommands: audit, solve, verify, count, chi.  Every report is JSON with
sorted keys (identical config and seed give byte-identical output) written
to stdout or atomically to --out.  Exit codes are fixed: 0 pass, 1 fail,
2 inconclusive, 3 input error, 4 parameter violation.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile

from .counting import (chi_cross_check_2_3, count_report, e_upper_bound,
                       euler_characteristic, unpruned_row_bound)
from .divisibility import (
    SectionContexts,
    assemble_divisibility_system,
    build_section,
    kernel_basis,
    kernel_to_json,
)
from .genericity import DEFAULT_SEED, full_genericity_audit
from .injectivity import analyze_injectivity
from .jetbuilder import XY, JetSpec, SurfacePair
from .polyring import MAX_DEGREE, ParseError, poly_parse
from .sampling import (
    random_coefficient_field,
    random_dense_polynomial,
    random_generic_surface,
    random_surface_pair,
)
from .surfacecharts import (
    CHARTS,
    full_chart_transfer,
    restrict_to_surface,
    verify_derivative_transfer,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3
EXIT_SPEC_VIOLATION = 4


class CliInputError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)


def _default_seed() -> int:
    env = os.environ.get("JETDIFF_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise CliInputError(f"JETDIFF_SEED must be an integer, got {env!r}") from exc
    return DEFAULT_SEED


def load_surface_file(path: str) -> SurfacePair:
    """Read a two-line surface file: `R = <poly>` and `S = <poly>`, # comments."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliInputError(f"cannot read surface file {path!r}: {exc}") from exc
    polys = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliInputError(f"{path}:{lineno}: expected `R = ...` or `S = ...`")
        name, _, body = line.partition("=")
        name = name.strip()
        if name not in ("R", "S"):
            raise CliInputError(f"{path}:{lineno}: unknown lhs {name!r}")
        if name in polys:
            raise CliInputError(f"{path}:{lineno}: duplicate definition of {name}")
        try:
            polys[name] = poly_parse(body.strip(), XY)
        except ParseError as exc:
            raise CliInputError(f"{path}:{lineno}: {exc}") from exc
    for required in ("R", "S"):
        if required not in polys:
            raise CliInputError(f"{path}: missing definition of {required}")
    try:
        return SurfacePair(polys["R"], polys["S"])
    except ValueError as exc:
        raise CliInputError(f"{path}: {exc}") from exc


def _write_atomically(path: str, text: str) -> None:
    """Write text to path through a temporary file in the same directory.

    Any OS error becomes an input error, and the temporary file never stays.
    """
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                        prefix=".jetdiff-")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except OSError as exc:
        raise CliInputError(f"cannot write output path {path!r}: {exc}") from exc
    finally:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)


def _check_output_path(path: str) -> None:
    """Refuse an output path that cannot be written, before any work is done."""
    if not path:
        raise CliInputError("output path must not be empty")
    if os.path.isdir(path):
        raise CliInputError(f"output path {path!r} is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise CliInputError(f"directory of output path {path!r} does not exist")


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        _write_atomically(out, text)


def _surface_json(surf: SurfacePair) -> dict:
    return {"R": str(surf.r), "S": str(surf.s), "d": surf.d, "e": surf.e}


def _log(args: argparse.Namespace, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _verdict_code(verdict: str) -> int:
    """The exit code of an audit verdict: pass 0, fail 1, anything else 2."""
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL}.get(verdict, EXIT_INCONCLUSIVE)


# -- subcommands ---------------------------------------------------------------

def cmd_audit(args: argparse.Namespace) -> tuple[int, dict]:
    surf = load_surface_file(args.surface)
    _log(args, f"auditing surface with d={surf.d}, e={surf.e}, seed={args.seed}")
    report = full_genericity_audit(surf, seed=args.seed)
    body = {"command": "audit", "surface": _surface_json(surf), **report.to_json_dict()}
    return _verdict_code(report.verdict), body


def cmd_solve(args: argparse.Namespace) -> tuple[int, dict]:
    surf = load_surface_file(args.surface)
    try:
        spec = JetSpec(m=args.m, c=args.c, a=args.a)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    if args.require_infinity and not spec.holomorphic_at_infinity:
        return EXIT_SPEC_VIOLATION, {
            "command": "solve",
            "error": f"infinity holomorphy requires a <= c - 4m "
                     f"(a={spec.a}, c={spec.c}, m={spec.m})",
        }
    body: dict = {"command": "solve", "surface": _surface_json(surf),
                  "m": spec.m, "c": spec.c, "a": spec.a, "forced": bool(args.force)}
    if not args.force:
        audit = full_genericity_audit(surf, seed=args.seed)
        body["audit"] = audit.to_json_dict()
        if not audit.passed:
            body["error"] = "genericity audit did not pass; rerun with --force"
            return _verdict_code(audit.verdict), body
    _log(args, f"assembling the divisibility system at m={spec.m}, c={spec.c}, a={spec.a}")
    system = assemble_divisibility_system(surf, spec)
    basis = kernel_basis(system)
    _log(args, f"kernel dimension {len(basis)}; certifying basis vectors")
    contexts = SectionContexts(surf, spec)
    certificates = [build_section(surf, spec, vector, contexts) for vector in basis]
    body.update({
        "columns": len(system.columns),
        "rows": len(system.rows),
        "unpruned_row_bound": unpruned_row_bound(surf.d, surf.e, spec.m, spec.a, spec.c),
        "dimension": len(basis),
        "kernel": kernel_to_json(system, basis),
        "certificates": [cert.to_json_dict() for cert in certificates],
    })
    if args.matrix_out is not None:
        _write_atomically(args.matrix_out, system.to_triplet_text())
        body["matrix_out"] = args.matrix_out
    return EXIT_PASS, body


def _verify_injectivity_suite(args: argparse.Namespace) -> dict:
    d, e, m, a = args.d, args.e, args.m, args.injectivity_a
    rng = random.Random(args.seed)
    runs = []
    for index in range(args.surfaces):
        surf, audit = random_generic_surface(rng, d, e, audit_seed=args.seed + index)
        result = analyze_injectivity(surf, m, a, audit=audit)
        runs.append({"surface": _surface_json(surf), **result.to_json_dict()})
    return {"name": "injectivity", "config": {"d": d, "e": e, "m": m, "a": a,
                                              "surfaces": args.surfaces},
            "passed": all(run["verdict"] == "injective" for run in runs), "runs": runs}


def _verify_transfer_suite(args: argparse.Namespace) -> dict:
    rng = random.Random(args.seed)
    degrees = [args.deg] if args.deg is not None else list(range(1, 7))
    runs = []
    for degree in degrees:
        for _ in range(args.trials):
            r = random_dense_polynomial(rng, degree)
            for chart in CHARTS:
                ok = verify_derivative_transfer(r, degree, chart)
                runs.append({"kind": "derivative", "degree": degree, "chart": chart,
                             "identity": "pass" if ok else "fail"})
        # the complete transferred differential, with its factored prefactor
        surf = random_surface_pair(rng, degree, degree)
        field = random_coefficient_field(rng, 1, 1)
        spec = JetSpec(m=1, c=5, a=1)
        for chart in CHARTS:
            result = full_chart_transfer(field, surf, spec, chart)
            runs.append({"kind": "full", "degree": degree, "chart": chart,
                         "identity": "pass" if result.identity_ok else "fail",
                         "prefactor_exponent": result.prefactor_exponent,
                         "residual_min": result.residual_min})
    return {"name": "transfer", "config": {"degrees": degrees, "trials": args.trials},
            "passed": all(run["identity"] == "pass" for run in runs), "runs": runs}


def _verify_restriction_suite(args: argparse.Namespace) -> dict:
    d, e, m, a = args.d, args.e, args.m, args.restriction_a
    rng = random.Random(args.seed)
    runs = []
    for _ in range(args.trials):
        surf = random_surface_pair(rng, d, e)
        field = random_coefficient_field(rng, m, a)
        spec = JetSpec(m=m, c=0, a=a)
        _, exact = restrict_to_surface(field, surf, spec)
        runs.append({"surface": _surface_json(surf), "exact": exact})
    return {"name": "restriction", "config": {"d": d, "e": e, "m": m, "a": a,
                                              "trials": args.trials},
            "passed": all(run["exact"] for run in runs), "runs": runs}


def _resolve_verify_flags(args: argparse.Namespace) -> argparse.Namespace:
    """The verify flags with each default resolved once, refused before any sampling.

    --e defaults to --d; --a to max(0, d - 2) for --injectivity and to 1 for
    --restriction, kept as `injectivity_a` and `restriction_a`.
    """
    d = args.d
    e = args.e if args.e is not None else d
    injectivity_a = args.a if args.a is not None else max(0, d - 2)
    restriction_a = args.a if args.a is not None else 1
    rules = [
        (args.m >= 1, f"--m must be >= 1, got {args.m}"),
        (1 <= d <= e <= MAX_DEGREE,
         f"need 1 <= --d <= --e <= {MAX_DEGREE}, got d={d}, e={e}"),
        (args.deg is None or 1 <= args.deg <= MAX_DEGREE,
         f"need 1 <= --deg <= {MAX_DEGREE}, got {args.deg}"),
        (args.trials >= 1, f"--trials must be >= 1, got {args.trials}"),
        (args.surfaces >= 1, f"--surfaces must be >= 1, got {args.surfaces}"),
        (args.a is None or args.a >= 0, f"--a must be >= 0, got {args.a}"),
        (not args.injectivity or injectivity_a <= d - 2,
         f"--injectivity needs --a <= --d - 2, got a={injectivity_a}, d={d}"),
    ]
    for ok, message in rules:
        if not ok:
            raise CliInputError(message)
    return argparse.Namespace(**{**vars(args), "e": e, "injectivity_a": injectivity_a,
                                 "restriction_a": restriction_a})


def cmd_verify(args: argparse.Namespace) -> tuple[int, dict]:
    args = _resolve_verify_flags(args)
    suites = []
    if args.injectivity:
        suites.append(_verify_injectivity_suite(args))
    if args.transfer:
        suites.append(_verify_transfer_suite(args))
    if args.restriction:
        suites.append(_verify_restriction_suite(args))
    if not suites:
        raise CliInputError("verify requires at least one of "
                            "--injectivity/--transfer/--restriction")
    all_ok = all(s["passed"] for s in suites)
    body = {"command": "verify", "seed": args.seed, "suites": suites, "passed": all_ok}
    return (EXIT_PASS if all_ok else EXIT_FAIL), body


def _chi_cross_check_json() -> dict:
    cross = chi_cross_check_2_3()
    return {"formula_value": str(cross.formula_value),
            "classical_value": cross.classical_value,
            "agrees": cross.agrees}


def cmd_count(args: argparse.Namespace) -> tuple[int, dict]:
    try:
        report = count_report(args.d, args.e, m=args.m, a=args.a, c=args.c)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    body = {"command": "count", **report.to_json_dict(),
            "e_upper_bound": e_upper_bound(args.d),
            "e_within_bound": args.e <= e_upper_bound(args.d),
            "cubic_nonnegative": report.cubic_value >= 0,
            "chi_cross_check_2_3_0": _chi_cross_check_json()}
    return EXIT_PASS, body


def cmd_chi(args: argparse.Namespace) -> tuple[int, dict]:
    try:
        value = euler_characteristic(args.d, args.e, args.m)
        mirrored = euler_characteristic(args.e, args.d, args.m)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    body = {"command": "chi", "d": args.d, "e": args.e, "m": args.m,
            "chi": str(value),
            "symmetric_value": str(mirrored),
            "symmetric_ok": value == mirrored,
            "chi_cross_check_2_3_0": _chi_cross_check_json()}
    return EXIT_PASS, body


# -- wiring ---------------------------------------------------------------------

def _add_common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # the flags are valid both before and after the subcommand; the
    # subparser copies use SUPPRESS so they never clobber a value parsed
    # by the main parser
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--seed", type=int, default=default,
                        help="random seed (default: JETDIFF_SEED or a fixed constant)")
    parser.add_argument("--out", default=default,
                        help="write the JSON report to this path")
    parser.add_argument("-v", "--verbose", action="count",
                        default=argparse.SUPPRESS if suppress else 0,
                        help="log progress to stderr")


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="jetdiff",
                             description="exact symmetric jet differential toolkit")
    _add_common_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="run the genericity audit on a surface file")
    p_audit.add_argument("--surface", required=True)

    p_solve = sub.add_parser("solve", help="assemble and solve the divisibility system")
    p_solve.add_argument("--surface", required=True)
    p_solve.add_argument("--m", type=int, required=True)
    p_solve.add_argument("--c", type=int, required=True)
    p_solve.add_argument("--a", type=int, required=True)
    p_solve.add_argument("--force", action="store_true",
                         help="skip the genericity gate")
    p_solve.add_argument("--require-infinity", action="store_true",
                         help="refuse parameter choices with a > c - 4m")
    p_solve.add_argument("--matrix-out", default=None,
                         help="also write the sparse matrix in triplet format")

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--injectivity", action="store_true")
    p_verify.add_argument("--transfer", action="store_true")
    p_verify.add_argument("--restriction", action="store_true")
    p_verify.add_argument("--d", type=int, default=3)
    p_verify.add_argument("--e", type=int, default=None)
    p_verify.add_argument("--m", type=int, default=1)
    p_verify.add_argument("--a", type=int, default=None)
    p_verify.add_argument("--deg", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=5)
    p_verify.add_argument("--surfaces", type=int, default=5)

    p_count = sub.add_parser("count", help="evaluate all counting formulas")
    p_count.add_argument("--d", type=int, required=True)
    p_count.add_argument("--e", type=int, required=True)
    p_count.add_argument("--m", type=int, default=None)
    p_count.add_argument("--a", type=int, default=None)
    p_count.add_argument("--c", type=int, default=None)

    p_chi = sub.add_parser("chi", help="evaluate the Euler characteristic formula")
    p_chi.add_argument("--d", type=int, required=True)
    p_chi.add_argument("--e", type=int, required=True)
    p_chi.add_argument("--m", type=int, required=True)

    for sub_parser, run in ((p_audit, cmd_audit), (p_solve, cmd_solve),
                            (p_verify, cmd_verify), (p_count, cmd_count), (p_chi, cmd_chi)):
        _add_common_flags(sub_parser, suppress=True)
        sub_parser.set_defaults(run=run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        outputs = [path for path in (args.out, getattr(args, "matrix_out", None))
                   if path is not None]
        for path in outputs:
            _check_output_path(path)
        if len({os.path.realpath(path) for path in outputs}) < len(outputs):
            raise CliInputError("--out and --matrix-out name the same file")
        if args.seed is None:
            args.seed = _default_seed()
        code, body = args.run(args)
        _emit(body, args.out)
    except CliInputError as exc:
        _emit({"error": str(exc)}, None)
        return EXIT_INPUT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
