"""Command-line front end.

Subcommands cover the whole pipeline: `validate` and `chsh` analyze a box
document, `solve` inverts it into a measure document, `forward` maps measures
back to probabilities, `negativity` runs the minimum-negativity search, and
`qm` generates boxes from two-qubit states.  Commands read the positional
input path or stdin ('-' or omitted) and write to stdout, so they pipe:

    quasilocal qm --state singlet --maximize | quasilocal solve | quasilocal forward

Exit codes: 0 success, 1 domain failure (inconsistent input or a failed
precondition), 2 I/O or parse failure.  `--format json` switches every
report to a machine-readable object.  The default tolerance is 1e-9,
overridable per call with --eps or globally with the QUASILOCAL_EPS
environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import fileio, model, negativity, quantum, solver

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _resolve_eps(args) -> float:
    if getattr(args, "eps", None) is not None:
        eps, source = args.eps, "--eps"
    else:
        env = os.environ.get("QUASILOCAL_EPS")
        if not env:
            return model.DEFAULT_EPS
        try:
            eps, source = float(env), "QUASILOCAL_EPS"
        except ValueError:
            raise _Failure(EXIT_USAGE, f"QUASILOCAL_EPS is not a number: {env!r}") from None
    if not (np.isfinite(eps) and eps >= 0.0):
        raise _Failure(EXIT_USAGE, f"{source} must be a finite number >= 0, got {eps!r}")
    return eps


def _read_text(path: str | None) -> str:
    if path in (None, "-"):
        return sys.stdin.read()
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _Failure(EXIT_USAGE, f"cannot read {path}: {exc}") from None


def _load_box(args) -> np.ndarray:
    return fileio.parse_box(_read_text(args.input))


def _emit(text: str, out_path: str | None = None) -> None:
    if out_path:
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _Failure(EXIT_USAGE, f"cannot write {out_path}: {exc}") from None
    else:
        sys.stdout.write(text)


def _print_json(obj, out_path: str | None = None) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", out_path)


def _violation_json(violation) -> dict:
    data = asdict(violation)
    data["description"] = violation.describe()
    return data


def _require_consistent(p: np.ndarray, eps: float) -> None:
    checks = model.check_consistency(p, eps)
    bad = [v for vs in checks.values() for v in vs]
    if bad:
        lines = "\n".join("  " + v.describe() for v in bad)
        raise _Failure(EXIT_DOMAIN, f"input box is not consistent (eps = {eps:g}):\n{lines}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    eps = _resolve_eps(args)
    p = _load_box(args)
    checks = model.check_consistency(p, eps)
    consistent = not any(checks.values())

    if args.format == "json":
        _print_json({
            "consistent": consistent,
            "eps": eps,
            "checks": {name: [_violation_json(v) for v in vs]
                       for name, vs in checks.items()},
        })
    else:
        for name, vs in checks.items():
            status = "ok" if not vs else "FAIL"
            print(f"{name.replace('_', '-'):<18} {status}")
            for v in vs:
                print(f"  {v.describe()}")
        print(f"{'consistent' if consistent else 'inconsistent'} (eps = {eps:g})")
    return EXIT_OK if consistent else EXIT_DOMAIN


def _cmd_chsh(args) -> int:
    eps = _resolve_eps(args)
    p = _load_box(args)
    _require_consistent(p, eps)
    report = model.chsh_report(p, eps)

    if args.format == "json":
        _print_json({
            "variants": [
                {
                    "negated_pair": f"a{v.negated_pair[0]}b{v.negated_pair[1]}",
                    "overall_sign": v.overall_sign,
                    "delta": report.delta(v),
                    "violated": report.violated(v),
                }
                for v in model.CHSH_VARIANTS
            ],
            "canonical_delta": report.canonical_delta,
            "max_abs_delta": report.max_abs_delta,
            "eps": eps,
        })
    else:
        print("CHSH sums (label = negated setting pair + overall sign):")
        for v in model.CHSH_VARIANTS:
            tag = "  canonical" if v == model.CANONICAL_VARIANT else ""
            flag = "  VIOLATED" if report.violated(v) else ""
            print(f"  {v.label:<6} {fileio.format_value(report.delta(v)):>22}{tag}{flag}")
        print(f"max |delta| = {fileio.format_value(report.max_abs_delta)}")
    return EXIT_OK


def _free_parameters(args) -> solver.FreeParameters:
    if args.free is not None and args.free_file is not None:
        raise _Failure(EXIT_USAGE, "use either --free or --free-file, not both")
    if args.free is not None:
        return solver.FreeParameters.from_sequence(args.free)
    if args.free_file is not None:
        text = _read_text(args.free_file)
        stripped = text.lstrip()
        if stripped.startswith("["):
            try:
                values = json.loads(text)
            except json.JSONDecodeError as exc:
                raise fileio.ParseError(f"invalid free-parameter JSON: {exc}") from None
        else:
            tokens = [tok for _, line in fileio._clean_lines(text) for tok in line.split()]
            try:
                values = [float(t) for t in tokens]
            except ValueError as exc:
                raise fileio.ParseError(f"invalid free-parameter file: {exc}") from None
        try:
            return solver.FreeParameters.from_sequence(values)
        except (TypeError, ValueError) as exc:
            raise fileio.ParseError(str(exc)) from None
    return solver.FreeParameters()


def _negative_summary(m: np.ndarray) -> list[str]:
    negatives = [(i, m[i]) for i in range(16) if m[i] < 0.0]
    if not negatives:
        return ["negative measures: none"]
    listing = ", ".join(
        f"m{i + 1} ({model.STRATEGY_PATTERNS[i]}) = {fileio.format_value(v)}"
        for i, v in negatives)
    return [f"negative measures: {listing}",
            f"total negativity: {fileio.format_value(model.total_negativity(m))}"]


def _cmd_solve(args) -> int:
    eps = _resolve_eps(args)
    p = _load_box(args)
    _require_consistent(p, eps)

    if args.perfect_correlation:
        if args.free is not None or args.free_file is not None:
            raise _Failure(EXIT_USAGE,
                           "--perfect-correlation takes --m16, not --free/--free-file")
        try:
            m = solver.perfect_correlation_solution(p, args.m16, eps)
        except model.ConsistencyError as exc:
            raise _Failure(EXIT_DOMAIN, str(exc)) from None
    else:
        if args.m16 is not None:
            raise _Failure(EXIT_USAGE, "--m16 is only meaningful with --perfect-correlation")
        m = solver.solve(p, _free_parameters(args), eps)

    if args.format == "json":
        obj = fileio.measures_object(m)
        obj["negative_patterns"] = [model.STRATEGY_PATTERNS[i]
                                    for i in range(16) if m[i] < 0.0]
        obj["total_negativity"] = model.total_negativity(m)
        _print_json(obj, args.out)
    else:
        _emit(fileio.format_measures(m, comments=_negative_summary(m)), args.out)
    return EXIT_OK


def _cmd_forward(args) -> int:
    eps = _resolve_eps(args)
    m = fileio.parse_measures(_read_text(args.input))
    total = float(m.sum())
    if abs(total - 1.0) > eps:
        print(f"warning: measures sum to {fileio.format_value(total)}, not 1",
              file=sys.stderr)
    p = model.forward_map(m)
    if args.format == "json":
        _print_json(fileio.box_object(p))
    else:
        _emit(fileio.format_box(p))
    return EXIT_OK


def _cmd_negativity(args) -> int:
    eps = _resolve_eps(args)
    p = _load_box(args)
    _require_consistent(p, eps)
    result = negativity.min_negativity(p, eps)

    if args.format == "json":
        _print_json({
            "min_negativity": result.min_negativity,
            "lower_bound": result.lower_bound,
            "feasible": result.feasible,
            "witness_free_params": asdict(result.witness_free_params),
            "witness": fileio.measures_object(result.witness),
        })
    else:
        fp = result.witness_free_params
        print(f"min negativity : {fileio.format_value(result.min_negativity)}")
        print(f"lower bound    : {fileio.format_value(result.lower_bound)} (from CHSH variants)")
        print(f"feasible       : {'yes' if result.feasible else 'no'}")
        print("free parameters:", " ".join(
            f"{name}={fileio.format_value(value)}" for name, value in asdict(fp).items()))
        print("witness:")
        sys.stdout.write(fileio.format_measures(result.witness))
    return EXIT_OK


def _parse_state(text: str) -> quantum.TwoQubitState:
    if text.strip().lower() == "singlet":
        return quantum.singlet()
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) != 4:
        raise _Failure(EXIT_USAGE,
                       f"--state needs 'singlet' or 4 comma-separated amplitudes, got {text!r}")
    try:
        amplitudes = tuple(complex(t) for t in tokens)
    except ValueError:
        raise _Failure(EXIT_USAGE, f"cannot parse amplitudes from {text!r}") from None
    try:
        return quantum.TwoQubitState(amplitudes)
    except ValueError as exc:
        raise _Failure(EXIT_DOMAIN, str(exc)) from None


def _cmd_qm(args) -> int:
    state = _parse_state(args.state)

    if args.maximize:
        try:
            search = quantum.maximize_chsh(state, args.resolution)
        except ValueError as exc:
            raise _Failure(EXIT_DOMAIN, str(exc)) from None
        a1, a2, b1, b2 = search.directions
        angles = search.angles_deg
        comments = [
            f"best |delta| = {fileio.format_value(search.best_delta)}",
            "angles_deg: a1={:g} a2={:g} b1={:g} b2={:g}".format(*angles),
        ]
        extras = {"best_delta": search.best_delta, "angles_deg": list(angles)}
    else:
        try:
            a1, a2, b1, b2 = (quantum.MeasurementDirection.from_xz_angle(t)
                              for t in args.angles)
        except ValueError as exc:
            raise _Failure(EXIT_DOMAIN, str(exc)) from None
        comments = []
        extras = {"angles_deg": list(args.angles)}

    scenario = quantum.QubitScenario(state, a1, a2, b1, b2)
    p = quantum.generate_probability_set(scenario)

    if args.format == "json":
        obj = fileio.box_object(p)
        obj.update(extras)
        _print_json(obj)
    else:
        _emit(fileio.format_box(p, comments=comments))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------

def _add_common(sub, with_input=True):
    if with_input:
        sub.add_argument("input", nargs="?", default=None,
                         help="input document path ('-' or omitted reads stdin)")
    sub.add_argument("--eps", type=float, default=None,
                     help="tolerance for consistency checks (default 1e-9 or QUASILOCAL_EPS)")
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     help="report format (default text)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasilocal",
        description="Analyze 2x2x2 correlation experiments with signed "
                    "local-hidden-variable measures.")
    subs = parser.add_subparsers(dest="command", required=True)

    validate = subs.add_parser("validate", help="run all consistency checks on a box")
    _add_common(validate)
    validate.set_defaults(handler=_cmd_validate)

    chsh = subs.add_parser("chsh", help="report all 8 CHSH sums of a box")
    _add_common(chsh)
    chsh.set_defaults(handler=_cmd_chsh)

    solve = subs.add_parser("solve", help="invert a box into a measure document")
    _add_common(solve)
    solve.add_argument("--free", type=float, nargs=7, metavar="F", default=None,
                       help="free weights m2 m3 m7 m10 m14 m15 m16 (default zeros)")
    solve.add_argument("--free-file", default=None,
                       help="file with the 7 free weights (tokens or a JSON array)")
    solve.add_argument("--perfect-correlation", action="store_true",
                       help="use the one-parameter solution for boxes with p2 = p3 = 0")
    solve.add_argument("--m16", type=float, default=None,
                       help="free weight m16 for --perfect-correlation (default 0)")
    solve.add_argument("--out", default=None, help="write the measure document here")
    solve.set_defaults(handler=_cmd_solve)

    forward = subs.add_parser("forward", help="map a measure document to its box")
    _add_common(forward)
    forward.set_defaults(handler=_cmd_forward)

    neg = subs.add_parser("negativity",
                          help="minimum total negativity over all models of a box")
    _add_common(neg)
    neg.set_defaults(handler=_cmd_negativity)

    qm = subs.add_parser("qm", help="generate a box from a two-qubit state")
    qm.add_argument("--state", required=True,
                    help="'singlet' or 4 comma-separated amplitudes "
                         "(basis |++>, |+->, |-+>, |-->)")
    group = qm.add_mutually_exclusive_group(required=True)
    group.add_argument("--angles", type=float, nargs=4,
                       metavar=("A1", "A2", "B1", "B2"), default=None,
                       help="x-z plane angles in degrees for a1 a2 b1 b2")
    group.add_argument("--maximize", action="store_true",
                       help="grid-search x-z-plane directions maximizing |CHSH|")
    qm.add_argument("--resolution", type=float, default=5.0,
                    help="grid step in degrees for --maximize (default 5)")
    qm.add_argument("--format", choices=("text", "json"), default="text")
    qm.set_defaults(handler=_cmd_qm)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve" and args.perfect_correlation and args.m16 is None:
            args.m16 = 0.0
        return args.handler(args)
    except _Failure as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except fileio.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (model.ConsistencyError, solver.InfeasibleIndependentSetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except negativity.DegenerateSystemError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
