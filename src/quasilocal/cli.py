"""Command-line front end.

Subcommands cover the whole pipeline: `validate` and `chsh` analyze a box
document, `solve` inverts it into a measure document, `forward` maps measures
back to probabilities, `negativity` reports the least total negativity of a
box in closed form with a witness model, and `qm` generates boxes from
two-qubit states.  Commands read the positional input path or stdin ('-' or
omitted) and write to stdout, so they pipe:

    quasilocal qm --state singlet --maximize | quasilocal solve | quasilocal forward

Exit codes: 0 success, 1 domain failure (inconsistent input or a failed
precondition), 2 I/O or parse failure.  `--format json` switches every
report to a machine-readable object.  The tolerance is 1e-9 unless --eps
gives another.  Each flag value is checked by its argparse type, and each
combination of flags by argparse (solve's --free and --perfect-correlation
M16 exclude each other), as the command line is parsed, so a bad one is a
usage error (exit 2) before any input is read.  A call imports only what its
subcommand runs: validate, chsh and forward load fileio and model; solve adds
solver, negativity adds negativity and solver, qm adds quantum, and reading a
JSON document or writing --format json adds json.
"""

from __future__ import annotations

import argparse
import cmath
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import fileio, model

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _read_text(path: str | None) -> str:
    if path in (None, "-"):
        return sys.stdin.read()
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _Failure(EXIT_USAGE, f"cannot read {path}: {exc}") from None


def _load_box(args) -> np.ndarray:
    return fileio.parse_box(_read_text(args.input))


def _print_json(obj) -> None:
    import json

    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError:          # NaN or +-inf, which JSON has no literal for
        raise _Failure(EXIT_DOMAIN, "the report holds a non-finite number, "
                                    "which JSON cannot represent") from None
    sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    p = _load_box(args)
    checks = model.check_consistency(p, args.eps)
    consistent = not any(checks.values())

    if args.format == "json":
        _print_json({
            "consistent": consistent,
            "eps": args.eps,
            "checks": {name: [{**v._asdict(), "description": v.describe()} for v in vs]
                       for name, vs in checks.items()},
        })
    else:
        for name, vs in checks.items():
            status = "ok" if not vs else "FAIL"
            print(f"{name.replace('_', '-'):<18} {status}")
            for v in vs:
                print(f"  {v.describe()}")
        print(f"{'consistent' if consistent else 'inconsistent'} (eps = {args.eps:g})")
    return EXIT_OK if consistent else EXIT_DOMAIN


def _cmd_chsh(args) -> int:
    p = model.require_consistent(_load_box(args), args.eps)
    report = model.chsh_report(p, args.eps)

    if args.format == "json":
        _print_json({
            "variants": [
                {
                    "negated_pair": f"a{j}b{k}",
                    "overall_sign": sign,
                    "delta": report.deltas[v],
                    "violated": report.violated(v),
                }
                for v, ((j, k), sign) in enumerate(model.CHSH_VARIANTS)
            ],
            "canonical_delta": report.deltas[0],
            "max_abs_delta": report.max_abs_delta,
            "eps": args.eps,
        })
    else:
        print("CHSH sums (label = negated setting pair + overall sign):")
        for v, ((j, k), sign) in enumerate(model.CHSH_VARIANTS):
            label = f"a{j}b{k}{model.outcome_char(sign)}"
            tag = "  canonical" if v == 0 else ""
            flag = "  VIOLATED" if report.violated(v) else ""
            print(f"  {label:<6} {fileio.format_value(report.deltas[v]):>22}{tag}{flag}")
        print(f"max |delta| = {fileio.format_value(report.max_abs_delta)} (eps = {args.eps:g})")
    return EXIT_OK


def _negative_summary(m: np.ndarray, total: float) -> list[str]:
    negatives = [(i, m[i]) for i in range(16) if m[i] < 0.0]
    if not negatives:
        return ["negative measures: none"]
    listing = ", ".join(
        f"m{i + 1} ({model.STRATEGY_PATTERNS[i]}) = {fileio.format_value(v)}"
        for i, v in negatives)
    return [f"negative measures: {listing}",
            f"total negativity: {fileio.format_value(total)}"]


def _cmd_solve(args) -> int:
    from . import solver

    p = _load_box(args)
    flag = "--free" if args.perfect_correlation is None else "--perfect-correlation"
    try:
        m = (solver.solve(p, args.free, args.eps) if args.perfect_correlation is None
             else solver.perfect_correlation_solution(p, args.perfect_correlation, args.eps))
    except model.ConsistencyError:
        raise
    except ValueError as exc:           # finite weights whose solution overflows
        raise _Failure(EXIT_USAGE, f"argument {flag}: {exc}") from None
    total = model.total_negativity(m)
    if not math.isfinite(total):        # finite weights whose negative parts overflow
        raise _Failure(EXIT_USAGE,
                       f"argument {flag}: the total negativity at these weights is not finite")

    if args.format == "json":
        obj = fileio.measures_object(m)
        obj["negative_patterns"] = [model.STRATEGY_PATTERNS[i]
                                    for i in range(16) if m[i] < 0.0]
        obj["eps"] = args.eps
        obj["total_negativity"] = total
        _print_json(obj)
    else:
        comments = [*_negative_summary(m, total), f"consistent at eps = {args.eps:g}"]
        sys.stdout.write(fileio.format_measures(m, comments=comments))
    return EXIT_OK


def _cmd_forward(args) -> int:
    m = fileio.parse_measures(_read_text(args.input))
    p = model.forward_map(m)
    if not np.isfinite(p).all():
        raise _Failure(EXIT_DOMAIN, "the forward image is not finite: the weights overflow")
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(m.sum())
    if abs(total - 1.0) > args.eps:
        print(f"warning: measures sum to {fileio.format_value(total)}, not 1",
              file=sys.stderr)
    if args.format == "json":
        _print_json(fileio.box_object(p))
    else:
        sys.stdout.write(fileio.format_box(p))
    return EXIT_OK


def _cmd_negativity(args) -> int:
    from . import negativity, solver

    result = negativity.min_negativity(_load_box(args), args.eps)
    witness = result.witness.tolist()
    free = {f"m{i + 1}": witness[i] for i in solver.FREE_INDICES}

    if args.format == "json":
        _print_json({
            "min_negativity": result.min_negativity,
            "lower_bound": result.lower_bound,
            "feasible": result.feasible,
            "eps": args.eps,
            "witness_free_params": free,
            "witness": fileio.measures_object(result.witness),
        })
    else:
        print(f"min negativity : {fileio.format_value(result.min_negativity)}")
        print(f"lower bound    : {fileio.format_value(result.lower_bound)} (from CHSH variants)")
        print(f"feasible       : {'yes' if result.feasible else 'no'} (eps = {args.eps:g})")
        print("free parameters:", " ".join(
            f"{name}={fileio.format_value(value)}" for name, value in free.items()))
        print("witness:")
        sys.stdout.write(fileio.format_measures(result.witness))
    return EXIT_OK


def _cmd_qm(args) -> int:
    from . import quantum

    try:
        state = quantum.TwoQubitState(args.state)
    except ValueError as exc:           # amplitudes whose squared norm is not 1
        raise _Failure(EXIT_DOMAIN, str(exc)) from None

    if args.maximize:
        search = quantum.maximize_chsh(state)
        a1, a2, b1, b2 = search.directions
        angles = search.angles_deg
        comments = [
            f"best |delta| = {fileio.format_value(search.best_delta)}",
            "angles_deg: a1={} a2={} b1={} b2={}".format(*map(fileio.format_value, angles)),
        ]
        extras = {"best_delta": search.best_delta, "angles_deg": list(angles)}
    else:
        # _finite_float makes every angle finite, so each is a unit direction
        a1, a2, b1, b2 = (quantum.MeasurementDirection.from_xz_angle(t) for t in args.angles)
        comments = []
        extras = {"angles_deg": list(args.angles)}

    scenario = quantum.QubitScenario(state, a1, a2, b1, b2)
    p = quantum.generate_probability_set(scenario)

    if args.format == "json":
        obj = fileio.box_object(p)
        obj.update(extras)
        _print_json(obj)
    else:
        sys.stdout.write(fileio.format_box(p, comments=comments))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """ArgumentParser that reads a token starting with '-' and a digit, with
    '-.' and a digit, or with -inf or -nan in any case, as a negative number,
    not an option: argparse's own pattern misses scientific notation such as
    -1e-3, and -inf and -nan reach the numeric flags' own finiteness check.
    No option here looks like a number, so none is shadowed.  It also reads
    --eps=-- as the value '--', as Python 3.13 does: older versions drop it and
    hand the flag [], which its type never sees.  A long option is read only
    when spelled in full: a prefix would change meaning as options come and
    go.  Subparsers inherit the class."""

    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def _get_values(self, action, arg_strings):
        if not (action.option_strings and arg_strings == ["--"]):
            return super()._get_values(action, arg_strings)
        value = self._get_value(action, "--")
        self._check_value(action, value)
        return value


def _finite_float(text: str) -> float:
    """argparse type of the numeric flags: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """argparse type of --eps: a finite float >= 0."""
    value = _finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _amplitudes(text: str) -> tuple[complex, ...]:
    """argparse type of --state: 'singlet', or 4 comma-separated finite complex
    amplitudes.  Their norm is checked by quantum.TwoQubitState."""
    from . import quantum

    if text.strip().lower() == "singlet":
        return quantum.singlet().amplitudes
    tokens = text.split(",")
    try:
        amplitudes = tuple(map(complex, tokens))
    except ValueError:
        amplitudes = ()
    if len(amplitudes) != 4:
        raise argparse.ArgumentTypeError(
            f"needs 'singlet' or 4 comma-separated amplitudes, got {text!r}")
    for token, amplitude in zip(tokens, amplitudes):
        if not cmath.isfinite(amplitude):
            raise argparse.ArgumentTypeError(f"must be a finite number, got {token.strip()!r}")
    return amplitudes


def _add_common(sub):
    sub.add_argument("input", nargs="?", default=None,
                     help="input document path ('-' or omitted reads stdin)")
    sub.add_argument("--eps", type=_tolerance, default=model.DEFAULT_EPS,
                     help="tolerance for consistency checks, finite and >= 0 (default 1e-9)")
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     help="report format (default text)")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
    family = solve.add_mutually_exclusive_group()
    family.add_argument("--free", type=_finite_float, nargs=7, metavar="F", default=None,
                        help="free weights m2 m3 m7 m10 m14 m15 m16 (default zeros)")
    family.add_argument("--perfect-correlation", type=_finite_float, metavar="M16", default=None,
                        help="use the one-parameter solution for boxes with p2 = p3 = 0, "
                             "at free weight m16 = M16")
    solve.set_defaults(handler=_cmd_solve)

    forward = subs.add_parser("forward", help="map a measure document to its box")
    _add_common(forward)
    forward.set_defaults(handler=_cmd_forward)

    neg = subs.add_parser("negativity",
                          help="minimum total negativity over all models of a box")
    _add_common(neg)
    neg.set_defaults(handler=_cmd_negativity)

    qm = subs.add_parser("qm", help="generate a box from a two-qubit state")
    qm.add_argument("--state", type=_amplitudes, required=True,
                    help="'singlet' or 4 comma-separated amplitudes "
                         "(basis |++>, |+->, |-+>, |-->)")
    group = qm.add_mutually_exclusive_group(required=True)
    group.add_argument("--angles", type=_finite_float, nargs=4,
                       metavar=("A1", "A2", "B1", "B2"), default=None,
                       help="x-z plane angles in degrees for a1 a2 b1 b2")
    group.add_argument("--maximize", action="store_true",
                       help="x-z-plane directions maximizing |CHSH|, in closed form")
    qm.add_argument("--format", choices=("text", "json"), default="text")
    qm.set_defaults(handler=_cmd_qm)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _Failure as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except fileio.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except model.ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
