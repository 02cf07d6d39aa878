"""Mutation gate: every mutant in MUTANTS must make the test suite fail.

    python3 tests/mutants.py

A mutant is one textual replacement in one file of src/quasilocal.  For each,
the runner copies src/ to a temporary directory, replaces the old text, which
must occur exactly once, and runs pytest with RuntimeWarning as an error and
PYTHONPATH pointing at the copy; tests/conftest.py derandomizes Hypothesis, so
a verdict does not depend on a random draw.  It runs the mutant's killer, the
test file or test function named beside it, first, with -x.  The mutant is
killed when pytest reports a failure or an error (exit 1 or 2).  When the
killer passes, the runner runs the whole of tests/ with -x and reports the
killer as stale: the hint saves time and never decides a verdict.  The suite
runs once unmutated first and must pass there.  The run exits 1 if any mutant
survives.  It needs only the standard library beside the test suite's own
requirements.

tests/test_mutants.py checks in tier-1 that each old text still occurs
exactly once and that each killer names a test, so a change that rewrites a
mutated line or renames a killer fails there and has to update this table.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quasilocal"


class Mutant(NamedTuple):
    file: str       # file name under src/quasilocal
    old: str        # text that occurs exactly once in it
    new: str        # its replacement
    reason: str     # what breaks, and what sees it
    killer: str     # tests/<file>.py or tests/<file>.py::<test function>: fails first


MUTANTS = (
    Mutant("model.py", "for m, n in _OUTCOME_PAIRS)", "for n, m in _OUTCOME_PAIRS)",
           "PROB_EVENTS swaps the (+, -) and (-, +) entries of every block",
           "tests/test_model.py::test_forward_matrix_matches_joint_terms"),
    Mutant("model.py", "OUTCOMES = (PLUS, MINUS)", "OUTCOMES = (MINUS, PLUS)",
           "reversed OUTCOMES reorders both encoding tables",
           "tests/test_model.py::test_probability_layout_matches_table"),
    Mutant("quantum.py", '{"A": 2, "B": 3}', '{"A": 3, "B": 2}',
           "flip_outcomes flips the other party's outcome axis",
           "tests/test_quantum.py::test_flip_matches_the_index_loop"),
    Mutant("model.py", "return -1 if (j, k) == self.negated_pair else 1",
           "return -1 if (k, j) == self.negated_pair else 1",
           "wrong signs in the CHSH_MATRIX rows that negate a1b2 or a2b1",
           "tests/test_model.py::test_each_variant_negates_its_own_pair"),
    Mutant("negativity.py", "_WITNESS.setflags(write=False)",
           "_WITNESS[0, 0, 0] += 1e-9\n_WITNESS.setflags(write=False)",
           "a witness matrix nudged by 1e-9 misses the box by 1e-9",
           "tests/test_negativity.py::test_pr_witness_has_minus_one_sixteenth_on_eight_strategies"),
    Mutant("solver.py", "if abs(p2) > eps or abs(p3) > eps:", "if abs(p2) > eps:",
           "perfect_correlation_solution accepts p3 != 0 and misses the box",
           "tests/test_solver.py::test_perfect_correlation_rejects_p3_alone"),
    Mutant("model.py", "np.flatnonzero(row < 0)", "np.flatnonzero(row > 0)",
           "sigma_minus sums the strategies with CHSH value +2",
           "tests/test_model.py::test_sigma_minus_rows_are_the_chsh_minus_2_strategies"),
    Mutant("model.py", "for row in _STRATEGY_CHSH)", "for row in _STRATEGY_CHSH[[0] * 8])",
           "sigma_minus repeats the canonical variant's row for all 8",
           "tests/test_model.py::test_sigma_minus_rows_are_the_chsh_minus_2_strategies"),
    Mutant("model.py", "if not abs((m1 := v[a] + v[b] + 0.0) - (m2 := v[c] + v[d] + 0.0)) <= eps",
           "if abs((m1 := v[a] + v[b] + 0.0) - (m2 := v[c] + v[d] + 0.0)) > eps",
           "a marginal difference of NaN passes no-signaling",
           "tests/test_cli.py::test_marginals_whose_difference_is_nan_fail_no_signaling"),
    Mutant("fileio.py", "s[3:5], s[5])", "s[3:5], s[2])",
           "a JSON box label reads B's outcome from A's slot",
           "tests/test_fileio.py::test_box_json_roundtrip"),
    Mutant("model.py", "if not -eps <= x <= high", "if not -eps <= x <= 1.0",
           "the range check drops its upper tolerance",
           "tests/test_solver.py::test_solve_range_checks_at_the_callers_eps"),
    Mutant("model.py", "math.isfinite(eps) and eps >= 0.0", "math.isfinite(eps) and eps > 0.0",
           "eps = 0 is rejected",
           "tests/test_model.py::test_signed_zeros_are_different_boxes"),
    Mutant("model.py", "((r[0] + r[1]) + (r[2] + r[3]))", "((r[0] + r[2]) + (r[1] + r[3]))",
           "_sum leaves numpy's pairwise order",
           "tests/test_checks_reference.py::"
           "test_weight_sums_match_numpy_bit_for_bit_without_a_warning"),
    Mutant("model.py", 'np.errstate(over="ignore", invalid="ignore")', 'np.errstate(over="ignore")',
           "a product whose sums overflow to inf - inf warns",
           "tests/test_model.py::"
           "test_public_products_of_huge_finite_inputs_overflow_without_a_warning"),
    Mutant("model.py", "return _product(FORWARD_MATRIX, m, sum(map(abs, m.tolist())))",
           "return FORWARD_MATRIX @ m",
           "forward_map warns when its image overflows",
           "tests/test_model.py::"
           "test_public_products_of_huge_finite_inputs_overflow_without_a_warning"),
    Mutant("negativity.py", "x = 0.5 * (max(", "x = 0.25 * (max(",
           "Fine's model leaves the feasible interval of q",
           "tests/test_negativity.py::test_every_no_signalling_vertex"),
    Mutant("solver.py", "FREE_INDICES = (1, 2, 6,", "FREE_INDICES = (2, 1, 6,",
           "solve places m2 and m3 in each other's slots",
           "tests/test_solver.py::test_perfect_correlation_matches_general_solution"),
    Mutant("fileio.py", 'return f"{value:.17g}"', 'return f"{value:.16g}"',
           "16 digits do not round-trip every float",
           "tests/test_fileio.py::test_box_text_roundtrip_is_exact"),
    Mutant("quantum.py", "m * d.y, m * d.z)", "m * d.y, d.z)",
           "the Born rule ignores the outcome on the z component",
           "tests/test_quantum.py::test_born_product_state_eigenvalue"),
    Mutant("quantum.py", "t = math.atan2(s2, s1)", "t = math.atan2(s1, s2)",
           "maximize_chsh splits the b directions at the wrong angle",
           "tests/test_quantum.py::test_maximize_degenerate_blocks"),
    Mutant("cli.py", 'EXIT_USAGE, "--perfect-correlation takes --m16, not --free"',
           'EXIT_DOMAIN, "--perfect-correlation takes --m16, not --free"',
           "--perfect-correlation with --free exits 1, not 2",
           "tests/test_cli.py::test_usage_and_parse_errors_name_their_cause"),
    Mutant("cli.py", 'flag = "--m16" if args.perfect_correlation else "--free"',
           'flag = "--free"',
           "an overflow at --m16 names --free",
           "tests/test_cli.py::test_weights_whose_total_negativity_overflows_are_usage_errors"),
    Mutant("cli.py", "if args.m16 is not None:", "if False:",
           "--m16 without --perfect-correlation is ignored",
           "tests/test_cli.py::test_perfect_correlation_defaults_m16_to_zero"),
    Mutant("cli.py", 'if not (action.option_strings and arg_strings == ["--"]):', "if True:",
           "--eps=-- reaches the flag as [] before Python 3.13",
           "tests/test_cli.py::test_a_double_dash_flag_value_is_a_usage_error"),
    Mutant("fileio.py", '_pattern_strategy(str(pattern), "")',
           '_pattern_strategy(str(pattern), "line 0: ")',
           "a bad JSON measure pattern names line 0",
           "tests/test_cli.py::test_usage_and_parse_errors_name_their_cause"),
    Mutant("cli.py", "    if abs(total - 1.0) > eps:\n        print(f\"warning",
           "    if abs(total - 1.0) > 1.0:\n        print(f\"warning",
           "forward stops warning on measures that sum to 0.5",
           "tests/test_cli.py::test_forward_warns_on_measures_that_do_not_sum_to_1"),
    Mutant("model.py", "if (isinstance(strategy, bool) or ", "if (",
           "deterministic_box(True) gives strategy 1's box",
           "tests/test_model.py::test_deterministic_box_rejects_anything_but_a_strategy_index"),
    Mutant("cli.py", "*args, allow_abbrev=False, **kwargs", "*args, allow_abbrev=True, **kwargs",
           "a unique prefix of a long option is read as the option",
           "tests/test_cli.py::test_a_prefix_of_a_long_option_is_a_usage_error"),
)


def apply(mutant: Mutant, package: Path) -> None:
    """Write the mutant into the copy of src/quasilocal at package."""
    path = package / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.file}: old text occurs {count} times, not once: "
                         f"{mutant.old!r}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def suite_fails(mutant: Mutant | None, target: str = "tests") -> bool:
    """Whether pytest -x on target fails on a copy of src/ with the mutant applied."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(PACKAGE, src / "quasilocal",
                        ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            apply(mutant, src / "quasilocal")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
                   HYPOTHESIS_STORAGE_DIRECTORY=str(Path(tmp) / "hypothesis"))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "-W", "error::RuntimeWarning", target],
            cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1, 2):
        raise SystemExit(f"pytest exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return done.returncode != 0


def verdict(mutant: Mutant, fails=suite_fails) -> str:
    """"killed" when the mutant's killer fails on it; otherwise the whole suite
    decides: "killed, stale killer" or "SURVIVED"."""
    if fails(mutant, mutant.killer):
        return "killed"
    return "killed, stale killer" if fails(mutant, "tests") else "SURVIVED"


def main() -> int:
    start = time.perf_counter()
    # a suite that fails unmutated (say, pytest is missing) would kill every mutant
    if suite_fails(None):
        raise SystemExit("the test suite fails on an unmutated copy of src/")
    verdicts = []
    for i, mutant in enumerate(MUTANTS):
        begun = time.perf_counter()
        verdicts.append(verdict(mutant))
        print(f"{i:2d} {verdicts[-1]:<20} {time.perf_counter() - begun:5.1f} s  "
              f"{mutant.file}: {mutant.reason}", flush=True)
    killed = sum(v != "SURVIVED" for v in verdicts)
    stale = verdicts.count("killed, stale killer")
    print(f"{killed} of {len(MUTANTS)} mutants killed, {stale} by the whole suite "
          f"after a stale killer, in {time.perf_counter() - start:.0f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
