"""Mutation gate: every mutant in MUTANTS must make the test suite fail.

    python3 tests/mutants.py

A mutant is one textual replacement in one file of src/quasilocal.  For each,
the runner copies src/ to a temporary directory, replaces the old text, which
must occur exactly once, and runs pytest with RuntimeWarning as an error and
PYTHONPATH pointing at the copy.  tests/conftest.py derandomizes Hypothesis, so
a verdict does not depend on a random draw, and its "mutants" profile, which
the runner selects, skips the shrink and explain phases: they run only once a
test has already failed.  It runs the mutant's killer, the test file or test
function named beside it, first, with -x.  The mutant is
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
    Mutant("model.py", "(-sign if (j, k) == pair else sign)", "(-sign if (k, j) == pair else sign)",
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
    Mutant("fileio.py", "PROB_LABELS, (2, 3, 5))", "PROB_LABELS, (2, 4, 5))",
           "a box label's text tokens are cut at the wrong boundaries",
           "tests/test_fileio.py::test_box_fixtures_match_builders"),
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
    Mutant("fileio.py", '_VALUE = "%.17g"', '_VALUE = "%.16g"',
           "16 digits do not round-trip every float",
           "tests/test_fileio.py::test_box_text_roundtrip_is_exact"),
    Mutant("quantum.py", "(1.0, m, m, m) for _", "(1.0, m, m, -m) for _",
           "the Born rule measures along each direction mirrored in the x-y plane",
           "tests/test_quantum.py::test_local_unitaries_rotate_the_measurement_directions"),
    Mutant("quantum.py", '"mac,nbd->mnabcd"', '"mac,nbd->nmabcd"',
           "the correlation tensor comes out transposed, A's Paulis on B's qubit",
           "tests/test_quantum.py::test_local_unitaries_rotate_the_measurement_directions"),
    Mutant("quantum.py", "t = math.atan2(s2, s1)", "t = math.atan2(s1, s2)",
           "maximize_chsh splits the b directions at the wrong angle",
           "tests/test_quantum.py::test_maximize_degenerate_blocks"),
    Mutant("cli.py", "family = solve.add_mutually_exclusive_group()", "family = solve",
           "solve takes --free with --perfect-correlation and reads its input before failing",
           "tests/test_cli.py::"
           "test_free_and_perfect_correlation_exclude_each_other_before_any_input_is_read"),
    Mutant("cli.py",
           'flag = "--free" if args.perfect_correlation is None else "--perfect-correlation"',
           'flag = "--free"',
           "an overflow at --perfect-correlation names --free",
           "tests/test_cli.py::test_weights_whose_total_negativity_overflows_are_usage_errors"),
    Mutant("cli.py", 'if not (action.option_strings and arg_strings == ["--"]):', "if True:",
           "--eps=-- reaches the flag as [] before Python 3.13",
           "tests/test_cli.py::test_a_double_dash_flag_value_is_a_usage_error"),
    Mutant("fileio.py", '"-": "-−"', '"-": "-"',
           "a label spelled with U+2212 is rejected",
           "tests/test_fileio.py::test_unicode_minus_accepted_on_read"),
    Mutant("fileio.py", "if values[index] is not None:", "if False:",
           "a repeated label overwrites the first",
           "tests/test_fileio.py::test_each_fault_has_one_message_for_both_kinds_and_formats"),
    Mutant("cli.py", "if abs(total - 1.0) > args.eps:", "if abs(total - 1.0) > 1.0:",
           "forward stops warning on measures that sum to 0.5",
           "tests/test_cli.py::test_forward_warns_on_measures_that_do_not_sum_to_1"),
    Mutant("model.py", "return type(i) is int or isinstance(i, np.integer)",
           "return isinstance(i, (int, np.integer))",
           "a bool passes as an integer: deterministic_box(True) gives strategy 1's box",
           "tests/test_model.py::test_deterministic_box_rejects_anything_but_a_strategy_index"),
    Mutant("cli.py", "*args, allow_abbrev=False, **kwargs", "*args, allow_abbrev=True, **kwargs",
           "a unique prefix of a long option is read as the option",
           "tests/test_cli.py::test_a_prefix_of_a_long_option_is_a_usage_error"),
    Mutant("cli.py", "if value < 0.0:", "if value < -1.0:",
           "--eps -1e-3 passes the parser and dies in model with a traceback",
           "tests/test_cli.py::test_a_bad_flag_value_is_an_argparse_usage_error"),
    Mutant("cli.py", "if not cmath.isfinite(amplitude):", "if False:",
           "--state nan,0,0,0 passes the parser and exits 1, not 2",
           "tests/test_cli.py::test_a_bad_flag_value_is_an_argparse_usage_error"),
    Mutant("negativity.py", "np.round(64.0 *", "np.round(8.0 *",
           "witness entries rounded to 1/8 miss the odd multiples of 1/16",
           "tests/test_negativity.py::test_the_witness_matrices_satisfy_the_theorem_exactly"),
    Mutant("negativity.py", "(_STRATEGY_CHSH > 0)", "(_STRATEGY_CHSH < 0)",
           "the witness puts the local rest on the C_v = -2 strategies, off the facet",
           "tests/test_negativity.py::test_the_witness_matrices_satisfy_the_theorem_exactly"),
    Mutant("negativity.py", "- 2.0 * np.eye(1, 9))", "+ 2.0 * np.eye(1, 9))",
           "mu is (delta_v + 2) / 2, so the witness mixes in too much of the PR box",
           "tests/test_negativity.py::test_the_witness_matrices_satisfy_the_theorem_exactly"),
    Mutant("model.py", "np.round(2.0 * np.linalg.lstsq(a, b, rcond=None)[0]) / 2.0",
           "np.round(np.linalg.lstsq(a, b, rcond=None)[0])",
           "the relation table rounds to integers, losing every dependent entry's 1/2",
           "tests/test_model.py::test_box_embedding_is_an_exact_half_integer_least_squares_solution"),
    Mutant("model.py", 'return abs(self.deltas[_index(v, 8, "variant")]) > 2.0 + self.eps',
           'return abs(self.deltas[_index(v, 8, "variant")]) >= 2.0 + self.eps',
           "a variant at |delta| = 2 + eps, as on every deterministic box at eps 0, is violated",
           "tests/test_model.py::test_every_deterministic_strategy_saturates_every_variant"),
    Mutant("model.py", "return self.max_abs_delta > 2.0 + self.eps",
           "return self.max_abs_delta >= 2.0 + self.eps",
           "any_violation holds at max |delta| = 2 + eps",
           "tests/test_model.py::test_every_deterministic_strategy_saturates_every_variant"),
    Mutant("cli.py", "if abs(total - 1.0) > args.eps:", "if abs(total - 1.0) >= args.eps:",
           "forward --eps 0 warns on measures that sum to exactly 1",
           "tests/test_cli.py::test_forward_at_eps_0_does_not_warn_on_measures_that_sum_to_1"),
    Mutant("solver.py", "if not all(map(math.isfinite, m.tolist())):", "if False:",
           "a family product that overflows returns inf weights, and solve dies with a traceback",
           "tests/test_cli.py::test_free_weights_whose_solution_overflows_are_usage_errors"),
    Mutant("negativity.py",
           "if not (math.isfinite(negativity) and all(map(math.isfinite, witness.tolist()))):",
           "if False:",
           "a witness that overflows is returned as 16 NaN weights with min negativity 0",
           "tests/test_cli.py::test_a_witness_that_overflows_is_a_domain_failure"),
    Mutant("solver.py", "np.flatnonzero(FORWARD_MATRIX[[1, 2]].sum(axis=0))",
           "np.flatnonzero(FORWARD_MATRIX[[0, 3]].sum(axis=0))",
           "the face pins the 8 strategies that agree on (a1, b1), not the 8 that disagree",
           "tests/test_solver.py::test_perfect_correlation_deterministic"),
    Mutant("quantum.py",
           "    def __setattr__(self, name, value=None):    # the cached R alone enters __dict__\n"
           '        raise AttributeError(f"cannot assign to field {name!r}")\n'
           "    __delattr__ = __setattr__\n", "",
           "a state takes new attributes, and its cached correlation tensor can be replaced",
           "tests/test_records.py::test_records_are_immutable_values"),
    Mutant("quantum.py", "    __slots__ = ()\n", "",
           "a measurement direction gets a __dict__ and takes new attributes",
           "tests/test_records.py::test_records_are_immutable_values"),
    Mutant("quantum.py", "if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):",
           "if False:",
           "a NaN direction passes as a unit vector, as |n|^2 - 1 = NaN is not above the tolerance",
           "tests/test_quantum.py::test_direction_validation_messages"),
    Mutant("cli.py", "from . import fileio, model\n", "from . import fileio, model, quantum\n",
           "every call loads quantum, which only qm runs",
           "tests/test_imports.py::test_each_subcommand_loads_only_what_it_runs"),
    Mutant("cli.py", "from . import fileio, model\n", "from . import fileio, model, negativity\n",
           "every call loads negativity and solver, which only negativity runs",
           "tests/test_imports.py::test_each_subcommand_loads_only_what_it_runs"),
    Mutant("cli.py", "from . import fileio, model\n", "from . import fileio, model, solver\n",
           "every call loads solver, which only solve and negativity run",
           "tests/test_imports.py::test_each_subcommand_loads_only_what_it_runs"),
    Mutant("cli.py", "import cmath\n", "import cmath\nimport json\n",
           "every call loads json, which only a --format json report needs",
           "tests/test_imports.py::test_each_subcommand_loads_only_what_it_runs"),
    Mutant("fileio.py", "import itertools\n", "import itertools\nimport json\n",
           "every call loads json, which only a JSON document needs",
           "tests/test_imports.py::test_each_subcommand_loads_only_what_it_runs"),
    Mutant("__init__.py", "package.update((n, values[n]) for n in names)",
           "package.update((n, values[n]) for n in names if n == name)",
           "the first read binds only the name read, so each later name calls __getattr__",
           "tests/test_imports.py::test_the_first_read_of_a_public_name_binds_them_all"),
    Mutant("__init__.py", '    package.pop("__getattr__", None)\n', "",
           "the package keeps __getattr__, and CPython never specializes a read of its names",
           "tests/test_imports.py::test_the_first_read_of_a_public_name_binds_them_all"),
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
             "-W", "error::RuntimeWarning", "--hypothesis-profile=mutants", target],
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
