"""Mutation gate: every mutant in MUTANTS must make the test suite fail.

    python3 tests/mutants.py

A mutant is one textual replacement in one file of src/quasilocal.  For each,
the runner copies src/ to a temporary directory, replaces the old text, which
must occur exactly once, and runs `pytest -x` on tests/ with RuntimeWarning as
an error and PYTHONPATH pointing at the copy; tests/conftest.py derandomizes
Hypothesis, so a verdict does not depend on a random draw.  The mutant is
killed when pytest reports a failure or an error (exit 1 or 2), and survives
when it passes.  The suite runs once unmutated first and must pass there.
The run exits 1 if any mutant survives.  It needs only the standard library
beside the test suite's own requirements.

tests/test_mutants.py checks in tier-1 that each old text still occurs
exactly once, so a change that rewrites a mutated line fails there and has to
update this table.
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


MUTANTS = (
    Mutant("model.py", "for m, n in _OUTCOME_PAIRS)", "for n, m in _OUTCOME_PAIRS)",
           "PROB_EVENTS swaps the (+, -) and (-, +) entries of every block"),
    Mutant("model.py", "OUTCOMES = (PLUS, MINUS)", "OUTCOMES = (MINUS, PLUS)",
           "reversed OUTCOMES reorders both encoding tables"),
    Mutant("quantum.py", '{"A": 2, "B": 3}', '{"A": 3, "B": 2}',
           "flip_outcomes flips the other party's outcome axis"),
    Mutant("model.py", "return -1 if (j, k) == self.negated_pair else 1",
           "return -1 if (k, j) == self.negated_pair else 1",
           "wrong signs in the CHSH_MATRIX rows that negate a1b2 or a2b1"),
    Mutant("negativity.py", "_WITNESS.setflags(write=False)",
           "_WITNESS[0, 0, 0] += 1e-9\n_WITNESS.setflags(write=False)",
           "a witness matrix nudged by 1e-9 misses the box by 1e-9"),
    Mutant("solver.py", "if abs(p2) > eps or abs(p3) > eps:", "if abs(p2) > eps:",
           "perfect_correlation_solution accepts p3 != 0 and misses the box"),
    Mutant("model.py", "not -eps <= _sigmas(m).sigma1", "not -eps < _sigmas(m).sigma1",
           "the necessity verdict opens its interval at sigma1 = -eps"),
    Mutant("model.py", "    if not abs(total - 1.0) <= eps:", "    if abs(total - 1.0) > eps:",
           "a measure vector whose weight sum is NaN passes as normalized"),
    Mutant("model.py", "if not abs((m1 := v[a] + v[b] + 0.0) - (m2 := v[c] + v[d] + 0.0)) <= eps",
           "if abs((m1 := v[a] + v[b] + 0.0) - (m2 := v[c] + v[d] + 0.0)) > eps",
           "a marginal difference of NaN passes no-signaling"),
    Mutant("fileio.py", "s[3:5], s[5])", "s[3:5], s[2])",
           "a JSON box label reads B's outcome from A's slot"),
    Mutant("model.py", "if not -eps <= x <= high", "if not -eps <= x <= 1.0",
           "the range check drops its upper tolerance"),
    Mutant("model.py", "math.isfinite(eps) and eps >= 0.0", "math.isfinite(eps) and eps > 0.0",
           "eps = 0 is rejected"),
    Mutant("model.py", "((r[0] + r[1]) + (r[2] + r[3]))", "((r[0] + r[2]) + (r[1] + r[3]))",
           "_sum leaves numpy's pairwise order"),
    Mutant("model.py", 'np.errstate(over="ignore", invalid="ignore")', 'np.errstate(over="ignore")',
           "a product whose sums overflow to inf - inf warns"),
    Mutant("model.py", "return _product(FORWARD_MATRIX, m, sum(map(abs, m.tolist())))",
           "return FORWARD_MATRIX @ m",
           "forward_map warns when its image overflows"),
    Mutant("negativity.py", "x = 0.5 * (max(", "x = 0.25 * (max(",
           "Fine's model leaves the feasible interval of q"),
    Mutant("solver.py", "FREE_INDICES = (1, 2, 6,", "FREE_INDICES = (2, 1, 6,",
           "solve places m2 and m3 in each other's slots"),
    Mutant("fileio.py", 'return f"{value:.17g}"', 'return f"{value:.16g}"',
           "16 digits do not round-trip every float"),
    Mutant("quantum.py", "m * d.y, m * d.z)", "m * d.y, d.z)",
           "the Born rule ignores the outcome on the z component"),
    Mutant("quantum.py", "t = math.atan2(s2, s1)", "t = math.atan2(s1, s2)",
           "maximize_chsh splits the b directions at the wrong angle"),
    Mutant("cli.py", 'EXIT_USAGE, "--perfect-correlation takes --m16, not --free"',
           'EXIT_DOMAIN, "--perfect-correlation takes --m16, not --free"',
           "--perfect-correlation with --free exits 1, not 2"),
    Mutant("cli.py", 'flag = "--m16" if args.perfect_correlation else "--free"',
           'flag = "--free"',
           "an overflow at --m16 names --free"),
    Mutant("cli.py", "if args.m16 is not None:", "if False:",
           "--m16 without --perfect-correlation is ignored"),
    Mutant("cli.py", 'if not (action.option_strings and arg_strings == ["--"]):', "if True:",
           "--eps=-- reaches the flag as [] before Python 3.13"),
    Mutant("fileio.py", '_pattern_strategy(str(pattern), "")',
           '_pattern_strategy(str(pattern), "line 0: ")',
           "a bad JSON measure pattern names line 0"),
    Mutant("cli.py", "    if abs(total - 1.0) > eps:\n        print(f\"warning",
           "    if abs(total - 1.0) > 1.0:\n        print(f\"warning",
           "forward stops warning on measures that sum to 0.5"),
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


def suite_fails(mutant: Mutant | None) -> bool:
    """Whether the test suite fails on a copy of src/ with the mutant applied."""
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
             "-W", "error::RuntimeWarning", "tests"],
            cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1, 2):
        raise SystemExit(f"pytest exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return done.returncode != 0


def main() -> int:
    # a suite that fails unmutated (say, pytest is missing) would kill every mutant
    if suite_fails(None):
        raise SystemExit("the test suite fails on an unmutated copy of src/")
    survivors = []
    for i, mutant in enumerate(MUTANTS):
        start = time.perf_counter()
        verdict = "killed" if suite_fails(mutant) else "SURVIVED"
        if verdict == "SURVIVED":
            survivors.append(i)
        print(f"{i:2d} {verdict:<8} {time.perf_counter() - start:5.1f} s  "
              f"{mutant.file}: {mutant.reason}", flush=True)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
