"""Benchmark of the `quasilocal` package.

    python3 perfbench/run.py --workload boxes|qm|cli|all --seed N --seconds S --trace 0|1

Run from the root of a source tree: the package is imported from `src/`.
Each workload is a closed loop with one client in one process; the `cli`
workload starts one child process at a time.  Inputs come from
`perfbench.inputs`, outputs are checked by `perfbench.checks` outside the
timed region, and every miss counts as a failed item.

With `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
runs the same items untraced and then traced, and prints the per-layer
metrics from `perfbench.tracing`.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The lines before
it give every metric with its unit and sample count, the failed share and
the class mix.  `--workload all` runs the three workloads one after another,
each in its own process, and prefixes the metric names with the workload.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:        # before numpy loads; children inherit os.environ
    os.environ[_var] = "1"

import argparse
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import checks, inputs, reference as ref  # noqa: E402
from perfbench.tracing import SPAN_ITEMS, Tracer  # noqa: E402

WORKLOADS = ("boxes", "qm", "cli")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120
#: Share of --seconds spent on the untraced pass of a traced run.
UNTRACED_SHARE = 1 / 3
#: Fixed subsample of consistent boxes re-solved by scipy: every 50th, at most 40.
LINPROG_EVERY, LINPROG_MAX = 50, 40
#: Tail percentiles, capped at p90: on a shared host a p99 of millisecond
#: items measures preemption by other tenants more than the program.
TAIL_LADDER = (50.0, 75.0, 90.0)
PIPE_TAIL = ("pipe_solve", "pipe_forward")

#: Code a fresh interpreter runs before its first item could start: import
#: plus one pass through the workload's calls, which does any lazy set-up.
SETUP_CODE = {
    "boxes": "import quasilocal as q\n"
             "p = q.uniform_box()\n"
             "q.check_consistency(q.parse_box(q.format_box(p)))\n"
             "q.chsh_report(p); q.solve(p)\n"
             "q.format_measures(q.min_negativity(p).witness)\n",
    "qm": "import quasilocal as q\n"
          "s = q.singlet(); r = q.maximize_chsh(s, 45.0)\n"
          "p = q.generate_probability_set(q.QubitScenario(s, *r.directions))\n"
          "q.chsh_report(p); q.min_negativity(p)\n",
    "cli": "import quasilocal.cli as c\nc.build_parser()\n",
}
READY = "import sys\nsys.stdout.write('ready\\n')\nsys.stdout.flush()\n"

#: End-to-end metrics in the JSON result.  latency_p50_ms and failed_share are
#: printed too, but left out: p50 follows the host's speed phases more than
#: any bound allows, and failed_share is 0 on two workloads (see METRICS.md).
END_TO_END = (("setup_s", "s"), ("throughput_per_s", "1/s"),
              ("latency_tail_ms", "ms"), ("rss_peak_mb", "MB"))

#: Per-layer metrics: (module, function, kind) with kind self_us or calls.
LAYER_FUNCTIONS = (
    ("negativity", "min_negativity", "self_us"),
    ("negativity", "build_negativity_lp", "self_us"),
    ("negativity", "solve_lp", "self_us"),
    ("negativity", "chsh_lower_bound", "self_us"),
    ("model", "check_consistency", "self_us"),
    ("model", "chsh_report", "self_us"),
    ("model", "forward_map", "self_us"),
    ("model", "chsh", "self_us"),
    ("model", "check_normalization", "self_us"),
    ("model", "chsh", "calls"),
    ("model", "check_normalization", "calls"),
    ("solver", "solve", "self_us"),
    ("solver", "independent_probs", "self_us"),
    ("solver", "solution_affine_map", "self_us"),
    ("solver", "general_solution", "self_us"),
    ("solver", "general_solution", "calls"),
    ("quantum", "maximize_chsh", "self_us"),
    ("quantum", "generate_probability_set", "self_us"),
    ("quantum", "born_probability", "self_us"),
    ("quantum", "born_probability", "calls"),
    ("fileio", "parse_box", "self_us"),
    ("fileio", "format_box", "self_us"),
    ("fileio", "format_measures", "self_us"),
)
LAYERS = ("fileio", "model", "solver", "negativity", "quantum", "cli")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {f"{m}.{f}.{kind}": "us" if kind == "self_us" else "count"
             for m, f, kind in LAYER_FUNCTIONS}
    units["quantum.chsh_shortfall_max"] = "1"
    units["quantum.xz_defect_share"] = "share"
    units["cli.startup_ms"] = "ms"
    units["cli.main.self_ms"] = "ms"
    units.update({f"{layer}.share": "share" for layer in LAYERS})
    units["trace.overhead_us"] = "us"
    units["trace.overhead_pct"] = "%"
    return units


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the source tree first on the path,
    and the thread pinning this process set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


CHILD_ENV = child_env()


def say(line: str) -> None:
    print(line, flush=True)


# ---------------------------------------------------------------------------
# Workloads: execute one item (timed) and check its output (untimed)
# ---------------------------------------------------------------------------

class Boxes:
    """parse_box -> check_consistency -> chsh_report -> solve -> min_negativity
    -> format_measures, one box document at a time."""

    def __init__(self, q):
        self.q = q
        self.linprog_sample = []    # (item number, class, box, reported minimum)

    def execute(self, item, prev):
        q = self.q
        p = q.parse_box(item.doc)
        verdict = q.check_consistency(p)
        if any(verdict.values()):
            return p, verdict, None
        report = q.chsh_report(p)
        m = q.solve(p)
        neg = q.min_negativity(p)
        return p, verdict, (report, m, neg, q.format_measures(neg.witness))

    def problems(self, n, item, out):
        p, verdict, rest = out
        found = checks.same_vector("parsed box", p, item.p, 0.0)
        if not item.consistent:
            return found + checks.rejection_problems(item.kind, verdict)
        if rest is None:
            bad = [v.describe() for vs in verdict.values() for v in vs]
            return found + [f"consistent {item.kind} box rejected: {bad[:2]}"]
        report, m, neg, text = rest
        found += checks.chsh_problems(report.deltas, item.p)
        found += checks.model_problems("solve", m, item.p)
        found += checks.negativity_problems(neg.min_negativity, neg.witness, item.p)
        found += checks.same_vector("formatted witness", checks.read_measures(text),
                                    neg.witness, 0.0)
        if n % LINPROG_EVERY == 0 and len(self.linprog_sample) < LINPROG_MAX:
            self.linprog_sample.append((n, item.kind, item.p, neg.min_negativity))
        return found

    def finish(self, failures):
        """scipy cross-check of the subsample, after the timed loop."""
        for n, kind, p, reported in self.linprog_sample:
            expected = checks.linprog_min_negativity(p)
            if not abs(expected - reported) <= checks.LINPROG_TOL:
                failures[n] = (kind, [f"linprog minimum {expected!r}, reported {reported!r}"])
        return f"linprog cross-check on {len(self.linprog_sample)} boxes"


class Qm:
    """maximize_chsh at the default resolution -> generate_probability_set at
    the returned directions -> chsh_report -> min_negativity, one state at a time."""

    def __init__(self, q):
        self.q = q
        self.shortfalls = []

    def execute(self, item, prev):
        q = self.q
        state = q.TwoQubitState(tuple(complex(a) for a in item.amplitudes))
        search = q.maximize_chsh(state)
        p = q.generate_probability_set(q.QubitScenario(state, *search.directions))
        return search, p, q.chsh_report(p), q.min_negativity(p)

    def problems(self, n, item, out):
        search, p, report, neg = out
        dirs = [(d.x, d.y, d.z) for d in search.directions]
        found, shortfall = checks.qm_problems(
            item.amplitudes, search.best_delta, dirs, p, report.max_abs_delta,
            neg.min_negativity, neg.witness)
        self.shortfalls.append(shortfall)
        return found

    def defect_share(self) -> float:
        """Share of states the x-z restriction leaves short of the 3-D closed
        form by more than the grid allowance (ROADMAP item 1)."""
        short = sum(s > checks.GRID_ALLOWANCE for s in self.shortfalls)
        return short / len(self.shortfalls) if self.shortfalls else 0.0

    def finish(self, failures):
        short = sum(s > checks.GRID_ALLOWANCE for s in self.shortfalls)
        return (f"x-z-plane defect: {short} of {len(self.shortfalls)} states short of the "
                f"3-D closed form by more than the allowance {checks.GRID_ALLOWANCE:.4f} "
                f"(5-degree grid), max shortfall {max(self.shortfalls):.4f}")


class Cli:
    """One `python -m quasilocal` child at a time, document on stdin; the
    pipe stages read the previous stage's output."""

    def execute(self, item, prev):
        stdin = item.stdin if item.stdin is not None else prev[1]
        done = subprocess.run([sys.executable, "-m", "quasilocal", *item.args],
                              input=stdin, capture_output=True, text=True,
                              env=CHILD_ENV, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        return done.returncode, done.stdout, done.stderr

    def problems(self, n, item, out):
        code, stdout, stderr = out
        if code != item.expected_exit:
            return [f"{item.kind} {item.args[0]}: exit {code}, expected "
                    f"{item.expected_exit}: {stderr.strip()[-200:]}"]
        kind, box = item.kind, item.box
        if kind == "validate":
            last = stdout.strip().splitlines()[-1:] or [""]
            return [] if last[0].startswith("consistent") else [f"validate said {last[0]!r}"]
        if kind == "chsh":
            got = checks.read_field(stdout, "max |delta| = ")
            want = ref.max_abs_chsh(box)
            return [] if abs(got - want) <= checks.EXACT_TOL else [f"max |delta| {got!r}, want {want!r}"]
        if kind in ("solve", "pipe_solve"):
            return checks.model_problems(kind, checks.read_measures(stdout), box)
        if kind in ("forward", "qm", "pipe_qm", "pipe_forward"):
            return checks.same_vector(f"{kind} box", checks.read_box(stdout), box)
        if kind == "negativity":
            return checks.negativity_problems(checks.read_field(stdout, "min negativity : "),
                                              checks.read_measures(stdout), box)
        return []

    def finish(self, failures):
        return "exit codes and outputs checked per invocation"


class CliInProcess(Cli):
    """The same invocations through `cli.main(argv)` in this process, for tracing."""

    def __init__(self, cli):
        self.cli = cli

    def execute(self, item, prev):
        stdin = item.stdin if item.stdin is not None else prev[1]
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), io.StringIO(), io.StringIO()
        try:
            code = self.cli.main(item.args)
        except SystemExit as exc:
            code = exc.code
        finally:
            out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
            sys.stdin, sys.stdout, sys.stderr = saved
        return code, out, err


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class Loop:
    """Runs items in order, timing each, until the deadline or the item list ends."""

    def __init__(self, runner, tracer=None, keep_items=False):
        self.runner = runner
        self.tracer = tracer
        self.latencies: list[float] = []
        self.kinds: Counter = Counter()
        self.failures: dict[int, tuple[str, list[str]]] = {}   # item number -> (class, problems)
        self.items: list | None = [] if keep_items else None

    def run(self, items, seconds: float | None = None):
        deadline = time.perf_counter() + seconds if seconds is not None else None
        prev = None
        for n, item in enumerate(items):
            # The deadline never splits a pipe; at least one item runs.
            if (deadline is not None and n > 0 and item.kind not in PIPE_TAIL
                    and time.perf_counter() >= deadline):
                break
            error = None
            t0 = time.perf_counter()
            try:
                if self.tracer is None:
                    out = self.runner.execute(item, prev)
                else:
                    with self.tracer.item(n):
                        out = self.runner.execute(item, prev)
            except Exception as exc:   # any exception is a failed item
                error, out = exc, (None, "", "")
            self.latencies.append(time.perf_counter() - t0)
            if self.items is not None:
                self.items.append(item)
            self.kinds[item.kind] += 1
            found = ([f"{type(error).__name__}: {error}"] if error is not None
                     else self.runner.problems(n, item, out))
            if found:
                self.failures[n] = (item.kind, found)
            prev = out

    @property
    def failed(self) -> int:
        return len(self.failures)


def item_stream(workload: str, seed: int):
    block = 0
    while True:
        yield from inputs.block(workload, seed, block)
        block += 1


def tail(latencies):
    """(q, nearest-rank q-th percentile) for the highest q of TAIL_LADDER
    with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    q = max((q for q in TAIL_LADDER if n * (100.0 - q) / 100.0 >= 10),
            default=TAIL_LADDER[0])
    return q, ordered[max(0, math.ceil(q / 100.0 * n) - 1)]


def measure_setup(workload: str) -> list[float]:
    """Seconds from starting a fresh interpreter until it is ready for its
    first item, SETUP_REPEATS times, one child at a time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE[workload] + READY],
                              stdout=subprocess.PIPE, env=CHILD_ENV, cwd=ROOT,
                              text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child for {workload} failed (exit {proc.returncode})")
        times.append(t1 - t0)
    return times


def measure_startup() -> list[float]:
    """Seconds for a fresh interpreter to run `import quasilocal.cli` and exit."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import quasilocal.cli"], check=True,
                       env=CHILD_ENV, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return times


def make_runner(workload, q, in_process=False):
    if workload == "boxes":
        return Boxes(q)
    if workload == "qm":
        return Qm(q)
    return CliInProcess(importlib.import_module("quasilocal.cli")) if in_process else Cli()


def warm_up(workload, seed, q, in_process=False):
    """One item from another seed, so lazy set-up is done before timing."""
    Loop(make_runner(workload, q, in_process)).run(
        inputs.block(workload, seed + 1_000_003, 0)[:1])


def report_loop(loop: Loop, label: str) -> None:
    n = len(loop.latencies)
    mix = ", ".join(f"{k} {c}" for k, c in sorted(loop.kinds.items()))
    say(f"{label}: {n} items ({mix}); {loop.failed} failed")
    by_kind = Counter(kind for kind, _ in loop.failures.values())
    if by_kind:
        say("  failed by class: " + ", ".join(f"{k} {c}/{loop.kinds[k]}"
                                              for k, c in sorted(by_kind.items())))
    for i in sorted(loop.failures)[:3]:
        kind, found = loop.failures[i]
        say(f"  item {i} ({kind}): {'; '.join(found)[:300]}")


def end_to_end(workload, seed, seconds, q):
    setups = measure_setup(workload)
    warm_up(workload, seed, q)
    runner = make_runner(workload, q)
    loop = Loop(runner)
    loop.run(item_stream(workload, seed), seconds)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    note = runner.finish(loop.failures)

    lat = loop.latencies
    n = len(lat)
    pct, tail_s = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": n / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "rss_peak_mb": rss_mb,
    }
    report_loop(loop, f"{workload} seed {seed}")
    say(f"  {note}")
    say(f"  setup_s           {metrics['setup_s']:.4f} s    median of {len(setups)} fresh interpreters")
    say(f"  throughput_per_s  {metrics['throughput_per_s']:.4f} 1/s  {n} items in {sum(lat):.3f} s timed")
    say(f"  latency_p50_ms    {metrics['latency_p50_ms']:.4f} ms   {n} samples")
    say(f"  latency_tail_ms   {metrics['latency_tail_ms']:.4f} ms   p{pct:g} of {n} samples")
    say(f"  failed_share      {loop.failed / n:.4f}      {loop.failed} of {n} items")
    say(f"  rss_peak_mb       {rss_mb:.2f} MB   {'children' if workload == 'cli' else 'this process'}")
    return n, loop.failed, {name: {"value": metrics[name], "unit": unit}
                            for name, unit in END_TO_END}


def per_layer(workload, seed, seconds, q):
    startups = measure_startup()
    warm_up(workload, seed, q, in_process=True)
    untraced = Loop(make_runner(workload, q, in_process=True), keep_items=True)
    untraced.run(item_stream(workload, seed), seconds * UNTRACED_SHARE)
    items = untraced.items
    untraced_s = sum(untraced.latencies)

    runner = make_runner(workload, q, in_process=True)
    tracer = Tracer(q)
    tracer.install()
    try:
        traced = Loop(runner, tracer)
        traced.run(items)
    finally:
        tracer.uninstall()
    runner.finish(traced.failures)
    n = len(items)
    wall_ns = tracer.root_ns
    out = Path(ROOT, "perfbench", "out", f"trace-{workload}-seed{seed}.jsonl.gz")
    tracer.write_spans(out)

    metrics = {}
    for module, function, kind in LAYER_FUNCTIONS:
        name = f"{module}.{function}"
        value = tracer.self_ns(name) / 1e3 if kind == "self_us" else tracer.calls(name)
        metrics[f"{name}.{kind}"] = value / n
    shortfalls = getattr(runner, "shortfalls", [])
    metrics["quantum.chsh_shortfall_max"] = max(shortfalls) if shortfalls else 0.0
    metrics["quantum.xz_defect_share"] = runner.defect_share() if shortfalls else 0.0
    metrics["cli.startup_ms"] = statistics.median(startups) * 1e3
    main_calls = tracer.calls("cli.main")
    metrics["cli.main.self_ms"] = tracer.self_ns("cli.main") / 1e6 / main_calls if main_calls else 0.0
    for layer in LAYERS:
        metrics[f"{layer}.share"] = tracer.layer_self_ns(layer) / wall_ns
    metrics["trace.overhead_us"] = (wall_ns / 1e3 - untraced_s * 1e6) / n
    metrics["trace.overhead_pct"] = 100.0 * (wall_ns / 1e9 / untraced_s - 1.0)

    report_loop(traced, f"{workload} seed {seed} traced")
    layer_sum = sum(tracer.layer_self_ns(layer) for layer in LAYERS)
    say(f"  traced wall {wall_ns / 1e9:.3f} s over {n} items, untraced {untraced_s:.3f} s; "
        f"layer self times sum to {layer_sum / 1e9:.3f} s "
        f"({'within' if layer_sum <= wall_ns else 'OVER'} the traced wall)")
    present = set(tracer.names)
    absent = sorted({f"{m}.{f}" for m, f, _ in LAYER_FUNCTIONS} - present)
    if "cli.main" not in present:
        absent.append("cli.main")
    idle = sorted({f"{m}.{f}" for m, f, _ in LAYER_FUNCTIONS
                   if f"{m}.{f}" in present and not tracer.calls(f"{m}.{f}")})
    say(f"  absent from the package (reported as 0): {', '.join(absent) or 'none'}")
    say(f"  not called on this workload (reported as 0): {', '.join(idle) or 'none'}")
    say(f"  spans of the first {SPAN_ITEMS} items: {out.relative_to(ROOT)}")
    units = per_layer_units()
    for name, value in metrics.items():
        say(f"  {name:<42} {value:.6g} {units[name]}")
    return n, traced.failed, {name: {"value": metrics[name], "unit": units[name]}
                              for name in units}


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    attempted, failed, metrics = 0, 0, {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, env=CHILD_ENV, cwd=ROOT, timeout=900)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            say(line)
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quasilocal" / "__init__.py").is_file():
        print(f"error: no quasilocal package under {SRC}; run from a source tree",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    q = importlib.import_module("quasilocal")
    importlib.import_module("quasilocal.cli")
    measure = per_layer if args.trace else end_to_end
    attempted, failed, metrics = measure(args.workload, args.seed, args.seconds, q)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
