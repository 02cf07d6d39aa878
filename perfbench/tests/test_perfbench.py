"""Tests of the benchmark itself: inputs, oracles, metric names, tracing."""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, inputs, run  # noqa: E402
from perfbench import reference as ref  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("workload", ["boxes", "qm", "cli"])
def test_same_seed_gives_byte_identical_inputs(workload):
    def dump(seed, block):
        return json.dumps(inputs.serialize(inputs.block(workload, seed, block)))

    assert dump(7, 3) == dump(7, 3)
    assert dump(7, 3) != dump(8, 3)
    assert dump(7, 3) != dump(7, 4)


def test_box_block_has_the_stated_mix():
    items = inputs.box_block(5, 0)
    counts = {kind: sum(it.kind == kind for it in items) for kind, _ in inputs.BOX_MIX}
    assert counts == dict(inputs.BOX_MIX)
    assert inputs.shares(items)["vertex"] == pytest.approx(24 / 96)
    for item in items:
        consistent = (abs(item.p.reshape(4, 4).sum(axis=1) - 1).max() < 1e-12
                      and abs(ref.F @ np.linalg.lstsq(ref.F, item.p, rcond=None)[0] - item.p).max() < 1e-12)
        assert consistent == item.consistent, item.kind


def test_state_and_cli_blocks_have_the_stated_mix():
    assert sorted(it.kind for it in inputs.state_block(5, 0)) == sorted(inputs.QM_MIX)
    assert [it.kind for it in inputs.cli_block(5, 0)] == list(inputs.CLI_MIX)


def test_reference_matches_known_boxes():
    assert ref.max_abs_chsh(ref.pr_box(0)) == pytest.approx(4.0)
    assert ref.min_negativity_closed_form(ref.pr_box(5)) == pytest.approx(0.5)
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    box = ref.born_box(phi, *(ref.xz_direction(t) for t in (0, 90, 45, -45)))
    assert ref.max_abs_chsh(box) == pytest.approx(2 * np.sqrt(2))
    assert ref.max_chsh_closed_form(phi) == pytest.approx(2 * np.sqrt(2))
    assert checks.GRID_ALLOWANCE == pytest.approx(2 * np.radians(5.0) ** 2)


def test_checker_flags_a_perturbed_witness():
    import quasilocal as q

    p = inputs.box_block(3, 0)[0].p
    result = q.min_negativity(p)
    assert checks.negativity_problems(result.min_negativity, result.witness, p) == []
    planted = result.witness.copy()
    planted[4] += 1e-6
    assert checks.negativity_problems(result.min_negativity, planted, p)


def test_checker_flags_a_lowered_best_delta():
    import quasilocal as q

    amps = np.array([0.6, 0.0, 0.0, 0.8], dtype=complex)   # real: optimum in the x-z plane
    state = q.TwoQubitState(tuple(amps))
    search = q.maximize_chsh(state, 15.0)
    p = q.generate_probability_set(q.QubitScenario(state, *search.directions))
    neg = q.min_negativity(p)
    dirs = [(d.x, d.y, d.z) for d in search.directions]
    args = (amps, search.best_delta, dirs, p, q.chsh_report(p).max_abs_delta,
            neg.min_negativity, neg.witness)
    assert checks.qm_problems(*args)[0] == []
    lowered = (amps, search.best_delta - 0.1, *args[2:])
    assert checks.qm_problems(*lowered)[0]


def test_pipeline_outputs_pass_their_oracles():
    import quasilocal as q

    runner = run.Boxes(q)
    loop = run.Loop(runner)
    loop.run(inputs.box_block(11, 0)[:40])
    assert loop.failures == {}
    assert len(loop.latencies) == 40


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == dict(run.END_TO_END)
    assert layer == run.per_layer_units()
    for name in [*e2e, *layer, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100)))[0] == 90.0
    assert run.tail(list(range(1000))) == (90.0, 899)   # capped at p90
    assert run.tail(list(range(60)))[0] == 75.0
    assert run.tail(list(range(5)))[0] == 50.0


def test_children_inherit_thread_pinning():
    """The benchmark pins the thread pools even when its caller set them."""
    probe = f"""
import subprocess, sys
sys.path.insert(0, {str(ROOT)!r})
from perfbench import run
code = "import os, sys; print(*(os.environ[v] for v in sys.argv[1:]))"
subprocess.run([sys.executable, "-c", code, *run.THREAD_VARS], env=run.CHILD_ENV, check=True)
"""
    env = {**run.CHILD_ENV, **{var: "4" for var in run.THREAD_VARS}}
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["1", "1", "1"]


def test_tracer_wraps_every_lookup_site_and_restores_it():
    import quasilocal as q
    from quasilocal import model, negativity

    original = model.chsh
    tracer = Tracer(q)
    tracer.install()
    try:
        assert negativity.chsh is model.chsh is not original
        with tracer.item(0):
            q.min_negativity(q.uniform_box())
    finally:
        tracer.uninstall()
    assert negativity.chsh is original and model.chsh is original
    assert tracer.calls("model.chsh") == 8          # all through negativity.chsh
    assert tracer.calls("negativity.no_such_function") == 0
    total = sum(s for _, s in tracer.stats.values())
    assert total == tracer.root_ns                   # self times partition the item
    assert {span[3] for span in tracer.spans} >= {"bench.item", "negativity.min_negativity"}


def test_xz_closed_form_shows_the_coplanar_gap():
    amps = np.array([1, 0, 0, 1j], dtype=complex) / np.sqrt(2)   # (|00> + i|11>)/sqrt(2)
    assert ref.max_chsh_closed_form(amps) == pytest.approx(2 * np.sqrt(2))
    assert ref.max_chsh_xz_closed_form(amps) == pytest.approx(2.0)


def test_xz_defect_is_measured_not_failed():
    import quasilocal as q

    amps = np.array([1, 0, 0, 1j], dtype=complex) / np.sqrt(2)
    state = q.TwoQubitState(tuple(amps))
    search = q.maximize_chsh(state, 15.0)
    p = q.generate_probability_set(q.QubitScenario(state, *search.directions))
    neg = q.min_negativity(p)
    dirs = [(d.x, d.y, d.z) for d in search.directions]
    found, shortfall = checks.qm_problems(amps, search.best_delta, dirs, p,
                                          q.chsh_report(p).max_abs_delta,
                                          neg.min_negativity, neg.witness)
    assert found == []
    assert shortfall == pytest.approx(2 * np.sqrt(2) - 2.0, abs=checks.GRID_ALLOWANCE)
