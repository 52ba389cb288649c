"""Tests of the benchmark itself, at the ``ci`` profile (seconds each).

Run from the root of the checkout::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import spans

run.import_repro()

import suites  # noqa: E402
import svcsweep  # noqa: E402
from spans import LayerHooks, Tracer, model_classes  # noqa: E402

#: a seed the benchmark was never tuned on
HELD_OUT_SEED = 4242


def test_self_times_tile_nested_spans():
    tracer = Tracer()
    start = time.perf_counter()
    outer = tracer.open("outer")
    time.sleep(0.002)
    with tracer.span("inner"):
        time.sleep(0.002)
    tracer.close(outer, pre_name="outer.pre")
    elapsed = time.perf_counter() - start
    assert set(tracer.self_s) == {"outer", "outer.pre", "inner"}
    assert all(v >= 0 for v in tracer.self_s.values())
    assert tracer.self_s["outer.pre"] >= 0.002
    assert tracer.covered_s() == pytest.approx(elapsed, abs=1e-3)


def test_traced_spans_and_remainder_add_up_to_the_pass():
    profile = suites.seeded_profile("ci", HELD_OUT_SEED)
    p = suites.run_pass(profile, suites.SUITES["fig14-sparse"],
                        suites.TRACED)
    assert p.errors == 0
    uncovered = p.wall_s - p.tracer.covered_s()
    assert 0 <= uncovered < 0.01 * p.wall_s
    for v in suites.VARIANTS:
        assert p.tracer.self_s[f"sim.run.{v}"] > 0
        assert p.tracer.counts[f"sim.events.{v}"] > 0
    assert p.tracer.self_s["data.reference"] > 0


def test_sliced_kernel_runs_give_identical_results():
    profile = suites.seeded_profile("ci", HELD_OUT_SEED)
    labels = ("TPC-H-19", "graphpulse")
    bare = suites.run_pass(profile, labels, suites.BARE)
    timed = suites.run_pass(profile, labels, suites.TIMED)
    assert suites._digests(timed) == suites._digests(bare)
    assert ("graphpulse", "sim.run.xcache#1") in timed.tracer.scoped_s


def test_hooks_cover_every_alias_and_are_removed_after_a_pass():
    from repro.data import csr
    from repro.dsa import spgemm
    from repro.harness import suite as suite_mod
    from repro.sim.kernel import KERNELS

    def patched_points():
        owners = model_classes() + list(KERNELS.values())
        return ({(cls, attr): vars(cls).get(attr) for cls in owners
                 for attr in ("__init__", "run")},
                suite_mod.dense_spgemm_input, spgemm.spgemm_gustavson,
                csr.spgemm_gustavson)

    before = patched_points()
    with LayerHooks(Tracer(), counters=False) as hooks:
        assert hooks.missing == []
        assert spgemm.spgemm_gustavson is csr.spgemm_gustavson
        assert spgemm.spgemm_gustavson is not before[2]
    assert patched_points() == before
    suites.run_pass(suites.seeded_profile("ci", HELD_OUT_SEED),
                    ("dasx",), suites.TRACED)
    assert patched_points() == before


def test_missing_hook_target_is_reported_and_fails_the_pass(monkeypatch):
    monkeypatch.setattr(spans, "FUNCTION_HOOKS", spans.FUNCTION_HOOKS + (
        ("repro.data.csr", "no_such_solver", "data.reference"),))
    labels = ("dasx",)
    profile = suites.seeded_profile("ci", HELD_OUT_SEED)
    bare = suites.run_pass(profile, labels, suites.BARE)
    timed = suites.run_pass(profile, labels, suites.TIMED)
    assert timed.missing == ["repro.data.csr:no_such_solver"]
    required = suites.REQUIRED_SPANS["fig14-hash"]
    assert suites._check([bare, timed], labels, required)[1] == 1


def test_documented_layer_reading_zero_fails_the_pass():
    labels = ("dasx",)
    profile = suites.seeded_profile("ci", HELD_OUT_SEED)
    bare = suites.run_pass(profile, labels, suites.BARE)
    timed = suites.run_pass(profile, labels, suites.TIMED)
    assert suites._check([bare, timed], labels,
                         suites.REQUIRED_SPANS["fig14-hash"])[1] == 0
    # dasx runs no reference solver, which fig14-sparse requires
    assert suites.unreached(timed, suites.REQUIRED_SPANS["fig14-sparse"]) \
        == ["data.reference"]
    assert suites._check([bare, timed], labels,
                         suites.REQUIRED_SPANS["fig14-sparse"])[1] == 1


def test_hermetic_env_unsets_and_records(monkeypatch):
    monkeypatch.setenv("REPRO_DRAM_BATCH", "0")
    unset = run.hermetic_env()
    assert unset["REPRO_DRAM_BATCH"] == "0"
    assert set(unset) == set(run.HERMETIC_ENV)
    assert "REPRO_DRAM_BATCH" not in os.environ


def _assert_complete(outcome, trace):
    assert outcome.failed == 0
    if trace:
        assert outcome.layers and set(outcome.layers) <= set(run.LAYER_UNITS)
    else:
        assert set(outcome.e2e) == set(run.E2E_UNITS)
        assert all(v > 0 for v in outcome.e2e.values())
    line = run.result_line(outcome, trace)
    assert line["correct"]
    units = run.LAYER_UNITS if trace else run.E2E_UNITS
    assert set(line["metrics"]) == set(units)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(suites.SUITES))
def test_suite_smoke_on_a_held_out_seed(workload, trace):
    outcome = suites.run_suite(workload, HELD_OUT_SEED, 0, trace,
                               base="ci", min_passes=1)
    _assert_complete(outcome, trace)


def test_svc_smoke_on_a_held_out_seed():
    outcome = svcsweep.run_svc(HELD_OUT_SEED, 0, True, points=3,
                               min_sweeps=1)
    _assert_complete(outcome, False)
    _assert_complete(outcome, True)
    assert outcome.layers["svc.store_hits"] \
        + outcome.layers["svc.coalesced"] == 1


def test_reap_leaves_no_process_behind():
    from multiprocessing import active_children, resource_tracker

    svcsweep.run_svc(HELD_OUT_SEED, 0, False, points=3, min_sweeps=1)
    run.reap_children()
    assert active_children() == []
    assert resource_tracker._resource_tracker._pid is None


def test_cli_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "fig14-hash",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode not in (0, 1)
    assert '"correct"' not in proc.stdout
