"""End-to-end benchmark of the X-Cache reproduction.

Runs one workload through the same public entry points users call and
prints every metric by name with its unit, then, as the last line of
standard output, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from separate traced passes.
Run from the root of a checkout::

    python3 e2ebench/run.py --workload fig14-hash --seed 1 --seconds 40 --trace 0

Workloads: ``fig14-hash``, ``fig14-sparse`` (see ``suites.py``) and
``svc-sweep`` (see ``svcsweep.py``); ``NOTES.md`` says why each exists.
Exit status: 0 when every output check passed, 1 when one failed, 2 when
the checkout holds no ``repro`` sources to measure.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import multiprocessing.resource_tracker
import os
import pathlib
import platform
import sys
from typing import Dict, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: the benchmark's definition: workload and metric names, with units
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCH["workloads"])

#: knobs that change what is measured; unset (and recorded) before
#: ``repro`` is imported, so a stray setting cannot leak into a run
HERMETIC_ENV = ("REPRO_SUITE_CACHE", "REPRO_SVC_LEDGER",
                "REPRO_COMPILE_MODE", "REPRO_TRACE_THRESHOLD",
                "REPRO_MIN_FUSE_LEN", "REPRO_DRAM_BATCH")

#: seconds a child process gets to end by itself before it is killed
REAP_TIMEOUT_S = 5.0

E2E_UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


class NoSources(RuntimeError):
    """The checkout has no ``src/repro`` package to measure."""


def import_repro():
    """Import ``repro`` from this checkout's ``src``, never elsewhere."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise NoSources(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != package.resolve():
        raise NoSources(f"repro imported from {repro.__file__}, "
                        f"not from {package}")
    return repro


def hermetic_env() -> Dict[str, Optional[str]]:
    """Unset every knob in :data:`HERMETIC_ENV`; returns what was set."""
    return {name: os.environ.pop(name, None) for name in HERMETIC_ENV}


def reap_children() -> None:
    """Stop every process this run started and wait until each has ended.

    ``repro.svc`` spawns its workers with the ``spawn`` start method,
    which also launches the multiprocessing resource tracker. The
    tracker outlives ``Service.close()`` and would only end after this
    process exits, so it is stopped here, once no worker holds its pipe.
    """
    for child in multiprocessing.active_children():
        child.join(REAP_TIMEOUT_S)
        if child.is_alive():
            child.kill()
            child.join()
    multiprocessing.resource_tracker._resource_tracker._stop()


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    from suites import SUITES, run_suite
    from svcsweep import run_svc

    if workload in SUITES:
        return run_suite(workload, seed, seconds, trace)
    return run_svc(seed, seconds, trace)


def result_line(outcome, trace: bool) -> dict:
    """The final JSON object; ``correct`` only when every check passed
    and every metric of the requested kind was measured."""
    units = LAYER_UNITS if trace else E2E_UNITS
    values = outcome.layers if trace else outcome.e2e
    measured = bool(values) and set(values) <= set(units)
    if trace:   # a layer the workload does not use did no work
        values = {name: values.get(name, 0.0) for name in units}
    correct = outcome.failed == 0 and measured and set(values) == set(units)
    return {
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    unset = hermetic_env()
    try:
        import_repro()
    except NoSources as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    from repro.svc.store import code_version

    print(f"e2ebench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"code_version={code_version()} nproc={os.cpu_count()} "
          f"python={platform.python_version()} "
          f"unset_env={json.dumps({k: v for k, v in unset.items() if v})}")
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    finally:
        reap_children()
    for line in outcome.notes:
        print(line)
    result = result_line(outcome, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:<28} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
