"""The ``svc-sweep`` workload: a seed sweep driven through ``repro.svc``.

One client process keeps two requests outstanding (a closed loop: each
of two client threads submits its next request only after the previous
one returned) against ``Service(workers=2, store="memory")``. The
traffic is a grid of distinct seed points, each a ``suite`` job for the
TPC-H-19 row at the ``ci`` profile, and every fourth submission repeats
an earlier point, so the result store's read path (hits and coalesces)
runs beside its write path. Each sweep starts a fresh service, so every
sweep simulates the same distinct points again.
"""

from __future__ import annotations

import dataclasses
import math
import random
import re
import statistics
import threading
import time
from typing import Dict, List, Optional

from hostspeed import scale_now
from outcome import Outcome, peak_rss_mb

__all__ = ["sweep_specs", "run_svc"]

ROW = "TPC-H-19"
PROFILE = "ci"
WORKERS = 2
OUTSTANDING = 2
RESULT_TIMEOUT_S = 30.0
READY_TIMEOUT_S = 30.0
_ROW_RE = re.compile(r"(\S+): xcache=(\d+) baseline=(\d+) addr=(\d+)")


def sweep_specs(seed: int, points: int) -> list:
    """``points`` distinct seed points plus one repeat per three.

    Repeats alternate between the point just submitted, which is
    usually still running (a coalesce), and a random earlier point,
    which has usually finished (a store hit).
    """
    from repro.svc import JobSpec

    rng = random.Random(seed)
    specs: list = []
    for k in range(points):
        specs.append(JobSpec(experiment="suite", profile=PROFILE,
                             profile_overrides=(("seed", seed * 1000 + k),),
                             workloads=(ROW,)))
        if len(specs) % 4 == 3:
            recent = len(specs) % 8 == 3
            specs.append(specs[-1] if recent else rng.choice(specs[:-1]))
    return specs


@dataclasses.dataclass
class Request:
    start: float
    end: float
    job: object = None
    error: Optional[str] = None


@dataclasses.dataclass
class Sweep:
    setup_s: float
    wall_s: float
    uncovered_s: float
    requests: List[Request]
    metrics: dict
    splits: List[Dict[str, float]]    # one per executed job
    setup_scale: float                # host-speed factors (hostspeed.py)
    sweep_scale: float


def _closed_loop(service, specs) -> List[Request]:
    from repro.svc.jobs import AdmissionBusy, JobCancelled, JobFailed

    requests: List[Optional[Request]] = [None] * len(specs)
    cursor = iter(range(len(specs)))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            start = time.perf_counter()
            try:
                job = service.submit(specs[i])
                job.result(RESULT_TIMEOUT_S)
            except (AdmissionBusy, JobFailed, JobCancelled,
                    TimeoutError) as exc:
                requests[i] = Request(start, time.perf_counter(),
                                      error=repr(exc))
            else:
                requests[i] = Request(start, time.perf_counter(), job)

    threads = [threading.Thread(target=client, name=f"client{n}")
               for n in range(OUTSTANDING)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return requests


def _idle_s(requests: List[Request]) -> float:
    """Time within the sweep during which no request was outstanding."""
    intervals = sorted((r.start, r.end) for r in requests)
    idle, reach = 0.0, intervals[0][1]
    for start, end in intervals[1:]:
        idle += max(0.0, start - reach)
        reach = max(reach, end)
    return idle


def _wait_ready(service) -> None:
    """Wait until no worker is booting.

    ``Service.start(wait_ready=True)`` polls the worker pipes from the
    caller's thread while the service's control loop polls the same
    pipes, and the two readers can corrupt each other's messages (seen
    as spurious worker restarts, a ``TypeError`` or a hang). So this
    waits for the control loop to mark the workers ready instead.
    """
    deadline = time.perf_counter() + READY_TIMEOUT_S
    while any(w["state"] == "booting" for w in service.pool.health()):
        if time.perf_counter() > deadline:
            raise TimeoutError("service workers did not become ready")
        time.sleep(0.002)


def run_sweep(specs) -> Sweep:
    from repro.svc import Service

    before_setup = scale_now()
    start = time.perf_counter()
    service = Service(workers=WORKERS, store="memory")
    try:
        service.start()
        _wait_ready(service)
        setup = time.perf_counter() - start
        before_sweep = scale_now()
        requests = _closed_loop(service, specs)
        after_sweep = scale_now()
        metrics = service.metrics()
        executed = {id(r.job): r.job for r in requests
                    if r.job is not None and not r.job.from_store}
        splits = [service.job_span(job).split()
                  for job in executed.values()]
    finally:
        service.close()
    wall = max(r.end for r in requests) - min(r.start for r in requests)
    return Sweep(setup, wall, _idle_s(requests), requests, metrics, splits,
                 (before_setup + before_sweep) / 2,
                 (before_sweep + after_sweep) / 2)


def _check(sweeps: List[Sweep], specs) -> tuple:
    """(attempted, failed): a submission fails unless it ended DONE with
    every check passed and the same result digest as every other
    submission of its point."""
    attempted = failed = 0
    reference: Dict[str, str] = {}
    for sweep in sweeps:
        for spec, request in zip(specs, sweep.requests):
            attempted += 1
            job = request.job
            if job is None or not job.result_payload.get("all_ok"):
                failed += 1
                continue
            digest = reference.setdefault(spec.digest(), job.result_digest)
            if job.result_digest != digest:
                failed += 1
    return attempted, failed


def _cycles(sweep: Sweep) -> Dict[str, tuple]:
    """seed-point digest -> (xcache, baseline, addr) cycles."""
    out = {}
    for request in sweep.requests:
        match = _ROW_RE.search(request.job.result_payload["rendered"])
        out[request.job.digest] = tuple(int(g) for g in match.groups()[1:])
    return out


def run_svc(seed: int, seconds: float, trace: bool, points: int = 9,
            min_sweeps: int = 3) -> Outcome:
    specs = sweep_specs(seed, points)
    deadline = time.perf_counter() + seconds
    sweeps: List[Sweep] = []
    while True:
        sweeps.append(run_sweep(specs))
        remaining = deadline - time.perf_counter()
        if len(sweeps) >= min_sweeps and remaining < (
                sweeps[-1].wall_s + sweeps[-1].setup_s):
            break
    attempted, failed = _check(sweeps, specs)
    out = Outcome(attempted=attempted, failed=failed)
    out.notes += [f"submission {i} failed: {r.error}" for s in sweeps
                  for i, r in enumerate(s.requests) if r.error]
    if failed:
        return out
    cycles = list(_cycles(sweeps[0]).values())
    speedup = math.exp(sum(math.log(addr / x) for x, _b, addr in cycles)
                       / len(cycles))
    latencies = [r.end - r.start for s in sweeps for r in s.requests]
    # times at the reference host speed: each sweep scaled by the
    # host-speed probes taken around it, then the median across sweeps
    slots = [statistics.median((s.requests[i].end - s.requests[i].start)
                               * s.sweep_scale for s in sweeps)
             for i in range(len(specs))]
    wall = statistics.median(s.wall_s * s.sweep_scale for s in sweeps)
    out.e2e = {
        "wall_s": wall,
        "setup_s": statistics.median(s.setup_s * s.setup_scale
                                     for s in sweeps),
        "jobs_per_s": len(specs) / wall,
        "job_latency_p50_s": statistics.median(slots),
        "peak_rss_mb": peak_rss_mb(children=True),
        "sim_cycles": sum(x for x, _b, _a in cycles),
        "speedup_vs_addr": speedup,
    }
    out.notes += [
        f"{len(sweeps)} sweeps of {len(specs)} submissions "
        f"({len(cycles)} distinct {ROW}@{PROFILE} seed points), "
        f"{WORKERS} workers, {OUTSTANDING} outstanding (closed loop)",
        f"host seconds, unscaled: fastest sweep "
        f"{min(s.wall_s for s in sweeps):.4f} s, median sweep "
        f"{statistics.median(s.wall_s for s in sweeps):.4f} s",
        f"job_latency_p90_s {statistics.quantiles(latencies, n=10)[-1]:.4f}"
        f" s unscaled (n={len(latencies)} submissions)",
        f"failed_share {failed / attempted:.4f}",
        "  sweep wall_s " + " ".join(f"{s.wall_s:.4f}" for s in sweeps),
        "  sweep setup_s " + " ".join(f"{s.setup_s:.4f}" for s in sweeps),
        "  sweep scale " + " ".join(f"{s.sweep_scale:.3f}" for s in sweeps),
    ]
    if trace:
        out.layers = _layers(sweeps)
    return out


def _layers(sweeps: List[Sweep]) -> Dict[str, float]:
    """Service-layer metrics: time per executed job from each job's
    lifecycle span, counts per sweep from ``Service.metrics()``."""
    splits = [split for s in sweeps for split in s.splits]
    layers = {f"svc.{part}_s": statistics.fmean(sp[part] for sp in splits)
              for part in ("queue_wait", "dispatch", "sim_exec",
                           "store_write")}
    n = len(sweeps)
    submitted = sum(s.metrics["submitted"] for s in sweeps)
    hits = sum(s.metrics["store_hits"] for s in sweeps)
    layers.update({
        "svc.store_hits": hits / n,
        "svc.store_misses": sum(s.metrics["store"]["misses"]
                                for s in sweeps) / n,
        "svc.coalesced": sum(s.metrics["coalesced"] for s in sweeps) / n,
        "svc.worker_restarts": sum(s.metrics["worker_restarts"]
                                   for s in sweeps) / n,
        "svc.retries": sum(s.metrics["retries"] for s in sweeps) / n,
        "svc.store_hit_share": hits / submitted,
    })
    best = min(sweeps, key=lambda s: s.wall_s)
    layers.update({
        "trace.pass_s": best.wall_s,
        "trace.uncovered_s": best.uncovered_s,
        # job spans are the service's always-on telemetry, read after
        # the sweep: the traced sweep arms no hooks of its own
        "trace.overhead_share": 0.0,
    })
    return layers
