"""The ``fig14-hash`` and ``fig14-sparse`` workloads.

Each pass runs Fig-14 suite rows through the public entry point
``repro.harness.suite.run_fig14_suite`` at the ``quick`` profile with the
workload seed applied through ``derive_profile``. The in-process memo is
cleared around every pass and the disk memo is off (its environment
variable is unset), so every pass simulates all three variants of every
row. Passes run with the garbage collector pinned: collected before,
disabled during.

Every run starts with one bare pass (no hooks, kernel runs unsliced, as
users run the program). Its results are the digest reference the other
passes are checked against, and it is left out of the estimates.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import math
import statistics
import sys
import time
import traceback
from typing import Dict, List

from outcome import Outcome, peak_rss_mb
from spans import LayerHooks, Tracer

__all__ = ["SUITES", "run_suite", "result_digest"]

SUITES = {
    "fig14-hash": ("TPC-H-19", "TPC-H-20", "TPC-H-22", "dasx"),
    "fig14-sparse": ("graphpulse", "sparch", "gamma"),
}
VARIANTS = ("xcache", "baseline", "addr")
WIDX_ROWS = ("TPC-H-19", "TPC-H-20", "TPC-H-22")
PAPER_SPEEDUP_VS_ADDR = 1.7
PAPER_WIDX_VS_BASELINE = 1.54

#: spans each workload's hooked passes must book time to: a layer the
#: workload is documented to use that reads 0 means a hook no longer
#: reaches it, and the pass counts as failed
REQUIRED_SPANS = {
    "fig14-hash": ("workloads.build",
                   *(f"dsa.construct.{v}" for v in VARIANTS),
                   *(f"sim.run.{v}" for v in VARIANTS)),
}
REQUIRED_SPANS["fig14-sparse"] = (
    *REQUIRED_SPANS["fig14-hash"], "data.reference",
    *(f"dsa.finish.{v}" for v in VARIANTS))

#: pass modes: no hooks at all; span hooks (the end-to-end passes);
#: span hooks plus layer counters (the traced passes)
BARE, TIMED, TRACED = "bare", "timed", "traced"


@dataclasses.dataclass
class Pass:
    mode: str
    wall_s: float
    row_s: Dict[str, float]
    tracer: Tracer
    suite: Dict[str, object]          # label -> VariantSet
    errors: int                       # rows whose run raised
    missing: List[str]                # hook targets not found

    @property
    def setup_s(self) -> float:
        """Workload generation plus model construction (scaled in a
        TIMED pass)."""
        return sum(seconds
                   for (_scope, key), seconds in self.tracer.scoped_s.items()
                   if key == "workloads.build"
                   or key.startswith("dsa.construct."))


def result_digest(result) -> str:
    """A digest of everything a RunResult reports."""
    return hashlib.sha256(
        repr(dataclasses.asdict(result)).encode()).hexdigest()[:16]


def seeded_profile(base: str, seed: int) -> str:
    from repro.harness.profiles import derive_profile, ensure_profile

    return ensure_profile(derive_profile(base, {"seed": seed}))


def run_pass(profile: str, labels, mode: str) -> Pass:
    """One full pass over ``labels``; a row is one ``run_fig14_suite``
    call, the unit a ``suite`` service job runs."""
    from repro.harness.suite import clear_cache, run_fig14_suite

    tracer = Tracer(probe=mode == TIMED)
    hooks = (contextlib.nullcontext() if mode == BARE
             else LayerHooks(tracer, counters=mode == TRACED))
    suite: Dict[str, object] = {}
    row_s: Dict[str, float] = {}
    errors = 0
    missing: List[str] = []
    clear_cache()
    gc.collect()
    gc.disable()
    try:
        with hooks:
            start = time.perf_counter()
            for label in labels:
                tracer.scope = label
                row_start = time.perf_counter()
                try:
                    with tracer.span("harness.suite"):
                        suite.update(run_fig14_suite(profile, (label,)))
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    errors += 1
                row_s[label] = time.perf_counter() - row_start
            wall = time.perf_counter() - start
        if mode != BARE:
            missing = hooks.missing
    finally:
        gc.enable()
        clear_cache()
    return Pass(mode, wall, row_s, tracer, suite, errors, missing)


def row_estimates(passes: List[Pass], labels) -> Dict[str, float]:
    """Each row's time at the reference host speed: the sum over the
    row's spans (kernel slices included) of the median across
    ``passes`` of the span's scaled self time.

    The row's ``harness.suite`` span covers the whole row, so nothing
    outside a span is left out but the probes themselves.
    """
    out = {}
    for label in labels:
        keys = {key for p in passes for scope, key in p.tracer.scoped_s
                if scope == label}
        out[label] = sum(statistics.median(p.tracer.scoped_s[(label, key)]
                                           for p in passes)
                         for key in keys)
    return out


def _digests(p: Pass) -> Dict[str, str]:
    return {f"{label}/{v}": result_digest(getattr(vs, v))
            for label, vs in p.suite.items() for v in VARIANTS}


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def unreached(p: Pass, required) -> List[str]:
    """Hook targets missing from a hooked pass, and ``required`` spans
    it booked no time to."""
    if p.mode == BARE:
        return []
    return p.missing + [name for name in required
                        if p.tracer.self_s.get(name, 0.0) <= 0.0]


def _check(passes: List[Pass], labels, required=()) -> tuple:
    """(attempted, failed) over every variant run of every pass, and
    over the layer coverage of every hooked pass. ``passes[0]`` is the
    bare digest reference."""
    attempted = failed = 0
    reference = _digests(passes[0])
    for p in passes:
        attempted += 3 * len(labels)
        failed += 3 * p.errors
        for key, digest in _digests(p).items():
            label, variant = key.split("/")
            ok = getattr(p.suite[label], variant).checks_passed
            if not ok or digest != reference.get(key):
                failed += 1
        if p.mode != BARE:
            attempted += 1
            failed += bool(unreached(p, required))
    traced = [p for p in passes if p.mode == TRACED]
    for p in traced[1:]:
        attempted += 1
        if dict(p.tracer.counts) != dict(traced[0].tracer.counts):
            failed += 1
    return attempted, failed


def _run_passes(profile: str, labels, deadline: float, modes,
                min_passes: int) -> List[Pass]:
    """Cycle through ``modes`` until ``deadline``, with at least
    ``min_passes`` passes of each mode."""
    passes: List[Pass] = []
    while True:
        passes.append(run_pass(profile, labels,
                               modes[len(passes) % len(modes)]))
        remaining = deadline - time.perf_counter()
        if (len(passes) >= min_passes * len(modes)
                and remaining < passes[-1].wall_s):
            return passes


def run_suite(workload: str, seed: int, seconds: float, trace: bool,
              base: str = "quick", min_passes: int = 3) -> Outcome:
    """End-to-end metrics from TIMED passes or, with ``trace``,
    per-layer metrics from TRACED passes interleaved with BARE ones.
    Both start with a BARE pass, the digest reference."""
    labels = SUITES[workload]
    profile = seeded_profile(base, seed)
    deadline = time.perf_counter() + seconds
    modes = (TRACED, BARE) if trace else (TIMED,)
    passes = [run_pass(profile, labels, BARE)]
    passes += _run_passes(profile, labels, deadline, modes,
                          max(1, min_passes - 1) if trace else min_passes)
    required = REQUIRED_SPANS[workload]
    attempted, failed = _check(passes, labels, required)
    out = Outcome(attempted=attempted, failed=failed)
    blind = sorted({name for p in passes for name in unreached(p, required)})
    if blind:
        out.notes.append("layers not reached by the hooks: "
                         + ", ".join(blind))
    if any(p.errors for p in passes):
        return out
    suite = passes[0].suite
    out.notes += [
        f"profile {profile} (base {base}, seed {seed}); "
        f"{len(passes)} passes (bare, then {'/'.join(modes)}), "
        f"rows {', '.join(labels)}",
        f"failed_share {failed / attempted:.4f}",
    ]
    for p in passes:
        out.notes.append(f"  {p.mode} pass " + " ".join(
            f"{label}={p.row_s[label]:.4f}" for label in labels))
    for label in labels:
        vs = suite[label]
        out.notes.append(
            f"  {label}: xcache={vs.xcache.cycles} "
            f"baseline={vs.baseline.cycles} addr={vs.addr.cycles} "
            f"vs_addr={vs.speedup_vs_addr:.3f} "
            f"hit_rate={vs.xcache.hit_rate:.3f}")
    if trace:
        out.layers = _layers([p for p in passes if p.mode == TRACED],
                             [p for p in passes if p.mode == BARE])
        return out
    timed = passes[1:]
    rows = row_estimates(timed, labels)
    wall = sum(rows.values())
    speedup = _geomean([vs.speedup_vs_addr for vs in suite.values()])
    out.e2e = {
        "wall_s": wall,
        "setup_s": statistics.median(p.setup_s for p in timed),
        "jobs_per_s": len(labels) / wall,
        "job_latency_p50_s": statistics.median(rows.values()),
        "peak_rss_mb": peak_rss_mb(),
        "sim_cycles": sum(vs.xcache.cycles for vs in suite.values()),
        "speedup_vs_addr": speedup,
    }
    samples = [p.row_s[label] for p in timed for label in labels]
    out.notes += [
        f"host seconds, unscaled: bare pass {passes[0].wall_s:.4f} s, "
        f"fastest timed pass {min(p.wall_s for p in timed):.4f} s, "
        f"median timed pass "
        f"{statistics.median(p.wall_s for p in timed):.4f} s",
        f"job_latency_p90_s {statistics.quantiles(samples, n=10)[-1]:.4f}"
        f" s unscaled (n={len(samples)} row runs; fewer than 100, so"
        f" indicative)",
        f"speedup_vs_addr {speedup:.4f}x; paper {PAPER_SPEEDUP_VS_ADDR}x "
        f"(error {speedup / PAPER_SPEEDUP_VS_ADDR - 1:+.1%})",
    ]
    widx = [suite[r].speedup_vs_baseline for r in WIDX_ROWS if r in suite]
    if widx:
        g = _geomean(widx)
        out.notes.append(
            f"widx_vs_baseline {g:.4f}x; paper {PAPER_WIDX_VS_BASELINE}x "
            f"(error {g / PAPER_WIDX_VS_BASELINE - 1:+.1%})")
    return out


def _layers(traced: List[Pass], bare: List[Pass]) -> Dict[str, float]:
    """Per-layer metrics. Span times come from the fastest traced pass,
    so they and ``trace.uncovered_s`` add up to ``trace.pass_s``; the
    overhead compares the fastest traced and fastest bare passes."""
    best = min(traced, key=lambda p: p.wall_s)
    self_s = best.tracer.self_s
    counts = best.tracer.counts
    layers: Dict[str, float] = {
        "workloads.build_s": self_s["workloads.build"],
        "data.reference_s": self_s["data.reference"],
        "harness.self_s": self_s["harness.suite"],
        "trace.pass_s": best.wall_s,
        "trace.uncovered_s": best.wall_s - best.tracer.covered_s(),
        "trace.overhead_share": (best.wall_s
                                 / min(p.wall_s for p in bare) - 1.0),
    }
    events = 0
    for v in VARIANTS:
        run_s = self_s[f"sim.run.{v}"]
        layers[f"dsa.construct_s.{v}"] = self_s[f"dsa.construct.{v}"]
        layers[f"dsa.start_s.{v}"] = self_s[f"dsa.start.{v}"]
        layers[f"dsa.finish_s.{v}"] = self_s[f"dsa.finish.{v}"]
        layers[f"sim.run_s.{v}"] = run_s
        layers[f"sim.events.{v}"] = counts[f"sim.events.{v}"]
        layers[f"sim.cycles.{v}"] = counts[f"sim.cycles.{v}"]
        layers[f"sim.ns_per_event.{v}"] = (
            1e9 * run_s / counts[f"sim.events.{v}"]
            if counts[f"sim.events.{v}"] else 0.0)
        events += counts[f"sim.events.{v}"]
    layers["sim.events_per_s"] = events / best.wall_s
    for name in ("core.requests", "core.hits", "core.misses",
                 "core.miss_merges", "core.meta_stores",
                 "core.walks_started", "core.actions", "mem.dram.reads",
                 "mem.dram.writes", "mem.addrcache.accesses",
                 "mem.addrcache.hits"):
        layers[name] = counts[name]
    layers["core.hit_rate"] = _ratio(counts["core.hits"],
                                     counts["core.hits"]
                                     + counts["core.misses"])
    layers["mem.addrcache.hit_rate"] = _ratio(
        counts["mem.addrcache.hits"], counts["mem.addrcache.accesses"])
    return layers


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
