"""Spans timed from outside the program, around the calls into each layer.

Nothing under ``src/`` knows it is being measured: :class:`LayerHooks`
temporarily replaces the public entry points of each ``repro`` layer
(workload builders, DSA model constructors and ``run`` methods, the
event-kernel ``run`` and the two reference solvers) with wrappers that
open and close spans on a :class:`Tracer`, then restores the originals.

A span's *self time* is its duration minus the time its child spans
cover, so the self times of every span of a pass plus the time no span
covers add up exactly to the pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pkgutil
import sys
import time
import types
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from hostspeed import PROBE_REF_S, probe_s

__all__ = ["Tracer", "LayerHooks", "variant_of", "FUNCTION_HOOKS"]

_MISSING = object()

#: simulated cycles per kernel slice; about 30 to 80 ms of host time on
#: the ``quick`` profile
SLICE_CYCLES = 2048

#: plain spans: ``(module, qualified name, span)``. A function is
#: wrapped in the module that defines it and under every name a
#: ``repro`` module holds it by, so it is timed however it is called.
FUNCTION_HOOKS = (
    ("repro.harness.profiles", "Profile.widx_workload", "workloads.build"),
    ("repro.harness.profiles", "Profile.dasx_workload", "workloads.build"),
    ("repro.workloads.graphgen", "p2p_gnutella08", "workloads.build"),
    ("repro.workloads.matrices", "dense_spgemm_input", "workloads.build"),
    ("repro.data.graphs", "pagerank_event_driven", "data.reference"),
    ("repro.data.csr", "spgemm_gustavson", "data.reference"),
)


class _Span:
    __slots__ = ("name", "key", "start", "child_s", "first_child")

    def __init__(self, name: str, key: Optional[str], start: float) -> None:
        self.name = name
        self.key = key
        self.start = start
        self.child_s = 0.0
        self.first_child: Optional[float] = None


class Tracer:
    """In-memory span recorder that books self time per span name.

    With ``probe``, the host-speed probe (:mod:`hostspeed`) runs at
    every span open and close, outside the span; its time is booked as
    ``trace.probe``, and ``scoped_s`` holds self times scaled to the
    reference speed by the probes on either side.
    """

    def __init__(self, probe: bool = False) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        #: self time per (scope, span key); ``scope`` names the unit of
        #: work the caller is running, such as one suite row, and a
        #: span's key defaults to its name
        self.scoped_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.scope = ""
        self.counts: Dict[str, int] = defaultdict(int)
        self.probe = probe
        self._last_probe = PROBE_REF_S
        self._stack: List[_Span] = []

    def _probe(self) -> None:
        seconds = probe_s()
        self._last_probe = seconds
        self.self_s["trace.probe"] += seconds
        if self._stack:
            self._stack[-1].child_s += seconds

    def open(self, name: str, key: Optional[str] = None) -> _Span:
        now = time.perf_counter()
        if self._stack and self._stack[-1].first_child is None:
            self._stack[-1].first_child = now
        if self.probe:
            self._probe()
            now = time.perf_counter()
        span = _Span(name, key, now)
        self._stack.append(span)
        return span

    def close(self, span: _Span, name: Optional[str] = None,
              pre_name: Optional[str] = None) -> None:
        """Close ``span`` (the innermost open one).

        ``name`` renames it (the label may only be known at the end).
        With ``pre_name``, self time before the first child opened is
        booked under ``pre_name`` and the rest under the span's name.
        """
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        scale = 1.0
        if self.probe:
            before = self._last_probe
            self._probe()
            scale = 2 * PROBE_REF_S / (before + self._last_probe)
        if name is not None:
            span.name = name
        duration = end - span.start
        own = duration - span.child_s
        if pre_name is not None:
            pre = (span.first_child if span.first_child is not None
                   else end) - span.start
            self._book(pre_name, pre_name, pre, scale)
            own -= pre
        self._book(span.name, span.key or span.name, own, scale)
        if self._stack:
            self._stack[-1].child_s += duration

    def _book(self, name: str, key: str, seconds: float,
              scale: float) -> None:
        self.self_s[name] += seconds
        self.scoped_s[(self.scope, key)] += seconds * scale

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[_Span]:
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def covered_s(self) -> float:
        """Total self time booked, i.e. time covered by some span."""
        return sum(self.self_s.values())


def variant_of(model) -> str:
    """The Fig-14 bar a model instance draws: xcache, baseline or addr."""
    name = type(model).__name__
    if "Address" in name:
        return "addr"
    if "Baseline" in name or getattr(model, "ideal", False):
        return "baseline"
    return "xcache"


class LayerHooks:
    """Context manager that arms the span wrappers on ``repro``.

    It arms the :data:`FUNCTION_HOOKS` (``workloads.build`` around the
    suite's input builders, ``data.reference`` around the functional
    reference solvers), ``dsa.construct.<variant>`` around every model
    constructor, ``dsa.start/finish.<variant>`` around model ``run`` and
    ``sim.run.<variant>`` around the event kernel: a few hundred spans
    per suite pass, most of them kernel slices. With ``counters=True``
    it also reads each layer's published counters after every variant
    run. A hook target that no longer exists is listed in ``missing``
    instead of raising, so the run can report it.
    """

    def __init__(self, tracer: Tracer, counters: bool) -> None:
        self.tracer = tracer
        self.counters = counters
        self.missing: List[str] = []
        self._saved: List[tuple] = []
        self._wrappers: Dict[int, tuple] = {}   # id -> (wrapper, original)
        self._building: List[object] = []  # models in __init__
        self._models: List[object] = []    # models whose run() is open

    # -- patching ------------------------------------------------------
    def _wrap(self, owner, attr: str, make: Callable) -> None:
        """Replace ``owner.attr``; for a module, also every alias of it
        in the other ``repro`` modules."""
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        self._wrappers[id(wrapper)] = (wrapper, original)
        if isinstance(owner, types.ModuleType):
            targets = [(module, name) for module in _repro_modules()
                       for name, value in vars(module).items()
                       if value is original]
        else:
            targets = [(owner, attr)]
        for target, name in targets:
            self._saved.append((target, name,
                                target.__dict__.get(name, _MISSING)))
            setattr(target, name, wrapper)

    def _resolve(self, module: str, qualname: str):
        """``(owner, attr)`` for ``module:qualname``, or None (recorded
        in ``missing``) when it does not exist."""
        try:
            owner = importlib.import_module(module)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}:{qualname}")
            return None
        return owner, attr

    def __enter__(self) -> "LayerHooks":
        try:
            self._arm()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _arm(self) -> None:
        for module, qualname, span in FUNCTION_HOOKS:
            found = self._resolve(module, qualname)
            if found is not None:
                self._wrap(*found, self._span(span))
        models = model_classes()
        if not models:
            self.missing.append("repro.dsa:*Model")
        for cls in _definers(models, "__init__"):
            self._wrap(cls, "__init__", self._construct)
        for cls in _definers(models, "run"):
            self._wrap(cls, "run", self._run)
        found = self._resolve("repro.sim.kernel", "KERNELS")
        if found is not None:
            kernels = list(getattr(*found).values())
            for cls in _definers(kernels, "run"):
                self._wrap(cls, "run", self._kernel)

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, saved = self._saved.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        # a module first imported while armed took a wrapper by name
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])
        self._wrappers.clear()

    # -- wrappers ------------------------------------------------------
    def _span(self, name: str):
        tracer = self.tracer

        def make(fn):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)
            return wrapper
        return make

    def _construct(self, fn):
        tracer = self.tracer
        building = self._building

        def wrapper(model, *args, **kwargs):
            if building and building[-1] is model:   # super().__init__
                return fn(model, *args, **kwargs)
            building.append(model)
            span = tracer.open("dsa.construct")
            try:
                fn(model, *args, **kwargs)
            finally:
                building.pop()
                tracer.close(span, name=f"dsa.construct.{variant_of(model)}")
        return wrapper

    def _run(self, fn):
        tracer = self.tracer
        models = self._models
        counters = self.counters

        def wrapper(model, *args, **kwargs):
            if models and models[-1] is model:       # super().run
                return fn(model, *args, **kwargs)
            variant = variant_of(model)
            models.append(model)
            span = tracer.open(f"dsa.finish.{variant}")
            try:
                result = fn(model, *args, **kwargs)
            finally:
                models.pop()
                tracer.close(span, pre_name=f"dsa.start.{variant}")
            if counters:
                read_counters(tracer.counts, variant, model, result)
            return result
        return wrapper

    def _kernel(self, fn):
        """Run the kernel in slices of :data:`SLICE_CYCLES` simulated
        cycles, one span each.

        The slices end at the same cycles in every pass, so the same
        slice can be compared across passes: the smallest unit of work
        the end-to-end estimate takes its fastest sample of. Slicing
        uses the kernel's own ``until`` stop, as checkpointing does, and
        leaves results unchanged (the digest checks compare sliced
        passes with bare ones).
        """
        tracer = self.tracer
        models = self._models

        def wrapper(sim, until=None, **kwargs):
            variant = variant_of(models[-1]) if models else "other"
            name = f"sim.run.{variant}"
            before = sim.events_executed
            index = 0
            try:
                while True:
                    stop = (sim.now // SLICE_CYCLES + 1) * SLICE_CYCLES
                    last = until is not None and stop >= until
                    span = tracer.open(name, key=f"{name}#{index}")
                    try:
                        now = fn(sim, until if last else stop, **kwargs)
                    finally:
                        tracer.close(span)
                    index += 1
                    if last or not sim.pending:
                        return now
            finally:
                tracer.counts[f"sim.events.{variant}"] += (
                    sim.events_executed - before)
        return wrapper

def _repro_modules() -> List[types.ModuleType]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _definers(classes: List[type], attr: str) -> List[type]:
    """The classes that define ``attr`` for ``classes``, each once:
    a method is wrapped where it is defined, never twice."""
    out: List[type] = []
    for cls in classes:
        owner = next((c for c in cls.__mro__
                      if attr in c.__dict__ and c is not object), None)
        if owner is not None and owner not in out:
            out.append(owner)
    return out


def model_classes() -> List[type]:
    """Every DSA model class, found in the modules of ``repro.dsa``."""
    import repro.dsa

    out = []
    for info in pkgutil.iter_modules(repro.dsa.__path__):
        module = importlib.import_module(f"repro.dsa.{info.name}")
        out += [cls for name, cls in sorted(vars(module).items())
                if name.endswith("Model") and isinstance(cls, type)
                and cls.__module__ == module.__name__]
    return out


def read_counters(counts: Dict[str, int], variant: str, model,
                  result) -> None:
    """Add one finished variant run's published layer counters."""
    counts[f"sim.cycles.{variant}"] += result.cycles
    system = getattr(model, "system", None)
    dram = system.dram if system is not None else model.dram
    counts["mem.dram.reads"] += dram.stats.get("reads")
    counts["mem.dram.writes"] += dram.stats.get("writes")
    cache = getattr(model, "cache", None)
    if cache is not None:
        counts["mem.addrcache.accesses"] += cache.stats.get("accesses")
        counts["mem.addrcache.hits"] += cache.stats.get("hits")
    if system is not None and variant == "xcache":
        stats = system.controller.stats
        counts["core.requests"] += (stats.get("meta_loads")
                                    + stats.get("meta_stores"))
        counts["core.meta_stores"] += stats.get("meta_stores")
        counts["core.hits"] += stats.get("hits")
        counts["core.misses"] += stats.get("misses")
        counts["core.miss_merges"] += stats.get("miss_merges")
        counts["core.walks_started"] += stats.get("walks_started")
        counts["core.actions"] += stats.get("actions_total")
