"""What one workload run reports back to ``run.py``."""

from __future__ import annotations

import dataclasses
import resource
from typing import Dict, List

__all__ = ["Outcome", "peak_rss_mb"]


@dataclasses.dataclass
class Outcome:
    attempted: int
    failed: int
    e2e: Dict[str, float] = dataclasses.field(default_factory=dict)
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    notes: List[str] = dataclasses.field(default_factory=list)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or, with ``children``, of the
    largest waited-for child, whichever is larger), in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0
