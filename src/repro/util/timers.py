"""Per-step time accounting.

The pipeline reports a per-step :class:`TimeBreakdown` mirroring the stacked
bars of the paper's Figures 5-7 (KmerGen-I/O, KmerGen, KmerGen-Comm,
LocalSort, LocalCC-Opt, Merge-Comm, MergeCC, CC-I/O).  The seconds come
from the run's telemetry spans (:mod:`repro.telemetry`) or, for
projections, from the timing model; this module only holds the totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class TimeBreakdown:
    """Accumulated seconds per named step, in insertion order.

    >>> bd = TimeBreakdown()
    >>> bd.add("KmerGen", 1.5)
    >>> bd.add("KmerGen", 0.5)
    >>> bd.get("KmerGen"), bd.total
    (2.0, 2.0)
    """

    seconds: Dict[str, float] = field(default_factory=dict)

    def add(self, step: str, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"negative duration for {step}: {dt}")
        self.seconds[step] = self.seconds.get(step, 0.0) + dt

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def items(self) -> List[Tuple[str, float]]:
        return list(self.seconds.items())

    def get(self, step: str) -> float:
        return self.seconds.get(step, 0.0)

    def scaled(self, factor: float) -> "TimeBreakdown":
        return TimeBreakdown({k: v * factor for k, v in self.seconds.items()})

    def as_dict(self) -> Dict[str, float]:
        return dict(self.seconds)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        rows = ", ".join(f"{k}={v:.3f}s" for k, v in self.seconds.items())
        return f"TimeBreakdown({rows}, total={self.total:.3f}s)"
