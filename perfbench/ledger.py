"""What one benchmark run collects: operations, failures, metrics."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: failure messages kept for the report (the count is always exact)
MAX_PROBLEMS = 20


@dataclass
class Outcome:
    """Result of one workload run.

    ``metrics`` maps a metric name to ``(value, unit, samples)``;
    ``report`` holds the workload's detailed rows (per-workload
    names such as ``serve_hit_p99_ms``), printed for people and not
    part of the final JSON line.
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    report: List[Tuple[str, float, str, int]] = field(default_factory=list)

    def op(self, ok: bool, problem: Optional[str] = None) -> None:
        """Count one attempted operation; a failed one with its reason."""
        self.attempted += 1
        if not ok:
            self.fail(problem or "operation failed")

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)

    def metric(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self.metrics[name] = (float(value), unit, int(n))

    def row(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self.report.append((name, float(value), unit, int(n)))

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0
