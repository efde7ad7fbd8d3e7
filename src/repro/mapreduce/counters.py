"""Hadoop-style job counters.

Thread model: a ``Counters`` instance is deliberately lock-free.  Each task
gets its *own* instance (via its :class:`~repro.mapreduce.job.TaskContext`),
and the engine folds the per-task instances into the job's counters with
:meth:`Counters.merge` at the phase barrier, in task order — so a crashed
attempt's counts are simply dropped, and concurrent statements never share
an instance.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, Tuple


class Counters:
    """Nested ``group -> name -> count`` counters.

    >>> c = Counters()
    >>> c.inc("map", "records", 3)
    >>> c.get("map", "records")
    3
    """

    def __init__(self):
        self._groups: Dict[str, Dict[str, int]] = defaultdict(dict)

    def inc(self, group: str, name: str, amount: int = 1) -> None:
        bucket = self._groups[group]
        bucket[name] = bucket.get(name, 0) + amount

    def get(self, group: str, name: str) -> int:
        return self._groups.get(group, {}).get(name, 0)

    def set(self, group: str, name: str, value: int) -> None:
        self._groups[group][name] = value

    def merge(self, other: "Counters") -> None:
        for group, name, value in other.items():
            self.inc(group, name, value)

    def items(self) -> Iterator[Tuple[str, str, int]]:
        for group, bucket in sorted(self._groups.items()):
            for name, value in sorted(bucket.items()):
                yield group, name, value

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        return {group: dict(bucket)
                for group, bucket in self._groups.items()}

    def __repr__(self) -> str:
        parts = [f"{g}.{n}={v}" for g, n, v in self.items()]
        return f"Counters({', '.join(parts)})"
