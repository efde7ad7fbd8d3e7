"""Grid search: decompose a query region into inner and boundary GFUs.

This is the heart of Algorithm 3.  Overlap and coverage are separable per
dimension, and both are contiguous: a convex predicate interval overlaps a
run of consecutive cells and fully covers a (possibly empty) run inside
it.  So the query-related cells are the box spanned by each dimension's
overlapping index range, a cell is *inner* exactly when it is covered in
every dimension, and the inner region is itself the box of the covered
ranges.

The search therefore works in integer cell coordinates: it finds each
dimension's two ranges by probing only their ends, derives every count
from products, and builds GFUKey strings lazily, only for the callers that
read the KV store by key.

Dimensions missing from the predicate use the min/max standardized values
recorded at construction time (the paper's partial-specified query
handling), which arrive here as the ``bounds`` clamp.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.dgf.policy import (KEY_SEPARATOR, DimensionPolicy,
                                   SplittingPolicy)
from repro.hiveql.predicates import Interval

Coords = Tuple[int, ...]


@dataclass(frozen=True)
class DimRange:
    """One dimension's query-related cells: the overlapping index range
    ``[lo, hi]`` and the covered range ``[inner_lo, inner_hi]`` inside it
    (empty when ``inner_lo > inner_hi``)."""

    lo: int
    hi: int
    inner_lo: int
    inner_hi: int

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    @property
    def inner_size(self) -> int:
        return max(0, self.inner_hi - self.inner_lo + 1)

    def is_inner(self, k: int) -> bool:
        return self.inner_lo <= k <= self.inner_hi


class GridSearchResult:
    """Inner/boundary decomposition of one query region as per-dimension
    index ranges.

    Counts are products of range lengths.  ``inner_keys``,
    ``boundary_keys`` and ``all_keys`` are built on first use, in the
    order a row-major walk over every query cell visits them (the order
    the header folds depend on).
    """

    def __init__(self, policy: Optional[SplittingPolicy] = None,
                 ranges: Sequence[DimRange] = (), empty: bool = False):
        self.policy = policy
        self.ranges: Tuple[DimRange, ...] = () if empty else tuple(ranges)
        #: True when the query region is empty (some dimension had no cells)
        self.empty = empty

    # ---------------------------------------------------------------- counts
    @property
    def num_cells(self) -> int:
        if self.empty:
            return 0
        return math.prod(r.size for r in self.ranges)

    @property
    def num_inner(self) -> int:
        if self.empty:
            return 0
        return math.prod(r.inner_size for r in self.ranges)

    @property
    def num_boundary(self) -> int:
        return self.num_cells - self.num_inner

    @property
    def inner_box(self) -> Optional[Tuple[Coords, Coords]]:
        """Inclusive ``(lo, hi)`` cell coordinates of the inner region, or
        None when it is empty."""
        if not self.num_inner:
            return None
        return (tuple(r.inner_lo for r in self.ranges),
                tuple(r.inner_hi for r in self.ranges))

    # ------------------------------------------------------------------ keys
    @cached_property
    def _labels(self) -> List[List[str]]:
        """Each dimension's cell labels over ``[lo, hi]``, computed once
        per search rather than once per cell."""
        return [[dim.label(k) for k in range(r.lo, r.hi + 1)]
                for dim, r in zip(self.policy.dimensions, self.ranges)]

    @cached_property
    def inner_keys(self) -> List[str]:
        if not self.num_inner:
            return []
        return [KEY_SEPARATOR.join(combo) for combo in itertools.product(
            *[labels[r.inner_lo - r.lo:r.inner_hi - r.lo + 1]
              for labels, r in zip(self._labels, self.ranges)])]

    @cached_property
    def boundary_keys(self) -> List[str]:
        if not self.num_boundary:
            return []
        return [KEY_SEPARATOR.join(combo)
                for combo in self._boundary_combos(0)]

    def _boundary_combos(self, axis: int) -> Iterator[Tuple[str, ...]]:
        """Row-major walk that skips the inner box: below a cell that is
        not covered in ``axis`` every cell is boundary; below a covered
        one, the remaining axes decide."""
        r = self.ranges[axis]
        labels = self._labels[axis]
        last = axis == len(self.ranges) - 1
        for k in range(r.lo, r.hi + 1):
            head = (labels[k - r.lo],)
            if not r.is_inner(k):
                for rest in itertools.product(*self._labels[axis + 1:]):
                    yield head + rest
            elif not last:
                for rest in self._boundary_combos(axis + 1):
                    yield head + rest

    @property
    def all_keys(self) -> List[str]:
        return self.inner_keys + self.boundary_keys


def _dim_range(dim: DimensionPolicy, interval: Optional[Interval],
               k_min: int, k_max: int,
               force_all_boundary: bool) -> Optional[DimRange]:
    """Overlapping and covered cell ranges of one dimension.

    Overlap fails on a down-closed set of cells (the interval's low end
    lies past them) or an up-closed one (its high end lies before them),
    so inside ``cell_span`` only the ends can fail; the same holds for
    coverage inside the overlap.  Probing inward from both ends is
    therefore exact and, as every interior cell of a run of three or more
    is covered, costs O(1) probes per dimension in practice.
    """
    span = dim.cell_span(interval, k_min, k_max)
    if span is None:
        return None
    lo, hi = span
    while lo <= hi and not dim.overlaps_cell(interval, lo):
        lo += 1
    while hi >= lo and not dim.overlaps_cell(interval, hi):
        hi -= 1
    if lo > hi:
        return None
    if force_all_boundary:
        return DimRange(lo, hi, lo, lo - 1)
    inner_lo, inner_hi = lo, hi
    while inner_lo <= inner_hi and not dim.covers_cell(interval, inner_lo):
        inner_lo += 1
    while inner_hi >= inner_lo and not dim.covers_cell(interval, inner_hi):
        inner_hi -= 1
    return DimRange(lo, hi, inner_lo, inner_hi)


def search_grid(policy: SplittingPolicy,
                intervals: Dict[str, Optional[Interval]],
                bounds: Dict[str, Tuple[int, int]],
                force_all_boundary: bool = False) -> GridSearchResult:
    """Classify the query-related cells of ``policy``.

    ``intervals``: per dimension (lower-case name), the predicate interval
    or None when the dimension is unconstrained.
    ``bounds``: per dimension, the inclusive (min, max) cell indexes
    observed at build time.
    ``force_all_boundary``: treat every cell as boundary — used when the
    header path cannot be applied (non-aggregation queries, Figure 17's
    no-precompute ablation) and every query cell's slice must be read.
    """
    ranges: List[DimRange] = []
    for dim in policy.dimensions:
        name = dim.name.lower()
        k_min, k_max = bounds[name]
        r = _dim_range(dim, intervals.get(name), k_min, k_max,
                       force_all_boundary)
        if r is None:
            return GridSearchResult(policy, empty=True)
        ranges.append(r)
    return GridSearchResult(policy, ranges)
