"""Splitting-policy advisor — the paper's stated future work, implemented.

"In future work, we will work on an algorithm to find the best splitting
policy for DGFIndex based on the distribution of the meter data and the
query history."  (Section 8.)

The advisor balances the two costs the paper's experiments expose:

* small cells -> many GFUs -> a bigger index and more key-value gets per
  query (Figures 12/13's growing "read index" component);
* large cells -> wide boundary regions -> more over-read data per query
  (Table 3/4's growing record counts for DGF-L).

For a query with range width ``W_i`` on dimension ``i`` and cell width
``c_i``, the number of query-related cells is ``~prod(W_i / c_i)`` and the
expected fraction of *boundary* volume is ``1 - prod(max(0, W_i - 2 c_i) /
W_i)``.  The advisor multiplies these by the cost model's per-get latency
and per-record CPU cost, averages over the query history, and minimizes by
coordinate descent over a geometric grid of candidate cell counts.

Beyond the paper's single-policy question, :meth:`PolicyAdvisor.
advise_divergent` tunes a *fleet*: it clusters the logged workload on
normalized interval signatures (greedy k-medoids with max-min seeding),
searches one grid per cluster under the router-aligned what-if objective
(:class:`repro.core.dgf.whatif.WhatIfEvaluator`), and emits an
:class:`AdvisorReport` whose layouts ``fleet.add_replica_layout`` can
apply — each replica layout a specialist for one workload cluster, in the
HAIL-style divergent-tuning sense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.dgf.policy import DimensionPolicy, SplittingPolicy
from repro.errors import DGFError
from repro.hiveql.predicates import Interval
from repro.mapreduce.cluster import PAPER_CLUSTER, ClusterConfig
from repro.storage.schema import DataType, Schema, date_to_ordinal


@dataclass
class DimensionStats:
    """Observed span of one index dimension in the data sample."""

    name: str
    dtype: DataType
    low: float   # coordinate space (ordinals for dates)
    high: float

    @property
    def span(self) -> float:
        return max(self.high - self.low, 1.0)


@dataclass
class QueryProfile:
    """One historical query: per-dimension range widths in coordinate
    space (None = dimension unconstrained).  ``agg_path`` records whether
    the query could use pre-computed headers (inner cells free) or had to
    read every query-related slice (``force_all_boundary``)."""

    widths: Dict[str, Optional[float]]
    weight: float = 1.0
    agg_path: bool = True


@dataclass
class Advice:
    """Structured advisor output: the recommended grid plus the evidence.

    Serializable (``to_dict``/``from_dict``), carries the predicted cost
    under the advisor's objective, and explains itself.
    """

    policy: SplittingPolicy
    #: ``IDXPROPERTIES`` rendering of ``policy`` (Listing 3 syntax) —
    #: ready for ``CREATE INDEX`` / ``add_replica_layout(grid=...)``
    properties: Dict[str, str]
    #: searched cells per dimension (lower-case names)
    cell_counts: Dict[str, int]
    #: modelled seconds of the advised workload on this grid
    predicted_seconds: float
    #: number of logged queries this advice was fitted to
    queries: int
    rationale: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"policy": self.policy.to_dict(),
                "properties": dict(self.properties),
                "cell_counts": dict(self.cell_counts),
                "predicted_seconds": self.predicted_seconds,
                "queries": self.queries,
                "rationale": self.rationale}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Advice":
        return cls(policy=SplittingPolicy.from_dict(data["policy"]),
                   properties=dict(data["properties"]),
                   cell_counts={k: int(v)
                                for k, v in data["cell_counts"].items()},
                   predicted_seconds=float(data["predicted_seconds"]),
                   queries=int(data["queries"]),
                   rationale=data.get("rationale", ""))


# --------------------------------------------------------------- clustering
def signature_of(profile: QueryProfile, stats: Dict[str, DimensionStats],
                 index_columns: Sequence[str]) -> Dict[str, float]:
    """Normalized interval signature of one query: per dimension, the
    constrained width as a fraction of the data span, clipped to [0, 1]
    (an unconstrained dimension is a full-span 1.0)."""
    signature: Dict[str, float] = {}
    for name in index_columns:
        key = name.lower()
        width = profile.widths.get(key)
        if width is None:
            signature[key] = 1.0
        else:
            signature[key] = min(1.0, max(0.0, width / stats[key].span))
    return signature


def signature_distance(a: Dict[str, float], b: Dict[str, float]) -> float:
    """Euclidean distance between signatures, normalized by dimension
    count so it stays in [0, 1] regardless of index arity."""
    keys = sorted(set(a) | set(b))
    if not keys:
        return 0.0
    total = sum((a.get(key, 1.0) - b.get(key, 1.0)) ** 2 for key in keys)
    return math.sqrt(total / len(keys))


def _assign(signatures: Sequence[Dict[str, float]],
            medoids: Sequence[int]) -> List[int]:
    """Nearest-medoid assignment, ties broken by lowest cluster index."""
    return [min(range(len(medoids)),
                key=lambda c: (signature_distance(sig,
                                                  signatures[medoids[c]]),
                               c))
            for sig in signatures]


def cluster_signatures(signatures: Sequence[Dict[str, float]],
                       max_clusters: int,
                       min_separation: float = 0.05,
                       ) -> Tuple[List[int], List[int]]:
    """Greedy k-medoids over query signatures, fully deterministic.

    Seeds with max-min (farthest-point) selection starting from index 0,
    stops early when the farthest remaining signature is within
    ``min_separation`` of an existing medoid (identical workloads yield
    one cluster no matter the budget), then runs one true-medoid
    refinement pass.  Ties always break toward the lowest index.

    Returns ``(medoid_indices, assignments)`` where ``assignments[i]`` is
    the cluster of ``signatures[i]``.
    """
    n = len(signatures)
    if n == 0:
        return [], []
    medoids = [0]
    while len(medoids) < min(max(1, max_clusters), n):
        dists = [min(signature_distance(signatures[i], signatures[m])
                     for m in medoids) for i in range(n)]
        farthest = max(range(n), key=lambda i: (dists[i], -i))
        if dists[farthest] <= min_separation:
            break
        medoids.append(farthest)
    assignments = _assign(signatures, medoids)
    refined = []
    for cluster, medoid in enumerate(medoids):
        members = [i for i, a in enumerate(assignments) if a == cluster]
        refined.append(min(
            members,
            key=lambda i: (sum(signature_distance(signatures[i],
                                                  signatures[j])
                               for j in members), i)))
    if refined != medoids:
        medoids = refined
        assignments = _assign(signatures, medoids)
    return medoids, assignments


@dataclass
class LayoutAdvice:
    """One specialist replica layout of an :class:`AdvisorReport`.

    ``name`` is the replica-layout name to register (or ``"primary"``
    when the cluster's best grid *is* the primary's — nothing to build,
    the router's primary-first tie-break already serves it).  A layout
    may serve several clusters whose searches converged on the same grid;
    ``medoids`` lists each served cluster's medoid signature.
    """

    name: str
    advice: Advice
    medoids: List[Dict[str, float]] = field(default_factory=list)
    queries: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "advice": self.advice.to_dict(),
                "medoids": [dict(m) for m in self.medoids],
                "queries": self.queries}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LayoutAdvice":
        return cls(name=data["name"],
                   advice=Advice.from_dict(data["advice"]),
                   medoids=[dict(m) for m in data["medoids"]],
                   queries=int(data["queries"]))


@dataclass
class AdvisorReport:
    """Divergent-tuning output: one specialist layout per workload
    cluster, plus the best *uniform* grid for comparison."""

    table: str
    index: str
    #: best single grid for the whole workload (the paper's question)
    uniform: Advice
    #: per-cluster specialists, deduplicated by grid
    layouts: List[LayoutAdvice]
    #: per logged query, index into :attr:`layouts`
    assignments: List[int]
    #: per logged query, its normalized interval signature
    signatures: List[Dict[str, float]]
    predicted_uniform_seconds: float
    predicted_divergent_seconds: float

    @property
    def predicted_speedup(self) -> float:
        """Modelled aggregate win of the divergent fleet over the best
        uniform grid."""
        return (self.predicted_uniform_seconds
                / max(self.predicted_divergent_seconds, 1e-12))

    def layout_names(self) -> List[str]:
        """Replica layouts to build (``"primary"`` needs no build)."""
        return [layout.name for layout in self.layouts
                if layout.name != "primary"]

    def specialist_for(self, signature: Dict[str, float]) -> str:
        """Layout whose served medoid is nearest to ``signature`` — the
        replica the router *should* choose for such a query."""
        if not self.layouts:
            return "primary"
        best: Optional[Tuple[float, int, int]] = None
        for position, layout in enumerate(self.layouts):
            for rank, medoid in enumerate(layout.medoids):
                key = (signature_distance(signature, medoid), position,
                       rank)
                if best is None or key < best:
                    best = key
        assert best is not None
        return self.layouts[best[1]].name

    def to_dict(self) -> Dict[str, Any]:
        return {"table": self.table, "index": self.index,
                "uniform": self.uniform.to_dict(),
                "layouts": [layout.to_dict() for layout in self.layouts],
                "assignments": list(self.assignments),
                "signatures": [dict(s) for s in self.signatures],
                "predicted_uniform_seconds":
                    self.predicted_uniform_seconds,
                "predicted_divergent_seconds":
                    self.predicted_divergent_seconds}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AdvisorReport":
        return cls(table=data["table"], index=data["index"],
                   uniform=Advice.from_dict(data["uniform"]),
                   layouts=[LayoutAdvice.from_dict(layout)
                            for layout in data["layouts"]],
                   assignments=[int(a) for a in data["assignments"]],
                   signatures=[dict(s) for s in data["signatures"]],
                   predicted_uniform_seconds=float(
                       data["predicted_uniform_seconds"]),
                   predicted_divergent_seconds=float(
                       data["predicted_divergent_seconds"]))


class PolicyAdvisor:
    """Chooses interval sizes from a data sample and a query history."""

    #: candidate number of cells per dimension (geometric grid)
    CANDIDATE_CELL_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

    def __init__(self, schema: Schema, index_columns: Sequence[str],
                 cluster: ClusterConfig = PAPER_CLUSTER,
                 records_per_unit_volume: float = 1.0):
        self.schema = schema
        self.index_columns = list(index_columns)
        self.cluster = cluster
        #: expected matching records per unit of normalized query volume
        #: (callers pass total_records so boundary over-read is in records)
        self.records_per_unit_volume = records_per_unit_volume

    # ------------------------------------------------------------- profiling
    def profile_data(self, rows: Sequence[Sequence],
                     ) -> Dict[str, DimensionStats]:
        """Min/max per index dimension over a sample of rows."""
        if not rows:
            raise DGFError("cannot profile an empty sample")
        stats: Dict[str, DimensionStats] = {}
        for name in self.index_columns:
            position = self.schema.index_of(name)
            dtype = self.schema.dtype_of(name)
            coords = [self._coord(dtype, row[position]) for row in rows]
            stats[name.lower()] = DimensionStats(
                name=name, dtype=dtype, low=min(coords), high=max(coords))
        return stats

    def profile_queries(self, histories: Sequence[Dict[str, Interval]],
                        stats: Dict[str, DimensionStats]
                        ) -> List[QueryProfile]:
        """Turn interval predicates into per-dimension range widths."""
        profiles = []
        for intervals in histories:
            widths: Dict[str, Optional[float]] = {}
            for name in self.index_columns:
                key = name.lower()
                interval = intervals.get(key)
                if interval is None:
                    widths[key] = None
                    continue
                dim = stats[key]
                low = self._coord(dim.dtype, interval.low) \
                    if interval.low is not None else dim.low
                high = self._coord(dim.dtype, interval.high) \
                    if interval.high is not None else dim.high
                widths[key] = max(high - low, 1e-9)
            profiles.append(QueryProfile(widths=widths))
        return profiles

    @staticmethod
    def _coord(dtype: DataType, value) -> float:
        if dtype is DataType.DATE:
            return float(date_to_ordinal(value))
        return float(value)

    # ------------------------------------------------------------------ cost
    def expected_query_cost(self, cell_counts: Dict[str, int],
                            stats: Dict[str, DimensionStats],
                            profiles: Sequence[QueryProfile]) -> float:
        """Average modelled seconds per query for a candidate grid."""
        c = self.cluster
        total = 0.0
        weight_sum = 0.0
        for profile in profiles:
            cells = 1.0
            inside_fraction = 1.0
            volume_fraction = 1.0
            for key, count in cell_counts.items():
                dim = stats[key]
                cell_width = dim.span / count
                width = profile.widths.get(key)
                if width is None:
                    width = dim.span
                cells *= max(1.0, width / cell_width)
                inside_fraction *= max(0.0, width - 2 * cell_width) \
                    / dim.span
                volume_fraction *= width / dim.span
            boundary_records = (self.records_per_unit_volume
                                * max(0.0, volume_fraction
                                      - inside_fraction))
            slots = c.total_map_slots
            cost = (cells * c.kv_get_seconds
                    + boundary_records * c.cpu_seconds_per_record / slots)
            total += profile.weight * cost
            weight_sum += profile.weight
        return total / max(weight_sum, 1e-12)

    # ------------------------------------------------------------ the search
    def _descend(self, objective: Callable[[Dict[str, int]], float],
                 passes: int = 3) -> Tuple[Dict[str, int], float]:
        """Coordinate descent over :attr:`CANDIDATE_CELL_COUNTS`,
        minimizing ``objective(cell_counts)``.  Deterministic: dimensions
        in index-column order, candidates in grid order, strict-improve
        threshold."""
        cell_counts = {name.lower(): 16 for name in self.index_columns}
        best_cost = objective(cell_counts)
        for _ in range(passes):
            improved = False
            for name in self.index_columns:
                key = name.lower()
                start = best_count = cell_counts[key]
                for candidate in self.CANDIDATE_CELL_COUNTS:
                    cell_counts[key] = candidate
                    cost = objective(cell_counts)
                    if cost < best_cost - 1e-15:
                        best_cost = cost
                        best_count = candidate
                cell_counts[key] = best_count
                improved = improved or best_count != start
            if not improved:
                break
        return cell_counts, best_cost

    def advise_profiles(self, stats: Dict[str, DimensionStats],
                        profiles: Sequence[QueryProfile],
                        passes: int = 3,
                        objective: Optional[
                            Callable[[Dict[str, int]], float]] = None,
                        ) -> Advice:
        """Search the cheapest grid for already-profiled queries.

        ``objective`` defaults to :meth:`expected_query_cost`; the
        divergent search passes the router-aligned what-if objective
        instead.
        """
        if not profiles:
            raise DGFError("advisor needs at least one historical query")
        if objective is None:
            def objective(cell_counts: Dict[str, int]) -> float:
                return self.expected_query_cost(cell_counts, stats,
                                                profiles)
        cell_counts, cost = self._descend(objective, passes)
        policy = self._to_policy(cell_counts, stats)
        grid = ", ".join(f"{key}={cell_counts[key]}"
                         for key in sorted(cell_counts))
        return Advice(policy=policy,
                      properties=self.properties_for(policy),
                      cell_counts=dict(cell_counts),
                      predicted_seconds=cost,
                      queries=len(profiles),
                      rationale=(f"coordinate descent over "
                                 f"{len(profiles)} logged queries "
                                 f"settled on cells [{grid}] at modelled "
                                 f"cost {cost:.6g}s"))

    def advise(self, rows: Sequence[Sequence],
               query_history: Sequence[Dict[str, Interval]],
               passes: int = 3) -> Advice:
        """Search the cheapest splitting policy, with the evidence.

        Coordinate descent on :meth:`expected_query_cost`; the result is a
        serializable :class:`Advice` (policy + ``IDXPROPERTIES`` + cell
        counts + predicted cost + rationale).
        """
        stats = self.profile_data(rows)
        profiles = self.profile_queries(query_history, stats)
        return self.advise_profiles(stats, profiles, passes)

    def advise_divergent(self, stats: Dict[str, DimensionStats],
                         profiles: Sequence[QueryProfile],
                         evaluator, *,
                         max_layouts: int = 2,
                         passes: int = 3,
                         min_separation: float = 0.05,
                         layout_prefix: str = "adv-",
                         table: str = "", index: str = "",
                         primary_cell_counts: Optional[Dict[str, int]]
                         = None) -> AdvisorReport:
        """Divergent fleet tuning: one specialist grid per workload
        cluster, priced by a router-aligned ``evaluator``
        (:class:`repro.core.dgf.whatif.WhatIfEvaluator`).

        Clusters the profiles' normalized signatures (at most
        ``max_layouts`` clusters), coordinate-descends one grid per
        cluster under ``evaluator.workload_seconds``, and dedupes
        clusters whose searches converge on the same grid.  A cluster
        whose best grid equals ``primary_cell_counts`` maps to the
        ``"primary"`` pseudo-layout — nothing to build; the router's
        primary-first tie-break already serves it.
        """
        if not profiles:
            raise DGFError("advisor needs at least one historical query")
        signatures = [signature_of(profile, stats, self.index_columns)
                      for profile in profiles]
        uniform = self.advise_profiles(
            stats, profiles, passes,
            objective=lambda cc: evaluator.workload_seconds(profiles, cc))
        uniform.rationale = (f"best single uniform grid for all "
                             f"{len(profiles)} logged queries; "
                             + uniform.rationale)

        medoids, assignments = cluster_signatures(
            signatures, max_layouts, min_separation)
        per_cluster: List[Tuple[int, Advice]] = []
        for cluster, _medoid in enumerate(medoids):
            members = [profiles[i] for i, a in enumerate(assignments)
                       if a == cluster]
            advice = self.advise_profiles(
                stats, members, passes,
                objective=lambda cc, members=members:
                    evaluator.workload_seconds(members, cc))
            per_cluster.append((cluster, advice))

        # Dedupe clusters that converged on the same grid; a grid equal
        # to the primary's needs no replica at all.
        grid_to_layout: Dict[Tuple[Tuple[str, int], ...], int] = {}
        layouts: List[LayoutAdvice] = []
        cluster_to_layout: Dict[int, int] = {}
        built = 0
        primary_grid = None
        if primary_cell_counts is not None:
            primary_grid = tuple(sorted(primary_cell_counts.items()))
        for cluster, advice in per_cluster:
            grid = tuple(sorted(advice.cell_counts.items()))
            if grid in grid_to_layout:
                position = grid_to_layout[grid]
                layout = layouts[position]
                layout.medoids.append(signatures[medoids[cluster]])
                layout.queries += advice.queries
                layout.advice.predicted_seconds += \
                    advice.predicted_seconds
                layout.advice.queries += advice.queries
            else:
                if grid == primary_grid:
                    name = "primary"
                else:
                    name = f"{layout_prefix}{built}"
                    built += 1
                position = len(layouts)
                grid_to_layout[grid] = position
                layouts.append(LayoutAdvice(
                    name=name, advice=advice,
                    medoids=[signatures[medoids[cluster]]],
                    queries=advice.queries))
            cluster_to_layout[cluster] = position

        divergent_seconds = sum(layout.advice.predicted_seconds
                                for layout in layouts)
        return AdvisorReport(
            table=table, index=index, uniform=uniform, layouts=layouts,
            assignments=[cluster_to_layout[a] for a in assignments],
            signatures=signatures,
            predicted_uniform_seconds=uniform.predicted_seconds,
            predicted_divergent_seconds=divergent_seconds)

    def _to_policy(self, cell_counts: Dict[str, int],
                   stats: Dict[str, DimensionStats]) -> SplittingPolicy:
        dims = []
        for name in self.index_columns:
            key = name.lower()
            dim = stats[key]
            interval = dim.span / cell_counts[key]
            if dim.dtype in (DataType.INT, DataType.BIGINT, DataType.DATE):
                interval = max(1.0, math.ceil(interval))
            origin = dim.low
            if dim.dtype is DataType.DATE:
                from repro.storage.schema import ordinal_to_date
                origin_value = ordinal_to_date(int(origin))
            elif dim.dtype in (DataType.INT, DataType.BIGINT):
                origin_value = int(origin)
            else:
                origin_value = origin
            dims.append(DimensionPolicy(name=dim.name, dtype=dim.dtype,
                                        origin=origin_value,
                                        interval=interval))
        return SplittingPolicy(dims)

    @staticmethod
    def properties_for(policy: SplittingPolicy) -> Dict[str, str]:
        """Render a policy as ``IDXPROPERTIES`` values (Listing 3 syntax)."""
        out: Dict[str, str] = {}
        for dim in policy.dimensions:
            if dim.dtype is DataType.DATE:
                out[dim.name] = f"{dim.origin}_{int(dim.interval)}d"
            else:
                interval = dim.interval
                interval_text = str(int(interval)) \
                    if interval == int(interval) else str(interval)
                out[dim.name] = f"{dim.origin}_{interval_text}"
        return out
