"""Greedy decomposition of an inner region into maximal pyramid nodes.

Algorithm 3 gives the query's inner region as an axis-aligned box of
grid cells, in integer cell coordinates.  :func:`cover_box` covers that
box with the largest aligned pyramid blocks that fit entirely inside it
(k²-tree style), dropping to level-0 cells only at the misaligned
fringe — O(polylog) probes instead of one probe per inner cell, found
by walking only the blocks that meet the box.  :func:`resolve_cover` then fetches the
cover, recursing through ``demoted`` markers down to base GFU entries,
and returns the header-bearing values in canonical coordinate order so
the handler's float folds stay deterministic.

Both halves are pure geometry plus batched KV reads; neither mutates
anything, so the same code prices hypothetical pyramids for the layout
router and the what-if evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.dgf.policy import SplittingPolicy
from repro.pyramid.build import cell_coords, children_of
from repro.pyramid.store import NodeId, PyramidNode, PyramidStore

Coords = Tuple[int, ...]


@dataclass
class PyramidCover:
    """A disjoint cover of the inner box: internal nodes + fringe cells."""

    nodes: List[NodeId] = field(default_factory=list)
    leaves: List[Coords] = field(default_factory=list)
    #: built pyramid depth the cover was computed against.
    levels: int = 0

    @property
    def probes(self) -> int:
        return len(self.nodes) + len(self.leaves)


def cover_box(lo: Coords, hi: Coords, blocked: FrozenSet[Coords],
              fanout: int, levels: int) -> Tuple[List[NodeId],
                                                 List[Coords]]:
    """Maximal aligned cover of the inclusive cell box ``[lo, hi]``.

    A block is emitted as a node only when it lies entirely inside the
    box and contains no ``blocked`` cell (cells whose summaries may not
    be used — tombstone-demoted inner cells); everything else recurses
    down to level-0 ``leaves``.  Traversal order is canonical (sorted
    blocks, children ascending), so the cover — and therefore every
    downstream float fold — is deterministic.
    """
    nodes: List[NodeId] = []
    leaves: List[Coords] = []

    def overlapping_children(block: Coords, child_size: int):
        # Per axis, only the children whose extent meets the box: the
        # walk never visits a block outside it.
        return product(*[range(max(b * fanout, l // child_size),
                               min(b * fanout + fanout - 1,
                                   h // child_size) + 1)
                         for b, l, h in zip(block, lo, hi)])

    def recurse(level: int, block: Coords) -> None:
        if level == 0:  # only when the pyramid has no levels at all
            if block not in blocked:
                leaves.append(block)
            return
        size = fanout ** level
        if all(l <= b * size and b * size + size - 1 <= h
               for b, l, h in zip(block, lo, hi)) and not any(
                all(b * size <= c <= b * size + size - 1
                    for b, c in zip(block, cell))
                for cell in blocked):
            nodes.append((level, block))
            return
        if level == 1:
            leaves.extend(cell for cell in overlapping_children(block, 1)
                          if cell not in blocked)
            return
        for child in overlapping_children(block, size // fanout):
            recurse(level - 1, child)

    top = fanout ** levels
    for block in product(*[range(l // top, h // top + 1)
                           for l, h in zip(lo, hi)]):
        recurse(levels, block)
    return nodes, leaves


def decompose_region(policy: SplittingPolicy,
                     inner_box: Optional[Tuple[Coords, Coords]],
                     blocked_keys: Iterable[str],
                     fanout: int, levels: int) -> Optional[PyramidCover]:
    """Cover the inclusive inner cell box ``inner_box = (lo, hi)`` (the
    box the grid search produced, *before* tombstone demotion) with
    maximal pyramid nodes, keeping ``blocked_keys`` cells out of every
    node.

    Only the blocked keys are mapped back to cell coordinates, so the
    cost is O(blocked + probes), independent of the box's volume.
    Returns ``None`` when there is no inner box or no built pyramid.
    """
    if inner_box is None or levels <= 0:
        return None
    lo, hi = inner_box
    blocked = frozenset(cell_coords(policy, key) for key in blocked_keys)
    nodes, leaves = cover_box(lo, hi, blocked, fanout, levels)
    return PyramidCover(nodes=nodes, leaves=leaves, levels=levels)


def resolve_cover(pstore: PyramidStore, store, policy: SplittingPolicy,
                  cover: PyramidCover,
                  fanout: int) -> Tuple[List[Any], Dict[str, int]]:
    """Fetch a cover's nodes and fringe cells from the KV store.

    Demoted markers expand into their children and are re-fetched,
    level by level, until everything resolves to either a summarizable
    node or a base GFU entry.  Returns the header-bearing values sorted
    by region origin (canonical fold order) plus the probe statistics
    surfaced in ``EXPLAIN`` / the ``dgf.pyramid`` span:

    * ``nodes`` — internal nodes whose summaries were used,
    * ``leaves`` — level-0 header probes issued,
    * ``levels`` — highest node level used (0 when the fringe covered
      everything),
    * ``gets`` — physical KV probes issued by the pyramid path,
    * ``inner_hits`` — present base GFUs represented, which equals the
      flat path's inner-GFU hit count by construction.
    """
    contributions: List[Tuple[Coords, Any]] = []
    nodes_used = 0
    top_level = 0
    gets = 0
    leaves: List[Coords] = list(cover.leaves)
    pending: List[NodeId] = sorted(cover.nodes)
    while pending:
        fetched = pstore.multi_get(pending)
        gets += len(pending)
        next_pending: List[NodeId] = []
        for level, block in pending:
            node = fetched.get((level, block))
            if node is None:
                continue  # empty region: no GFU exists under this block
            if node.demoted:
                if level == 1:
                    leaves.extend(children_of(block, fanout))
                else:
                    next_pending.extend(
                        (level - 1, child)
                        for child in children_of(block, fanout))
            else:
                size = fanout ** level
                contributions.append(
                    (tuple(b * size for b in block), node))
                nodes_used += 1
                top_level = max(top_level, level)
        pending = sorted(next_pending)
    leaves = sorted(set(leaves))
    leaf_keys = [policy.key_of_cells(cell) for cell in leaves]
    found = store.multi_get(leaf_keys)
    gets += len(leaf_keys)
    leaf_hits = 0
    for cell, key in zip(leaves, leaf_keys):
        value = found.get(key)
        if value is not None:
            contributions.append((cell, value))
            leaf_hits += 1
    contributions.sort(key=lambda item: item[0])
    inner_hits = leaf_hits + sum(
        obj.cells for _, obj in contributions
        if isinstance(obj, PyramidNode))
    stats = {"nodes": nodes_used, "leaves": len(leaf_keys),
             "levels": top_level, "gets": gets, "inner_hits": inner_hits}
    return [obj for _, obj in contributions], stats
