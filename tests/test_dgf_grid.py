"""Tests for the inner/boundary grid decomposition (Algorithm 3's core)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dgf.grid import search_grid
from repro.core.dgf.policy import DimensionPolicy, SplittingPolicy
from repro.hiveql.predicates import Interval
from repro.pyramid import cell_coords, cover_box, decompose_region
from repro.storage.schema import DataType, date_to_ordinal, ordinal_to_date


@pytest.fixture
def policy():
    return SplittingPolicy([
        DimensionPolicy(name="A", dtype=DataType.BIGINT, origin=1,
                        interval=3),
        DimensionPolicy(name="B", dtype=DataType.BIGINT, origin=11,
                        interval=2),
    ])


#: bounds matching the paper's Figure 5 data space (A in 1..13, B in 11..19)
PAPER_BOUNDS = {"a": (0, 3), "b": (0, 3)}


class TestPaperExample:
    def test_listing2_query_region(self, policy):
        """Listing 2 / Figure 7: A in [5, 12), B in [12, 16).  The inner
        region is {7 <= A < 10, 13 <= B < 15} = GFU '7_13'; everything else
        overlapping is boundary."""
        intervals = {"a": Interval(low=5, high=12),
                     "b": Interval(low=12, high=16)}
        result = search_grid(policy, intervals, PAPER_BOUNDS)
        assert result.inner_keys == ["7_13"]
        assert set(result.boundary_keys) == {
            "4_11", "4_13", "4_15", "7_11", "7_15",
            "10_11", "10_13", "10_15"}

    def test_point_query_has_no_inner(self, policy):
        """Paper: 'In point query case, there is no inner GFU'."""
        intervals = {"a": Interval.point(8), "b": Interval.point(14)}
        result = search_grid(policy, intervals, PAPER_BOUNDS)
        assert result.inner_keys == []
        assert result.boundary_keys == ["7_13"]

    def test_cell_aligned_query_is_all_inner(self, policy):
        intervals = {"a": Interval(low=4, high=10),
                     "b": Interval(low=13, high=15)}
        result = search_grid(policy, intervals, PAPER_BOUNDS)
        assert sorted(result.inner_keys) == ["4_13", "7_13"]
        assert result.boundary_keys == []


class TestMissingDimensions:
    def test_unconstrained_dimension_spans_bounds(self, policy):
        intervals = {"a": Interval(low=4, high=10), "b": None}
        result = search_grid(policy, intervals, PAPER_BOUNDS)
        # a-cells 1..2 fully covered; b unconstrained -> covered everywhere
        assert len(result.inner_keys) == 2 * 4
        assert result.boundary_keys == []

    def test_bounds_clamp_the_search(self, policy):
        intervals = {"a": Interval(low=-100, high=100), "b": None}
        result = search_grid(policy, intervals, {"a": (1, 2), "b": (0, 0)})
        assert result.num_cells == 2


class TestEdgeCases:
    def test_empty_interval(self, policy):
        intervals = {"a": Interval(low=9, high=5), "b": None}
        result = search_grid(policy, intervals, PAPER_BOUNDS)
        assert result.empty
        assert result.all_keys == []

    def test_region_outside_bounds(self, policy):
        intervals = {"a": Interval(low=1000), "b": None}
        assert search_grid(policy, intervals, PAPER_BOUNDS).empty

    def test_force_all_boundary(self, policy):
        """Non-aggregation queries treat every query cell as boundary."""
        intervals = {"a": Interval(low=4, high=10),
                     "b": Interval(low=13, high=15)}
        result = search_grid(policy, intervals, PAPER_BOUNDS,
                             force_all_boundary=True)
        assert result.inner_keys == []
        assert sorted(result.boundary_keys) == ["4_13", "7_13"]

    def test_counts_are_range_products(self, policy):
        """Counts come from the per-dimension ranges, without keys."""
        intervals = {"a": Interval(low=5, high=12),
                     "b": Interval(low=12, high=16)}
        result = search_grid(policy, intervals, PAPER_BOUNDS)
        assert [(r.lo, r.hi) for r in result.ranges] == [(1, 3), (0, 2)]
        assert (result.num_cells, result.num_inner,
                result.num_boundary) == (9, 1, 8)
        assert result.inner_box == ((2, 1), (2, 1))
        assert result.num_inner == len(result.inner_keys)
        assert result.num_boundary == len(result.boundary_keys)
        empty = search_grid(policy, {"a": Interval(low=99, high=1),
                                     "b": None}, PAPER_BOUNDS)
        assert (empty.num_cells, empty.num_inner, empty.inner_box) == \
            (0, 0, None)
        forced = search_grid(policy, intervals, PAPER_BOUNDS,
                             force_all_boundary=True)
        assert (forced.num_inner, forced.num_boundary) == (0, 9)
        assert forced.inner_box is None


@settings(max_examples=80, deadline=None)
@given(a_lo=st.integers(0, 30), a_width=st.integers(0, 20),
       b_lo=st.integers(0, 30), b_width=st.integers(0, 20),
       value_a=st.integers(0, 40), value_b=st.integers(0, 40))
def test_property_decomposition_is_sound(a_lo, a_width, b_lo,
                                         b_width, value_a, value_b):
    policy = SplittingPolicy([
        DimensionPolicy(name="A", dtype=DataType.BIGINT, origin=1,
                        interval=3),
        DimensionPolicy(name="B", dtype=DataType.BIGINT, origin=11,
                        interval=2),
    ])
    """For any query box and any point: if the point matches the predicate
    its cell is inner or boundary; if its cell is inner, the point matches.
    This is exactly the invariant that makes answering the inner region
    from pre-computed headers correct."""
    intervals = {
        "a": Interval(low=a_lo, high=a_lo + a_width),
        "b": Interval(low=b_lo, high=b_lo + b_width),
    }
    bounds = {"a": (-5, 20), "b": (-10, 20)}
    result = search_grid(policy, intervals, bounds)
    key = policy.key_of_row((value_a, value_b))
    matches = (intervals["a"].contains(value_a)
               and intervals["b"].contains(value_b))
    in_bounds = all(
        lo <= dim.cell_of(v) <= hi
        for dim, v, (lo, hi) in zip(
            policy.dimensions, (value_a, value_b),
            (bounds["a"], bounds["b"])))
    if matches and in_bounds:
        assert key in result.inner_keys or key in result.boundary_keys
    if key in result.inner_keys:
        assert matches


# ------------------------------------------------- per-cell reference oracle
def reference_search(policy, intervals, bounds, force_all_boundary=False):
    """The per-cell enumeration ``search_grid`` used before it planned
    with index ranges: test every cell of every dimension, then classify
    the Cartesian product one key at a time.  Returns ``None`` for an
    empty region, else ``(inner_keys, boundary_keys)``."""
    per_dim = []
    for dim in policy.dimensions:
        name = dim.name.lower()
        interval = intervals.get(name)
        span = dim.cell_span(interval, *bounds[name])
        if span is None:
            return None
        cells = [(k, not force_all_boundary
                  and dim.covers_cell(interval, k))
                 for k in range(span[0], span[1] + 1)
                 if dim.overlaps_cell(interval, k)]
        if not cells:
            return None
        per_dim.append(cells)
    inner, boundary = [], []
    for combo in itertools.product(*per_dim):
        key = policy.key_of_cells([k for k, _covered in combo])
        if all(covered for _k, covered in combo):
            inner.append(key)
        else:
            boundary.append(key)
    return inner, boundary


_DATE_BASE = date_to_ordinal("2012-12-01")


@st.composite
def grid_dimension(draw, name):
    """A dimension policy plus a strategy-drawn predicate interval whose
    ends are arbitrary values or exact cell boundaries."""
    dtype = draw(st.sampled_from(
        [DataType.BIGINT, DataType.DOUBLE, DataType.DATE]))
    if dtype is DataType.BIGINT:
        dim = DimensionPolicy(name=name, dtype=dtype,
                              origin=draw(st.integers(-10, 10)),
                              interval=draw(st.integers(1, 5)))
        arbitrary = st.integers(-20, 60)
    elif dtype is DataType.DOUBLE:
        dim = DimensionPolicy(
            name=name, dtype=dtype,
            origin=draw(st.sampled_from([0.0, -3.5, 1.25, 0.1])),
            interval=draw(st.sampled_from([0.1, 0.3, 0.5, 1.0, 2.5])))
        arbitrary = st.floats(-10, 30, allow_nan=False)
    else:
        dim = DimensionPolicy(
            name=name, dtype=dtype,
            origin=ordinal_to_date(_DATE_BASE + draw(st.integers(-5, 5))),
            interval=draw(st.integers(1, 7)))
        arbitrary = st.integers(-20, 60).map(
            lambda d: ordinal_to_date(_DATE_BASE + d))
    on_boundary = st.integers(-4, 14).map(dim.cell_start)
    end = st.one_of(st.none(), arbitrary, on_boundary)
    interval = draw(st.one_of(
        st.none(),
        st.builds(Interval, low=end, high=end,
                  low_inclusive=st.booleans(),
                  high_inclusive=st.booleans())))
    k_min = draw(st.integers(-3, 6))
    bounds = (k_min, k_min + draw(st.integers(0, 9)))
    return dim, interval, bounds


@st.composite
def grid_query(draw):
    dims = [draw(grid_dimension(name)) for name in
            ["a", "b", "c"][:draw(st.integers(1, 3))]]
    policy = SplittingPolicy([dim for dim, _i, _b in dims])
    intervals = {dim.name: interval for dim, interval, _b in dims}
    bounds = {dim.name: b for dim, _i, b in dims}
    return policy, intervals, bounds, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(query=grid_query())
def test_box_search_matches_per_cell_oracle(query):
    """Same keys, same order, same counts as the per-cell enumeration:
    the flat header fold order is unchanged by planning with ranges."""
    policy, intervals, bounds, force = query
    expected = reference_search(policy, intervals, bounds, force)
    result = search_grid(policy, intervals, bounds,
                         force_all_boundary=force)
    if expected is None:
        assert result.empty
        assert (result.num_cells, result.inner_keys,
                result.boundary_keys) == (0, [], [])
        return
    inner, boundary = expected
    assert not result.empty
    assert result.inner_keys == inner
    assert result.boundary_keys == boundary
    assert result.all_keys == inner + boundary
    assert result.num_inner == len(inner)
    assert result.num_boundary == len(boundary)
    assert result.num_cells == len(inner) + len(boundary)
    if force:
        assert not inner


@settings(max_examples=150, deadline=None)
@given(query=grid_query(), fanout=st.integers(2, 3),
       levels=st.integers(1, 3), data=st.data())
def test_box_decompose_matches_cover_of_key_box(query, fanout, levels,
                                                data):
    """``decompose_region`` on the search's inner box equals
    ``cover_box`` on the box recovered from the inner keys, with random
    blocked (tombstone-demoted) cells kept out of every node."""
    policy, intervals, bounds, _force = query
    result = search_grid(policy, intervals, bounds)
    inner = result.inner_keys
    if not inner:
        assert result.inner_box is None
        assert decompose_region(policy, result.inner_box, (), fanout,
                                levels) is None
        return
    coords = [cell_coords(policy, key) for key in inner]
    lo = tuple(map(min, zip(*coords)))
    hi = tuple(map(max, zip(*coords)))
    assert result.inner_box == (lo, hi)
    blocked = data.draw(st.lists(st.sampled_from(inner), max_size=4,
                                 unique=True))
    cover = decompose_region(policy, result.inner_box, blocked, fanout,
                             levels)
    nodes, leaves = cover_box(
        lo, hi, frozenset(cell_coords(policy, key) for key in blocked),
        fanout, levels)
    assert (cover.nodes, cover.leaves, cover.levels) == \
        (nodes, leaves, levels)
