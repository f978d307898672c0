"""Naive-vs-optimized equivalence for the fusion hot path.

The optimized builders (sweep closure, area-sorted Hasse, memoized
overlaps, batched probabilities) must be indistinguishable from the
original quadratic reference — identical node rect-sets, Hasse edges,
sources, components and bit-for-bit identical probabilities.  The
lattice oracle :func:`repro.oracles.lattice.build_reference` keeps the
pre-optimization algorithm alive for these tests.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CellDecomposition,
    RegionLattice,
    batch_region_probabilities,
    exact_region_probability,
)
from repro.geometry import Rect
from repro.oracles.lattice import build_reference

UNIVERSE = Rect(0.0, 0.0, 200.0, 100.0)

# Coarse coordinates on purpose: snapping to a small grid makes rects
# share edges, duplicate, nest and tie on area — the cases where the
# closure, Hasse linking and source assignment can actually diverge.
coords = st.integers(min_value=0, max_value=19)


@st.composite
def grid_rects(draw):
    x = draw(coords) * 10.0
    y = draw(coords) * 5.0
    w = draw(st.integers(min_value=1, max_value=8)) * 10.0
    h = draw(st.integers(min_value=1, max_value=8)) * 5.0
    return Rect(x, y, min(UNIVERSE.max_x, x + w),
                min(UNIVERSE.max_y, y + h))


def lattice_fingerprint(lattice):
    """Everything observable about a lattice, keyed by rectangle (node
    ids are creation-order dependent and deliberately excluded)."""
    def rect_key(node_id):
        node = lattice.node(node_id)
        if node.is_top:
            return "TOP"
        if node.is_bottom:
            return "BOTTOM"
        r = node.rect
        return (r.min_x, r.min_y, r.max_x, r.max_y)

    nodes = {}
    for node in lattice.region_nodes():
        r = node.rect
        nodes[(r.min_x, r.min_y, r.max_x, r.max_y)] = \
            tuple(sorted(node.sources))
    edges = set()
    for node in lattice.nodes():
        for child in node.children:
            edges.add((rect_key(node.node_id), rect_key(child)))
    components = sorted(tuple(sorted(c)) for c in lattice.components())
    return nodes, frozenset(edges), components


class TestLatticeEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(grid_rects(), min_size=0, max_size=7))
    def test_optimized_matches_reference(self, rects):
        fast = RegionLattice(rects, UNIVERSE)
        naive = build_reference(rects, UNIVERSE)
        assert lattice_fingerprint(fast) == lattice_fingerprint(naive)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(grid_rects(), min_size=0, max_size=7))
    def test_invariants_hold(self, rects):
        RegionLattice(rects, UNIVERSE).check_invariants()


class TestIntersectionMemo:
    def test_components_and_sources_recompute_nothing(self):
        """The satellite's call-count check: pairwise overlaps are
        discovered once during construction; ``components()`` and
        source assignment reuse the memo instead of calling
        ``Rect.intersection_area`` again."""
        rects = [Rect(0, 0, 40, 30), Rect(20, 10, 60, 40),
                 Rect(100, 50, 140, 80), Rect(110, 55, 130, 70)]
        lattice = RegionLattice(rects, UNIVERSE)
        with mock.patch.object(
                Rect, "intersection_area",
                side_effect=AssertionError(
                    "components()/sources must reuse the memo")) as patched:
            components = lattice.components()
            assert patched.call_count == 0
        assert sorted(tuple(sorted(c)) for c in components) == \
            [(0, 1), (2, 3)]


class TestProbabilityEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(grid_rects(), min_size=0, max_size=5),
           st.lists(st.tuples(
               st.floats(0.05, 0.99), st.floats(0.01, 0.5)),
               min_size=0, max_size=5),
           st.lists(grid_rects(), min_size=1, max_size=6))
    def test_batch_bitwise_equal_to_scalar(self, rects, pqs, regions):
        readings = [(r, p, q)
                    for r, (p, q) in zip(rects, pqs)]
        batch = batch_region_probabilities(regions, readings, UNIVERSE.area)
        for region, got in zip(regions, batch):
            assert got == exact_region_probability(region, readings,
                                                   UNIVERSE.area)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(grid_rects(),
                              st.floats(0.5, 0.99),
                              st.floats(0.01, 0.4)),
                    min_size=0, max_size=4),
           grid_rects())
    def test_probability_in_rect_matches_augmented_reference(
            self, readings, query):
        cells = CellDecomposition(readings, UNIVERSE)
        augmented = CellDecomposition(
            list(readings) + [(query, 1.0, 1.0)], UNIVERSE)
        reference = augmented.probability_in_reading(len(readings))
        assert abs(cells.probability_in_rect(query) - reference) <= 1e-9
