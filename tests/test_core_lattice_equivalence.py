"""Naive-vs-optimized equivalence for the fusion hot path.

The optimized builders (sweep closure, area-sorted Hasse, memoized
overlaps, incremental evolution, batched probabilities) must be
indistinguishable from the original quadratic reference — identical
node rect-sets, Hasse edges, sources, components and bit-for-bit
identical probabilities.  ``RegionLattice.build_reference`` keeps the
pre-optimization algorithm alive purely for these tests.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CellDecomposition,
    FusionEngine,
    NormalizedReading,
    RegionLattice,
    SensorSpec,
    batch_region_probabilities,
    eq7_region_probability,
    exact_region_probability,
)
from repro.geometry import Rect

UNIVERSE = Rect(0.0, 0.0, 200.0, 100.0)

SPEC = SensorSpec("Test", carry_probability=0.95,
                  detection_probability=0.9, misident_probability=0.05,
                  time_to_live=30.0)

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
        naive = RegionLattice.build_reference(rects, UNIVERSE)
        assert lattice_fingerprint(fast) == lattice_fingerprint(naive)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(grid_rects(), min_size=0, max_size=7))
    def test_invariants_hold(self, rects):
        RegionLattice(rects, UNIVERSE).check_invariants()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(grid_rects(), min_size=1, max_size=6),
           grid_rects())
    def test_closure_with_added_matches_full_build(self, rects, extra):
        before = RegionLattice(rects, UNIVERSE)
        evolved = RegionLattice.closure_with_added(
            before.closure_boxes(),
            (extra.min_x, extra.min_y, extra.max_x, extra.max_y))
        seeded = RegionLattice(rects + [extra], UNIVERSE,
                               seed_boxes=evolved)
        full = RegionLattice(rects + [extra], UNIVERSE)
        assert lattice_fingerprint(seeded) == lattice_fingerprint(full)
        seeded.check_invariants()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(grid_rects(), min_size=2, max_size=6),
           st.integers(min_value=0, max_value=5))
    def test_closure_with_removed_matches_full_build(self, rects, drop):
        drop = drop % len(rects)
        removed = rects[drop]
        survivors = rects[:drop] + rects[drop + 1:]
        # Remove every duplicate of the dropped rectangle, the same
        # granularity the engine's box-set diff operates at.
        removed_box = (removed.min_x, removed.min_y,
                       removed.max_x, removed.max_y)
        survivors = [r for r in survivors
                     if (r.min_x, r.min_y, r.max_x, r.max_y)
                     != removed_box]
        before = RegionLattice(rects, UNIVERSE)
        new_inputs = {(r.min_x, r.min_y, r.max_x, r.max_y)
                      for r in survivors}
        evolved = before.closure_with_removed(removed_box, new_inputs)
        seeded = RegionLattice(survivors, UNIVERSE, seed_boxes=evolved)
        full = RegionLattice(survivors, UNIVERSE)
        assert lattice_fingerprint(seeded) == lattice_fingerprint(full)
        seeded.check_invariants()


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
        for exact, scalar in ((True, exact_region_probability),
                              (False, eq7_region_probability)):
            batch = batch_region_probabilities(
                regions, readings, UNIVERSE.area, exact=exact)
            for region, got in zip(regions, batch):
                assert got == scalar(region, readings, UNIVERSE.area)

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


def _reading(i, rect, t):
    return NormalizedReading(sensor_id=f"S-{i}", object_id="walker",
                             rect=rect, time=t, spec=SPEC)


class TestIncrementalEngineEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(grid_rects(), min_size=3, max_size=9),
           st.lists(st.integers(min_value=0, max_value=2),
                    min_size=4, max_size=8))
    def test_incremental_fuse_equals_full_fuse(self, rects, ops):
        """Random add/expire/swap sequences: fusing with the previous
        result passed back is bit-for-bit a from-scratch fusion."""
        engine = FusionEngine()
        previous = None
        reuses = 0
        pool = list(rects)
        active = [pool.pop()]
        t = 0.0
        counter = 0
        for op in ops:
            t += 1.0
            if op == 0 and pool:
                active.append(pool.pop())
            elif op == 1 and len(active) > 1:
                active.pop(0)
            elif op == 2 and pool and len(active) > 1:
                active.pop(0)
                active.append(pool.pop())
            readings = []
            for rect in active:
                readings.append(_reading(counter, rect, t))
                counter += 1
            a = engine.fuse("walker", readings, UNIVERSE, t,
                            previous=previous)
            b = engine.fuse("walker", readings, UNIVERSE, t)
            assert not b.incremental
            reuses += a.incremental
            previous = a
            assert lattice_fingerprint(a.lattice) == \
                lattice_fingerprint(b.lattice)
            probs_a = {(n.rect.min_x, n.rect.min_y, n.rect.max_x,
                        n.rect.max_y): (n.probability, n.confidence)
                       for n in a.lattice.region_nodes()}
            probs_b = {(n.rect.min_x, n.rect.min_y, n.rect.max_x,
                        n.rect.max_y): (n.probability, n.confidence)
                       for n in b.lattice.region_nodes()}
            assert probs_a == probs_b
            assert a.winning_component == b.winning_component
            a.lattice.check_invariants()
        # Every op changes the input set by at most one rectangle added
        # and one removed (readings keep their rects), so every fusion
        # after the first evolves its predecessor.
        assert reuses == len(ops) - 1
