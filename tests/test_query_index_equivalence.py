"""Indexed-vs-reference equivalence for the query-side indexes.

PR 5 made trigger dispatch, subscription matching, region queries,
symbolic point-location and path distances index-driven; the old
linear scans live on as oracles in :mod:`repro.oracles.scans` (the
trigger scan is the table's own ``_fire_scan``, still the dispatch for
non-spatial triggers, and the service's unpruned
``objects_in_region_reference``).  These properties assert the indexed
paths return exactly — ordering included — what the scans return on
random worlds, mirroring ``test_core_lattice_equivalence.py`` for the
fusion hot path.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProbabilityClassifier
from repro.errors import UnknownObjectError
from repro.geometry import Point, Polygon, Rect
from repro.oracles import scans
from repro.reasoning.navgraph import Graph
from repro.sensors import UbisenseAdapter
from repro.service import LocationService
from repro.service.subscriptions import Subscription, SubscriptionManager
from repro.sim import SimClock, siebel_floor
from repro.spatialdb import Column, Schema, SpatialDatabase, Table, Trigger

# The Siebel floor's canonical extent, coarsened to a grid so random
# rectangles share edges, nest, tie and miss — the cases where index
# pruning and tie-breaking can actually diverge from the scans.
xs = st.integers(min_value=0, max_value=39)
ys = st.integers(min_value=0, max_value=19)


@st.composite
def grid_rects(draw):
    x = draw(xs) * 10.0
    y = draw(ys) * 5.0
    w = draw(st.integers(min_value=1, max_value=10)) * 10.0
    h = draw(st.integers(min_value=1, max_value=8)) * 5.0
    return Rect(x, y, x + w, y + h)


@st.composite
def grid_points(draw):
    return Point(draw(xs) * 10.0 + 0.5, draw(ys) * 5.0 + 0.5)


# ----------------------------------------------------------------------
# Spatial trigger dispatch (Table._fire_indexed vs _fire_scan)
# ----------------------------------------------------------------------

def _build_table(specs, log, tag, spatial):
    """A rect table with one trigger per spec.

    A spec is (region_or_None, enabled).  Region triggers use the
    honest enter-style condition (region intersects the row rect), so
    the hint contract holds; region-less triggers match every row.
    Without ``spatial`` the table never enables spatial triggers, so
    every insert takes the linear scan.
    """
    schema = Schema([Column("name", str), Column("rect", Rect)])
    table = Table("readings", schema)
    if spatial:
        table.enable_spatial_triggers("rect")
    for i, (region, enabled) in enumerate(specs):
        trigger_id = f"t{i}"
        if region is None:
            def condition(row, _i=i):
                return True
        else:
            def condition(row, _region=region):
                return _region.intersects(row["rect"])
        def action(row, _tid=trigger_id):
            log.append((tag, _tid, row["name"]))
        table.create_trigger(Trigger(trigger_id, "insert", condition,
                                     action, enabled=enabled,
                                     region=region))
    return table


trigger_specs = st.lists(
    st.tuples(st.one_of(st.none(), grid_rects()), st.booleans()),
    min_size=0, max_size=8)


class TestTriggerDispatchEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(trigger_specs,
           st.lists(grid_rects(), min_size=0, max_size=8),
           st.lists(st.integers(min_value=0, max_value=7),
                    min_size=0, max_size=3))
    def test_indexed_firings_match_reference(self, specs, rows, drops):
        log = []
        indexed = _build_table(specs, log, "indexed", spatial=True)
        reference = _build_table(specs, log, "reference", spatial=False)
        for drop in drops:
            indexed.drop_trigger(f"t{drop}")
            reference.drop_trigger(f"t{drop}")
        for n, rect in enumerate(rows):
            indexed.insert({"name": f"row-{n}", "rect": rect})
            reference.insert({"name": f"row-{n}", "rect": rect})
        fired_indexed = [(t, r) for tag, t, r in log if tag == "indexed"]
        fired_reference = [(t, r) for tag, t, r in log
                           if tag == "reference"]
        assert fired_indexed == fired_reference


# ----------------------------------------------------------------------
# Subscription matching and pruned push dispatch
# ----------------------------------------------------------------------

OBJECTS = ("alice", "bob", "carol")
CLASSIFIER = ProbabilityClassifier([0.4, 0.7, 0.95])

subscription_specs = st.lists(
    st.tuples(
        st.one_of(st.none(), st.sampled_from(OBJECTS)),  # object filter
        grid_rects(),                                    # region
        st.sampled_from([0.0, 0.2, 0.5, 0.9]),           # threshold
        st.sampled_from(["enter", "leave", "both"]),
    ),
    min_size=0, max_size=10)


def _build_manager(specs, sink, tag):
    manager = SubscriptionManager()
    for i, (object_id, region, threshold, kind) in enumerate(specs):
        manager.add(Subscription(
            subscription_id=f"sub-{i}",
            region=region,
            kind=kind,
            object_id=object_id,
            threshold=threshold,
            consumer=lambda event, _tag=tag: sink.append(
                (_tag, event["subscription_id"], event["transition"],
                 event["object_id"])),
        ))
    return manager


class TestSubscriptionMatchingEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(subscription_specs,
           st.lists(st.integers(min_value=0, max_value=9),
                    min_size=0, max_size=3))
    def test_indexed_matching_equals_scan(self, specs, drops):
        manager = _build_manager(specs, [], "m")
        for drop in drops:
            manager.remove(f"sub-{drop}")
        for object_id in OBJECTS:
            indexed = [s.subscription_id
                       for s in manager.matching(object_id)]
            reference = [s.subscription_id
                         for s in scans.matching(manager, object_id)]
            assert indexed == reference

    @settings(max_examples=60, deadline=None)
    @given(subscription_specs,
           st.lists(st.tuples(st.sampled_from(OBJECTS), grid_rects(),
                              st.floats(min_value=0.05, max_value=1.0)),
                    min_size=0, max_size=6))
    def test_pruned_dispatch_is_observably_identical(self, specs, events):
        """Evaluating only ``matching_for_result`` candidates yields the
        same notifications (in order) and the same final inside-state
        as evaluating every matching subscription, for any confidence
        assignment consistent with the support contract (confidence is
        exactly 0 when the subscription region misses the support)."""
        sink = []
        full = _build_manager(specs, sink, "full")
        pruned = _build_manager(specs, sink, "pruned")

        def confidence_for(subscription, support, value):
            if not subscription.region.intersects(support):
                return 0.0
            return value

        for object_id, support, value in events:
            for subscription in full.matching(object_id):
                conf = confidence_for(subscription, support, value)
                full.evaluate(subscription, object_id, conf,
                              CLASSIFIER.classify(conf), 1.0,
                              lambda s, e: s.consumer(e))
            for subscription in pruned.matching_for_result(object_id,
                                                           support):
                conf = confidence_for(subscription, support, value)
                pruned.evaluate(subscription, object_id, conf,
                                CLASSIFIER.classify(conf), 1.0,
                                lambda s, e: s.consumer(e))
        full_events = [e[1:] for e in sink if e[0] == "full"]
        pruned_events = [e[1:] for e in sink if e[0] == "pruned"]
        assert full_events == pruned_events
        for full_sub, pruned_sub in zip(full.all(), pruned.all()):
            for object_id in OBJECTS:
                assert (full_sub.inside.get(object_id, False)
                        == pruned_sub.inside.get(object_id, False))


# ----------------------------------------------------------------------
# Symbolic lattice point location (R-tree vs linear scan)
# ----------------------------------------------------------------------

class TestLatticePointLocationEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(grid_rects(), min_size=0, max_size=5),
           st.lists(grid_points(), min_size=1, max_size=6),
           st.lists(grid_rects(), min_size=1, max_size=6))
    def test_indexed_resolution_matches_scan(self, regions, points,
                                             queries):
        world = siebel_floor()
        service = LocationService(SpatialDatabase(world))
        lattice = service.regions
        for i, rect in enumerate(regions):
            service.define_region(f"SC/3/zone-{i}",
                                  Polygon.from_rect(rect), "")
        for p in points:
            indexed = world.smallest_region_containing(p)
            reference = scans.smallest_region_containing(world, p)
            assert indexed is reference
        for rect in queries:
            assert (lattice.finest_region_containing_rect(rect)
                    == scans.finest_region_containing_rect(lattice, rect))
            assert (lattice.regions_overlapping(rect)
                    == scans.regions_overlapping(lattice, rect))


# ----------------------------------------------------------------------
# Navigation graph distance memo
# ----------------------------------------------------------------------

class TestNavgraphMemoEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                              st.integers(1, 20), st.booleans()),
                    min_size=1, max_size=14),
           st.tuples(st.integers(0, 7), st.integers(0, 7),
                     st.integers(1, 20), st.booleans()))
    def test_memoized_paths_match_reference(self, edges, late_edge):
        graph = Graph()
        for a, b, w, restricted in edges:
            graph.add_edge(f"n{a}", f"n{b}", float(w),
                           restricted=restricted)
        nodes = graph.nodes()
        for allow in (False, True):
            for source in nodes:
                for target in nodes:
                    assert (graph.shortest_path(source, target, allow)
                            == scans.shortest_path(
                                graph, source, target, allow))
        # Mutation invalidates the memo: re-check after a new edge.
        a, b, w, restricted = late_edge
        graph.add_edge(f"n{a}", f"n{b}", float(w), restricted=restricted)
        for source in graph.nodes():
            for target in graph.nodes():
                assert (graph.shortest_path(source, target)
                        == scans.shortest_path(graph, source, target))


# ----------------------------------------------------------------------
# objects_in_region pruning (end-to-end over a real service)
# ----------------------------------------------------------------------

def _tracked_service(placements):
    """Ubisense sightings ``(person, point, time)``; the clock ends at
    1.0, after every sighting."""
    world = siebel_floor()
    db = SpatialDatabase(world)
    clock = SimClock()
    service = LocationService(db, clock=clock)
    ubi = UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
    for person, point, at in sorted(placements, key=lambda p: p[2]):
        ubi.tag_sighting(f"person-{person:02d}", point, at)
    clock.advance(1.0)
    return service


def _pull_everyone(service, at):
    for object_id in service.db.tracked_objects():
        try:
            service.fusion_result(object_id, now=at)
        except UnknownObjectError:
            pass


# Room centres and extents: sightings and queries that hit each other
# often, so a too-trusting support bound shows.
ROOMS = ("SC/3/3105", "SC/3/3216", "SC/3/3102", "SC/3/ConferenceRoom")
room_points = st.sampled_from(
    [siebel_floor().canonical_mbr(room).center for room in ROOMS])
room_rects = st.sampled_from(
    [siebel_floor().canonical_mbr(room) for room in ROOMS])


class TestObjectsInRegionEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                              st.one_of(grid_points(), room_points),
                              st.sampled_from([0.0, 0.5, 1.0])),
                    min_size=1, max_size=8),
           st.lists(st.one_of(grid_rects(), room_rects),
                    min_size=1, max_size=4),
           st.sampled_from([0.0, 0.2, 0.5]),
           st.sampled_from([None, 0.0, 0.25, 0.75]))
    def test_pruned_matches_reference(self, placements, queries,
                                      min_confidence, pull_at):
        """Including after an earlier-instant pull (before every query)
        whose fused states predate some of the stored readings."""
        service = _tracked_service(placements)
        for rect in queries:
            if pull_at is not None:
                _pull_everyone(service, pull_at)
            pruned = service.objects_in_region(
                rect, min_confidence=min_confidence)
            reference = service.objects_in_region_reference(
                rect, min_confidence=min_confidence)
            assert pruned == reference

    def test_earlier_pull_does_not_prune_a_later_reading(self):
        """A pull between two sightings fuses only the first; that
        fusion's support must not prune the object at a later instant,
        when the second sighting is fresh."""
        world = siebel_floor()
        db = SpatialDatabase(world)
        service = LocationService(db, clock=SimClock())
        ubi = UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
        ubi.tag_sighting("alice", world.canonical_mbr("SC/3/3105").center,
                         1.0)
        ubi.tag_sighting("alice", world.canonical_mbr("SC/3/3216").center,
                         2.0)
        service.fusion_result("alice", now=1.5)
        # Pruned first: the reference scan fuses at t=3 itself.
        pruned = service.objects_in_region("SC/3/3216", now=3.0)
        reference = service.objects_in_region_reference("SC/3/3216",
                                                        now=3.0)
        assert [oid for oid, _ in reference] == ["alice"]
        assert pruned == reference

    def test_result_order_is_confidence_desc_then_object_id(self):
        """Satellite pin: (confidence desc, object_id asc), independent
        of insertion order — tied confidences sort alphabetically."""
        world = siebel_floor()
        db = SpatialDatabase(world)
        clock = SimClock()
        service = LocationService(db, clock=clock)
        ubi = UbisenseAdapter("Ubi-1", "SC/3", frame="").attach(db)
        # bob before alice, at the identical spot: identical readings
        # give identical confidences, so the tie must break by id.
        ubi.tag_sighting("bob", Point(150.0, 20.0), 0.0)
        ubi.tag_sighting("alice", Point(150.0, 20.0), 0.0)
        ubi.tag_sighting("zoe", Point(400.0, 100.0), 0.0)
        clock.advance(1.0)
        result = service.objects_in_region(Rect(140, 10, 160, 30),
                                           min_confidence=0.0)
        assert result == sorted(result, key=lambda p: (-p[1], p[0]))
        tied = [oid for oid, conf in result
                if conf == dict(result)["alice"]]
        assert tied == sorted(tied)
        assert tied[:2] == ["alice", "bob"]
