"""Tests for blueprint (world model) serialization."""

import json

import pytest

from repro.errors import WorldModelError
from repro.geometry import Point, Rect
from repro.model import (
    world_from_dict,
    world_from_json,
    world_to_dict,
    world_to_json,
)
from repro.model.serialize import load_world, save_world
from repro.oracles import scans
from repro.sim import generate_office_floor, paper_floor, siebel_floor


def assert_worlds_equivalent(a, b) -> None:
    assert {str(e.glob) for e in a.entities()} == \
        {str(e.glob) for e in b.entities()}
    for entity in a.entities():
        key = str(entity.glob)
        assert a.canonical_mbr(key).almost_equals(b.canonical_mbr(key))
        assert a.get(key).entity_type is b.get(key).entity_type
    assert {str(d.glob) for d in a.doors()} == \
        {str(d.glob) for d in b.doors()}
    for door in a.doors():
        twin = [d for d in b.doors() if d.glob == door.glob][0]
        assert twin.kind is door.kind
        assert twin.region_a == door.region_a
    assert set(a.frames.frames()) == set(b.frames.frames())


class TestRoundTrip:
    @pytest.mark.parametrize("builder", [paper_floor, siebel_floor,
                                         lambda: generate_office_floor(3)])
    def test_roundtrip_preserves_world(self, builder):
        original = builder()
        rebuilt = world_from_dict(world_to_dict(original))
        assert_worlds_equivalent(original, rebuilt)

    def test_json_roundtrip(self):
        original = siebel_floor()
        text = world_to_json(original)
        json.loads(text)  # genuinely valid JSON
        rebuilt = world_from_json(text)
        assert_worlds_equivalent(original, rebuilt)

    def test_properties_survive(self):
        original = siebel_floor()
        rebuilt = world_from_dict(world_to_dict(original))
        entity = rebuilt.get("SC/3/3216/display1")
        assert isinstance(entity.properties["usage_region"], Rect)

    def test_frames_survive(self):
        original = siebel_floor()
        rebuilt = world_from_dict(world_to_dict(original))
        p = rebuilt.frames.convert_point(Point(0, 0), "SC/3/3105", "")
        assert p.almost_equals(Point(140, 0))

    def test_file_roundtrip(self, tmp_path):
        original = paper_floor()
        path = tmp_path / "floor.json"
        save_world(original, str(path))
        rebuilt = load_world(str(path))
        assert_worlds_equivalent(original, rebuilt)

    def test_rebuilt_world_is_fully_usable(self):
        from repro.reasoning import NavigationGraph
        from repro.spatialdb import SpatialDatabase

        rebuilt = world_from_json(world_to_json(paper_floor()))
        db = SpatialDatabase(rebuilt)
        assert db.object_mbr("CS/Floor3/3105") == Rect(330, 0, 350, 30)
        nav = NavigationGraph(rebuilt)
        assert nav.path_distance("CS/Floor3/NetLab",
                                 "CS/Floor3/HCILab") is not None


class TestValidation:
    def test_wrong_format_rejected(self):
        with pytest.raises(WorldModelError):
            world_from_dict({"format": "something-else", "version": 1})

    def test_wrong_version_rejected(self):
        with pytest.raises(WorldModelError):
            world_from_dict({"format": "middlewhere-blueprint",
                             "version": 99})

    def test_invalid_json_rejected(self):
        with pytest.raises(WorldModelError):
            world_from_json("{not json")

    def test_orphan_frame_rejected(self):
        data = world_to_dict(paper_floor())
        data["frames"].append({"name": "X/1", "parent": "X",
                               "dx": 0, "dy": 0, "dz": 0, "rotation": 0})
        with pytest.raises(WorldModelError):
            world_from_dict(data)

    def test_unknown_geometry_kind_rejected(self):
        data = world_to_dict(paper_floor())
        data["entities"][0]["geometry"] = {"kind": "blob"}
        with pytest.raises(WorldModelError):
            world_from_dict(data)

    def test_unserializable_property_rejected(self):
        world = paper_floor()
        world.get("CS/Floor3/3105").properties["callback"] = print
        with pytest.raises(WorldModelError):
            world_to_dict(world)


class TestWorldVersionRoundTrip:
    """Regression: the mutation counter must survive serialization.

    The lazy region R-tree (and any other derived index) keys its
    cache on ``world.version``.  A rebuilt world that restarted the
    counter at its own add_* count could alias a cache entry keyed
    against the original world, silently serving stale geometry."""

    def test_version_counter_round_trips(self):
        world = paper_floor()
        assert world_from_dict(world_to_dict(world)).version == \
            world.version

    def test_version_survives_json_round_trip(self):
        world = siebel_floor()
        rebuilt = world_from_json(world_to_json(world))
        assert rebuilt.version == world.version

    def test_rebuilt_counter_keeps_monotonic_after_mutation(self):
        world = paper_floor()
        rebuilt = world_from_dict(world_to_dict(world))
        before = rebuilt.version
        from repro.geometry import Polygon
        from repro.model.world import Entity, EntityType
        from repro.model.glob import Glob
        rebuilt.add_entity(Entity(
            glob=Glob.parse("CS/Floor3/Annex"),
            entity_type=EntityType.ROOM,
            geometry=Polygon.from_rect(Rect(460, 60, 480, 80)),
            frame="CS/Floor3"))
        assert rebuilt.version > before

    def test_point_location_matches_reference_after_round_trip(self):
        """The indexed point-location must agree with the reference
        scan on a freshly deserialized world (the index rebuilds
        against the restored counter, not a stale alias)."""
        rebuilt = world_from_json(world_to_json(paper_floor()))
        probes = [Point(335, 10), Point(105, 15), Point(250, 35),
                  Point(5, 95), Point(499, 99), Point(40, 12),
                  Point(200, 20)]
        for p in probes:
            indexed = rebuilt.smallest_region_containing(p)
            reference = scans.smallest_region_containing(rebuilt, p)
            left = str(indexed.glob) if indexed else None
            right = str(reference.glob) if reference else None
            assert left == right, p

    def test_legacy_blueprint_without_counter_still_loads(self):
        data = world_to_dict(paper_floor())
        del data["world_version"]
        rebuilt = world_from_dict(data)
        assert rebuilt.version > 0  # the rebuild's own add_* count
        assert rebuilt.smallest_region_containing(Point(335, 10)) \
            is not None
