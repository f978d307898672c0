"""Cold start derives only what it uses.

The passage facts (``ecfp``/``ecrp``/``ecnp``) cost one polygon RCC-8
sweep over every pair of regions, :func:`connected_pairs`.  Building a
Location Service, a scenario or a shard servant computes none of them,
and the semantic engine loads them once, on the first subscription
whose dependency closure reaches them.  The oracle
(:class:`ReferenceSemanticEngine`) always has them, so a passage rule
subscribed at any point must still match its event stream.
"""

from __future__ import annotations

import pytest

from repro.model import Glob
from repro.model.serialize import world_to_json
from repro.oracles.semantic import ReferenceSemanticEngine, missed_transitions
from repro.reasoning import passages
from repro.reasoning.incremental import LocationUpdate, SemanticTriggerEngine
from repro.reasoning.rules import (
    add_passage_facts,
    build_knowledge_base,
    hierarchy_knowledge_base,
)
from repro.service import LocationService
from repro.shard.worker import ShardServant
from repro.sim import Scenario, siebel_floor
from repro.spatialdb import SpatialDatabase

WORLD = siebel_floor()

PASSAGE_RULE = "near_exit(P) :- at(P, R), adjacent(R, 'SC/3/Corridor')"
GATED_RULE = "way_out(P) :- at(P, R), reachable(R, 'SC/3/Corridor')"

# Rules that cannot reach a passage fact.
PLAIN_RULES = (
    "in_room(P) :- located_within(P, 'SC/3/3104')",
    "at_fine(P) :- at(P, 'SC/3/3105')",
    "together(P, Q) :- colocated_at(P, Q, 'SC/3'), distinct(P, Q)",
    "camped(P) :- dwell(P, 'SC/3/3104', 2)",
    "close(P, Q) :- near(P, Q, 15.0), distinct(P, Q)",
    "briefing(P) :- located_within(P, 'SC/3'), team(P, 'blue')",
    "floor_mate(P) :- at(P, R), within(R, 'SC/3')",
)


@pytest.fixture
def sweeps(monkeypatch):
    """Counts every :func:`connected_pairs` sweep."""
    calls = []
    real = passages.connected_pairs

    def counting(world):
        calls.append(world)
        return real(world)

    monkeypatch.setattr(passages, "connected_pairs", counting)
    return calls


def _center(region):
    rect = WORLD.resolve_symbolic(Glob.parse(region))
    return ((rect.min_x + rect.max_x) / 2.0, (rect.min_y + rect.max_y) / 2.0)


def _move(obj, region, time):
    return ("move", LocationUpdate(object_id=obj, region=region,
                                   center=_center(region), time=time), time)


# Engine calls as (kind, argument, instant); subscriptions are spliced
# in per test.
MOVES = [
    _move("o0", "SC/3/3104", 0.0),
    _move("o1", "SC/3/Corridor", 0.5),
    ("declare", ("team", "o0", "blue"), 1.0),
    _move("o2", "SC/3/3105", 1.0),
    _move("o0", "SC/3/Corridor", 2.5),
    ("tick", None, 3.0),
    _move("o1", "SC/3/3102", 4.0),
    _move("o2", "SC/3/3104", 6.0),
    ("retract", ("team", "o0", "blue"), 6.5),
    _move("o0", "SC/3/3102", 9.0),
]


def _drive(engine, program):
    """Feed ``program`` to ``engine``; returns every event, in order."""
    events = []
    for kind, arg, now in program:
        if kind == "move":
            events.extend(engine.on_update(arg))
        elif kind == "subscribe":
            events.extend(engine.subscribe(*arg, now=now))
        elif kind == "unsubscribe":
            engine.unsubscribe(arg)
        elif kind == "declare":
            events.extend(engine.declare_fact(*arg, now=now))
        elif kind == "retract":
            events.extend(engine.retract_fact(*arg, now=now))
        else:
            events.extend(engine.tick(now))
    return events


def _program(subscriptions, at):
    """MOVES with each ``(sid, text)`` subscribed just before the step
    at its index in ``at`` (after the last step for ``len(MOVES)``)."""
    program = []
    for index, step in enumerate(MOVES + [("tick", None, 9.0)]):
        program.extend(("subscribe", subscription, step[2])
                       for subscription, where in zip(subscriptions, at)
                       if where == index)
        program.append(step)
    return program


class TestNothingBuildsPassagesAtStart:
    def test_location_service(self, sweeps):
        service = LocationService(SpatialDatabase(WORLD))
        assert not hasattr(service, "knowledge")
        assert sweeps == []

    def test_standard_scenario(self, sweeps):
        scenario = Scenario(seed=3).standard_deployment()
        scenario.add_people(3)
        scenario.run(5)
        assert not hasattr(scenario.service, "knowledge")
        assert sweeps == []

    def test_shard_servant(self, sweeps):
        servant = ShardServant({"world_json": world_to_json(WORLD)})
        try:
            assert sweeps == []
        finally:
            servant._teardown()


class TestEngineLoadsPassagesOnDemand:
    def test_rules_without_passage_facts_compute_none(self, sweeps):
        engine = SemanticTriggerEngine(WORLD)
        subscriptions = [(f"s{i}", text)
                         for i, text in enumerate(PLAIN_RULES)]
        events = _drive(engine, _program(subscriptions,
                                         [0, 0, 1, 3, 4, 6, 10]))
        assert events
        assert sweeps == []
        assert missed_transitions(engine) == []

    @pytest.mark.parametrize("where", [0, 5, len(MOVES)],
                             ids=["first", "mid-stream", "last"])
    def test_passage_rule_loads_them_once(self, sweeps, where):
        subscriptions = [("s1", PASSAGE_RULE), ("s2", GATED_RULE),
                         ("s0", PLAIN_RULES[0]), ("s3", PLAIN_RULES[3])]
        program = _program(subscriptions, [where, where, 1, 2])
        program += [("unsubscribe", "s1", None),
                    ("subscribe", ("s4", PASSAGE_RULE), 9.5),
                    _move("o1", "SC/3/3104", 10.0)]
        engine = SemanticTriggerEngine(WORLD)
        events = _drive(engine, program)
        assert len(sweeps) == 1
        expected = _drive(ReferenceSemanticEngine(WORLD), program)
        assert events == expected
        heads = {event["head"] for event in events}
        assert {"near_exit", "way_out"} <= heads
        assert missed_transitions(engine) == []

    def test_service_subscription_loads_them_once(self, sweeps):
        scenario = Scenario(seed=3).standard_deployment()
        scenario.add_people(4)
        events = []
        scenario.subscribe_semantic(
            "occupied(P) :- located_within(P, 'SC/3/3104')", events.append)
        scenario.run(5)
        assert sweeps == []
        scenario.subscribe_semantic(PASSAGE_RULE, events.append)
        scenario.subscribe_semantic(GATED_RULE, events.append)
        scenario.run(5)
        assert len(sweeps) == 1


def test_build_knowledge_base_is_hierarchy_plus_passages(sweeps):
    full = build_knowledge_base(WORLD)
    assert len(sweeps) == 1
    split = hierarchy_knowledge_base(WORLD)
    add_passage_facts(split, WORLD)
    assert full._rules == split._rules
    assert full.ask("ecfp(A, B)")
    assert not hierarchy_knowledge_base(WORLD).ask("ecfp(A, B)")
