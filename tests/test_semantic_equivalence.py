"""Incremental-vs-oracle equivalence for the semantic trigger engine.

The incremental engine re-derives only the rules whose body atoms
could have changed; :data:`MODE_REFERENCE` rebuilds the knowledge base
and re-evaluates every rule on every epoch.  For ANY interleaving of
location updates, subscribes, unsubscribes, fact declarations and
clock ticks, the two must emit *identical* event streams — same
events, same order, same payloads.  Hypothesis drives both engines
through random programs and diffs the streams; the deterministic
tests pin the edges randomness finds slowly (dwell windows crossing
exactly at their boundary, mid-stream unsubscribe, near thresholds
flipping both directions).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.model import Glob
from repro.reasoning.incremental import (
    MODE_INCREMENTAL,
    MODE_REFERENCE,
    LocationUpdate,
    SemanticTriggerEngine,
)
from repro.sim import siebel_floor

WORLD = siebel_floor()

OBJECTS = ("o0", "o1", "o2", "o3")

# Spots the movement strategy teleports objects between: a handful of
# rooms plus the corridor, each with two distinct standing positions
# so near/3 can flip without a region change.
_SPOT_REGIONS = ("SC/3/3104", "SC/3/3105", "SC/3/3102", "SC/3/Corridor")


def _spots():
    spots = []
    for name in _SPOT_REGIONS:
        rect = WORLD.resolve_symbolic(Glob.parse(name))
        for dx, dy in ((0.25, 0.25), (0.75, 0.75)):
            x = rect.min_x + dx * (rect.max_x - rect.min_x)
            y = rect.min_y + dy * (rect.max_y - rect.min_y)
            spots.append((name, (x, y)))
    # One position outside every symbolic region (region=None path).
    spots.append((None, (-50.0, -50.0)))
    return tuple(spots)


SPOTS = _spots()

RULES = (
    "in_room(P) :- located_within(P, 'SC/3/3104')",
    "at_fine(P) :- at(P, 'SC/3/3105')",
    "on_floor(P) :- located_within(P, 'SC/3')",
    "together(P, Q) :- colocated_at(P, Q, 'SC/3/3104'), distinct(P, Q)",
    "anywhere_pair(P, Q) :- colocated_at(P, Q, 'SC/3'), distinct(P, Q)",
    "close(P, Q) :- near(P, Q, 15.0), distinct(P, Q)",
    "tail(P) :- near(P, 'o0', 25.0), distinct(P, 'o0')",
    "camped(P) :- dwell(P, 'SC/3/3104', 2)",
    "lingering(P) :- dwell(P, 'SC/3/Corridor', 5)",
    "briefing(P, Q) :- colocated_at(P, Q, 'SC/3/3105'), "
    "team(P, 'blue'), distinct(P, Q)",
)

TEAMS = ("blue", "red")

# One program step: (dt, op).  Time advances monotonically; the dt
# choices straddle the dwell durations above so windows open and close
# at varied offsets (including 0.0 — several ops in one epoch).
_ops = st.one_of(
    st.tuples(st.just("move"),
              st.integers(0, len(OBJECTS) - 1),
              st.integers(0, len(SPOTS) - 1)),
    st.tuples(st.just("sub"), st.integers(0, len(RULES) - 1)),
    st.tuples(st.just("unsub"), st.integers(0, 7)),
    st.tuples(st.just("fact"),
              st.integers(0, len(OBJECTS) - 1),
              st.integers(0, len(TEAMS) - 1)),
    st.tuples(st.just("retract"),
              st.integers(0, len(OBJECTS) - 1),
              st.integers(0, len(TEAMS) - 1)),
    st.tuples(st.just("tick")),
)

programs = st.lists(
    st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 7.0]), _ops),
    min_size=1, max_size=24)


def run_program(mode, program):
    """Execute one generated program; return its full event stream."""
    engine = SemanticTriggerEngine(WORLD, mode=mode)
    events = []
    active = []
    now = 0.0
    for step, (dt, op) in enumerate(program):
        now += dt
        kind = op[0]
        if kind == "move":
            _, obj, spot = op
            region, center = SPOTS[spot]
            events.extend(engine.on_update(LocationUpdate(
                object_id=OBJECTS[obj], region=region, center=center,
                time=now)))
        elif kind == "sub":
            sid = f"s{step}"
            events.extend(engine.subscribe(sid, RULES[op[1]], now=now))
            active.append(sid)
        elif kind == "unsub":
            if active:
                sid = active.pop(op[1] % len(active))
                engine.unsubscribe(sid)
        elif kind == "fact":
            events.extend(engine.declare_fact(
                "team", OBJECTS[op[1]], TEAMS[op[2]], now=now))
        elif kind == "retract":
            events.extend(engine.retract_fact(
                "team", OBJECTS[op[1]], TEAMS[op[2]], now=now))
        else:
            events.extend(engine.tick(now))
    return events


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=programs)
def test_incremental_matches_reference(program):
    """The whole point: identical streams under any program."""
    assert run_program(MODE_INCREMENTAL, program) \
        == run_program(MODE_REFERENCE, program)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=programs)
# A retract of an unknown fact after a dwell window expired must still
# settle that window.
@example(program=[(0.0, ("move", 0, 0)), (0.0, ("sub", 7)),
                  (2.0, ("retract", 0, 0))])
def test_incremental_state_matches_oracle_snapshot(program):
    """After any program, a naive full re-evaluation of the
    incremental engine's final state finds no missed transition:
    the standing solution sets are exactly what the oracle derives."""
    engine = SemanticTriggerEngine(WORLD, mode=MODE_INCREMENTAL)
    active = []
    now = 0.0
    for step, (dt, op) in enumerate(program):
        now += dt
        kind = op[0]
        if kind == "move":
            _, obj, spot = op
            region, center = SPOTS[spot]
            engine.on_update(LocationUpdate(
                object_id=OBJECTS[obj], region=region, center=center,
                time=now))
        elif kind == "sub":
            sid = f"s{step}"
            engine.subscribe(sid, RULES[op[1]], now=now)
            active.append(sid)
        elif kind == "unsub":
            if active:
                engine.unsubscribe(active.pop(op[1] % len(active)))
        elif kind == "fact":
            engine.declare_fact("team", OBJECTS[op[1]], TEAMS[op[2]],
                                now=now)
        elif kind == "retract":
            engine.retract_fact("team", OBJECTS[op[1]], TEAMS[op[2]],
                                now=now)
        else:
            engine.tick(now)
    assert engine.evaluate_reference(now) == []


def _pair():
    return (SemanticTriggerEngine(WORLD, mode=MODE_INCREMENTAL),
            SemanticTriggerEngine(WORLD, mode=MODE_REFERENCE))


def _both(results):
    """Diff one epoch across the two engines; return the stream."""
    incremental, reference = results
    assert incremental == reference
    return incremental


class TestDwellBoundaries:
    """Dwell windows must cross at exactly entry + duration."""

    RULE = "camped(P) :- dwell(P, 'SC/3/3104', 2)"
    SPOT = SPOTS[0]

    def _enter(self, engines, now):
        region, center = self.SPOT
        return [engine.on_update(LocationUpdate(
            object_id="o0", region=region, center=center, time=now))
            for engine in engines]

    def test_fires_exactly_at_boundary(self):
        engines = _pair()
        for engine in engines:
            engine.subscribe("s1", self.RULE, now=0.0)
        self._enter(engines, 10.0)
        assert _both([e.tick(11.9) for e in engines]) == []
        fired = _both([e.tick(12.0) for e in engines])
        assert [(e["transition"], e["bindings"]) for e in fired] \
            == [("enter", {"P": "o0"})]

    def test_reentry_restarts_the_window(self):
        engines = _pair()
        for engine in engines:
            engine.subscribe("s1", self.RULE, now=0.0)
        self._enter(engines, 0.0)
        corridor = SPOTS[6]
        for engine in engines:  # leave at 1.0: window cancelled
            engine.on_update(LocationUpdate(
                object_id="o0", region=corridor[0],
                center=corridor[1], time=1.0))
        self._enter(engines, 1.5)
        assert _both([e.tick(3.0) for e in engines]) == []
        fired = _both([e.tick(3.5) for e in engines])
        assert [e["transition"] for e in fired] == ["enter"]

    def test_subscribe_after_entry_counts_existing_dwell(self):
        """A rule subscribed mid-stay sees dwell from the entry time."""
        engines = _pair()
        self._enter(engines, 0.0)
        fired = _both([engine.subscribe("s1", self.RULE, now=5.0)
                       for engine in engines])
        assert [e["transition"] for e in fired] == ["enter"]

    def test_dwell_fires_during_unrelated_update(self):
        """Another object's movement settles an expired window."""
        engines = _pair()
        for engine in engines:
            engine.subscribe("s1", self.RULE, now=0.0)
        self._enter(engines, 0.0)
        region, center = SPOTS[2]
        fired = _both([engine.on_update(LocationUpdate(
            object_id="o1", region=region, center=center, time=6.0))
            for engine in engines])
        assert [(e["transition"], e["bindings"]) for e in fired] \
            == [("enter", {"P": "o0"})]


class TestMidStreamChurn:
    """Subscribe/unsubscribe while solutions are standing."""

    def test_unsubscribe_silences_only_that_rule(self):
        engines = _pair()
        for engine in engines:
            engine.subscribe("s1", RULES[0], now=0.0)
            engine.subscribe("s2", RULES[2], now=0.0)
        region, center = SPOTS[0]
        enters = _both([engine.on_update(LocationUpdate(
            object_id="o0", region=region, center=center, time=1.0))
            for engine in engines])
        assert sorted(e["subscription_id"] for e in enters) \
            == ["s1", "s2"]
        for engine in engines:
            assert engine.unsubscribe("s1")
        off = SPOTS[-1]
        leaves = _both([engine.on_update(LocationUpdate(
            object_id="o0", region=off[0], center=off[1], time=2.0))
            for engine in engines])
        assert [e["subscription_id"] for e in leaves] == ["s2"]
        assert all(e["transition"] == "leave" for e in leaves)

    def test_resubscribing_replays_initial_activation(self):
        engines = _pair()
        region, center = SPOTS[0]
        for engine in engines:
            engine.on_update(LocationUpdate(
                object_id="o0", region=region, center=center, time=0.0))
        first = _both([engine.subscribe("s1", RULES[0], now=1.0)
                       for engine in engines])
        assert [e["transition"] for e in first] == ["enter"]
        for engine in engines:
            engine.unsubscribe("s1")
        again = _both([engine.subscribe("s1b", RULES[0], now=2.0)
                       for engine in engines])
        assert [e["transition"] for e in again] == ["enter"]


class TestNearFlips:
    def test_pair_flips_both_directions(self):
        engines = _pair()
        rule = "close(P, Q) :- near(P, Q, 15.0), distinct(P, Q)"
        for engine in engines:
            engine.subscribe("s1", rule, now=0.0)
        region, _ = SPOTS[0]
        for engine in engines:
            engine.on_update(LocationUpdate(
                object_id="o0", region=region, center=(10.0, 10.0),
                time=1.0))
        enters = _both([engine.on_update(LocationUpdate(
            object_id="o1", region=region, center=(12.0, 10.0),
            time=2.0)) for engine in engines])
        assert sorted(tuple(sorted(e["bindings"].items()))
                      for e in enters) == [
            (("P", "o0"), ("Q", "o1")), (("P", "o1"), ("Q", "o0"))]
        leaves = _both([engine.on_update(LocationUpdate(
            object_id="o1", region=region, center=(40.0, 10.0),
            time=3.0)) for engine in engines])
        assert all(e["transition"] == "leave" for e in leaves)
        assert len(leaves) == 2

    def test_threshold_is_strict(self):
        """distance == threshold is NOT near (matches proximity())."""
        engines = _pair()
        rule = "close(P, Q) :- near(P, Q, 10.0), distinct(P, Q)"
        for engine in engines:
            engine.subscribe("s1", rule, now=0.0)
        region, _ = SPOTS[0]
        for engine in engines:
            engine.on_update(LocationUpdate(
                object_id="o0", region=region, center=(0.0, 0.0),
                time=1.0))
        at_threshold = _both([engine.on_update(LocationUpdate(
            object_id="o1", region=region, center=(10.0, 0.0),
            time=2.0)) for engine in engines])
        assert at_threshold == []
        inside = _both([engine.on_update(LocationUpdate(
            object_id="o1", region=region, center=(9.9, 0.0),
            time=3.0)) for engine in engines])
        assert len(inside) == 2


def test_incremental_prunes_while_reference_rebuilds():
    """Sanity on the stats the benchmark gate relies on."""
    incremental, reference = _pair()
    for i, rule in enumerate(RULES[:6]):
        incremental.subscribe(f"s{i}", rule, now=0.0)
        reference.subscribe(f"s{i}", rule, now=0.0)
    region, center = SPOTS[2]
    for t in range(1, 9):
        update = LocationUpdate(object_id="o0", region=region,
                                center=center, time=float(t))
        assert incremental.on_update(update) \
            == reference.on_update(update)
    assert incremental.stats()["kb_rebuilds"] == 1
    assert reference.stats()["kb_rebuilds"] > 1
    assert incremental.stats()["pruned"] > 0
    assert incremental.stats()["evaluated"] \
        < reference.stats()["evaluated"]


def test_invalid_rules_are_rejected():
    from repro.errors import ReasoningError
    engine = SemanticTriggerEngine(WORLD, mode=MODE_INCREMENTAL)
    for bad in (
        "just_a_fact(P)",                       # no body
        "r(P) :- near(P, Q, X)",                # non-numeric threshold
        "r(P) :- dwell(P, 'SC/3/3104', -2)",    # negative duration
        "r(P, P) :- located_within(P, 'SC/3')",  # repeated head var
        "r('alice') :- located_within('alice', 'SC/3')",  # ground head
    ):
        with pytest.raises(ReasoningError):
            engine.subscribe("bad", bad, now=0.0)
        assert not engine.unsubscribe("bad")
