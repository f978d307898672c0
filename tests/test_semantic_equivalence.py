"""Incremental-vs-oracle equivalence for the semantic trigger engine.

:class:`SemanticTriggerEngine` re-derives only the rules whose body
atoms could have changed; the oracle
:class:`repro.oracles.semantic.ReferenceSemanticEngine` rebuilds the
knowledge base and re-evaluates every rule on every epoch.  For ANY
interleaving of location updates, subscribes (of rules that need the
passage facts the engine loads on demand, too), unsubscribes, fact
declarations and retractions (no-op ones included) and clock ticks,
the two must emit *identical* event streams — same events, same
order, same payloads.  A hypothesis state machine drives both engines
call by call and checks after every step; the deterministic tests pin
the edges randomness finds slowly (dwell windows crossing exactly at
their boundary, mid-stream unsubscribe, near thresholds flipping both
directions, no-op fact changes that move the clock).

Time advances only in calls that carry an instant (``now`` or an
update's ``time``); ``unsubscribe`` carries none, and the oracle
snapshot :func:`missed_transitions` is taken at the engine's own
clock.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.model import Glob
from repro.oracles.semantic import ReferenceSemanticEngine, missed_transitions
from repro.reasoning.incremental import LocationUpdate, SemanticTriggerEngine
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

# Reaches the passage facts (adjacent -> opens -> ecfp/ecrp), which
# the engine loads on the first such subscription; the oracle always
# has them.
PASSAGE_RULE = "near_exit(P) :- at(P, R), adjacent(R, 'SC/3/Corridor')"

TEAMS = ("blue", "red")

# Step sizes: 0.0 keeps several calls at one instant, 0.5 sums to the
# 2 s dwell boundary, 2.0 lands on it and 7.0 crosses both windows in
# one call.
steps = st.sampled_from([0.0, 0.5, 2.0, 7.0])
objects = st.integers(0, len(OBJECTS) - 1)
teams = st.integers(0, len(TEAMS) - 1)


class SemanticDifferential(RuleBasedStateMachine):
    """The incremental engine and the oracle, fed the same calls."""

    def __init__(self) -> None:
        super().__init__()
        self.engine = SemanticTriggerEngine(WORLD)
        self.oracle = ReferenceSemanticEngine(WORLD)
        self.now = 0.0
        self.active: list = []
        self.subscribed = 0
        self.declared: set = set()

    def _both(self, call):
        assert call(self.engine) == call(self.oracle)

    def _advance(self, dt: float) -> float:
        self.now += dt
        return self.now

    @initialize()
    def dwell_rules(self):
        """Start with the dwell rules standing: their windows are
        where the clock paths of every call meet."""
        for index in (7, 8):
            self._subscribe(RULES[index], 0.0)

    @rule(obj=objects, spot=st.integers(0, len(SPOTS) - 1), dt=steps)
    def move(self, obj, spot, dt):
        region, center = SPOTS[spot]
        update = LocationUpdate(object_id=OBJECTS[obj], region=region,
                                center=center, time=self._advance(dt))
        self._both(lambda engine: engine.on_update(update))

    def _subscribe(self, text, dt):
        sid = f"s{self.subscribed}"
        self.subscribed += 1
        now = self._advance(dt)
        self._both(lambda engine: engine.subscribe(sid, text, now=now))
        self.active.append(sid)

    @rule(index=st.integers(0, len(RULES) - 1), dt=steps)
    def subscribe(self, index, dt):
        self._subscribe(RULES[index], dt)

    @rule(dt=steps)
    def subscribe_passage_rule(self, dt):
        self._subscribe(PASSAGE_RULE, dt)

    @precondition(lambda self: self.active)
    @rule(pick=st.integers(0, 7))
    def unsubscribe(self, pick):
        sid = self.active.pop(pick % len(self.active))
        self._both(lambda engine: engine.unsubscribe(sid))

    def _fact(self, method, fact, dt):
        now = self._advance(dt)
        self._both(lambda engine: getattr(engine, method)(
            "team", *fact, now=now))

    @rule(obj=objects, team=teams, dt=steps)
    def declare(self, obj, team, dt):
        fact = (OBJECTS[obj], TEAMS[team])
        self._fact("declare_fact", fact, dt)
        self.declared.add(fact)

    @precondition(lambda self: self.declared)
    @rule(pick=st.integers(0, 7), dt=steps)
    def redeclare(self, pick, dt):
        """A fact that already holds: only the clock moves."""
        fact = sorted(self.declared)[pick % len(self.declared)]
        self._fact("declare_fact", fact, dt)

    @rule(obj=objects, team=teams, dt=steps)
    def retract(self, obj, team, dt):
        """Retracting a fact that does not hold only moves the clock."""
        fact = (OBJECTS[obj], TEAMS[team])
        self._fact("retract_fact", fact, dt)
        self.declared.discard(fact)

    @rule(dt=steps)
    def tick(self, dt):
        now = self._advance(dt)
        self._both(lambda engine: engine.tick(now))

    @invariant()
    def nothing_missed(self):
        assert missed_transitions(self.engine) == []
        for sid in self.active:
            assert (self.engine.active_solutions(sid)
                    == self.oracle.active_solutions(sid))


def test_incremental_matches_reference():
    """The whole point: identical streams under any call sequence."""
    run_state_machine_as_test(SemanticDifferential, settings=settings(
        max_examples=40, stateful_step_count=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow]))


def _pair():
    return SemanticTriggerEngine(WORLD), ReferenceSemanticEngine(WORLD)


def _both(results):
    """Diff one epoch across the two engines; return the stream."""
    incremental, reference = results
    assert incremental == reference
    return incremental


def test_incremental_state_matches_oracle_snapshot():
    """An unsubscribe carries no instant, so a dwell window expiring
    after the last timed call is not yet due: the snapshot at the
    engine's clock finds nothing missed, a later instant reports the
    window, and the next timed call fires it in both engines."""
    engines = _pair()
    region, center = SPOTS[0]
    for engine in engines:
        engine.subscribe("s0", RULES[0], now=0.0)
        engine.on_update(LocationUpdate(
            object_id="o0", region=region, center=center, time=0.0))
        engine.subscribe("s2", RULES[7], now=0.0)
        assert engine.unsubscribe("s0")
    incremental = engines[0]
    assert missed_transitions(incremental) == []
    pending = missed_transitions(incremental, 2.0)
    fired = _both([engine.tick(2.0) for engine in engines])
    assert [(e["subscription_id"], e["transition"], e["bindings"])
            for e in fired] == [("s2", "enter", {"P": "o0"})]
    assert pending == fired
    assert missed_transitions(incremental) == []


@pytest.mark.parametrize("method, known", [
    ("declare_fact", True), ("retract_fact", False)])
def test_noop_fact_change_settles_expired_dwell(method, known):
    """Declaring a fact that holds, or retracting one that does not,
    still advances the clock past a dwell deadline and fires it."""
    engines = _pair()
    region, center = SPOTS[0]
    for engine in engines:
        engine.on_update(LocationUpdate(
            object_id="o0", region=region, center=center, time=0.0))
        engine.subscribe("s1", RULES[7], now=0.0)
        if known:
            engine.declare_fact("team", "o0", "blue", now=0.0)
    fired = _both([getattr(engine, method)("team", "o0", "blue", now=2.0)
                   for engine in engines])
    assert [e["transition"] for e in fired] == ["enter"]
    assert missed_transitions(engines[0]) == []


def test_missed_transitions_reports_without_changing_the_engine():
    engine = SemanticTriggerEngine(WORLD)
    region, center = SPOTS[0]
    engine.on_update(LocationUpdate(
        object_id="o0", region=region, center=center, time=0.0))
    engine.subscribe("s1", RULES[0], now=0.0)
    assert engine.active_solutions("s1") == [{"P": "o0"}]
    engine.rules()[0].previous = set()  # a lost activation
    missed = missed_transitions(engine)
    assert [(e["transition"], e["bindings"]) for e in missed] \
        == [("enter", {"P": "o0"})]
    assert missed_transitions(engine) == missed
    assert engine.active_solutions("s1") == []


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
    engine = SemanticTriggerEngine(WORLD)
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
