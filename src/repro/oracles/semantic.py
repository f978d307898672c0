"""The naive semantic trigger engine (the semantic oracle).

:class:`ReferenceSemanticEngine` keeps only the facts — where each
object is, when it entered each region, which application facts hold
— and on every epoch rebuilds a fresh :class:`KnowledgeBase` from
them, re-asserts every fact and re-runs every rule.  There is no delta
maintenance, no pruning index and no deadline heap, so there is
nothing for a missed update to hide in.
:class:`repro.reasoning.incremental.SemanticTriggerEngine` must emit
the same event stream for the same calls.

:func:`missed_transitions` applies the same naive evaluation to a
production engine's standing state without changing it.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import ReasoningError
from repro.model import WorldModel
from repro.reasoning.incremental import (
    SEMANTIC_RULES,
    LocationUpdate,
    SemanticRule,
    SemanticTriggerEngine,
    containment_chain,
    literal_text,
    solutions,
    transitions,
)
from repro.reasoning.prolog import KnowledgeBase
from repro.reasoning.rules import build_knowledge_base

Positions = Dict[str, Tuple[float, float]]
Entries = Dict[Tuple[str, str], float]
Facts = Dict[str, Set[Tuple[str, ...]]]


def _chain_facts(world: WorldModel) -> List[Tuple[str, str]]:
    """(region, proper ancestor) for every enclosing region glob and
    every prefix of one."""
    globs: Set[str] = set()
    for entity in world.entities():
        if entity.entity_type.is_enclosing:
            globs.update(containment_chain(str(entity.glob)))
    return sorted((glob, ancestor) for glob in globs
                  for ancestor in containment_chain(glob)[1:])


def _fresh_kb(world: WorldModel, max_depth: int,
              regions: Dict[str, Optional[str]], positions: Positions,
              entries: Entries, facts: Facts,
              rules: Iterable[SemanticRule], now: float) -> KnowledgeBase:
    """Every fact that holds at ``now``, asserted from scratch."""
    rules = list(rules)
    kb = build_knowledge_base(world, max_depth=max_depth)
    for region, ancestor in _chain_facts(world):
        kb.add_fact("chain", region, ancestor)
    for text in SEMANTIC_RULES:
        kb.add(text)
    for object_id, region in regions.items():
        if region is not None:
            kb.add_fact("at", object_id, region)
    objects = sorted(positions)
    for threshold in {t for rule in rules for t, _ in rule.near_atoms}:
        for i, a in enumerate(objects):
            for b in objects[i + 1:]:
                (ax, ay), (bx, by) = positions[a], positions[b]
                if ((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5 < threshold:
                    kb.add_fact("near", a, b, literal_text(threshold))
                    kb.add_fact("near", b, a, literal_text(threshold))
    durations = {d for rule in rules for d, _, _ in rule.dwell_atoms}
    for (object_id, region), entry in entries.items():
        for duration in durations:
            if now - entry >= duration:
                kb.add_fact("dwell", object_id, region,
                            literal_text(duration))
    for functor, tuples in facts.items():
        for args in sorted(tuples):
            kb.add_fact(functor, *args)
    for rule in rules:
        kb.add(rule.compiled)
    return kb


class ReferenceSemanticEngine:
    """Semantic subscriptions re-derived from scratch on every epoch.

    Same calls, same clock rules and same event dicts as
    :class:`~repro.reasoning.incremental.SemanticTriggerEngine`.
    """

    def __init__(self, world: WorldModel, max_depth: int = 256) -> None:
        self.world = world
        self.max_depth = max_depth
        self._seq = itertools.count(1)
        self._rules: Dict[str, SemanticRule] = {}
        self._positions: Positions = {}
        self._regions: Dict[str, Optional[str]] = {}
        self._entries: Entries = {}
        self._facts: Facts = {}
        self._time = 0.0
        self.epochs = 0
        self.evaluated = 0
        self.kb_rebuilds = 0
        self.events_emitted = 0

    def _clock(self, now: Optional[float]) -> float:
        self._time = self._time if now is None else max(now, self._time)
        return self._time

    def _epoch(self, now: float) -> List[Dict[str, Any]]:
        rules = sorted(self._rules.values(), key=lambda r: r.seq)
        kb = _fresh_kb(self.world, self.max_depth, self._regions,
                       self._positions, self._entries, self._facts,
                       rules, now)
        self.kb_rebuilds += 1
        events: List[Dict[str, Any]] = []
        for rule in rules:
            current = solutions(kb, rule)
            events.extend(transitions(rule, current, now))
            rule.previous = current
        self.evaluated += len(rules)
        self.events_emitted += len(events)
        return events

    def subscribe(self, subscription_id: str, rule_text: str,
                  now: Optional[float] = None) -> List[Dict[str, Any]]:
        if subscription_id in self._rules:
            raise ReasoningError(
                f"duplicate semantic subscription {subscription_id}")
        now = self._clock(now)
        self._rules[subscription_id] = SemanticRule.compile(
            subscription_id, rule_text, next(self._seq))
        return self._epoch(now)

    def unsubscribe(self, subscription_id: str) -> bool:
        return self._rules.pop(subscription_id, None) is not None

    def active_solutions(self,
                         subscription_id: str) -> List[Dict[str, str]]:
        rule = self._rules[subscription_id]
        return [dict(zip(rule.head_vars, solution))
                for solution in sorted(rule.previous)]

    def declare_fact(self, functor: str, *args: str,
                     now: Optional[float] = None) -> List[Dict[str, Any]]:
        self._facts.setdefault(functor, set()).add(args)
        return self._epoch(self._clock(now))

    def retract_fact(self, functor: str, *args: str,
                     now: Optional[float] = None) -> List[Dict[str, Any]]:
        self._facts.get(functor, set()).discard(args)
        return self._epoch(self._clock(now))

    def on_update(self, update: LocationUpdate) -> List[Dict[str, Any]]:
        now = self._clock(update.time)
        self.epochs += 1
        old = set(containment_chain(self._regions.get(update.object_id)))
        new = set(containment_chain(update.region))
        for region in new - old:
            self._entries[(update.object_id, region)] = now
        for region in old - new:
            del self._entries[(update.object_id, region)]
        self._regions[update.object_id] = update.region
        self._positions[update.object_id] = update.center
        return self._epoch(now)

    def tick(self, now: float) -> List[Dict[str, Any]]:
        return self._epoch(self._clock(now))

    def stats(self) -> Dict[str, int]:
        return {
            "subscriptions": len(self._rules),
            "epochs": self.epochs,
            "evaluated": self.evaluated,
            "pruned": 0,
            "kb_rebuilds": self.kb_rebuilds,
            "events": self.events_emitted,
        }


def missed_transitions(engine: SemanticTriggerEngine,
                       now: Optional[float] = None) -> List[Dict[str, Any]]:
    """The events a from-scratch evaluation of ``engine``'s standing
    state would emit: ``[]`` when every subscription's solution set is
    exactly what the facts derive.

    Reads the engine's positions, containment entry times and declared
    facts; near pairs and dwell windows are recomputed from those.
    ``now`` defaults to the engine's own clock, and an earlier one is
    raised to it.  Changes nothing in the engine.
    """
    now = engine._time if now is None else max(now, engine._time)
    rules = engine.rules()
    kb = _fresh_kb(engine.world, engine.max_depth, engine._regions,
                   engine._positions, engine._entries, engine._facts,
                   rules, now)
    events: List[Dict[str, Any]] = []
    for rule in rules:
        events.extend(transitions(rule, solutions(kb, rule), now))
    return events
