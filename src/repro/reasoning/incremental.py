"""Incremental semantic rule evaluation over fused locations.

PR 5 indexed *geometric* dispatch; this module compiles *semantic*
subscriptions — rules whose body atoms reference engine-derivable
facts (``within``, ``colocated_in``, ``reachable``, ``near``, dwell
predicates with time windows) plus per-object fused-location facts —
into an incrementally maintained trigger engine (ROADMAP item 3,
grounded in Rule-Based Semantic Sensing).

The engine keeps a *delta fact set*: on each fused result it retracts
and asserts only the dynamic facts that actually changed (``at/2``,
``near/3``, ``dwell/3``) and re-derives only the subscriptions whose
body atoms could have been touched, found through

* a predicate -> subscription inverted index over the dependency
  closure of each rule body,
* an R-tree over the concrete region atoms of each subscription (the
  PR-5 pruning pattern), probed with the regions whose containment
  actually flipped (the symmetric difference of the old and new
  containment chains),
* an exact pair-flip index for ``near`` thresholds, and
* a deadline heap for dwell windows evaluated against the sim clock.

The naive oracle that rebuilds a fresh knowledge base and re-runs
every rule on every epoch is
:class:`repro.oracles.semantic.ReferenceSemanticEngine`; both must
emit observably identical event streams (same events, same order,
same payloads), which ``tests/test_semantic_equivalence.py`` checks
after every step of a hypothesis state machine.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import ReasoningError
from repro.geometry import Rect
from repro.model import WorldModel
from repro.reasoning.prolog import (
    Atom,
    KnowledgeBase,
    Rule,
    Struct,
    Var,
    parse_clause,
)
from repro.reasoning.rules import (
    PASSAGE_FUNCTORS,
    SPATIAL_RULES,
    add_passage_facts,
    hierarchy_knowledge_base,
)
from repro.spatialdb.rtree import RTree

TRANSITION_ENTER = "enter"
TRANSITION_LEAVE = "leave"

# Rules bridging fused-location facts into the spatial vocabulary.
# ``at/2`` is the dynamic finest-region fact maintained per object;
# ``chain/2`` is the world's containment closure, materialized once by
# :meth:`SemanticTriggerEngine.__init__` (it agrees with ``within/2``
# over the parent hierarchy, but enumerating it is an indexed fact
# lookup instead of an SLD recursion per object — the goal order
# ``chain then at`` turns a bound-region query into two index probes).
SEMANTIC_RULES = [
    "located_within(O, G) :- at(O, G)",
    "located_within(O, G) :- chain(R, G), at(O, R)",
    "colocated_at(X, Y, G) :- located_within(X, G), "
    "located_within(Y, G), distinct(X, Y)",
]

# Dynamic base predicates: the only facts that change between epochs
# (plus application-declared facts, tracked per functor).
_DYNAMIC_PREDICATES = ("at", "near", "dwell")

# For at-dependent predicates: which argument position names the
# region whose containment change can flip the atom's truth.
_REGION_ARG = {
    "at": 1,
    "located_within": 1,
    "colocated_at": 2,
    "dwell": 1,
}


@dataclass(frozen=True)
class LocationUpdate:
    """One fused location result, as seen by the semantic engine.

    ``region`` is the finest enclosing symbolic region (``None`` when
    the center falls outside every region), ``center`` the point
    estimate in canonical feet, ``time`` the sim-clock timestamp that
    dwell windows are measured against.
    """

    object_id: str
    region: Optional[str]
    center: Tuple[float, float]
    support: Optional[Rect] = None
    confidence: float = 1.0
    time: float = 0.0


def containment_chain(region: Optional[str]) -> Tuple[str, ...]:
    """The region plus its GLOB-prefix ancestors, finest first.

    Mirrors the ``parent``/``within`` facts that
    :func:`hierarchy_knowledge_base` exports (textual prefix hierarchy),
    so dwell bookkeeping and ``located_within`` agree on what regions
    an object is in.
    """
    if not region:
        return ()
    parts = region.split("/")
    return tuple("/".join(parts[:i]) for i in range(len(parts), 0, -1))


def _rule_dependency_map(rule_texts: List[str]) -> Dict[str, Set[str]]:
    mapping: Dict[str, Set[str]] = {}
    for text in rule_texts:
        rule = parse_clause(text)
        bucket = mapping.setdefault(rule.head.functor, set())
        for atom in rule.body:
            bucket.add(atom.functor)
    return mapping


_DEPENDENCIES = _rule_dependency_map(SPATIAL_RULES + SEMANTIC_RULES)


def _predicate_closure(predicates: Set[str]) -> Set[str]:
    """All predicates reachable from ``predicates`` through the
    shipped rule set (SPATIAL_RULES + SEMANTIC_RULES)."""
    closure: Set[str] = set()
    stack = list(predicates)
    while stack:
        predicate = stack.pop()
        if predicate in closure:
            continue
        closure.add(predicate)
        stack.extend(_DEPENDENCIES.get(predicate, ()))
    return closure


def _as_float_literal(term: Any, what: str) -> float:
    if not isinstance(term, Atom):
        raise ReasoningError(
            f"{what} must be a numeric literal, got {term!r}")
    try:
        value = float(term.value)
    except ValueError:
        raise ReasoningError(
            f"{what} must be a numeric literal, got {term.value!r}")
    if value <= 0.0:
        raise ReasoningError(f"{what} must be positive, got {value}")
    return value


def literal_text(value: float) -> str:
    """The canonical text of a near/dwell numeric literal, shared by
    asserted facts and rule bodies: repr of the parsed float, so the
    rule text "near(A, B, 10)" matches the fact ``near(a, b, '10.0')``.
    """
    return repr(value)


def _canonical_literal(atom: Struct) -> Struct:
    if atom.functor in ("near", "dwell") and len(atom.args) == 3:
        value = _as_float_literal(atom.args[2], f"{atom.functor} literal")
        return Struct(atom.functor,
                      atom.args[:2] + (Atom(literal_text(value)),))
    return atom


@dataclass
class SemanticRule:
    """One compiled semantic subscription rule.

    The textual rule ``head(Vars...) :- body`` is parsed once; the
    head functor is rewritten to a unique internal name so two
    subscriptions may reuse the same head name without their solution
    sets merging, and near/dwell numeric literals take their
    :func:`literal_text` form.  Dependency analysis happens here: which dynamic
    predicates the body can reach, the concrete region rectangles for
    R-tree pruning, and the ``near``/``dwell`` literals that seed the
    pair-flip index and the dwell deadline heap.
    """

    subscription_id: str
    text: str
    head_functor: str = ""
    head_vars: Tuple[str, ...] = ()
    internal: str = ""
    compiled: Optional[Rule] = None
    depends: FrozenSet[str] = frozenset()
    fact_functors: FrozenSet[str] = frozenset()
    near_atoms: Tuple[Tuple[float, Tuple[Optional[str], Optional[str]]],
                      ...] = ()
    dwell_atoms: Tuple[Tuple[float, Optional[str], Optional[str]], ...] = ()
    region_atoms: Tuple[str, ...] = ()
    at_prunable: bool = False
    seq: int = 0
    previous: Set[Tuple[str, ...]] = field(default_factory=set)

    @classmethod
    def compile(cls, subscription_id: str, text: str,
                seq: int) -> "SemanticRule":
        parsed = parse_clause(text)
        if not parsed.body:
            raise ReasoningError(
                f"semantic subscription {subscription_id} must be a rule "
                f"(head :- body), got a bare fact")
        head = parsed.head
        names: List[str] = []
        for arg in head.args:
            if not isinstance(arg, Var):
                raise ReasoningError(
                    f"semantic rule head arguments must be variables, "
                    f"got {arg!r}")
            if arg.name in names:
                raise ReasoningError(
                    f"semantic rule head repeats variable {arg.name}")
            names.append(arg.name)

        body_functors = {atom.functor for atom in parsed.body}
        closure = _predicate_closure(set(body_functors))
        engine_vocab = (set(_DEPENDENCIES) | set(_DYNAMIC_PREDICATES)
                        | PASSAGE_FUNCTORS
                        | {"distinct", "parent", "chain", "region",
                           "room", "corridor"})
        fact_functors = frozenset(
            functor for functor in body_functors
            if functor not in engine_vocab)

        near_atoms: List[Tuple[float,
                               Tuple[Optional[str], Optional[str]]]] = []
        dwell_atoms: List[Tuple[float, Optional[str], Optional[str]]] = []
        region_atoms: List[str] = []
        at_prunable = "at" in closure
        for atom in parsed.body:
            if atom.functor == "near":
                if len(atom.args) != 3:
                    raise ReasoningError("near/3 expects (A, B, Feet)")
                threshold = _as_float_literal(atom.args[2], "near threshold")
                ground = tuple(
                    arg.value if isinstance(arg, Atom) else None
                    for arg in atom.args[:2])
                near_atoms.append((threshold, ground))  # type: ignore
            elif atom.functor == "dwell":
                if len(atom.args) != 3:
                    raise ReasoningError(
                        "dwell/3 expects (Object, Region, Seconds)")
                duration = _as_float_literal(atom.args[2], "dwell window")
                obj = atom.args[0].value \
                    if isinstance(atom.args[0], Atom) else None
                region = atom.args[1].value \
                    if isinstance(atom.args[1], Atom) else None
                dwell_atoms.append((duration, obj, region))
                if region is None:
                    at_prunable = False
                else:
                    region_atoms.append(region)
            position = _REGION_ARG.get(atom.functor)
            if position is not None and atom.functor != "dwell":
                if "at" not in _predicate_closure({atom.functor}):
                    continue
                region_term = atom.args[position] \
                    if position < len(atom.args) else None
                if isinstance(region_term, Atom):
                    region_atoms.append(region_term.value)
                else:
                    at_prunable = False

        rule = cls(
            subscription_id=subscription_id,
            text=text,
            head_functor=head.functor,
            head_vars=tuple(names),
            internal=f"__sub_{seq}",
            depends=frozenset(closure),
            fact_functors=fact_functors,
            near_atoms=tuple(near_atoms),
            dwell_atoms=tuple(dwell_atoms),
            region_atoms=tuple(region_atoms),
            at_prunable=at_prunable,
            seq=seq,
        )
        rule.compiled = Rule(
            Struct(rule.internal, head.args),
            tuple(_canonical_literal(atom) for atom in parsed.body))
        return rule

    @property
    def arity(self) -> int:
        return len(self.head_vars)

    def depends_on(self, predicate: str) -> bool:
        return predicate in self.depends

    def near_matches(self, threshold: float, a: str, b: str) -> bool:
        """Whether a flip of pair ``{a, b}`` at ``threshold`` can touch
        this rule's near atoms."""
        for literal, ground in self.near_atoms:
            if literal != threshold:
                continue
            first, second = ground
            if first is not None and first not in (a, b):
                continue
            if second is not None and second not in (a, b):
                continue
            return True
        return False

    def dwell_matches(self, literal: float, obj: str, region: str) -> bool:
        for duration, ground_obj, ground_region in self.dwell_atoms:
            if duration != literal:
                continue
            if ground_obj is not None and ground_obj != obj:
                continue
            if ground_region is not None and ground_region != region:
                continue
            return True
        return False


class SemanticTriggerEngine:
    """Edge-triggered semantic subscriptions over fused locations.

    One long-lived knowledge base is mutated by delta facts, and each
    epoch re-derives only the subscriptions those facts can touch.
    The passage facts (``ecfp``/``ecrp``/``ecnp``) are the one costly
    static export, so they load on the first subscription whose
    dependency closure reaches them; no other rule can see them.
    """

    def __init__(self, world: WorldModel, max_depth: int = 256) -> None:
        self.world = world
        self.max_depth = max_depth
        self._seq = itertools.count(1)
        self._rules: Dict[str, SemanticRule] = {}
        self._positions: Dict[str, Tuple[float, float]] = {}
        self._regions: Dict[str, Optional[str]] = {}
        # (object, region) -> entry time (sim clock).
        self._entries: Dict[Tuple[str, str], float] = {}
        # Declared application facts: functor -> set of arg tuples.
        self._facts: Dict[str, Set[Tuple[str, ...]]] = {}
        self._time = 0.0
        # Near thresholds in use -> pair set {frozenset({a,b})}.
        self._near_pairs: Dict[float, Set[FrozenSet[str]]] = {}
        # Dwell literals in use (durations, seconds).
        self._dwell_literals: Set[float] = set()
        self._rtree = RTree()
        self._rtree_entries: Dict[str, List[Rect]] = {}
        self._always_at: Set[str] = set()
        # Exact inverted index: concrete region atom -> subscriptions
        # naming it.  The R-tree narrows geometrically; this index is
        # what guarantees completeness (it needs no geometry, so
        # regions the world has no rectangle for still dispatch).
        self._region_subscribers: Dict[str, Set[str]] = {}
        self._dwell_heap: List[Tuple[float, int, str, str, float]] = []
        self._heap_seq = itertools.count(1)
        self._asserted_dwell: Set[Tuple[str, str, float]] = set()
        # Stats.
        self.epochs = 0
        self.evaluated = 0
        self.pruned = 0
        self.events_emitted = 0
        self._kb = hierarchy_knowledge_base(world, max_depth=max_depth)
        self._passages_loaded = False
        for region, ancestor in self._containment_closure():
            self._kb.add_fact("chain", region, ancestor)
        for text in SEMANTIC_RULES:
            self._kb.add(text)
        self.kb_rebuilds = 1

    # ------------------------------------------------------------------
    # Knowledge-base plumbing
    # ------------------------------------------------------------------

    def _containment_closure(self) -> List[Tuple[str, str]]:
        """Every (region, proper ancestor) pair in the world hierarchy.

        The static closure behind the ``chain/2`` facts: for each
        enclosing region glob (and each intermediate prefix such as
        ``SC/3``), all of its textual-prefix ancestors — the same
        hierarchy :func:`containment_chain` and the ``parent`` facts
        describe, flattened so ``located_within`` never recurses.
        """
        pairs: Set[Tuple[str, str]] = set()
        globs: Set[str] = set()
        for entity in self.world.entities():
            if entity.entity_type.is_enclosing:
                globs.add(str(entity.glob))
        for glob in list(globs):
            globs.update(containment_chain(glob))
        for glob in globs:
            chain = containment_chain(glob)
            for ancestor in chain[1:]:
                pairs.add((glob, ancestor))
        return sorted(pairs)

    def _mbr(self, region: str) -> Optional[Rect]:
        try:
            return self.world.canonical_mbr(region)
        except Exception:
            return None

    def _set_near(self, a: str, b: str, threshold: float,
                  closed: bool) -> None:
        literal = literal_text(threshold)
        change = self._kb.add_fact if closed else self._kb.remove_fact
        change("near", a, b, literal)
        change("near", b, a, literal)

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------

    def subscribe(self, subscription_id: str, rule_text: str,
                  now: Optional[float] = None) -> List[Dict[str, Any]]:
        """Register a rule; returns the initial activation events."""
        if subscription_id in self._rules:
            raise ReasoningError(
                f"duplicate semantic subscription {subscription_id}")
        now = self._time if now is None else max(now, self._time)
        self._time = now
        rule = SemanticRule.compile(subscription_id, rule_text,
                                    next(self._seq))
        self._rules[subscription_id] = rule

        if not self._passages_loaded and rule.depends & PASSAGE_FUNCTORS:
            add_passage_facts(self._kb, self.world)
            self._passages_loaded = True
        for threshold, _ in rule.near_atoms:
            self._ensure_near_threshold(threshold)
        for duration, _, _ in rule.dwell_atoms:
            self._ensure_dwell_literal(duration, now)

        self._kb.add(rule.compiled)
        rects = []
        for region in rule.region_atoms:
            rect = self._mbr(region)
            if rect is None:
                # Unknown region: its containment never changes, so
                # the atom contributes no pruning rectangle.
                continue
            rects.append(rect)
            self._rtree.insert(rect, subscription_id)
        self._rtree_entries[subscription_id] = rects
        for region in rule.region_atoms:
            self._region_subscribers.setdefault(
                region, set()).add(subscription_id)
        if rule.depends_on("at") and not rule.at_prunable:
            self._always_at.add(subscription_id)
        return self._dispatch({subscription_id: rule}, now)

    def unsubscribe(self, subscription_id: str) -> bool:
        rule = self._rules.pop(subscription_id, None)
        if rule is None:
            return False
        self._kb.remove_predicate(rule.internal, rule.arity)
        for rect in self._rtree_entries.pop(subscription_id, ()):
            self._rtree.delete(
                rect, lambda value: value == subscription_id)
        for region in rule.region_atoms:
            subscribers = self._region_subscribers.get(region)
            if subscribers is not None:
                subscribers.discard(subscription_id)
                if not subscribers:
                    del self._region_subscribers[region]
        self._always_at.discard(subscription_id)
        return True

    def rules(self) -> List[SemanticRule]:
        return sorted(self._rules.values(), key=lambda r: r.seq)

    def active_solutions(self,
                         subscription_id: str) -> List[Dict[str, str]]:
        rule = self._rules[subscription_id]
        return [dict(zip(rule.head_vars, solution))
                for solution in sorted(rule.previous)]

    # ------------------------------------------------------------------
    # Declared application facts
    # ------------------------------------------------------------------

    def declare_fact(self, functor: str, *args: str,
                     now: Optional[float] = None) -> List[Dict[str, Any]]:
        """Assert an application fact (e.g. ``team(alice, blue)``).

        Asserting a known fact changes nothing but the clock, so it is
        a :meth:`tick` at ``now``: dwell windows expiring by then fire.
        """
        return self._change_fact(functor, args, now, asserted=True)

    def retract_fact(self, functor: str, *args: str,
                     now: Optional[float] = None) -> List[Dict[str, Any]]:
        """Retract an application fact; an unknown fact is a
        :meth:`tick` at ``now``, as in :meth:`declare_fact`."""
        return self._change_fact(functor, args, now, asserted=False)

    def _change_fact(self, functor: str, args: Tuple[str, ...],
                     now: Optional[float],
                     asserted: bool) -> List[Dict[str, Any]]:
        now = self._time if now is None else max(now, self._time)
        bucket = self._facts.setdefault(functor, set())
        if (args in bucket) == asserted:
            return self.tick(now)
        self._time = now
        if asserted:
            bucket.add(args)
            self._kb.add_fact(functor, *args)
        else:
            bucket.discard(args)
            self._kb.remove_fact(functor, *args)
        return self._dispatch({rule.subscription_id: rule
                               for rule in self._rules.values()
                               if functor in rule.fact_functors}, now)

    # ------------------------------------------------------------------
    # The epoch driver
    # ------------------------------------------------------------------

    def on_update(self, update: LocationUpdate) -> List[Dict[str, Any]]:
        """Feed one fused result; returns the semantic events it causes."""
        now = max(update.time, self._time)
        self._time = now
        self.epochs += 1
        object_id = update.object_id

        old_region = self._regions.get(object_id)
        old_center = self._positions.get(object_id)
        new_region = update.region

        old_chain = set(containment_chain(old_region))
        new_chain = set(containment_chain(new_region))
        entered = new_chain - old_chain
        left = old_chain - new_chain
        for region in entered:
            self._entries[(object_id, region)] = now
        for region in left:
            self._entries.pop((object_id, region), None)
        self._positions[object_id] = update.center
        self._regions[object_id] = new_region

        kb = self._kb
        affected: Dict[str, SemanticRule] = {}

        if new_region != old_region:
            if old_region is not None:
                kb.remove_fact("at", object_id, old_region)
            if new_region is not None:
                kb.add_fact("at", object_id, new_region)
            # Retract dwell facts for regions the object left; schedule
            # deadlines for regions it entered.
            for region in left:
                for literal in self._dwell_literals:
                    key = (object_id, region, literal)
                    if key in self._asserted_dwell:
                        self._asserted_dwell.discard(key)
                        kb.remove_fact("dwell", object_id, region,
                                       literal_text(literal))
            for region in entered:
                for literal in self._dwell_literals:
                    heapq.heappush(
                        self._dwell_heap,
                        (now + literal, next(self._heap_seq),
                         object_id, region, literal))
            # R-tree probe: only regions whose containment flipped can
            # change a concrete-region atom.  The geometric probe
            # narrows (adjacent rooms touch, so it over-approximates);
            # the exact name index covers regions without geometry.
            flipped = entered | left
            probe_ids: Set[str] = set()
            for region in flipped:
                rect = self._mbr(region)
                if rect is not None:
                    probe_ids.update(self._rtree.search(rect))
                probe_ids.update(
                    self._region_subscribers.get(region, ()))
            for sid in probe_ids:
                rule = self._rules.get(sid)
                if rule is None:
                    continue
                # A concrete-region atom's truth rides on containment
                # chains by *name* — keep only rules naming a region
                # that actually flipped.
                if any(region in flipped for region in rule.region_atoms):
                    affected[sid] = rule
            for sid in self._always_at:
                rule = self._rules.get(sid)
                if rule is not None:
                    affected[sid] = rule

        for threshold, a, b, closed in self._near_flips(
                object_id, old_center, update.center):
            self._set_near(a, b, threshold, closed)
            for rule in self._rules.values():
                if rule.near_matches(threshold, a, b):
                    affected[rule.subscription_id] = rule

        return self._dispatch(affected, now)

    def tick(self, now: float) -> List[Dict[str, Any]]:
        """Advance the sim clock without a location change.

        Dwell windows that expire by ``now`` fire exactly as they
        would on the next location update.
        """
        now = max(now, self._time)
        self._time = now
        return self._dispatch({}, now)

    def _dispatch(self, affected: Dict[str, SemanticRule],
                  now: float) -> List[Dict[str, Any]]:
        """Settle dwell windows expired by ``now``, fold the
        subscriptions they touch into ``affected``, and re-derive those
        in registration order."""
        for obj, region, literal in self._settle_dwell(now):
            for rule in self._rules.values():
                if rule.dwell_matches(literal, obj, region):
                    affected[rule.subscription_id] = rule
        ordered = sorted(affected.values(), key=lambda r: r.seq)
        self.pruned += len(self._rules) - len(ordered)
        return self._evaluate(ordered, now)

    # ------------------------------------------------------------------
    # Near / dwell maintenance
    # ------------------------------------------------------------------

    def _near_flips(self, object_id: str,
                    old_center: Optional[Tuple[float, float]],
                    new_center: Tuple[float, float],
                    ) -> List[Tuple[float, str, str, bool]]:
        """Exact pair flips for the moved object at every threshold.

        Returns ``(threshold, moved, other, closed)`` tuples and
        updates ``self._near_pairs`` to match.
        """
        flips: List[Tuple[float, str, str, bool]] = []
        if not self._near_pairs:
            return flips
        for other, center in self._positions.items():
            if other == object_id:
                continue
            distance = ((center[0] - new_center[0]) ** 2
                        + (center[1] - new_center[1]) ** 2) ** 0.5
            pair = frozenset((object_id, other))
            for threshold, pairs in self._near_pairs.items():
                inside = distance < threshold
                was = pair in pairs
                if inside and not was:
                    pairs.add(pair)
                    flips.append((threshold, object_id, other, True))
                elif was and not inside:
                    pairs.discard(pair)
                    flips.append((threshold, object_id, other, False))
        return flips

    def _ensure_near_threshold(self, threshold: float) -> None:
        if threshold in self._near_pairs:
            return
        pairs: Set[FrozenSet[str]] = set()
        objects = list(self._positions.items())
        for i, (a, ca) in enumerate(objects):
            for b, cb in objects[i + 1:]:
                distance = ((ca[0] - cb[0]) ** 2
                            + (ca[1] - cb[1]) ** 2) ** 0.5
                if distance < threshold:
                    pairs.add(frozenset((a, b)))
        self._near_pairs[threshold] = pairs
        for pair in pairs:
            a, b = sorted(pair)
            self._set_near(a, b, threshold, True)

    def _ensure_dwell_literal(self, duration: float, now: float) -> None:
        if duration in self._dwell_literals:
            return
        self._dwell_literals.add(duration)
        for (obj, region), entry in self._entries.items():
            deadline = entry + duration
            if deadline <= now:
                key = (obj, region, duration)
                if key not in self._asserted_dwell:
                    self._asserted_dwell.add(key)
                    self._kb.add_fact("dwell", obj, region,
                                      literal_text(duration))
            else:
                heapq.heappush(
                    self._dwell_heap,
                    (deadline, next(self._heap_seq), obj, region, duration))

    def _settle_dwell(self, now: float) -> List[Tuple[str, str, float]]:
        """Assert dwell facts whose deadline has passed; returns the
        newly satisfied ``(object, region, duration)`` windows."""
        crossed: List[Tuple[str, str, float]] = []
        while self._dwell_heap and self._dwell_heap[0][0] <= now:
            deadline, _, obj, region, literal = heapq.heappop(
                self._dwell_heap)
            entry = self._entries.get((obj, region))
            if entry is None or entry + literal != deadline:
                continue  # stale: the object left (or re-entered) since
            key = (obj, region, literal)
            if key in self._asserted_dwell:
                continue
            self._asserted_dwell.add(key)
            self._kb.add_fact("dwell", obj, region, literal_text(literal))
            crossed.append((obj, region, literal))
        return crossed

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def _evaluate(self, rules: List[SemanticRule],
                  now: float) -> List[Dict[str, Any]]:
        """Re-derive ``rules`` (registration order) and edge-detect.

        Solution sets are canonically sorted before diffing, so the
        emitted stream does not depend on SLD enumeration order —
        this is what makes the engine and its oracle observably
        identical.
        """
        events: List[Dict[str, Any]] = []
        for rule in rules:
            current = solutions(self._kb, rule)
            self.evaluated += 1
            events.extend(transitions(rule, current, now))
            rule.previous = current
        self.events_emitted += len(events)
        return events

    def stats(self) -> Dict[str, int]:
        return {
            "subscriptions": len(self._rules),
            "epochs": self.epochs,
            "evaluated": self.evaluated,
            "pruned": self.pruned,
            "kb_rebuilds": self.kb_rebuilds,
            "events": self.events_emitted,
            "near_thresholds": len(self._near_pairs),
            "dwell_pending": len(self._dwell_heap),
        }


def solutions(kb: KnowledgeBase, rule: SemanticRule) -> Set[Tuple[str, ...]]:
    """Every binding tuple of ``rule``'s head that ``kb`` derives."""
    goal = Struct(rule.internal,
                  tuple(Var(f"V{i}") for i in range(rule.arity)))
    return {tuple(answer[f"V{i}"] for i in range(rule.arity))
            for answer in kb.query(goal)}


def transitions(rule: SemanticRule, current: Set[Tuple[str, ...]],
                now: float) -> List[Dict[str, Any]]:
    """The events taking ``rule`` from its standing solutions to
    ``current``: entries, then departures, each sorted."""
    return ([_event(rule, TRANSITION_ENTER, solution, now)
             for solution in sorted(current - rule.previous)]
            + [_event(rule, TRANSITION_LEAVE, solution, now)
               for solution in sorted(rule.previous - current)])


def _event(rule: SemanticRule, transition: str,
           solution: Tuple[str, ...], now: float) -> Dict[str, Any]:
    return {
        "subscription_id": rule.subscription_id,
        "transition": transition,
        "head": rule.head_functor,
        "bindings": dict(zip(rule.head_vars, solution)),
        "rule": rule.text,
        "time": now,
    }
