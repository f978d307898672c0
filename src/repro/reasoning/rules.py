"""Spatial rule base: exporting the world model into the logic engine.

The Location Service feeds region relations (RCC-8 plus the passage
refinements) into the logic engine as facts and "reasons further about
these relations" (Section 4.6.1) — reachability for route finding,
credential-gated accessibility, same-floor co-location, and so on.
"""

from __future__ import annotations

from typing import List, Union

from repro.model import EntityType, Glob, WorldModel
from repro.reasoning import passages
from repro.reasoning.prolog import KnowledgeBase

# The facts :func:`add_passage_facts` exports: the only ones that need
# the O(regions^2) polygon RCC-8 sweep.
PASSAGE_FUNCTORS = frozenset({"ecfp", "ecrp", "ecnp"})

# The derived-relation rule set loaded on top of the world facts.
SPATIAL_RULES = [
    # Passages are symmetric.
    "passage(X, Y) :- ecfp(X, Y)",
    "passage(X, Y) :- ecfp(Y, X)",
    "gated_passage(X, Y) :- ecrp(X, Y)",
    "gated_passage(X, Y) :- ecrp(Y, X)",
    # Reachability without credentials: free passages only.
    "reachable(X, Y) :- passage(X, Y)",
    "reachable(X, Y) :- passage(X, Z), reachable(Z, Y)",
    # Reachability with credentials: free or restricted passages.
    "opens(X, Y) :- passage(X, Y)",
    "opens(X, Y) :- gated_passage(X, Y)",
    "accessible(X, Y) :- opens(X, Y)",
    "accessible(X, Y) :- opens(X, Z), accessible(Z, Y)",
    # Hierarchy: transitive containment from direct parent facts.
    "within(X, Y) :- parent(X, Y)",
    "within(X, Y) :- parent(X, Z), within(Z, Y)",
    # Two regions are colocated at a granularity G if both lie within G.
    "colocated_in(X, Y, G) :- within(X, G), within(Y, G)",
    # A room is adjacent to another if any passage joins them.
    "adjacent(X, Y) :- opens(X, Y)",
]


def build_knowledge_base(world: WorldModel,
                         max_depth: int = 256) -> KnowledgeBase:
    """A knowledge base loaded with the world's spatial facts and rules:
    :func:`hierarchy_knowledge_base` plus :func:`add_passage_facts`."""
    kb = hierarchy_knowledge_base(world, max_depth)
    add_passage_facts(kb, world)
    return kb


def hierarchy_knowledge_base(world: WorldModel,
                             max_depth: int = 256) -> KnowledgeBase:
    """The rules and every world fact but the passage relations.

    Facts exported:
      * ``parent/2`` — direct GLOB hierarchy (room -> floor -> building).
      * ``region/1``, ``room/1``, ``corridor/1`` — region typing.
    """
    kb = KnowledgeBase(max_depth=max_depth)
    for rule in SPATIAL_RULES:
        kb.add(rule)
    for entity in world.entities():
        glob = str(entity.glob)
        if entity.entity_type.is_enclosing:
            kb.add_fact("region", glob)
        if entity.entity_type is EntityType.ROOM:
            kb.add_fact("room", glob)
        elif entity.entity_type is EntityType.CORRIDOR:
            kb.add_fact("corridor", glob)
        prefix = entity.glob_prefix
        if prefix:
            kb.add_fact("parent", glob, prefix)
            # Chain the prefix hierarchy itself (SC/3 -> SC).
            parts = prefix.split("/")
            for i in range(len(parts) - 1, 0, -1):
                kb.add_fact("parent", "/".join(parts[: i + 1]),
                            "/".join(parts[:i]))
    return kb


def add_passage_facts(kb: KnowledgeBase, world: WorldModel) -> None:
    """Export ``ecfp/2``, ``ecrp/2`` and ``ecnp/2``: the passage
    relations between externally connected regions (one direction; the
    rules add symmetry)."""
    for a, b, relation in passages.connected_pairs(world):
        kb.add_fact(relation.value.lower(), a, b)


def reachable_regions(kb: KnowledgeBase,
                      source: Union[Glob, str]) -> List[str]:
    """All regions reachable from ``source`` through free passages."""
    src = str(source).replace("'", "")
    return sorted({answer["Where"]
                   for answer in kb.query(f"reachable('{src}', Where)")})


def accessible_regions(kb: KnowledgeBase,
                       source: Union[Glob, str]) -> List[str]:
    """All regions reachable when restricted passages can be opened."""
    src = str(source).replace("'", "")
    return sorted({answer["Where"]
                   for answer in kb.query(f"accessible('{src}', Where)")})


def is_reachable(kb: KnowledgeBase, a: Union[Glob, str],
                 b: Union[Glob, str]) -> bool:
    """Whether ``b`` can be reached from ``a`` without credentials."""
    return kb.ask(f"reachable('{a}', '{b}')")
