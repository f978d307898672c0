"""Spatial reasoning: RCC-8, passages, navigation, logic rules.

Implements Section 4.6 of the paper: topological relations between
regions (RCC-8 with the ECFP/ECRP/ECNP passage refinements), Euclidean
and path distances over a navigation graph, derived relations through
a small Prolog-style engine, and probabilistic object/region
relations.
"""

from repro.reasoning.composition import (
    RelationNetwork,
    compose,
    invert,
)
from repro.reasoning.incremental import (
    SEMANTIC_RULES,
    LocationUpdate,
    SemanticRule,
    SemanticTriggerEngine,
    containment_chain,
)
from repro.reasoning.navgraph import Edge, Graph, NavigationGraph, Route
from repro.reasoning.passages import (
    PassageRelation,
    connected_pairs,
    passage_between,
    region_rcc8,
    traversable,
)
from repro.reasoning.prolog import (
    Atom,
    KnowledgeBase,
    Rule,
    Struct,
    Term,
    Var,
    parse_clause,
    parse_query,
    resolve,
    unify,
    walk,
)
from repro.reasoning.rcc8 import RCC8, rcc8_polygons, rcc8_rects, relate
from repro.reasoning.relations import ProbabilisticRelation, SpatialRelations
from repro.reasoning.rules import (
    SPATIAL_RULES,
    accessible_regions,
    build_knowledge_base,
    is_reachable,
    reachable_regions,
)

__all__ = [
    "Atom",
    "Edge",
    "Graph",
    "KnowledgeBase",
    "LocationUpdate",
    "NavigationGraph",
    "SEMANTIC_RULES",
    "SemanticRule",
    "SemanticTriggerEngine",
    "containment_chain",
    "PassageRelation",
    "ProbabilisticRelation",
    "RCC8",
    "RelationNetwork",
    "Route",
    "Rule",
    "SPATIAL_RULES",
    "SpatialRelations",
    "Struct",
    "Term",
    "Var",
    "accessible_regions",
    "build_knowledge_base",
    "compose",
    "connected_pairs",
    "invert",
    "is_reachable",
    "parse_clause",
    "parse_query",
    "passage_between",
    "rcc8_polygons",
    "rcc8_rects",
    "reachable_regions",
    "region_rcc8",
    "relate",
    "resolve",
    "traversable",
    "unify",
    "walk",
]
