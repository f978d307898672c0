"""The Location Service (paper Section 4).

Pull queries (object- and region-based), push notifications through
one dispatch step per fused result, the symbolic region lattice, privacy
granularity and spatial relationship functions, plus the ORB servant
that exposes it all to remote applications.
"""

from repro.service.history import LocationHistory
from repro.service.location_service import DispatchReport, LocationService
from repro.service.privacy import (
    DEPTH_BLOCKED,
    DEPTH_BUILDING,
    DEPTH_FLOOR,
    DEPTH_FULL,
    DEPTH_ROOM,
    PrivacyPolicy,
)
from repro.service.regions import SymbolicRegionLattice
from repro.service.semantic_subscriptions import (
    SemanticSubscription,
    SemanticSubscriptionManager,
)
from repro.service.servant import (
    NAMING_NAME,
    SERVICE_NAME,
    LocationServiceServant,
    publish_service,
)
from repro.service.subscriptions import (
    KIND_BOTH,
    KIND_ENTER,
    KIND_LEAVE,
    Subscription,
    SubscriptionManager,
)

__all__ = [
    "DEPTH_BLOCKED",
    "DEPTH_BUILDING",
    "DEPTH_FLOOR",
    "DEPTH_FULL",
    "DEPTH_ROOM",
    "DispatchReport",
    "KIND_BOTH",
    "KIND_ENTER",
    "KIND_LEAVE",
    "LocationHistory",
    "LocationService",
    "LocationServiceServant",
    "NAMING_NAME",
    "PrivacyPolicy",
    "SERVICE_NAME",
    "SemanticSubscription",
    "SemanticSubscriptionManager",
    "Subscription",
    "SubscriptionManager",
    "SymbolicRegionLattice",
    "publish_service",
]
