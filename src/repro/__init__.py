"""MiddleWhere — a middleware for location awareness.

A full reproduction of *MiddleWhere: A Middleware for Location
Awareness in Ubiquitous Computing Applications* (Ranganathan et al.,
MIDDLEWARE 2004): probabilistic multi-sensor location fusion over a
spatial database, with a hybrid symbolic/coordinate location model,
spatial relationship reasoning, push/pull application interfaces, a
distributed object broker, simulated sensor technologies and the
paper's example applications.

Quickstart::

    from repro import Scenario

    scenario = Scenario(seed=7).standard_deployment()
    scenario.add_people(3)
    scenario.run(60)
    estimate = scenario.service.locate("person-1")
    print(estimate.symbolic, estimate.bucket.value)

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.core` — sensor error model, temporal degradation, the
  rectangle lattice and the Bayesian fusion equations (the paper's
  primary contribution).
* :mod:`repro.geometry`, :mod:`repro.model`, :mod:`repro.spatialdb` —
  the geometric substrate, GLOB/coordinate-frame location model and
  the spatial database with triggers.
* :mod:`repro.reasoning` — RCC-8 + passage relations, navigation
  graph, mini-Prolog rule engine, probabilistic relations.
* :mod:`repro.orb` — the CORBA-role object request broker.
* :mod:`repro.sensors` — plug-and-play adapters for the paper's
  technologies.
* :mod:`repro.pipeline` — the streaming ingestion pipeline: batched,
  back-pressured reading intake with one fusion thread and a
  dead-letter queue.
* :mod:`repro.faults` — seeded, deterministic fault injection and the
  chaos-test invariants for the sensing→fusion→notify path.
* :mod:`repro.service` — the Location Service (queries,
  subscriptions, privacy, symbolic regions).
* :mod:`repro.shard` — multiprocess scale-out: the tracked-object
  population partitioned across N shard processes behind a router
  over the ORB's TCP transport.
* :mod:`repro.sim` — simulated buildings, people and sensors.
* :mod:`repro.apps` — Follow Me, Anywhere IM, notifications, the
  vocal locator.
"""

from repro.core import (
    FusionEngine,
    FusionResult,
    LocationEstimate,
    ProbabilityBucket,
    ProbabilityClassifier,
    Reading,
    SensorSpec,
)
from repro.faults import FaultPlan, FaultReport
from repro.geometry import Point, Polygon, Rect, Segment
from repro.model import Glob, WorldModel
from repro.orb import NamingService, Orb
from repro.pipeline import (
    LocationPipeline,
    PipelineConfig,
    PipelineStats,
)
from repro.service import (
    LocationHistory,
    LocationService,
    PrivacyPolicy,
    publish_service,
)
from repro.shard import ShardCluster, ShardRouter
from repro.sim import (
    Scenario,
    SimClock,
    campus_world,
    paper_floor,
    siebel_building,
    siebel_floor,
)
from repro.spatialdb import SpatialDatabase

__version__ = "1.0.0"

__all__ = [
    "FaultPlan",
    "FaultReport",
    "FusionEngine",
    "FusionResult",
    "Glob",
    "LocationEstimate",
    "LocationHistory",
    "LocationPipeline",
    "LocationService",
    "NamingService",
    "Orb",
    "PipelineConfig",
    "PipelineStats",
    "Point",
    "Polygon",
    "PrivacyPolicy",
    "ProbabilityBucket",
    "ProbabilityClassifier",
    "Reading",
    "Rect",
    "Scenario",
    "Segment",
    "SensorSpec",
    "SimClock",
    "SpatialDatabase",
    "WorldModel",
    "__version__",
    "campus_world",
    "paper_floor",
    "publish_service",
    "siebel_building",
    "siebel_floor",
]
