"""End-to-end scenario wiring: world + database + service + simulation.

A :class:`Scenario` assembles the whole MiddleWhere stack over a
simulated building and population, stepping ground truth, sensing and
(optionally) accuracy tracing under one virtual clock.  Examples,
integration tests and benchmarks all start from here.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core import FusionEngine
from repro.errors import SimulationError, UnknownObjectError
from repro.model import WorldModel
from repro.orb import NamingService, Orb
from repro.service import (
    LocationService,
    PrivacyPolicy,
    publish_service,
)
from repro.sim.building import siebel_floor
from repro.sim.clock import SimClock
from repro.sim.deployment import Deployment
from repro.sim.movement import MovementModel, PersonState
from repro.sim.trace import AccuracyTrace
from repro.spatialdb import SpatialDatabase


class Scenario:
    """A complete simulated deployment.

    Args:
        world: the building (defaults to :func:`siebel_floor`).
        seed: drives movement and every sensor's RNG.
        engine: fusion engine override.
        orb: attach the service to a broker (examples that exercise the
            remote path pass one; benches open TCP on it).
    """

    def __init__(self, world: Optional[WorldModel] = None, seed: int = 7,
                 engine: Optional[FusionEngine] = None,
                 orb: Optional[Orb] = None,
                 privacy: Optional[PrivacyPolicy] = None) -> None:
        self.world = world if world is not None else siebel_floor()
        self.clock = SimClock()
        self.db = SpatialDatabase(self.world)
        self.movement = MovementModel(self.world, seed=seed)
        self.deployment = Deployment(self.db, seed=seed + 1)
        self.orb = orb
        self.service = LocationService(
            self.db, engine=engine, orb=orb, clock=self.clock,
            privacy=privacy)
        self.trace = AccuracyTrace(self.world)
        self.pipeline = None  # set by use_pipeline()
        self.fault_plan = None  # set by use_pipeline(fault_plan=...)
        self.durability = None  # set by use_durability()
        self.shard_cluster = None  # set by use_shards()
        self.router = None  # set by use_shards()
        self._published_reference: Optional[str] = None

    # ------------------------------------------------------------------
    # Assembly helpers
    # ------------------------------------------------------------------

    def standard_deployment(self) -> "Scenario":
        """The paper's deployment shape: four technologies, four rooms.

        "We integrated four different location technologies in the
        system ... the location sensors cover four different rooms,
        that includes a lab, a conference room, and two offices"
        (Section 7).
        """
        prefix = "SC/3"
        covered = [f"{prefix}/3105", f"{prefix}/ConferenceRoom",
                   f"{prefix}/3102", f"{prefix}/3216"]
        for room in covered:
            if not self.world.has(room):
                raise SimulationError(
                    f"standard deployment expects room {room}")
        self.deployment.install_ubisense("Ubi-18", f"{prefix}/3105")
        self.deployment.install_ubisense("Ubi-19",
                                         f"{prefix}/ConferenceRoom")
        self.deployment.install_rf_station("RF-12", f"{prefix}/3102")
        self.deployment.install_rf_station("RF-13", f"{prefix}/3216")
        self.deployment.install_rf_station("RF-14", f"{prefix}/Corridor")
        self.deployment.install_card_reader("Card-3105", f"{prefix}/3105")
        self.deployment.install_card_reader("Card-NetLab",
                                            f"{prefix}/NetLab")
        self.deployment.install_fingerprint("Finger-3105",
                                            f"{prefix}/3105")
        return self

    def add_people(self, count: int, prefix: str = "person") -> List[str]:
        """Add ``count`` randomly placed people; returns their ids."""
        ids = []
        for i in range(count):
            person_id = f"{prefix}-{i + 1}"
            self.movement.add_person(person_id)
            ids.append(person_id)
        return ids

    def use_pipeline(self, config=None, channel=None, fault_plan=None):
        """Route every deployed adapter through an ingestion pipeline.

        Readings stop hitting the spatial database synchronously:
        adapters emit into the returned (already started)
        :class:`repro.pipeline.LocationPipeline`, whose fusion thread
        batches, fuses and notifies.  Call ``pipeline.drain()`` before
        querying if you need every emitted reading visible.  Adapters installed
        *after* this call must be wired with ``adapter.set_sink``.

        With ``fault_plan`` (a :class:`repro.faults.FaultPlan`), every
        adapter emits through the plan's fault-injecting sink instead,
        the plan's flush injectors are installed into the pipeline, and
        :meth:`step` pumps the plan so delayed readings are released on
        the scenario clock.  Call ``fault_plan.flush()`` before
        draining so held readings are force-released.
        """
        from repro.pipeline import LocationPipeline
        self.pipeline = LocationPipeline(self.service, config=config,
                                         channel=channel)
        sink = self.pipeline
        if fault_plan is not None:
            sink = fault_plan.wrap_sink(self.pipeline)
            fault_plan.attach_pipeline(self.pipeline)
            self.fault_plan = fault_plan
        for adapter in self.deployment.adapters():
            adapter.set_sink(sink)
        if (self.durability is not None and fault_plan is not None):
            self.durability.attach_fault_plan(fault_plan)
        self.pipeline.start()
        return self.pipeline

    def use_shards(self, num_shards: int, *, wal_root: Optional[str] = None,
                   durability_mode: str = "buffered", pipeline=None,
                   region_affinity=None):
        """Scale the scenario out across shard processes.

        Spawns a :class:`repro.shard.ShardCluster` (each shard a full
        engine in its own process, reachable over the ORB's TCP
        transport), replays the deployment's sensor registrations to
        the fleet, and points every installed adapter's sink at the
        cluster's :class:`~repro.shard.ShardRouter`.  From then on the
        scenario's *ingest* runs sharded while ``self.service`` stays
        available as the single-process reference.  Call
        ``router.drain()`` before querying the fleet; call
        ``scenario.shard_cluster.shutdown()`` when done.  Returns the
        router.  Mutually exclusive with :meth:`use_pipeline` — the
        shards run their own pipelines.
        """
        from repro.shard import ShardCluster
        if self.pipeline is not None:
            raise SimulationError(
                "use_shards and use_pipeline are mutually exclusive: "
                "each shard runs its own ingestion pipeline")
        if self.shard_cluster is not None:
            raise SimulationError("scenario already sharded")
        self.shard_cluster = ShardCluster(
            num_shards, world=self.world, wal_root=wal_root,
            durability_mode=durability_mode, pipeline=pipeline,
            region_affinity=region_affinity)
        router = self.shard_cluster.router
        for row in self.db.sensor_specs.select():
            router.register_sensor(
                row["sensor_id"], row["sensor_type"], row["confidence"],
                row["time_to_live"], row["spec"])
        for adapter in self.deployment.adapters():
            adapter.set_sink(router)
        self.router = router
        return router

    def subscribe_semantic(self, rule: str, consumer=None,
                           kind: str = "both") -> str:
        """Subscribe to a semantic rule over fused-location facts.

        Routes to the shard router's merged semantic engine when the
        scenario is sharded, otherwise to the single-process service.
        Dwell windows are measured against the scenario's sim clock.
        """
        if self.router is not None:
            return self.router.subscribe_semantic(
                rule, consumer=consumer, kind=kind, now=self.clock.now())
        return self.service.subscribe_semantic(
            rule, consumer=consumer, kind=kind, now=self.clock.now())

    def use_durability(self, wal_dir: str, mode=None,
                       snapshot_interval: Optional[int] = None):
        """Make the scenario's database durable (WAL + snapshots).

        Attaches a :class:`repro.storage.DurabilityManager` journaling
        every mutation into ``wal_dir``; after a crash,
        :func:`repro.storage.recover` rebuilds a fingerprint-identical
        database from that directory.  Call before registering sensors
        or subscribing so those mutations are journaled too.  When a
        ``fault_plan`` is later passed to :meth:`use_pipeline`, its WAL
        kill points are installed automatically.  Returns the manager.
        """
        from repro.storage import DurabilityManager, DurabilityMode
        if mode is None:
            mode = DurabilityMode.BUFFERED
        elif isinstance(mode, str):
            mode = DurabilityMode(mode)
        self.durability = DurabilityManager(
            self.db, wal_dir, mode=mode,
            snapshot_interval=snapshot_interval).attach()
        if self.fault_plan is not None:
            self.durability.attach_fault_plan(self.fault_plan)
        return self.durability

    def publish(self, naming: Optional[NamingService] = None,
                listen_tcp: bool = False) -> str:
        """Expose the service on the scenario's ORB; returns the ref."""
        if self.orb is None:
            self.orb = Orb("scenario")
            self.service.orb = self.orb
        if listen_tcp:
            self.orb.listen()
        reference, _ = publish_service(self.service, self.orb, naming)
        self._published_reference = reference
        return reference

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now()

    @property
    def people(self) -> List[PersonState]:
        return self.movement.people

    def step(self, dt: float = 1.0) -> float:
        """One tick: advance clock, move people, run sensors."""
        now = self.clock.advance(dt)
        self.movement.step(now, dt)
        self.deployment.sense(self.movement.people, now)
        if self.fault_plan is not None:
            self.fault_plan.pump(now)
        return now

    def run(self, seconds: float, dt: float = 1.0,
            trace_accuracy: bool = False) -> None:
        """Run the scenario for a stretch of virtual time."""
        elapsed = 0.0
        while elapsed < seconds:
            self.step(dt)
            if trace_accuracy:
                self._record_trace()
            elapsed += dt

    def _record_trace(self) -> None:
        for person in self.movement.people:
            try:
                estimate = self.service.locate(person.person_id)
            except UnknownObjectError:
                self.trace.record_miss(person, self.now)
                continue
            self.trace.record(person, estimate, self.now)
