"""The distributed face of MiddleWhere (paper Section 7).

The Location Service registers with an ORB, binds itself in the
naming service (the Gaia Space Repository role), and listens on TCP.
A separate "application" ORB discovers it by name, pulls location
over the socket, and registers its own callback servant to receive
push notifications — the full CORBA-style deployment, in one process
for convenience but crossing a real TCP boundary.

Sensor readings travel the streaming ingestion pipeline: adapters
emit into a bounded intake queue, one fusion thread fuses each
person's queued backlog in one pass, and region triggers are evaluated
once per fused batch.  The pipeline is drained before the pull-mode
queries so every reading is visible.

Run:  python examples/distributed_deployment.py
"""

from __future__ import annotations

from repro import NamingService, Orb, Scenario
from repro.service import SERVICE_NAME


class NotificationSink:
    """The application's callback servant for pushed events."""

    def __init__(self) -> None:
        self.events = []

    def notify(self, event) -> None:
        self.events.append(event)
        print(f"  [push] t={event['time']:>5.1f}s {event['object_id']} "
              f"{event['transition']} {event['region_glob'] or 'region'}"
              f" (confidence {event['confidence']:.2f})")


def main() -> None:
    # --- server side: the middleware deployment --------------------
    scenario = Scenario(seed=19).standard_deployment()
    people = scenario.add_people(4)
    pipeline = scenario.use_pipeline()
    naming = NamingService()
    reference = scenario.publish(naming=naming, listen_tcp=True)
    print(f"location service published at {reference}")
    print(f"naming service lists: {naming.list_services()}\n")

    # --- client side: a remote Gaia application --------------------
    app_orb = Orb("application")
    app_orb.listen()
    try:
        service_ref = naming.resolve(SERVICE_NAME)
        location = app_orb.resolve(service_ref)

        # Push mode: subscribe a remote callback to the corridor.
        sink = NotificationSink()
        sink_ref = app_orb.register("sink", sink)
        corridor = scenario.world.canonical_mbr("SC/3/Corridor")
        subscription = location.subscribe(corridor, sink_ref,
                                          kind="both", threshold=0.3)
        print(f"subscribed remotely: {subscription}\n"
              f"running five simulated minutes...\n")
        scenario.run(300, dt=1.0)
        pipeline.drain()

        # Pull mode: query over the socket.  Remote errors arrive as
        # RemoteInvocationError with the server-side type preserved.
        from repro.errors import RemoteInvocationError

        print("\npull-mode queries over TCP:")
        for person in location.tracked_objects():
            try:
                estimate = location.locate(person)
            except RemoteInvocationError as exc:
                print(f"  {person}: {exc.remote_type} "
                      f"({exc.remote_message})")
                continue
            print(f"  {person}: {estimate.symbolic} "
                  f"({estimate.bucket.value}, "
                  f"p={estimate.probability:.2f})")
        print(f"\npush events received: {len(sink.events)}")
        location.unsubscribe(subscription)

        print("\npipeline statistics:")
        print(pipeline.stats().summary())
    finally:
        pipeline.stop()
        app_orb.shutdown()
        scenario.orb.shutdown()


if __name__ == "__main__":
    main()
