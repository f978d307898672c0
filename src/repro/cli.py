"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``    — run a scenario and print live floor maps + estimates.
* ``floor``   — render a floor plan (paper | siebel | generated).
* ``locate``  — run a scenario silently, then answer locator-style
  questions from the command line.
* ``blueprint`` — export a built-in floor as a blueprint JSON.
* ``calibrate`` — run the simulated user study and print the report.
* ``pipeline`` — run a scenario through the async ingestion pipeline
  and print its throughput/latency statistics.
* ``semantic`` — run a scenario with semantic rule subscriptions and
  print every enter/leave event the trigger engine derives.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.apps import VocalPersonnelLocator
from repro.model.serialize import world_to_json
from repro.pipeline import (
    OVERFLOW_BLOCK,
    OVERFLOW_POLICIES,
    PipelineConfig,
)
from repro.sim import (
    Scenario,
    campus_world,
    generate_office_floor,
    paper_floor,
    siebel_building,
    siebel_floor,
)
from repro.sim.render import FloorRenderer, render_scenario
from repro.sim.study import SensorStudy

_WORLDS = {
    "paper": paper_floor,
    "siebel": siebel_floor,
    "building": siebel_building,
    "campus": campus_world,
    "generated": lambda: generate_office_floor(6),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MiddleWhere reproduction command-line tools")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a live scenario")
    demo.add_argument("--people", type=int, default=4)
    demo.add_argument("--seconds", type=float, default=300.0)
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--snapshots", type=int, default=3,
                      help="floor maps printed during the run")
    demo.add_argument("--width", type=int, default=96)

    floor = sub.add_parser("floor", help="render a floor plan")
    floor.add_argument("world", choices=sorted(_WORLDS), nargs="?",
                       default="siebel")
    floor.add_argument("--width", type=int, default=96)

    locate = sub.add_parser("locate",
                            help="ask locator questions after a run")
    locate.add_argument("questions", nargs="+",
                        help="e.g. 'where is person-1'")
    locate.add_argument("--people", type=int, default=4)
    locate.add_argument("--seconds", type=float, default=300.0)
    locate.add_argument("--seed", type=int, default=7)

    blueprint = sub.add_parser("blueprint",
                               help="export a floor as blueprint JSON")
    blueprint.add_argument("world", choices=sorted(_WORLDS), nargs="?",
                           default="paper")

    calibrate = sub.add_parser(
        "calibrate", help="run the simulated RF calibration study")
    calibrate.add_argument("--seconds", type=float, default=1800.0)
    calibrate.add_argument("--people", type=int, default=8)
    calibrate.add_argument("--seed", type=int, default=4)

    pipeline = sub.add_parser(
        "pipeline",
        help="run a scenario through the streaming ingestion pipeline")
    pipeline.add_argument("--people", type=int, default=6)
    pipeline.add_argument("--seconds", type=float, default=300.0)
    pipeline.add_argument("--seed", type=int, default=7)
    pipeline.add_argument("--policy", choices=OVERFLOW_POLICIES,
                          default=OVERFLOW_BLOCK)
    pipeline.add_argument("--wal-dir", default=None,
                          help="make the run durable: journal every "
                               "mutation into this directory")
    pipeline.add_argument("--durability",
                          choices=["buffered", "strict"],
                          default="buffered",
                          help="fsync policy when --wal-dir is set")
    pipeline.add_argument("--snapshot-interval", type=int, default=None,
                          help="cut a snapshot every N journaled records")
    pipeline.add_argument("--shards", type=int, default=0,
                          help="partition the world across N shard "
                               "processes fronted by a router (0 = "
                               "single-process pipeline); with "
                               "--wal-dir each shard journals its own "
                               "write-ahead log")

    recover = sub.add_parser(
        "recover",
        help="rebuild a spatial database from a WAL directory")
    recover.add_argument("wal_dir",
                         help="directory written by a --wal-dir run")

    semantic = sub.add_parser(
        "semantic",
        help="run a scenario with semantic rule subscriptions")
    semantic.add_argument(
        "rules", nargs="*",
        help="Horn rules over derived facts, e.g. \"meeting(P, Q) :- "
             "colocated_at(P, Q, 'SC/3/3104'), distinct(P, Q)\"; "
             "defaults to an occupancy + meeting pair")
    semantic.add_argument("--people", type=int, default=4)
    semantic.add_argument("--seconds", type=float, default=120.0)
    semantic.add_argument("--seed", type=int, default=7)
    return parser


def _cmd_demo(args: argparse.Namespace) -> int:
    scenario = Scenario(seed=args.seed).standard_deployment()
    scenario.add_people(args.people)
    chunk = args.seconds / max(1, args.snapshots)
    for snapshot in range(args.snapshots):
        scenario.run(chunk, dt=1.0)
        print(f"\n=== t = {scenario.now:.0f} s ===")
        print(render_scenario(scenario, width=args.width))
    return 0


def _cmd_floor(args: argparse.Namespace) -> int:
    world = _WORLDS[args.world]()
    print(FloorRenderer(world, width=args.width).render())
    return 0


def _cmd_locate(args: argparse.Namespace) -> int:
    scenario = Scenario(seed=args.seed).standard_deployment()
    scenario.add_people(args.people)
    scenario.run(args.seconds, dt=1.0)
    locator = VocalPersonnelLocator(scenario.service)
    for question in args.questions:
        print(f"Q: {question}")
        print(f"A: {locator.ask(question)}")
    return 0


def _cmd_blueprint(args: argparse.Namespace) -> int:
    print(world_to_json(_WORLDS[args.world]()))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    scenario = Scenario(seed=args.seed)
    station = scenario.deployment.install_rf_station(
        "RF-study", "SC/3/Corridor", misident_rate=0.002)
    scenario.add_people(args.people)
    study = SensorStudy(scenario, station)
    study.run(args.seconds, dt=1.0)
    print(study.report().summary())
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    if args.shards > 0:
        return _run_sharded(args)
    scenario = Scenario(seed=args.seed)
    if args.wal_dir is not None:
        # Attach durability before sensors register so the deployment's
        # registrations are journaled too.
        scenario.use_durability(args.wal_dir, mode=args.durability,
                                snapshot_interval=args.snapshot_interval)
    scenario.standard_deployment()
    scenario.add_people(args.people)
    pipeline = scenario.use_pipeline(
        config=PipelineConfig(overflow_policy=args.policy))
    try:
        scenario.run(args.seconds, dt=1.0)
        pipeline.drain()
    finally:
        pipeline.stop()
    stats = pipeline.stats()
    print(stats.summary())
    if scenario.durability is not None:
        pairs = " ".join(f"{key}={value}" for key, value
                         in sorted(scenario.durability.stats().items()))
        print(f"durability: {pairs}")
        scenario.durability.close()
    if not stats.reconciles():
        print("WARNING: pipeline accounting does not reconcile",
              file=sys.stderr)
        return 1
    return 0


def _run_sharded(args: argparse.Namespace) -> int:
    """The ``pipeline --shards N`` path: a real multiprocess fleet."""
    scenario = Scenario(seed=args.seed).standard_deployment()
    scenario.add_people(args.people)
    router = scenario.use_shards(
        args.shards, wal_root=args.wal_dir,
        durability_mode=args.durability,
        pipeline={"overflow_policy": args.policy})
    try:
        scenario.run(args.seconds, dt=1.0)
        router.drain()
        stats = router.stats()
        fleet = stats["fleet"]
        route = stats["router"]
        print(f"shards={route['shards']} submitted={route['submitted']} "
              f"forwarded={route['forwarded']} "
              f"dead_lettered={route['router_dead_lettered']}")
        print(f"wire: multiplexed_inflight_max="
              f"{route['multiplexed_inflight_max']}")
        print(f"fleet: enqueued={fleet['enqueued']} "
              f"fused={fleet['fused']} dropped={fleet['dropped']} "
              f"dead_lettered={fleet['dead_lettered']} "
              f"cache_hits={fleet['fusion_cache_hits']} "
              f"readings={fleet['readings']}")
        senders = {s["shard"]: s for s in route["senders"]}
        for shard in stats["shards"]:
            if shard is None:
                continue
            sender = senders.get(shard["shard"], {})
            print(f"  shard {shard['shard']}: pid={shard['pid']} "
                  f"readings={shard['readings']} "
                  f"fused={shard['pipeline']['fused']} "
                  f"tracked={shard['tracked']} "
                  f"peak_rss_mb={shard['peak_rss_mb']:.1f} "
                  f"warm_start={shard['warm_start']} "
                  f"queue_depth={sender.get('queue_depth', 0)} "
                  f"batches={sender.get('batches', 0)} "
                  f"queue_peak={sender.get('queue_peak', 0)}")
        if not router.reconciles():
            print("WARNING: fleet accounting does not reconcile",
                  file=sys.stderr)
            return 1
        errors = router.check_invariants()
        if errors:
            for error in errors:
                print(f"WARNING: {error}", file=sys.stderr)
            return 1
        return 0
    finally:
        scenario.shard_cluster.shutdown()


_DEFAULT_SEMANTIC_RULES = (
    "occupied(P) :- located_within(P, 'SC/3/3105')",
    "meeting(P, Q) :- colocated_at(P, Q, 'SC/3/3105'), distinct(P, Q)",
)


def _cmd_semantic(args: argparse.Namespace) -> int:
    scenario = Scenario(seed=args.seed).standard_deployment()
    scenario.add_people(args.people)
    rules = args.rules or list(_DEFAULT_SEMANTIC_RULES)

    def consumer(event):
        bindings = " ".join(f"{var}={value}" for var, value
                            in sorted(event["bindings"].items()))
        print(f"t={event['time']:8.1f}  {event['transition']:5s}  "
              f"{event['head']}  {bindings}")

    for rule in rules:
        print(f"rule: {rule}")
        scenario.service.subscribe_semantic(rule, consumer=consumer)
    scenario.run(args.seconds, dt=1.0)
    stats = scenario.service.semantic_manager().stats()
    pairs = " ".join(f"{key}={value}" for key, value
                     in sorted(stats.items()))
    print(f"semantic: {pairs}")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.storage import readings_fingerprint, recover

    state = recover(args.wal_dir)
    db = state.db
    print(f"snapshot seq:   {state.snapshot_seq}")
    print(f"replayed:       {state.replayed} WAL records "
          f"(through seq {state.last_seq})")
    if state.torn_bytes:
        print(f"torn tail:      {state.torn_bytes} bytes discarded "
              f"(kill mid-append)")
    print(f"sensors:        {len(db.sensor_specs)}")
    print(f"readings:       {len(db.sensor_readings)}")
    print(f"tracked:        {', '.join(db.tracked_objects()) or '-'}")
    print(f"subscriptions:  {len(state.subscriptions())}")
    print(f"triggers:       {len(state.triggers())}")
    print(f"fingerprint:    {readings_fingerprint(db)}")
    return 0


_COMMANDS = {
    "demo": _cmd_demo,
    "floor": _cmd_floor,
    "locate": _cmd_locate,
    "blueprint": _cmd_blueprint,
    "calibrate": _cmd_calibrate,
    "pipeline": _cmd_pipeline,
    "recover": _cmd_recover,
    "semantic": _cmd_semantic,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
