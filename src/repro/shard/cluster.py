"""Shard-fleet lifecycle: spawn, kill, recover, tear down.

A :class:`ShardCluster` owns N shard *processes* (``multiprocessing``
spawn context — no forked locks, same behaviour everywhere), collects
each one's bound TCP port through a pipe, and fronts them with a
:class:`~repro.shard.router.ShardRouter`.

The chaos suite drives the failure story through this class:
:meth:`kill_shard` SIGKILLs a worker mid-stream (no goodbye, exactly
like a machine loss) and :meth:`restart_shard` brings a replacement
up from the dead shard's write-ahead log — the new incarnation
journals into a fresh generation directory, because appending to a
log already replayed would restart sequence numbers mid-file.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Dict, List, Optional

from repro.errors import ServiceError, TransportError
from repro.model import WorldModel
from repro.model.serialize import world_to_json
from repro.orb import Orb
from repro.pipeline import PipelineConfig
from repro.shard.partitioner import HashPartitioner
from repro.shard.router import ShardRouter
from repro.shard.worker import SHARD_OBJECT_ID, shard_worker_main
from repro.sim.building import siebel_floor

_STARTUP_TIMEOUT = 60.0


class ShardCluster:
    """N shard processes plus the router that fronts them.

    Args:
        num_shards: fleet size.
        world: world model every shard loads (defaults to the Siebel
            floor); the router keeps its own copy for symbolic
            resolution and path reasoning.
        wal_root: when set, shard ``i`` journals into
            ``<wal_root>/shard-<i>/g<generation>`` and can be
            restarted from it.
        durability_mode: ``"buffered"`` | ``"strict"`` (with wal_root).
        pipeline: per-shard :class:`PipelineConfig` overrides (dict,
            e.g. ``{"queue_capacity": 64}``); an unknown key raises
            ``TypeError`` before any shard spawns.
        region_affinity: ``{glob_prefix: shard_index}`` placement hints.
        start: spawn the shards and the router now (``False`` defers
            that to :meth:`start`).
    """

    def __init__(self, num_shards: int,
                 world: Optional[WorldModel] = None, *,
                 wal_root: Optional[str] = None,
                 durability_mode: str = "buffered",
                 pipeline: Optional[Dict[str, Any]] = None,
                 region_affinity: Optional[Dict[str, int]] = None,
                 start: bool = True) -> None:
        if num_shards < 1:
            raise ServiceError("need at least one shard")
        self.num_shards = num_shards
        self.world = world if world is not None else siebel_floor()
        self.world_json = world_to_json(self.world, indent=0)
        self.wal_root = wal_root
        self.durability_mode = durability_mode
        self.pipeline_config = dict(pipeline or {})
        # Fail here on an unknown key, not inside a spawned shard.
        PipelineConfig(**self.pipeline_config)
        self.region_affinity = region_affinity
        self._ctx = multiprocessing.get_context("spawn")
        self._processes: List[Optional[Any]] = [None] * num_shards
        self._ports: List[Optional[int]] = [None] * num_shards
        self._generations = [0] * num_shards
        self.orb = Orb("shard-router")
        self.router: Optional[ShardRouter] = None
        if start:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _shard_config(self, index: int,
                      recover_from: Optional[str] = None
                      ) -> Dict[str, Any]:
        config: Dict[str, Any] = {
            "world_json": self.world_json,
            "shard_index": index,
            "num_shards": self.num_shards,
            "pipeline": dict(self.pipeline_config),
        }
        if self.wal_root is not None:
            config["wal_dir"] = self._wal_dir(index,
                                              self._generations[index])
            config["durability_mode"] = self.durability_mode
        if recover_from is not None:
            config["recover_from"] = recover_from
        return config

    def _wal_dir(self, index: int, generation: int) -> str:
        assert self.wal_root is not None
        return os.path.join(self.wal_root, f"shard-{index}",
                            f"g{generation}")

    def _spawn(self, index: int,
               recover_from: Optional[str] = None) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=shard_worker_main,
            args=(self._shard_config(index, recover_from), child_conn),
            name=f"shard-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(_STARTUP_TIMEOUT):
            process.terminate()
            raise TransportError(f"shard {index} failed to start")
        self._ports[index] = parent_conn.recv()
        parent_conn.close()
        self._processes[index] = process

    def start(self) -> "ShardCluster":
        if self.router is not None:
            raise ServiceError("cluster already started")
        for index in range(self.num_shards):
            self._spawn(index)
        partitioner = HashPartitioner(self.num_shards,
                                      self.region_affinity)
        self.router = ShardRouter(self.orb, self.references(),
                                  self.world, partitioner=partitioner)
        return self

    def reference(self, index: int) -> str:
        port = self._ports[index]
        if port is None:
            raise ServiceError(f"shard {index} has no endpoint")
        return f"tcp://127.0.0.1:{port}/{SHARD_OBJECT_ID}"

    def references(self) -> List[str]:
        return [self.reference(i) for i in range(self.num_shards)]

    # ------------------------------------------------------------------
    # Failure injection and recovery
    # ------------------------------------------------------------------

    def kill_shard(self, index: int) -> int:
        """SIGKILL one worker — no flush, no goodbye.  Returns its pid."""
        process = self._processes[index]
        if process is None:
            raise ServiceError(f"shard {index} is not running")
        pid = process.pid
        process.kill()
        process.join(timeout=10.0)
        self._processes[index] = None
        return pid

    def restart_shard(self, index: int, recover: bool = True) -> str:
        """Bring a replacement up, optionally from the dead WAL.

        The replacement journals into the next generation directory;
        the router is rebound to the new endpoint.  Returns the new
        reference.
        """
        if self._processes[index] is not None:
            raise ServiceError(f"shard {index} is still running")
        recover_from = None
        if recover:
            if self.wal_root is None:
                raise ServiceError("cannot recover without wal_root")
            recover_from = self._wal_dir(index, self._generations[index])
            self._generations[index] += 1
        self._spawn(index, recover_from)
        reference = self.reference(index)
        if self.router is not None:
            self.router.rebind(index, reference)
        return reference

    def alive(self, index: int) -> bool:
        process = self._processes[index]
        return process is not None and process.is_alive()

    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        if self.router is not None:
            self.router.close()
        for index, process in enumerate(self._processes):
            if process is None:
                continue
            try:
                self.orb.resolve(self.reference(index)).shutdown()
            except Exception:  # noqa: BLE001 — dying shard, force below
                pass
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            self._processes[index] = None
        self.orb.shutdown()
        self.router = None

    def __enter__(self) -> "ShardCluster":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
