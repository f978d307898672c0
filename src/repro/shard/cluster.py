"""Shard-fleet lifecycle: start, kill, recover, tear down.

A :class:`ShardCluster` owns N shard *processes*, collects each one's
bound TCP port through a pipe, and fronts them with a
:class:`~repro.shard.router.ShardRouter`.

Shards are forked from a ``multiprocessing`` forkserver that has
already imported :mod:`repro.shard.worker`, so a shard starts without
a fresh interpreter or a cold import of the package; the server is
single-threaded, so no lock is ever forked held.  Every shard of a
start is launched before the first port is awaited, so the starts
overlap.  The forkserver ignores the ``sys_path`` it is handed, so it
is launched with the package root on ``PYTHONPATH``; otherwise, when
the package reached ``sys.path`` only at runtime, the preload would
fail silently and every shard would import cold.

The chaos suite drives the failure story through this class:
:meth:`kill_shard` SIGKILLs a worker mid-stream (no goodbye, exactly
like a machine loss) and :meth:`restart_shard` brings a replacement
up from the dead shard's write-ahead log — the new incarnation
journals into a fresh generation directory, because appending to a
log already replayed would restart sequence numbers mid-file.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import repro
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
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(
    os.path.abspath(repro.__file__)))
_LAUNCH_LOCK = threading.Lock()


def _forkserver_context() -> Any:
    """The forkserver context, its server running with the worker
    module preloaded."""
    # Imported here: multiprocessing's dozen modules would otherwise
    # load into every process that imports the package.
    import multiprocessing
    from multiprocessing import forkserver
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload([shard_worker_main.__module__])
    with _LAUNCH_LOCK:
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            path for path in (_PACKAGE_ROOT, saved) if path)
        try:
            forkserver.ensure_running()
        finally:
            if saved is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = saved
    return context


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
            ``TypeError`` before any shard starts.
        region_affinity: ``{glob_prefix: shard_index}`` placement hints.
        start: start the shards and the router now (``False`` defers
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
        # Fail here on an unknown key, not inside a started shard.
        PipelineConfig(**self.pipeline_config)
        self.region_affinity = region_affinity
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

    def _launch(self, index: int, config: Dict[str, Any]
                ) -> Tuple[Any, Any]:
        """Fork shard ``index``; returns the process and the pipe end
        its port arrives on, without waiting for it."""
        context = _forkserver_context()
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=shard_worker_main, args=(config, child_conn),
            name=f"shard-{index}", daemon=True)
        try:
            process.start()
        finally:
            child_conn.close()
        return process, parent_conn

    def _await_port(self, index: int, process: Any, conn: Any,
                    deadline: float) -> int:
        if not conn.poll(max(0.0, deadline - time.monotonic())):
            raise TransportError(
                f"shard {index} did not report its port within "
                f"{_STARTUP_TIMEOUT:.0f} s")
        try:
            return conn.recv()
        except EOFError:
            process.join(timeout=5.0)
            raise TransportError(
                f"shard {index} exited during start-up with exit code "
                f"{process.exitcode}") from None

    def _start_shards(self, configs: Dict[int, Dict[str, Any]]) -> None:
        """Launch every shard in ``configs``, then collect their ports.

        If any shard fails to come up, every shard launched here is
        terminated and joined before the error propagates.
        """
        launched: List[Tuple[int, Any, Any]] = []
        try:
            for index, config in configs.items():
                launched.append((index, *self._launch(index, config)))
            deadline = time.monotonic() + _STARTUP_TIMEOUT
            ports = [self._await_port(index, process, conn, deadline)
                     for index, process, conn in launched]
        except BaseException:
            for _, process, _ in launched:
                process.terminate()
            for _, process, _ in launched:
                process.join()
            raise
        finally:
            for _, _, conn in launched:
                conn.close()
        for (index, process, _), port in zip(launched, ports):
            self._processes[index] = process
            self._ports[index] = port

    def start(self) -> "ShardCluster":
        if self.router is not None:
            raise ServiceError("cluster already started")
        self._start_shards({index: self._shard_config(index)
                            for index in range(self.num_shards)})
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
        self._start_shards({index: self._shard_config(index, recover_from)})
        reference = self.reference(index)
        if self.router is not None:
            self.router.rebind(index, reference)
        return reference

    def alive(self, index: int) -> bool:
        process = self._processes[index]
        return process is not None and process.is_alive()

    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Ask every shard to stop, then join them all: the shards
        tear down concurrently."""
        if self.router is not None:
            self.router.close()
        running = [(index, process)
                   for index, process in enumerate(self._processes)
                   if process is not None]
        for index, _ in running:
            try:
                self.orb.resolve(self.reference(index)).shutdown()
            except Exception:  # noqa: BLE001 — dying shard, force below
                pass
        for index, process in running:
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
