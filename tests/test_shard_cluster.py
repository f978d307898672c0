"""ShardCluster lifecycle: warm concurrent start, failed start, shutdown.

Shards are forked from a forkserver that has preloaded
``repro.shard.worker``; these tests pin that the preload really takes
effect (also when the package reached ``sys.path`` only at runtime),
that every shard is launched before any port is awaited, that a shard
dying during start-up reaps its siblings, and that shutdown asks every
shard to stop before joining any.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

import repro
from repro.errors import TransportError
from repro.shard import ShardCluster

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

# Two clusters in a row from a process that puts the package on
# sys.path at runtime, as a script run from a checkout does.
_RUNTIME_PATH_SCRIPT = f"""
import json, sys
sys.path.insert(0, {SRC!r})
from repro.shard import ShardCluster
warm = []
for _ in range(2):
    with ShardCluster(2) as cluster:
        warm += [cluster.router.proxy(i).stats()["warm_start"]
                 for i in range(2)]
print(json.dumps(warm))
"""


class TestWarmStart:
    def test_runtime_sys_path_still_preloads_the_worker(self):
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONPATH"}
        result = subprocess.run(
            [sys.executable, "-c", _RUNTIME_PATH_SCRIPT], env=env,
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        warm = json.loads(result.stdout.strip().splitlines()[-1])
        assert warm == [True] * 4

    def test_stats_report_warm_start_and_peak_rss(self):
        pythonpath = os.environ.get("PYTHONPATH")
        with ShardCluster(1) as cluster:
            stats = cluster.router.proxy(0).stats()
        assert stats["warm_start"] is True
        assert stats["peak_rss_mb"] > 0
        # The package root goes on PYTHONPATH for the launch only.
        assert os.environ.get("PYTHONPATH") == pythonpath

    def test_restarted_shard_starts_warm(self):
        with ShardCluster(2) as cluster:
            old_pid = cluster.kill_shard(1)
            cluster.restart_shard(1, recover=False)
            stats = cluster.router.proxy(1).stats()
        assert stats["pid"] != old_pid
        assert stats["warm_start"] is True


class TestConcurrentStart:
    def test_every_shard_launches_before_the_first_port_is_awaited(
            self, monkeypatch):
        calls = []
        launch = ShardCluster._launch
        await_port = ShardCluster._await_port

        def recording_launch(self, index, config):
            calls.append(("launch", index))
            return launch(self, index, config)

        def recording_await(self, index, process, conn, deadline):
            calls.append(("await", index))
            return await_port(self, index, process, conn, deadline)

        monkeypatch.setattr(ShardCluster, "_launch", recording_launch)
        monkeypatch.setattr(ShardCluster, "_await_port", recording_await)
        with ShardCluster(3):
            pass
        assert calls == [("launch", 0), ("launch", 1), ("launch", 2),
                         ("await", 0), ("await", 1), ("await", 2)]


class TestFailedStart:
    def test_dying_shard_raises_transport_error_and_reaps_siblings(
            self, monkeypatch):
        shard_config = ShardCluster._shard_config

        def one_bad_config(self, index, recover_from=None):
            config = shard_config(self, index, recover_from)
            if index == 1:
                # Passes the cluster's key check but makes the shard's
                # pipeline refuse to start.
                config["pipeline"]["queue_capacity"] = 0
            return config

        monkeypatch.setattr(ShardCluster, "_shard_config", one_bad_config)
        with pytest.raises(TransportError,
                           match=r"shard 1 .*exit code 1"):
            ShardCluster(2)
        assert multiprocessing.active_children() == []


class _RecordingProcess:
    def __init__(self, index, calls):
        self.index = index
        self.calls = calls

    def join(self, timeout=None):
        self.calls.append(("join", self.index))

    def is_alive(self):
        return False


class _RecordingProxy:
    def __init__(self, index, calls):
        self.index = index
        self.calls = calls

    def shutdown(self):
        self.calls.append(("shutdown", self.index))
        return True


class TestShutdown:
    def test_every_shard_is_asked_to_stop_before_any_is_joined(self):
        calls = []
        cluster = ShardCluster(3, start=False)
        cluster._processes = [_RecordingProcess(i, calls) for i in range(3)]
        cluster._ports = [50000, 50001, 50002]
        proxies = {cluster.reference(i): _RecordingProxy(i, calls)
                   for i in range(3)}
        cluster.orb.resolve = proxies.__getitem__
        cluster.shutdown()
        assert calls == [("shutdown", 0), ("shutdown", 1), ("shutdown", 2),
                         ("join", 0), ("join", 1), ("join", 2)]
        assert cluster._processes == [None, None, None]
