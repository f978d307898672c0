"""Chaos-verified crash recovery: seeded kills inside the WAL layer.

Escalating seeded fault plans kill the durability layer at each of its
four kill points (mid-append, mid-fsync, mid-snapshot, mid-compaction)
while the ingestion pipeline is running, then :func:`repro.storage.
recover` rebuilds from the WAL directory and the suite compares the
recovered database against the in-memory survivor:

* a kill **mid-append** leaves a torn record that logged nothing, so
  the recovered table is fingerprint-identical to the survivor;
* a kill **mid-fsync** leaves the record durable but unacknowledged —
  the recovered table may hold exactly one committed-but-unapplied row
  more than the survivor, never fewer and never a different one;
* a kill **mid-snapshot** leaves a torn snapshot document that
  recovery must skip, falling back to the previous snapshot plus a
  longer replay;
* a kill **mid-compaction** (after the snapshot, before truncation)
  leaves WAL records the snapshot already covers; replay skips them
  by sequence number.

Same-seed runs must produce byte-identical FaultReports, and pipeline
accounting must still reconcile (crashed flushes dead-letter).

Seeds: the three fixed CI seeds plus any extras from ``CHAOS_SEED``
(comma-separated), which the CI recovery job uses to fan out.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SensorSpec
from repro.errors import SimulatedCrash, StorageError
from repro.faults import FaultPlan
from repro.geometry import Rect
from repro.sensors import ReadingSink
from repro.sim import Scenario, paper_floor
from repro.spatialdb import SpatialDatabase
from repro.storage import (
    WAL_NAME,
    DurabilityManager,
    list_snapshots,
    load_latest_snapshot,
    readings_fingerprint,
    recover,
    scan_wal,
)

FIXED_SEEDS = (101, 202, 303)


def _seeds():
    extra = os.environ.get("CHAOS_SEED", "")
    env = [int(s) for s in extra.split(",") if s.strip()]
    return sorted(set(FIXED_SEEDS) | set(env))


SEEDS = _seeds()


def _run_durable(tmp_path, seed, point=None, offset=3, occurrence=1,
                 seconds=150, people=5, mode="strict"):
    """One pipeline run over a durable scenario with an armed kill.

    The kill is armed at ``base + offset`` where ``base`` is the WAL
    position after sensor registration, so append/fsync kills always
    land inside the pipeline's insert traffic.  Returns
    ``(scenario, manager, plan, stats)``.
    """
    scenario = Scenario(seed=seed)
    manager = scenario.use_durability(str(tmp_path / "wal"), mode=mode)
    scenario.standard_deployment()
    base = manager.stats()["last_seq"]
    plan = FaultPlan(seed, clock=scenario.clock)
    if point in ("append", "fsync"):
        plan.wal_crash(point=point, at_seq=base + offset,
                       occurrence=occurrence)
    elif point is not None:
        # Snapshot/compaction kills arm on occurrence, not WAL position.
        plan.wal_crash(point=point, occurrence=occurrence)
    scenario.add_people(people)
    pipeline = scenario.use_pipeline(fault_plan=plan)
    try:
        scenario.run(seconds, dt=1.0)
        pipeline.drain(timeout=60.0)
    finally:
        pipeline.stop()
    return scenario, manager, plan, pipeline.stats()


class _Capture(ReadingSink):
    def __init__(self):
        self.readings = []

    def submit(self, reading):
        self.readings.append(reading)
        return True


def _run_durable_serial(tmp_path, seed, point, offset=3, seconds=60,
                        people=5):
    """``_run_durable`` with a timing-free flush order.

    The scenario runs into a capture sink first; the recorded readings
    are then submitted one at a time with a drain after each.
    """
    scenario = Scenario(seed=seed)
    manager = scenario.use_durability(str(tmp_path / "wal"), mode="strict")
    scenario.standard_deployment()
    base = manager.stats()["last_seq"]
    plan = FaultPlan(seed, clock=scenario.clock)
    plan.wal_crash(point=point, at_seq=base + offset)
    scenario.add_people(people)
    capture = _Capture()
    for adapter in scenario.deployment.adapters():
        adapter.set_sink(capture)
    scenario.run(seconds, dt=1.0)
    pipeline = scenario.use_pipeline(fault_plan=plan)
    try:
        for reading in capture.readings:
            pipeline.submit(reading)
            assert pipeline.drain(timeout=60.0)
    finally:
        pipeline.stop()
    return scenario, manager, plan, pipeline.stats()


def _rows_by_id(db):
    return {row["reading_id"]: row for row in db.sensor_readings.select()}


class TestCleanRunRecovery:
    """No faults: the WAL directory alone reproduces the survivor."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fingerprint_identical(self, tmp_path, seed):
        scenario, manager, _, stats = _run_durable(tmp_path, seed)
        assert stats.reconciles()
        assert manager.stats()["crashed"] == 0
        state = recover(manager.wal_dir)
        assert readings_fingerprint(state.db) == \
            readings_fingerprint(scenario.db)
        assert state.db.tracked_objects() == scenario.db.tracked_objects()

    def test_durability_does_not_perturb_the_data_path(self, tmp_path):
        """DurabilityMode.OFF stays bit-identical: a journaled run
        stores exactly the rows an unjournaled same-seed run stores."""
        def rows(durable):
            scenario = Scenario(seed=7)
            if durable:
                scenario.use_durability(str(tmp_path / "wal-on"))
            scenario.standard_deployment()
            scenario.add_people(4)
            pipeline = scenario.use_pipeline()
            try:
                scenario.run(90, dt=1.0)
                pipeline.drain(timeout=60.0)
            finally:
                pipeline.stop()
            return readings_fingerprint(scenario.db)

        assert rows(durable=True) == rows(durable=False)


class TestKillMidAppend:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_recovered_equals_survivor(self, tmp_path, seed):
        scenario, manager, plan, stats = _run_durable(
            tmp_path, seed, point="append")
        assert manager.stats()["crashed"] == 1
        assert stats.reconciles()
        assert stats.dead_lettered > 0  # the crashed flush and its heirs
        state = recover(manager.wal_dir)
        assert state.torn_bytes > 0  # the half-written record
        assert readings_fingerprint(state.db) == \
            readings_fingerprint(scenario.db)

    def test_same_seed_byte_identical_report(self, tmp_path):
        # The scenario's readings are captured first and then submitted
        # one at a time, draining after each: every reading is its own
        # batch, so WHICH insert lands on the killed sequence number is
        # fixed by the trace alone, not by how the fusion thread's
        # batches happened to form (work-conserving batches follow
        # thread timing).
        outs = []
        for run in ("a", "b"):
            scenario, manager, plan, stats = _run_durable_serial(
                tmp_path / run, 101, point="append")
            outs.append((plan.report().as_text(),
                         readings_fingerprint(scenario.db),
                         readings_fingerprint(recover(manager.wal_dir).db),
                         stats.enqueued, stats.dead_lettered))
        assert manager.stats()["crashed"] == 1
        assert outs[0] == outs[1]

    def test_crash_is_seeded_not_spurious(self, tmp_path):
        _, _, plan, _ = _run_durable(tmp_path, 101, point="append")
        counts = plan.report().as_dict()["wal-crash"]
        assert counts.get("crash", 0) == 1


class TestKillMidFsync:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_recovered_holds_at_most_one_extra_row(self, tmp_path, seed):
        scenario, manager, plan, stats = _run_durable(
            tmp_path, seed, point="fsync")
        assert manager.stats()["crashed"] == 1
        assert stats.reconciles()
        state = recover(manager.wal_dir)
        survivor = _rows_by_id(scenario.db)
        recovered = _rows_by_id(state.db)
        # The committed-but-unapplied window: recovered ⊇ survivor,
        # by at most the one record whose commit was never acked.
        assert set(survivor) <= set(recovered)
        extra = set(recovered) - set(survivor)
        assert len(extra) == 1
        for reading_id, row in survivor.items():
            assert recovered[reading_id] == row

    def test_no_torn_tail_after_fsync_kill(self, tmp_path):
        _, manager, _, _ = _run_durable(tmp_path, 101, point="fsync")
        assert scan_wal(
            os.path.join(manager.wal_dir, WAL_NAME)).torn_bytes == 0


class TestKillMidSnapshot:
    def test_recovery_skips_the_torn_snapshot(self, tmp_path):
        scenario, manager, plan, stats = _run_durable(
            tmp_path, 101, point="snapshot")
        # The pipeline never cuts snapshots here; trigger one directly.
        assert manager.stats()["crashed"] == 0
        survivor = readings_fingerprint(scenario.db)
        with pytest.raises(SimulatedCrash):
            manager.snapshot()
        assert manager.stats()["crashed"] == 1
        snapshots = list_snapshots(manager.wal_dir)
        assert len(snapshots) == 2  # baseline + the torn one
        seq, _ = load_latest_snapshot(manager.wal_dir)
        assert seq == 0  # fell back to the baseline
        state = recover(manager.wal_dir)
        assert state.snapshot_seq == 0
        assert state.replayed > 0  # the whole history replays
        assert readings_fingerprint(state.db) == survivor

    def test_crashed_manager_refuses_further_snapshots(self, tmp_path):
        _, manager, _, _ = _run_durable(tmp_path, 101, point="snapshot")
        with pytest.raises(SimulatedCrash):
            manager.snapshot()
        with pytest.raises(StorageError):
            manager.snapshot()


class TestKillMidCompaction:
    def test_snapshot_covers_the_untruncated_records(self, tmp_path):
        scenario, manager, plan, stats = _run_durable(
            tmp_path, 101, point="compact")
        survivor = readings_fingerprint(scenario.db)
        with pytest.raises(SimulatedCrash):
            manager.compact()
        # The kill hit between the snapshot and the truncation: the WAL
        # still holds records, but the snapshot already covers them.
        scan = scan_wal(os.path.join(manager.wal_dir, WAL_NAME))
        assert scan.records
        seq, _ = load_latest_snapshot(manager.wal_dir)
        assert seq == scan.last_seq
        state = recover(manager.wal_dir)
        assert state.replayed == 0  # everything was inside the snapshot
        assert readings_fingerprint(state.db) == survivor


_UBI = SensorSpec(sensor_type="Ubisense", carry_probability=0.9,
                  detection_probability=0.95, misident_probability=0.05,
                  z_area_scaled=True, resolution=0.5, time_to_live=3.0)
_RF = SensorSpec(sensor_type="RF", carry_probability=0.85,
                 detection_probability=0.75, misident_probability=0.25,
                 z_area_scaled=True, resolution=15.0, time_to_live=60.0)

_SENSORS = (("Ubi-18", "Ubisense", 95.0, 3.0, _UBI),
            ("RF-12", "RF", 75.0, 60.0, _RF))
_OBJECTS = ("alice", "bob", "carol")

_op = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, len(_OBJECTS) - 1),
              st.integers(0, len(_SENSORS) - 1),
              st.integers(0, 96), st.integers(0, 16),
              st.floats(0.0, 100.0, allow_nan=False)),
    st.tuples(st.just("expire"), st.integers(0, len(_OBJECTS) - 1)),
    st.tuples(st.just("purge"), st.floats(0.0, 200.0, allow_nan=False)),
)


class TestReplayProperty:
    """Property: replay(WAL) == the in-memory reference, op for op."""

    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(_op, min_size=1, max_size=30))
    def test_replay_matches_reference(self, tmp_path_factory, ops):
        wal_dir = str(tmp_path_factory.mktemp("wal"))
        world = paper_floor()
        durable = SpatialDatabase(world)
        reference = SpatialDatabase(world)
        manager = DurabilityManager(durable, wal_dir).attach()
        for db in (durable, reference):
            for sensor in _SENSORS:
                db.register_sensor(*sensor[:4], spec=sensor[4])
        for op in ops:
            for db in (durable, reference):
                if op[0] == "insert":
                    _, obj, sensor, x, y, t = op
                    db.insert_reading(
                        sensor_id=_SENSORS[sensor][0],
                        glob_prefix="CS/Floor3",
                        sensor_type=_SENSORS[sensor][1],
                        mobile_object_id=_OBJECTS[obj],
                        rect=Rect(float(x), float(y),
                                  float(x) + 4.0, float(y) + 4.0),
                        detection_time=t)
                elif op[0] == "expire":
                    db.expire_object_readings(_OBJECTS[op[1]])
                else:
                    db.purge_expired(now=op[1])
        manager.sync()
        state = recover(wal_dir)
        live = readings_fingerprint(durable)
        assert readings_fingerprint(reference) == live, \
            "journaling perturbed the data path"
        assert readings_fingerprint(state.db) == live, \
            "replay diverged from the survivor"
        manager.close()


@pytest.mark.slow
class TestEscalatingSweep:
    """Every kill point × every seed, plus arbitrary kill offsets —
    excluded from tier-1 (needs --runslow; the CI recovery job fans
    these out across CHAOS_SEED values)."""

    @pytest.mark.parametrize("point", ["append", "fsync"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_kill_offsets_never_break_recovery(self, tmp_path, seed,
                                               point):
        for offset in (1, 2, 5, 8):
            directory = tmp_path / f"{point}-{offset}"
            scenario, manager, plan, stats = _run_durable(
                directory, seed, point=point, offset=offset)
            assert stats.reconciles(), (seed, point, offset)
            state = recover(manager.wal_dir)
            survivor = _rows_by_id(scenario.db)
            recovered = _rows_by_id(state.db)
            assert set(survivor) <= set(recovered), (seed, point, offset)
            assert len(set(recovered) - set(survivor)) <= \
                (1 if point == "fsync" else 0)
            for reading_id, row in survivor.items():
                assert recovered[reading_id] == row, \
                    (seed, point, offset, reading_id)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_crash_recover_resume_crash_again(self, tmp_path, seed):
        """Recovery output survives being crashed again: recover, keep
        writing durably on the recovered database, kill, recover."""
        scenario, manager, _, _ = _run_durable(tmp_path, seed,
                                               point="append")
        state = recover(manager.wal_dir)
        resumed = state.db
        again = DurabilityManager(resumed, str(tmp_path / "wal2"),
                                  mode=manager.mode).attach()
        plan = FaultPlan(seed + 1)
        plan.wal_crash(point="append",
                       at_seq=again.stats()["last_seq"] + 4)
        again.attach_fault_plan(plan)
        crashed = False
        for i in range(8):
            try:
                resumed.insert_reading(
                    sensor_id="Ubi-18", glob_prefix="CS/Floor3",
                    sensor_type="Ubisense", mobile_object_id="alice",
                    rect=Rect(100.0 + i, 10.0, 104.0 + i, 14.0),
                    detection_time=1000.0 + i)
            except (SimulatedCrash, StorageError):
                crashed = True
        assert crashed
        final = recover(str(tmp_path / "wal2"))
        assert readings_fingerprint(final.db) == \
            readings_fingerprint(resumed)
