"""Tests for the ASCII floor renderer."""

import pytest

from repro.core import LocationEstimate, ProbabilityBucket
from repro.errors import SimulationError
from repro.geometry import Point, Rect
from repro.sim import Scenario, paper_floor, siebel_floor
from repro.sim.movement import MovementModel
from repro.sim.render import FloorRenderer, render_scenario


class TestRenderer:
    def test_rooms_labelled(self):
        text = FloorRenderer(paper_floor(), width=80).render()
        assert "NetLab" in text or "Net" in text
        assert "#" in text

    def test_doors_drawn(self):
        text = FloorRenderer(siebel_floor(), width=96).render()
        assert "+" in text

    def test_deterministic(self):
        world = siebel_floor()
        a = FloorRenderer(world, width=90).render()
        b = FloorRenderer(world, width=90).render()
        assert a == b

    def test_people_markers_and_legend(self):
        world = siebel_floor()
        model = MovementModel(world, seed=1)
        alice = model.add_person("alice", start_region="SC/3/3105")
        bob = model.add_person("bob", start_region="SC/3/3216")
        text = FloorRenderer(world, width=96).render([alice, bob])
        assert "1=alice" in text
        assert "2=bob" in text
        assert "1" in text.splitlines()[0] or any(
            "1" in line for line in text.splitlines())

    def test_estimates_drawn(self):
        world = siebel_floor()
        estimate = LocationEstimate(
            object_id="alice", rect=Rect(145, 10, 155, 20),
            probability=0.9, bucket=ProbabilityBucket.HIGH, time=0.0,
            symbolic="SC/3/3105")
        text = FloorRenderer(world, width=96).render(
            estimates=[estimate])
        assert "*" in text
        assert "alice@SC/3/3105" in text

    def test_width_validation(self):
        with pytest.raises(SimulationError):
            FloorRenderer(siebel_floor(), width=5)

    def test_all_markers_within_grid(self):
        world = siebel_floor()
        model = MovementModel(world, seed=3)
        for i in range(12):
            model.add_person(f"p{i}")
        renderer = FloorRenderer(world, width=60)
        text = renderer.render(model.people)
        grid_lines = text.split("\n\npeople:")[0].splitlines()
        for line in grid_lines:
            assert len(line) <= 60

    def test_render_scenario_helper(self):
        scenario = Scenario(seed=7).standard_deployment()
        scenario.add_people(2)
        scenario.run(60)
        text = render_scenario(scenario, width=80)
        assert "people:" in text


class TestCli:
    def test_floor_command(self, capsys):
        from repro.cli import main
        assert main(["floor", "paper", "--width", "70"]) == 0
        out = capsys.readouterr().out
        assert "#" in out

    def test_blueprint_command(self, capsys):
        import json
        from repro.cli import main
        assert main(["blueprint", "paper"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["format"] == "middlewhere-blueprint"

    def test_demo_command(self, capsys):
        from repro.cli import main
        assert main(["demo", "--people", "2", "--seconds", "30",
                     "--snapshots", "1", "--width", "70"]) == 0
        out = capsys.readouterr().out
        assert "t = 30 s" in out

    def test_locate_command(self, capsys):
        from repro.cli import main
        assert main(["locate", "where is person-1",
                     "--people", "2", "--seconds", "60"]) == 0
        out = capsys.readouterr().out
        assert "Q: where is person-1" in out
        assert "A:" in out

    def test_semantic_command_runs_the_one_engine(self, capsys):
        from repro.cli import main
        assert main(["semantic", "--people", "2", "--seconds", "30"]) == 0
        stats = capsys.readouterr().out.splitlines()[-1]
        assert stats.startswith("semantic: ")
        assert "kb_rebuilds=1" in stats and "mode=" not in stats
        with pytest.raises(SystemExit):
            main(["semantic", "--mode", "reference"])

    def test_calibrate_command(self, capsys):
        from repro.cli import main
        assert main(["calibrate", "--seconds", "300",
                     "--people", "4"]) == 0
        out = capsys.readouterr().out
        assert "calibration of RF" in out

    def test_pipeline_command(self, capsys):
        from repro.cli import main
        assert main(["pipeline", "--people", "3", "--seconds", "30"]) == 0
        assert "reconciles=True" in capsys.readouterr().out

    def test_sharded_pipeline_prints_sender_rpc_counts(self, capsys):
        from repro.cli import main
        assert main(["pipeline", "--shards", "1", "--people", "3",
                     "--seconds", "10"]) == 0
        line = next(text for text in capsys.readouterr().out.splitlines()
                    if text.startswith("  shard 0:"))
        assert "batches=" in line and "queue_peak=" in line
        assert "flush_latency" not in line

    def test_sharded_pipeline_prints_shard_memory_and_warm_start(
            self, capsys):
        from repro.cli import main
        assert main(["pipeline", "--shards", "2", "--people", "3",
                     "--seconds", "10"]) == 0
        lines = [text for text in capsys.readouterr().out.splitlines()
                 if text.startswith("  shard ")]
        assert len(lines) == 2
        for line in lines:
            assert "peak_rss_mb=" in line
            assert "warm_start=True" in line

    def test_pipeline_command_has_no_batching_flags(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--batch", "16"])
        assert exc.value.code == 2
        assert "--batch" in capsys.readouterr().err
