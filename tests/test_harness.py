from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from anomaloop import remote
from anomaloop.cli import main
from anomaloop.commands import AnomalyLabel
from anomaloop.harness import (
    ResolverSpec,
    batch_specs,
    format_conformance,
    run_batch,
    run_conformance,
    run_episode,
    strip_durations,
    timing_table_csv,
)
from anomaloop.metrics import compute_metrics, run_control
from anomaloop.executor import run_closed_loop
from anomaloop.pipeline import OracleResolver, Resolver, Stage, StageFailure, classify_scene
from anomaloop.scenarios import ScenarioSpec

SCENARIOS = Path(__file__).resolve().parent.parent / "docs" / "examples"
ORACLE = ResolverSpec(kind="oracle")


class TestMetrics:
    def test_unresolved_episode_reports_infinity_marker(self, cfg):
        class Mute(Resolver):
            name = "mute"

            def run_stage(self, stage, ctx):
                raise StageFailure(stage, "refused")

        spec = ScenarioSpec(kind=AnomalyLabel.GHOST_JAM, seed=0, resolve_budget=2)
        ep = run_closed_loop(spec, Mute(), cfg)
        control = run_control(ep, cfg)
        metrics = compute_metrics(ep, control)
        assert ep.resolved is False
        assert metrics.time_to_clear is None
        assert metrics.travel_time_delta_s == 0.0  # nothing executed

    def test_ghost_jam_speed_recovers(self, cfg):
        ep, metrics, report, _ = run_episode(ScenarioSpec(kind=AnomalyLabel.GHOST_JAM, seed=2), ORACLE, cfg)
        assert ep.resolved
        assert metrics.mean_speed_after >= metrics.mean_speed_before
        assert metrics.travel_time_delta_s < 0.0  # intervention saved time
        assert metrics.new_collisions == 0

    def test_normal_baseline_equals_episode(self, cfg):
        ep, metrics, _, _ = run_episode(ScenarioSpec(kind=AnomalyLabel.NORMAL, seed=1), ORACLE, cfg)
        assert ep.resolved
        assert metrics.travel_time_delta_s == 0.0
        assert metrics.time_to_clear is None  # no intervention was ever needed

    def test_control_run_stays_unresolved_for_anomalies(self, cfg):
        spec = ScenarioSpec(kind=AnomalyLabel.DEADLOCK, seed=0, tick_budget=400)
        ep = run_closed_loop(spec, OracleResolver(cfg), cfg)
        control = run_control(ep, cfg)
        assert control.resolved_ever is False

    def test_total_duration_is_stage_sum(self, cfg):
        _, metrics, _, _ = run_episode(ScenarioSpec(kind=AnomalyLabel.DEADLOCK, seed=1), ORACLE, cfg)
        stages = metrics.stage_durations_s
        expected = stages["Scene"] + stages["Analysis"] + stages["Solution"] + stages["Formatting"]
        assert metrics.total_duration_s == expected


class TestTimingTable:
    def test_rows_shape_and_additivity(self, cfg):
        specs = batch_specs([AnomalyLabel.GHOST_JAM, AnomalyLabel.DEADLOCK], [0, 1])
        batch_report, _ = run_batch(specs, ORACLE, cfg)
        rows = batch_report["timing"]
        assert [row["kind"] for row in rows] == ["deadlock", "ghost_jam"]
        for row in rows:
            assert set(row) == {"kind", "scene_s", "analysis_s", "solution_s", "formatting_s", "total_s"}
            assert row["total_s"] == row["scene_s"] + row["analysis_s"] + row["solution_s"] + row["formatting_s"]

    def test_csv_round_trip_preserves_additivity(self, cfg):
        specs = batch_specs([AnomalyLabel.ACCIDENT], [0, 1, 2])
        batch_report, _ = run_batch(specs, ORACLE, cfg)
        csv_text = timing_table_csv(batch_report["timing"])
        lines = csv_text.strip().splitlines()
        assert lines[0] == "kind,scene_s,analysis_s,solution_s,formatting_s,total_s"
        for line in lines[1:]:
            _, *vals = line.split(",")
            scene, analysis, solution, formatting, total = map(float, vals)
            assert total == scene + analysis + solution + formatting

    def test_empty_suite(self, cfg):
        batch_report, transcript = run_batch([], ORACLE, cfg)
        assert batch_report["episodes"] == []
        assert batch_report["all_resolved"] is True
        assert batch_report["timing"] == []
        assert transcript == []

    def test_repetitions_aggregate_into_one_row(self, cfg):
        specs = batch_specs([AnomalyLabel.ACCIDENT], [0], repetitions=3)
        assert len(specs) == 3
        batch_report, _ = run_batch(specs, ORACLE, cfg)
        assert len(batch_report["episodes"]) == 3
        rows = batch_report["timing"]
        assert len(rows) == 1 and rows[0]["kind"] == "accident"


class TestConformance:
    def test_oracle_passes_all_stages(self, cfg):
        checklist = run_conformance(OracleResolver(cfg), cfg, seeds=2)
        assert checklist["stages"] == {"Scene": True, "Analysis": True, "Solution": True, "Formatting": True}
        table = format_conformance(checklist)
        assert "✓" in table and "✗" not in table

    def test_classification_only_stub_shape(self, cfg):
        class ClassifyOnly(Resolver):
            """Answers the scene question correctly, nothing else."""

            name = "classify-only"

            def __init__(self):
                super().__init__()
                self.capabilities = {Stage.SCENE: True, Stage.ANALYSIS: False,
                                     Stage.SOLUTION: False, Stage.FORMATTING: False}

            def run_stage(self, stage, ctx):
                if stage is Stage.SCENE:
                    return classify_scene(ctx.obs).value
                raise StageFailure(stage, "not supported")

        checklist = run_conformance(ClassifyOnly(), cfg, seeds=2)
        assert checklist["stages"] == {"Scene": True, "Analysis": False, "Solution": False, "Formatting": False}
        row = format_conformance(checklist).splitlines()[1]
        assert row.count("✓") == 1 and row.count("✗") == 3

    def test_analysis_failure_fails_downstream(self, cfg):
        class BadAnalysis(OracleResolver):
            name = "bad-analysis"

            def run_stage(self, stage, ctx):
                if stage is Stage.ANALYSIS:
                    raise StageFailure(stage, "cannot analyse")
                return super().run_stage(stage, ctx)

        checklist = run_conformance(BadAnalysis(cfg), cfg, seeds=1)
        assert checklist["stages"]["Scene"] is True
        assert checklist["stages"]["Analysis"] is False
        assert checklist["stages"]["Solution"] is False
        assert checklist["stages"]["Formatting"] is False


class TestCli:
    def test_run_resolved_exit_zero(self, tmp_path):
        code = main(["run", "--scenario", str(SCENARIOS / "ghost_jam.scenario"), "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["resolved"] is True
        assert (tmp_path / "transcript.jsonl").exists()

    def test_missing_scenario_exit_two_names_path(self, tmp_path, capsys):
        code = main(["run", "--scenario", str(tmp_path / "missing.scenario"), "--out", str(tmp_path)])
        assert code == 2
        assert "missing.scenario" in capsys.readouterr().err

    def test_remote_without_endpoint_exit_two(self, tmp_path, capsys):
        for command in (
            ["run", "--scenario", str(SCENARIOS / "normal.scenario")],
            ["batch", "--kinds", "normal", "--seeds", "1"],
            ["conformance", "--seeds", "1"],
        ):
            for model in ([], ["--model", "m"]):
                code = main([*command, "--resolver", "remote", *model, "--out", str(tmp_path)])
                assert code == 2
                assert "needs --endpoint and --model" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_batch_writes_artifacts(self, tmp_path):
        out = tmp_path / "batch"
        code = main(["batch", "--kinds", "accident", "--seeds", "2", "--out", str(out)])
        assert code == 0
        assert (out / "timing_table.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["all_resolved"] is True
        assert len(report["episodes"]) == 2

    def test_validate_plan_ok_and_invalid(self, tmp_path, capsys):
        good = tmp_path / "good.plan"
        good.write_text("PLAN ghost_jam\nACTION v-0 move_forward speed=increase\n")
        code = main(["validate-plan", "--plan", str(good), "--scenario", str(SCENARIOS / "ghost_jam.scenario")])
        assert code == 0
        bad = tmp_path / "bad.plan"
        bad.write_text("PLAN ghost_jam\nACTION v-99 move_forward\n")
        code = main(["validate-plan", "--plan", str(bad), "--scenario", str(SCENARIOS / "ghost_jam.scenario")])
        assert code == 1
        assert "v-99" in capsys.readouterr().out

    def test_validate_plan_bad_params_exit_two(self, tmp_path, capsys):
        scenario = tmp_path / "crowded.scenario"
        scenario.write_text("kind = normal\nparam.vehicles = 13\n")
        plan = tmp_path / "p.plan"
        plan.write_text("PLAN normal\n")
        code = main(["validate-plan", "--plan", str(plan), "--scenario", str(scenario)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: vehicles > 12")

    def remote_run(self, tmp_path):
        return main([
            "run", "--scenario", str(SCENARIOS / "ghost_jam.scenario"), "--resolver", "remote",
            "--endpoint", "http://127.0.0.1:9", "--model", "m", "--out", str(tmp_path),
        ])

    def test_missing_api_key_exit_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(remote.API_KEY_ENV, raising=False)
        assert self.remote_run(tmp_path) == 2
        assert remote.API_KEY_ENV in capsys.readouterr().err

    def test_transport_exhaustion_exit_three(self, tmp_path, monkeypatch, capsys):
        def exhausted(endpoint, messages, **kw):
            raise remote.BudgetExceeded("gave up after 4 attempts")

        monkeypatch.setattr(remote, "chat_completion", exhausted)
        assert self.remote_run(tmp_path) == 3
        assert capsys.readouterr().err == "transport error: gave up after 4 attempts\n"

    def test_config_rejects_unknown_key(self, tmp_path, capsys):
        conf = tmp_path / "typo.conf"
        conf.write_text("dt = 0.1\nwarmup_tiks = 10\n")
        code = main(["run", "--scenario", str(SCENARIOS / "normal.scenario"), "--config", str(conf),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "unknown key 'warmup_tiks' (line 2, field 'warmup_tiks')" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, message", [
        ("warmup_ticks = 1.5", "'warmup_ticks' must be a non-negative integer (line 2, field 'warmup_ticks')"),
        ("dt = 0", "'dt' must be positive (line 2, field 'dt')"),
    ], ids=["fractional-int", "zero-dt"])
    def test_config_rejects_bad_value(self, tmp_path, capsys, entry, message):
        conf = tmp_path / "bad.conf"
        conf.write_text(f"v_max = 16.7\n{entry}\n")
        code = main(["run", "--scenario", str(SCENARIOS / "normal.scenario"), "--config", str(conf),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_config_resolver_entries_are_not_sim_constants(self, tmp_path):
        code = main(["run", "--scenario", str(SCENARIOS / "normal.scenario"),
                     "--config", str(SCENARIOS / "anomaloop.conf"), "--out", str(tmp_path)])
        assert code == 0


class TestImportCost:
    def test_no_module_imports_requests(self):
        """`requests` is slow to import; the remote resolver speaks HTTP with the standard library."""
        code = (
            "import importlib, pkgutil, sys\nimport anomaloop\n"
            "for m in pkgutil.iter_modules(anomaloop.__path__):\n"
            "    importlib.import_module('anomaloop.' + m.name)\n"
            "assert {'anomaloop.cli', 'anomaloop.remote'} <= sys.modules.keys()\n"
            "assert 'requests' not in sys.modules, 'requests was imported'\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": str(src)})


class TestReproducibility:
    def test_batch_byte_identical_modulo_durations(self, cfg):
        specs = batch_specs([AnomalyLabel.GHOST_JAM, AnomalyLabel.ACCIDENT], [0, 1])
        report_a, transcript_a = run_batch(specs, ORACLE, cfg, workers=1)
        report_b, transcript_b = run_batch(specs, ORACLE, cfg, workers=2)
        canon = lambda obj: json.dumps(strip_durations(obj), sort_keys=True)
        assert canon(report_a) == canon(report_b)
        assert [canon(e) for e in transcript_a] == [canon(e) for e in transcript_b]

    def test_stripped_fields_absent(self):
        nested = {"a": {"duration_s": 1.0, "keep": 2}, "rows": [{"total_s": 3.0, "kind": "x"}]}
        assert strip_durations(nested) == {"a": {"keep": 2}, "rows": [{"kind": "x"}]}
