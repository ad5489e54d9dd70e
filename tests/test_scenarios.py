from __future__ import annotations

import pytest

from anomaloop.commands import AnomalyLabel
from anomaloop.config import ConfigError
from anomaloop.geometry import SHOULDER
from anomaloop.scenarios import (
    InvalidParams,
    ScenarioSpec,
    build,
    is_resolved,
    load_spec,
    save_spec,
    warm_up,
)
from anomaloop.world import box_cells_of, step

ANOMALIES = (AnomalyLabel.GHOST_JAM, AnomalyLabel.DEADLOCK, AnomalyLabel.ACCIDENT)


class TestBuild:
    @pytest.mark.parametrize("kind", list(AnomalyLabel))
    def test_build_deterministic(self, cfg, kind):
        spec = ScenarioSpec(kind=kind, seed=42)
        w1, t1 = build(spec, cfg)
        w2, t2 = build(spec, cfg)
        assert w1.canonical_dump() == w2.canonical_dump()
        assert t1 == t2

    @pytest.mark.parametrize("seed", [0, 7, 13])
    def test_ghost_jam_forms_queue(self, cfg, seed):
        spec = ScenarioSpec(kind=AnomalyLabel.GHOST_JAM, seed=seed)
        world, truth = build(spec, cfg)
        world = warm_up(world, cfg)
        followers = truth.with_role("follower")
        assert len(followers) >= 3
        mean_speed = sum(world.vehicles[v].v for v in followers) / len(followers)
        assert mean_speed < 4.0
        blockers = truth.with_role("blocker")
        a, b = (world.vehicles[v] for v in blockers)
        assert a.seg == b.seg and abs(a.s - b.s) < 3.0 and a.lane_idx != b.lane_idx

    @pytest.mark.parametrize("seed", [0, 7, 13])
    def test_deadlock_ring_stalls_in_box(self, cfg, seed):
        spec = ScenarioSpec(kind=AnomalyLabel.DEADLOCK, seed=seed)
        world, truth = build(spec, cfg)
        world = warm_up(world, cfg)
        for vid in truth.involved:
            veh = world.vehicles[vid]
            assert veh.v == 0.0
            assert veh.stopped_ticks >= cfg.deadlock_window
            assert box_cells_of(world.road, veh)
        assert not world.collisions

    @pytest.mark.parametrize("seed", [0, 7, 13])
    def test_accident_stages_one_collision(self, cfg, seed):
        spec = ScenarioSpec(kind=AnomalyLabel.ACCIDENT, seed=seed)
        world, truth = build(spec, cfg)
        assert len(world.collisions) == 1
        ev = world.collisions[0]
        assert {ev.a, ev.b} == set(truth.fault)
        assert truth.fault["v-1"] == "primary"
        assert truth.fault["v-0"] == "none"
        world = warm_up(world, cfg)
        assert len(world.collisions) == 1  # queues form without new crashes

    def test_invalid_params_queue_too_long(self, cfg):
        spec = ScenarioSpec(kind=AnomalyLabel.GHOST_JAM, seed=1, params={"followers": 9})
        with pytest.raises(InvalidParams):
            build(spec, cfg)

    @pytest.mark.parametrize("vehicles", [13, 16, 17])
    def test_invalid_params_normal_too_many_vehicles(self, cfg, vehicles):
        # A fourth staging row would start inside the conflict box.
        spec = ScenarioSpec(kind=AnomalyLabel.NORMAL, seed=0, params={"vehicles": vehicles})
        with pytest.raises(InvalidParams):
            build(spec, cfg)

    def test_normal_at_capacity_warms_up_without_collision(self, cfg):
        spec = ScenarioSpec(kind=AnomalyLabel.NORMAL, seed=2, params={"vehicles": 12})
        world, _ = build(spec, cfg)
        assert not warm_up(world, cfg).collisions

    def test_invalid_params_unknown_key(self, cfg):
        spec = ScenarioSpec(kind=AnomalyLabel.NORMAL, seed=1, params={"bogus": 3})
        with pytest.raises(InvalidParams):
            build(spec, cfg)


class TestResolutionPredicate:
    @pytest.mark.parametrize("kind", ANOMALIES)
    def test_fresh_anomaly_unresolved(self, cfg, kind):
        world, truth = build(ScenarioSpec(kind=kind, seed=3), cfg)
        world = warm_up(world, cfg)
        assert not is_resolved(world, truth)

    @pytest.mark.parametrize("kind", (AnomalyLabel.NORMAL, AnomalyLabel.CONGESTION))
    def test_normal_and_congestion_trivially_resolved(self, cfg, kind):
        world, truth = build(ScenarioSpec(kind=kind, seed=3), cfg)
        assert is_resolved(world, truth)

    @pytest.mark.parametrize("kind", ANOMALIES)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_anomaly_persists_without_intervention(self, cfg, kind, seed):
        spec = ScenarioSpec(kind=kind, seed=seed, tick_budget=600)
        world, truth = build(spec, cfg)
        world = warm_up(world, cfg)
        for _ in range(spec.tick_budget):
            world = step(world)
            assert not is_resolved(world, truth)

    def test_accident_resolved_when_wrecks_on_shoulder(self, cfg):
        world, truth = build(ScenarioSpec(kind=AnomalyLabel.ACCIDENT, seed=2), cfg)
        world = world.clone()
        for vid in truth.fault:
            world.vehicles[vid].lane_idx = SHOULDER
        assert is_resolved(world, truth)


class TestSpecFiles:
    def test_round_trip(self, tmp_path):
        spec = ScenarioSpec(
            kind=AnomalyLabel.GHOST_JAM,
            seed=9,
            params={"followers": 5, "blocker_speed": 2.2},
            tick_budget=1500,
            resolve_budget=2,
        )
        path = tmp_path / "jam.scenario"
        save_spec(spec, path)
        assert load_spec(path) == spec

    def test_unknown_kind_names_field(self, tmp_path):
        path = tmp_path / "bad.scenario"
        path.write_text("kind = warpstorm\nseed = 1\n")
        with pytest.raises(ConfigError) as ei:
            load_spec(path)
        assert ei.value.field == "kind"
        assert ei.value.line == 1

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.scenario"
        path.write_text("kind = normal\nbudget = 12\n")
        with pytest.raises(ConfigError) as ei:
            load_spec(path)
        assert ei.value.field == "budget"

    def test_comments_and_params(self, tmp_path):
        path = tmp_path / "ok.scenario"
        path.write_text(
            "# a staged jam\nkind = ghost_jam  # trailing comment\nseed = 7\n\nparam.followers = 4\n"
        )
        spec = load_spec(path)
        assert spec.kind is AnomalyLabel.GHOST_JAM
        assert spec.seed == 7
        assert spec.params == {"followers": 4}

    def test_repo_example_files_load(self):
        from pathlib import Path

        examples = Path(__file__).resolve().parent.parent / "docs" / "examples"
        ghost = load_spec(examples / "ghost_jam.scenario")
        assert ghost.kind is AnomalyLabel.GHOST_JAM
        for name, kind in (
            ("normal", AnomalyLabel.NORMAL),
            ("congestion", AnomalyLabel.CONGESTION),
            ("deadlock", AnomalyLabel.DEADLOCK),
            ("accident", AnomalyLabel.ACCIDENT),
        ):
            spec = load_spec(examples / f"{name}.scenario")
            assert spec.kind is kind

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.scenario"
        path.write_text("kind = normal\nkind = accident\n")
        with pytest.raises(ConfigError) as ei:
            load_spec(path)
        assert ei.value.line == 2

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "noeq.scenario"
        path.write_text("kind = normal\njust words\n")
        with pytest.raises(ConfigError) as ei:
            load_spec(path)
        assert ei.value.line == 2
