from __future__ import annotations

import pytest

from anomaloop.commands import AnomalyLabel, SpeedChange, Verb
from anomaloop.observation import observe
from anomaloop.pipeline import (
    CauseCode,
    OracleResolver,
    Stage,
    StageFailure,
    analyze,
    classify_scene,
    parse_analysis_output,
    render_analysis,
    run_pipeline,
)
from anomaloop.scenarios import ScenarioSpec, build, warm_up
from conftest import make_vehicle, make_world


def observed(kind, seed, cfg):
    world, truth = build(ScenarioSpec(kind=kind, seed=seed), cfg)
    world = warm_up(world, cfg)
    return observe(world), truth, world


class TestClassifier:
    @pytest.mark.parametrize("kind", list(AnomalyLabel))
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_ground_truth(self, cfg, kind, seed):
        obs, truth, _ = observed(kind, seed, cfg)
        assert classify_scene(obs, cfg) is truth.label

    def test_empty_world_is_normal(self, road, cfg):
        obs = observe(make_world(road, cfg, []))
        assert classify_scene(obs, cfg) is AnomalyLabel.NORMAL

    def test_wreck_takes_precedence_over_queue(self, cfg):
        # A wreck with a queue behind: congestion-like stats, accident verdict.
        from anomaloop.geometry import four_way

        road1 = four_way(lanes=1)
        wreck = make_vehicle("v-0", s=120.0, v=0.0, desired=0.0, wrecked=True)
        queue = [make_vehicle(f"v-{i}", s=110.0 - 8.0 * i, v=0.0, desired=12.0) for i in range(1, 4)]
        w = make_world(road1, cfg, [wreck, *queue])
        for _ in range(60):
            from anomaloop.world import step

            w = step(w)
        assert classify_scene(observe(w), cfg) is AnomalyLabel.ACCIDENT


class TestAnalyze:
    def test_ghost_jam_blockers_first(self, cfg):
        obs, truth, _ = observed(AnomalyLabel.GHOST_JAM, 4, cfg)
        report = analyze(obs, AnomalyLabel.GHOST_JAM, cfg)
        assert report.cause is CauseCode.SLOW_PAIR_BLOCKING
        assert set(report.involved[:2]) == set(truth.with_role("blocker"))
        assert set(report.involved[2:]) == set(truth.with_role("follower"))

    def test_deadlock_cycle_order(self, cfg):
        obs, truth, world = observed(AnomalyLabel.DEADLOCK, 4, cfg)
        report = analyze(obs, AnomalyLabel.DEADLOCK, cfg)
        assert report.cause is CauseCode.RIGHT_OF_WAY_GRIDLOCK
        ring = list(report.involved)
        assert sorted(ring) == sorted(truth.involved)
        # Independent check of the cyclic blocking order: each vehicle's
        # onward path cells intersect the next vehicle's body cells.
        from anomaloop.world import exit_segment, occupancy

        road = world.road
        box = occupancy(world)[1]
        for i, vid in enumerate(ring):
            nxt = world.vehicles[ring[(i + 1) % len(ring)]]
            veh = world.vehicles[vid]
            out = exit_segment(road, veh)
            depth = road.depth_of_front(veh.seg, veh.front)
            remaining = road.crossing_path_cells(veh.seg, out, veh.lane_idx, max(depth, 0.0))
            own = box.get(vid, set())
            ahead = [c for c in remaining if c not in own]
            assert set(ahead) & box.get(nxt.id, set()), f"{vid} does not wait on {nxt.id}"

    def test_accident_violator_first(self, cfg):
        obs, truth, _ = observed(AnomalyLabel.ACCIDENT, 4, cfg)
        report = analyze(obs, AnomalyLabel.ACCIDENT, cfg)
        assert report.cause is CauseCode.FAILURE_TO_YIELD
        assert report.involved[0] == "v-1"  # the turner who entered against priority
        assert report.involved[1] == "v-0"

    def test_normal_precondition(self, cfg):
        obs, _, _ = observed(AnomalyLabel.NORMAL, 0, cfg)
        with pytest.raises(ValueError):
            analyze(obs, AnomalyLabel.NORMAL, cfg)

    def test_inconsistent_scene(self, cfg):
        obs, _, _ = observed(AnomalyLabel.NORMAL, 0, cfg)
        from anomaloop.pipeline import InconsistentScene

        with pytest.raises(InconsistentScene):
            analyze(obs, AnomalyLabel.GHOST_JAM, cfg)

    def test_analysis_render_round_trip(self, cfg):
        obs, _, _ = observed(AnomalyLabel.GHOST_JAM, 2, cfg)
        report = analyze(obs, AnomalyLabel.GHOST_JAM, cfg)
        parsed = parse_analysis_output(render_analysis(report), obs, AnomalyLabel.GHOST_JAM)
        assert parsed.label is report.label
        assert parsed.cause is report.cause
        assert parsed.involved == report.involved


class TestSolveInfeasible:
    def test_blocked_reverse_path_is_reported(self, cfg):
        # Park a car right behind one gridlocked vehicle: no room to back out.
        from anomaloop.pipeline import NoFeasibleAction, solve
        from anomaloop.scenarios import ScenarioSpec, build, warm_up
        from anomaloop.world import VehicleState

        world, truth = build(ScenarioSpec(kind=AnomalyLabel.DEADLOCK, seed=0, params={"queued_per_arm": 0}), cfg)
        world = warm_up(world, cfg)
        world = world.clone()
        ring_veh = world.vehicles["v-1"]
        tail = VehicleState(
            id="v-9", seg=ring_veh.seg, lane_idx=0, s=ring_veh.s - 6.5, v=0.0,
            desired=0.0, route=(ring_veh.seg, "out-s"),
        )
        world.vehicles["v-9"] = tail
        obs = observe(world)
        report = analyze(obs, AnomalyLabel.DEADLOCK, cfg)
        with pytest.raises(NoFeasibleAction) as ei:
            solve(report, obs, cfg)
        assert "v-9" in str(ei.value)

    def test_blocked_reverse_becomes_stage_failure(self, cfg):
        from anomaloop.scenarios import ScenarioSpec, build, warm_up
        from anomaloop.world import VehicleState

        world, truth = build(ScenarioSpec(kind=AnomalyLabel.DEADLOCK, seed=0, params={"queued_per_arm": 0}), cfg)
        world = warm_up(world, cfg)
        world = world.clone()
        ring_veh = world.vehicles["v-1"]
        world.vehicles["v-9"] = VehicleState(
            id="v-9", seg=ring_veh.seg, lane_idx=0, s=ring_veh.s - 6.5, v=0.0,
            desired=0.0, route=(ring_veh.seg, "out-s"),
        )
        with pytest.raises(StageFailure) as ei:
            run_pipeline(observe(world), OracleResolver(cfg))
        assert ei.value.stage is Stage.SOLUTION


class TestSolve:
    def test_ghost_jam_plan_shape(self, cfg):
        obs, truth, _ = observed(AnomalyLabel.GHOST_JAM, 6, cfg)
        plan, report, _ = run_pipeline(obs, OracleResolver(cfg))
        blockers = set(truth.with_role("blocker"))
        followers = set(truth.with_role("follower"))
        by_vehicle = {c.vehicle: c for c in plan.commands}
        assert set(by_vehicle) == blockers | followers
        forward_increase = {
            c.vehicle for c in plan.commands if c.verb is Verb.MOVE_FORWARD and c.speed is SpeedChange.INCREASE
        }
        assert followers <= forward_increase
        assert len(forward_increase & blockers) == 1
        lane_changes = [c for c in plan.commands if c.verb in (Verb.CHANGE_LANE_LEFT, Verb.CHANGE_LANE_RIGHT)]
        assert len(lane_changes) == 1 and lane_changes[0].vehicle in blockers

    def test_deadlock_plan_shape(self, cfg):
        obs, truth, _ = observed(AnomalyLabel.DEADLOCK, 6, cfg)
        plan, report, _ = run_pipeline(obs, OracleResolver(cfg))
        backward = [c for c in plan.commands if c.verb is Verb.MOVE_BACKWARD]
        forward = [c for c in plan.commands if c.verb is Verb.MOVE_FORWARD]
        assert len(backward) == 3 and len(forward) == 1
        for cmd in backward:
            assert 5.0 <= cmd.distance_m <= 6.0
        assert forward[0].speed is SpeedChange.MAINTAIN
        assert {c.vehicle for c in plan.commands} == set(truth.involved)

    def test_accident_plan_shape(self, cfg):
        obs, truth, _ = observed(AnomalyLabel.ACCIDENT, 6, cfg)
        plan, report, _ = run_pipeline(obs, OracleResolver(cfg))
        faults = {f.vehicle: f.degree.value for f in plan.faults}
        assert faults == truth.fault
        assert all(c.verb is Verb.RELOCATE and c.distance_m == 8.0 for c in plan.commands)
        assert {c.vehicle for c in plan.commands} == set(truth.fault)


class TestRunPipeline:
    def test_four_ordered_traces(self, cfg):
        obs, _, _ = observed(AnomalyLabel.GHOST_JAM, 0, cfg)
        _, _, traces = run_pipeline(obs, OracleResolver(cfg))
        assert [t.stage for t in traces] == [Stage.SCENE, Stage.ANALYSIS, Stage.SOLUTION, Stage.FORMATTING]
        assert all(t.duration_s >= 0.0 for t in traces)

    def test_normal_scene_empty_plan_four_traces(self, cfg):
        obs, _, _ = observed(AnomalyLabel.NORMAL, 0, cfg)
        plan, report, traces = run_pipeline(obs, OracleResolver(cfg))
        assert plan.label is AnomalyLabel.NORMAL
        assert plan.commands == ()
        assert len(traces) == 4

    def test_oracle_deterministic_plan_text(self, cfg):
        from anomaloop.commands import serialize

        obs, _, _ = observed(AnomalyLabel.DEADLOCK, 9, cfg)
        p1, _, _ = run_pipeline(obs, OracleResolver(cfg))
        p2, _, _ = run_pipeline(obs, OracleResolver(cfg))
        assert serialize(p1) == serialize(p2)

    def test_total_duration_is_row_sum(self):
        # The timing table's Total column is defined as the stage row sum.
        row = [8.2, 1.9, 2.0, 1.1]
        assert sum(row) == pytest.approx(13.2)

    def test_garbage_scene_stage_fails(self, cfg):
        class GarbageResolver(OracleResolver):
            def run_stage(self, stage, ctx):
                return "%%% nonsense %%%"

        obs, _, _ = observed(AnomalyLabel.GHOST_JAM, 0, cfg)
        with pytest.raises(StageFailure) as ei:
            run_pipeline(obs, GarbageResolver(cfg))
        assert ei.value.stage is Stage.SCENE
        assert len(ei.value.traces) == 1

    def test_formatting_garbage_one_reask_then_failure(self, cfg):
        calls = {"formatting": 0}

        class BadFormatter(OracleResolver):
            def run_stage(self, stage, ctx):
                if stage is Stage.FORMATTING:
                    calls["formatting"] += 1
                    return "!!! not a plan !!!"
                return super().run_stage(stage, ctx)

        obs, _, _ = observed(AnomalyLabel.GHOST_JAM, 0, cfg)
        with pytest.raises(StageFailure) as ei:
            run_pipeline(obs, BadFormatter(cfg))
        assert ei.value.stage is Stage.FORMATTING
        assert calls["formatting"] == 2  # first try + exactly one re-ask

    def test_reask_recovers_on_second_try(self, cfg):
        calls = {"formatting": 0}

        class FlakyFormatter(OracleResolver):
            def run_stage(self, stage, ctx):
                if stage is Stage.FORMATTING:
                    calls["formatting"] += 1
                    if calls["formatting"] == 1:
                        return "scrambled output"
                return super().run_stage(stage, ctx)

        obs, _, _ = observed(AnomalyLabel.GHOST_JAM, 0, cfg)
        plan, _, traces = run_pipeline(obs, FlakyFormatter(cfg))
        assert calls["formatting"] == 2
        assert plan.label is AnomalyLabel.GHOST_JAM
        # The re-ask folds into the single Formatting trace.
        assert [t.stage for t in traces] == [Stage.SCENE, Stage.ANALYSIS, Stage.SOLUTION, Stage.FORMATTING]
