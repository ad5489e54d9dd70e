"""Each output check is shown a deliberately wrong input and must reject it.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses

import pytest

import checks
from anomaloop import commands, executor, harness, observation, pipeline, world
from anomaloop.commands import AnomalyLabel
from anomaloop.config import SimConfig
from anomaloop.scenarios import ScenarioSpec, build, warm_up

CFG = SimConfig()
ORACLE = harness.ResolverSpec("oracle")


def staged(kind, seed=0, warm=True, **params):
    w, truth = build(ScenarioSpec(kind=kind, seed=seed, params=params), CFG)
    return (warm_up(w, CFG) if warm else w), truth


@pytest.fixture(scope="module")
def episodes():
    return {
        kind: harness.run_episode(ScenarioSpec(kind=kind, seed=3), ORACLE, CFG)
        for kind in (AnomalyLabel.GHOST_JAM, AnomalyLabel.DEADLOCK, AnomalyLabel.ACCIDENT)
    }


@pytest.fixture(scope="module")
def dense_episode():
    spec = ScenarioSpec(kind=AnomalyLabel.NORMAL, seed=1, params={"vehicles": 12})
    return harness.run_episode(spec, ORACLE, CFG)


def resolve(w):
    obs = observation.observe(w)
    plan, report, traces = pipeline.run_pipeline(obs, pipeline.OracleResolver(CFG))
    return plan, report, traces, executor.compile_plan(commands.validate(plan, obs), w, CFG)


# ── world properties ──────────────────────────────────────────────────────


def test_two_overlapping_bodies_in_one_lane_are_rejected():
    w, _ = staged(AnomalyLabel.NORMAL, warm=False, vehicles=8)
    assert checks.lane_overlaps(w) == []
    a, b = w.vehicles["v-0"], w.vehicles["v-4"]  # same arm, same staging lane
    assert (a.seg, a.lane_idx) == (b.seg, b.lane_idx)
    b.s = a.s + 1.0
    assert checks.lane_overlaps(w)


def test_wrecked_bodies_may_overlap():
    w, _ = staged(AnomalyLabel.NORMAL, warm=False, vehicles=8)
    a, b = w.vehicles["v-0"], w.vehicles["v-4"]
    b.s = a.s + 1.0
    a.wrecked = b.wrecked = True
    assert checks.lane_overlaps(w) == []


def test_speed_over_the_limit_is_rejected():
    w, _ = staged(AnomalyLabel.NORMAL)
    assert checks.speed_violations(w, CFG.v_max) == []
    w.vehicles["v-2"].v = -(CFG.v_max + 0.5)
    assert checks.speed_violations(w, CFG.v_max)


def test_digest_sees_a_one_ulp_change():
    w, _ = staged(AnomalyLabel.NORMAL)
    before = checks.world_digest(w)
    veh = w.vehicles["v-1"]
    veh.s = veh.s + veh.s * 2**-52
    assert checks.world_digest(w) != before


# ── resolution conditions ─────────────────────────────────────────────────


def test_ghost_jam_with_slow_followers_is_not_cleared(episodes):
    w, truth = staged(AnomalyLabel.GHOST_JAM)
    assert not checks.anomaly_cleared(w, truth)
    ep = episodes[AnomalyLabel.GHOST_JAM][0]
    assert checks.anomaly_cleared(ep.world_final, ep.truth)


def test_deadlock_with_a_body_in_the_box_is_not_cleared(episodes):
    ep = episodes[AnomalyLabel.DEADLOCK][0]
    assert checks.anomaly_cleared(ep.world_final, ep.truth)
    w = ep.world_final.clone()
    ring = ep.truth.involved[0]
    veh = w.vehicles[ring]
    veh.seg, veh.lane_idx, veh.s = "in-w", 0, w.road.segments["in-w"].length - 1.0
    assert not checks.anomaly_cleared(w, ep.truth)


def test_accident_with_a_wreck_off_the_shoulder_is_not_cleared(episodes):
    ep = episodes[AnomalyLabel.ACCIDENT][0]
    assert checks.anomaly_cleared(ep.world_final, ep.truth)
    w = ep.world_final.clone()
    w.vehicles["v-0"].lane_idx = 0
    assert not checks.anomaly_cleared(w, ep.truth)
    staged_world, truth = staged(AnomalyLabel.ACCIDENT, warm=False)
    assert not checks.anomaly_cleared(staged_world, truth)


def test_control_that_resolves_itself_is_rejected(episodes):
    ep = episodes[AnomalyLabel.GHOST_JAM][0]
    assert checks.control_problems(ep, world.step, 50) == []
    # A "control" started from the resolved final world is already clear.
    cleared = dataclasses.replace(ep, world_start=ep.world_final)
    assert checks.control_problems(cleared, world.step, 5)


# ── plans and episodes ────────────────────────────────────────────────────


def test_accident_plan_naming_the_victim_primary_is_rejected(episodes):
    ep = episodes[AnomalyLabel.ACCIDENT][0]
    good = [r.plan_text for r in ep.iterations if r.plan_text]
    assert checks.fault_problems(good, ep.truth) == []
    swapped = [t.replace("v-1 primary", "v-X").replace("v-0 none", "v-0 primary").replace("v-X", "v-1 none") for t in good]
    assert "FAULT v-0 primary" in swapped[0]
    assert checks.fault_problems(swapped, ep.truth)
    assert checks.fault_problems([], ep.truth)


@pytest.mark.parametrize("kind", [AnomalyLabel.GHOST_JAM, AnomalyLabel.DEADLOCK, AnomalyLabel.ACCIDENT])
def test_episode_check_passes_real_episodes_and_rejects_a_resolved_control(episodes, kind):
    ep, metrics, report, transcript = episodes[kind]
    assert checks.episode_problems((ep, metrics, report, transcript), CFG.v_max) == []
    bad_report = {**report, "control": {"resolved": True}}
    assert checks.episode_problems((ep, metrics, bad_report, transcript), CFG.v_max)


def test_episode_check_rejects_an_unresolved_final_world(episodes):
    ep, metrics, report, transcript = episodes[AnomalyLabel.DEADLOCK]
    not_cleared = dataclasses.replace(ep, world_final=ep.world_start)
    assert checks.episode_problems((not_cleared, metrics, report, transcript), CFG.v_max)


def test_dense_check_rejects_collisions_and_idle_vehicles(dense_episode):
    ep, metrics, report, transcript = dense_episode
    assert checks.dense_problems(dense_episode, CFG.v_max) == []
    crashed = ep.world_final.clone()
    crashed.collisions = (world.CollisionEvent(crashed.tick, "v-0", "v-1", "box@4,4"),)
    assert checks.dense_problems((dataclasses.replace(ep, world_final=crashed), metrics, report, transcript), CFG.v_max)
    idle = ep.world_final.clone()
    idle.vehicles["v-3"].odometer = 0.0
    assert checks.dense_problems((dataclasses.replace(ep, world_final=idle), metrics, report, transcript), CFG.v_max)


def test_continuation_rejects_a_scene_that_collides(dense_episode):
    w = dense_episode[0].world_final
    assert checks.continuation_problems(w, world.step, 20, CFG.v_max) == []
    crowded = w.clone()
    a, b = crowded.vehicles["v-0"], crowded.vehicles["v-4"]
    b.seg, b.lane_idx, b.route, b.route_idx, b.s = a.seg, a.lane_idx, a.route, a.route_idx, a.s + 1.0
    assert checks.continuation_problems(crowded, world.step, 5, CFG.v_max)


# ── resolutions ───────────────────────────────────────────────────────────


def test_resolution_check_accepts_oracle_answers():
    for kind in AnomalyLabel:
        w, truth = staged(kind, seed=5)
        assert checks.resolution_problems(resolve(w), truth, commands.parse, commands.serialize) == []


def test_wrong_scene_label_is_rejected():
    w, truth = staged(AnomalyLabel.GHOST_JAM, seed=5)
    out = resolve(w)
    wrong = dataclasses.replace(truth, label=AnomalyLabel.CONGESTION)
    assert checks.resolution_problems(out, wrong, commands.parse, commands.serialize)


def test_wrong_deadlock_ring_is_rejected():
    w, truth = staged(AnomalyLabel.DEADLOCK, seed=5)
    plan, report, traces, controllers = resolve(w)
    short = dataclasses.replace(report, involved=report.involved[:3])
    assert checks.resolution_problems((plan, short, traces, controllers), truth, commands.parse, commands.serialize)


def test_wrong_ghost_jam_pair_is_rejected():
    w, truth = staged(AnomalyLabel.GHOST_JAM, seed=5)
    plan, report, traces, controllers = resolve(w)
    shifted = dataclasses.replace(report, involved=report.involved[1:])
    assert checks.resolution_problems((plan, shifted, traces, controllers), truth, commands.parse, commands.serialize)


def test_plan_that_changes_under_round_trip_is_rejected():
    w, truth = staged(AnomalyLabel.ACCIDENT, seed=5)
    out = resolve(w)

    def lossy_parse(text):
        plan = commands.parse(text)
        return dataclasses.replace(plan, commands=plan.commands[1:])

    assert checks.resolution_problems(out, truth, lossy_parse, commands.serialize)
