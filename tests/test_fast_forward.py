"""The early-ending control run and the fast-forwarded warm-ups give exactly
what stepping every tick gives.

The reference functions below are the plain loops: a control run over the
full tick budget and a warm-up that steps every tick.
"""

from __future__ import annotations

from collections import deque

import pytest

from anomaloop.commands import AnomalyLabel
from anomaloop.executor import run_closed_loop
from anomaloop.metrics import ControlRun, run_control
from anomaloop.pipeline import OracleResolver
from anomaloop.scenarios import ScenarioSpec, build, is_resolved, warm_up
from anomaloop.world import step

CASES = [pytest.param(kind, seed, {}, id=f"{kind.value}-{seed}") for kind in AnomalyLabel for seed in (0, 1, 2)] + [
    pytest.param(AnomalyLabel.NORMAL, 3, {"vehicles": 12}, id="normal-12-vehicles"),
    pytest.param(AnomalyLabel.CONGESTION, 3, {"per_arm": 8}, id="congestion-8-per-arm"),
]


def reference_warm_up(world, tracked, cfg):
    """Step every warm-up tick; returns the world and the mean speeds over
    the last ``after_window`` ticks."""
    window = deque(maxlen=cfg.after_window)
    for _ in range(cfg.warmup_ticks):
        world = step(world)
        if tracked:
            window.append({vid: world.vehicles[vid].v for vid in tracked})
    before_speeds = {
        vid: sum(sample[vid] for sample in window) / len(window) for vid in tracked
    } if window else {}
    return world, before_speeds


def reference_run_control(ep):
    """Step the whole tick budget, sampling distances at the executed-tick count."""
    world = ep.world_start.clone()
    start_odo = {vid: world.vehicles[vid].odometer for vid in ep.tracked}
    sample_at = ep.ticks_executed
    horizon = max(sample_at, ep.spec.tick_budget)
    distances = {vid: 0.0 for vid in ep.tracked}
    resolved_ever = is_resolved(world, ep.truth)
    for i in range(horizon):
        world = step(world)
        if i + 1 == sample_at:
            distances = {vid: world.vehicles[vid].odometer - start_odo[vid] for vid in ep.tracked}
        if not resolved_ever and is_resolved(world, ep.truth):
            resolved_ever = True
    if sample_at == 0:
        distances = {vid: 0.0 for vid in ep.tracked}
    return ControlRun(resolved_ever=resolved_ever, distances=distances)


def assert_same_world(a, b):
    assert a.canonical_dump() == b.canonical_dump()
    assert a.vehicles == b.vehicles  # every field, controllers and stamps included
    assert a.collisions == b.collisions and a.rng == b.rng


@pytest.mark.parametrize("kind,seed,params", CASES)
def test_matches_stepping_every_tick(cfg, kind, seed, params):
    spec = ScenarioSpec(kind=kind, seed=seed, params=params)
    ep = run_closed_loop(spec, OracleResolver(cfg), cfg)
    built, _ = build(spec, cfg)
    ref_world, ref_speeds = reference_warm_up(built, ep.tracked, cfg)

    assert_same_world(warm_up(built, cfg), ref_world)
    assert_same_world(ep.world_start, ref_world)
    assert ep.before_speeds == ref_speeds
    assert run_control(ep, cfg) == reference_run_control(ep)
