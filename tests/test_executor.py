from __future__ import annotations

import pytest

import hashlib

from anomaloop.commands import AnomalyLabel, Verb, parse, validate
from anomaloop.executor import (
    StalePlan,
    Status,
    compile_plan,
    execute,
    run_closed_loop,
)
from anomaloop.observation import observe
from anomaloop.pipeline import OracleResolver, run_pipeline
from anomaloop.scenarios import ScenarioSpec, build, is_resolved, warm_up
from anomaloop.world import step
from conftest import make_vehicle, make_world


def resolved_scene(kind, seed, cfg):
    world, truth = build(ScenarioSpec(kind=kind, seed=seed), cfg)
    world = warm_up(world, cfg)
    return world, truth


def plan_for(world, cfg, text):
    obs = observe(world)
    return validate(parse(text), obs)


class TestCompile:
    def test_empty_normal_plan_zero_controllers(self, road, cfg):
        w = make_world(road, cfg, [make_vehicle("v-0")])
        vplan = plan_for(w, cfg, "PLAN normal")
        assert compile_plan(vplan, w, cfg) == []

    def test_deadlock_plan_phasing(self, cfg):
        world, truth = resolved_scene(AnomalyLabel.DEADLOCK, 0, cfg)
        text = (
            "PLAN deadlock\n"
            "ACTION v-1 move_backward distance_m=6\n"
            "ACTION v-2 move_backward distance_m=6\n"
            "ACTION v-3 move_backward distance_m=5.5\n"
            "ACTION v-0 move_forward speed=maintain"
        )
        ctls = compile_plan(plan_for(world, cfg, text), world, cfg)
        reversers = [c for c in ctls if c.command.verb is Verb.MOVE_BACKWARD]
        forwards = [c for c in ctls if c.command.verb is Verb.MOVE_FORWARD]
        assert len(reversers) == 3 and len(forwards) == 1
        assert all(c.phase == 0 and c.hold_after for c in reversers)
        assert [c.release_rank for c in reversers] == [0, 1, 2]
        assert forwards[0].phase == 1

    def test_speed_targets_clamped(self, road, cfg):
        w = make_world(road, cfg, [make_vehicle("v-0", v=cfg.v_max, desired=cfg.v_max)])
        vplan = plan_for(w, cfg, "PLAN normal\nACTION v-0 move_forward speed=increase")
        (ctl,) = compile_plan(vplan, w, cfg)
        assert ctl.target == pytest.approx(cfg.v_max)

    def test_decrease_target(self, road, cfg):
        w = make_world(road, cfg, [make_vehicle("v-0", v=2.0, desired=12.0)])
        vplan = plan_for(w, cfg, "PLAN normal\nACTION v-0 move_forward speed=decrease")
        (ctl,) = compile_plan(vplan, w, cfg)
        assert ctl.target == 0.0

    def test_stale_plan_rejected(self, road, cfg):
        w = make_world(road, cfg, [make_vehicle("v-0")])
        vplan = plan_for(w, cfg, "PLAN normal\nACTION v-0 stop")
        for _ in range(cfg.staleness_bound):
            w = step(w)
        with pytest.raises(StalePlan):
            compile_plan(vplan, w, cfg)


class TestExecute:
    def test_reverse_clear_rear_exact_displacement(self, road, cfg):
        w = make_world(road, cfg, [make_vehicle("v-0", s=100.0, v=0.0, desired=8.0)])
        vplan = plan_for(w, cfg, "PLAN normal\nACTION v-0 move_backward distance_m=5")
        ctls = compile_plan(vplan, w, cfg)
        w2, log = execute(w, ctls, 300)
        (ctl,) = ctls
        assert ctl.status is Status.DONE
        assert ctl.displacement == pytest.approx(5.0, abs=0.2)
        assert not w2.collisions

    def test_reverse_blocked_rear_safety_stops(self, road, cfg):
        mover = make_vehicle("v-0", s=100.0, v=0.0, desired=8.0)
        wall = make_vehicle("v-1", s=93.0, v=0.0, desired=0.0)
        w = make_world(road, cfg, [mover, wall])
        vplan = plan_for(w, cfg, "PLAN normal\nACTION v-0 move_backward distance_m=10")
        ctls = compile_plan(vplan, w, cfg)
        w2, log = execute(w, ctls, 300)
        (ctl,) = [c for c in ctls if c.vehicle == "v-0"]
        assert ctl.status is Status.SAFETY_STOPPED
        assert not w2.collisions
        assert log.safety_stops == 1

    def test_empty_plan_execution_is_bare_stepping(self, road, cfg):
        vehicles = [make_vehicle("v-0", s=20.0, v=8.0, desired=8.0), make_vehicle("v-1", lane=1, s=40.0, v=9.0, desired=9.0)]
        w = make_world(road, cfg, vehicles)
        w_exec, _ = execute(w, [], 200, stop_when=lambda _: False)
        w_bare = w.clone()
        for _ in range(200):
            w_bare = step(w_bare)
        assert w_exec.canonical_dump() == w_bare.canonical_dump()

    def test_maintain_forward_matches_uncontrolled(self, road, cfg):
        w = make_world(road, cfg, [make_vehicle("v-0", s=30.0, v=9.0, desired=9.0)])
        vplan = plan_for(w, cfg, "PLAN normal\nACTION v-0 move_forward speed=maintain")
        (ctl,) = compile_plan(vplan, w, cfg)
        assert ctl.target == 9.0
        w_exec, _ = execute(w, [ctl], 200, stop_when=lambda _: False)
        assert ctl.status is Status.DONE
        w_bare = w.clone()
        for _ in range(200):
            w_bare = step(w_bare)
        assert w_exec.canonical_dump() == w_bare.canonical_dump()

    def test_ghost_jam_plan_execution_no_new_collisions(self, cfg):
        world, truth = resolved_scene(AnomalyLabel.GHOST_JAM, 3, cfg)
        obs = observe(world)
        plan, _, _ = run_pipeline(obs, OracleResolver(cfg))
        vplan = validate(plan, obs)
        ctls = compile_plan(vplan, world, cfg)
        before = len(world.collisions)
        w2, log = execute(world, ctls, 700, stop_when=lambda w: is_resolved(w, truth))
        assert log.resolution_tick is not None
        assert len(w2.collisions) == before

    def test_budget_respected(self, road, cfg):
        w = make_world(road, cfg, [make_vehicle("v-0", s=20.0, v=8.0, desired=8.0)])
        _, log = execute(w, [], 50, stop_when=lambda _: False)
        assert log.ticks_run == 50


class TestClosedLoop:
    def test_ghost_jam_resolves_in_one_iteration(self, cfg):
        ep = run_closed_loop(ScenarioSpec(kind=AnomalyLabel.GHOST_JAM, seed=0), OracleResolver(cfg), cfg)
        assert ep.resolved
        assert len(ep.iterations) == 1
        assert ep.iterations[0].failure is None

    def test_accident_fault_report_matches_truth(self, cfg):
        ep = run_closed_loop(ScenarioSpec(kind=AnomalyLabel.ACCIDENT, seed=1), OracleResolver(cfg), cfg)
        assert ep.resolved
        plan = parse(ep.iterations[0].plan_text)
        faults = {f.vehicle: f.degree.value for f in plan.faults}
        assert faults == ep.truth.fault

    def test_garbage_resolver_consumes_budget_with_failures(self, cfg):
        from anomaloop.pipeline import Resolver, Stage, StageFailure

        class AlwaysGarbage(Resolver):
            name = "garbage"

            def run_stage(self, stage, ctx):
                return "???"

        spec = ScenarioSpec(kind=AnomalyLabel.DEADLOCK, seed=0, resolve_budget=3)
        ep = run_closed_loop(spec, AlwaysGarbage(), cfg)
        assert not ep.resolved
        assert len(ep.iterations) == 3
        assert all(it.failure is not None for it in ep.iterations)
        assert all(it.failed_stage == "Scene" for it in ep.iterations)

    def test_loop_bounded_by_budgets(self, cfg):
        spec = ScenarioSpec(kind=AnomalyLabel.DEADLOCK, seed=0, tick_budget=120, resolve_budget=2)
        ep = run_closed_loop(spec, OracleResolver(cfg), cfg)
        assert len(ep.iterations) <= 2
        assert ep.ticks_executed <= 120


class TestValidationSoundness:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_validated_plans_always_compile_and_execute(self, cfg, seed):
        # Validation soundness: a stamped plan never hits UnknownVehicle
        # downstream, whatever the fuzzer drew.
        from anomaloop.world import RngStream, UnknownVehicleError

        from conftest import random_valid_plan

        rng = RngStream(555 + seed)
        world, truth = resolved_scene(AnomalyLabel.CONGESTION, seed, cfg)
        obs = observe(world)
        for _ in range(30):
            plan = random_valid_plan(rng, obs)
            vplan = validate(plan, obs)
            assert vplan.tick == obs.tick
            try:
                ctls = compile_plan(vplan, world, cfg)
                execute(world, ctls, 30)
            except UnknownVehicleError:
                pytest.fail("validated plan raised UnknownVehicle")


class TestEpisodeInvariants:
    @pytest.mark.parametrize("kind", [AnomalyLabel.GHOST_JAM, AnomalyLabel.DEADLOCK, AnomalyLabel.ACCIDENT])
    def test_report_invariants(self, cfg, kind):
        from anomaloop.scenarios import is_resolved as predicate

        spec = ScenarioSpec(kind=kind, seed=4)
        ep = run_closed_loop(spec, OracleResolver(cfg), cfg)
        assert len(ep.iterations) <= spec.resolve_budget
        assert ep.ticks_executed <= spec.tick_budget
        if ep.resolved:
            assert predicate(ep.world_final, ep.truth)


class TestSafetyFuzz:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_valid_plans_never_collide(self, cfg, seed):
        from anomaloop.world import RngStream

        from conftest import random_valid_plan

        rng = RngStream(1000 + seed)
        for trial in range(25):
            kind = (AnomalyLabel.GHOST_JAM, AnomalyLabel.DEADLOCK, AnomalyLabel.NORMAL)[trial % 3]
            world, truth = build(ScenarioSpec(kind=kind, seed=rng.randint(0, 50)), cfg)
            world = warm_up(world, cfg)
            obs = observe(world)
            plan = random_valid_plan(rng, obs)
            vplan = validate(plan, obs)
            ctls = compile_plan(vplan, world, cfg)
            before = len(world.collisions)
            w2, _ = execute(world, ctls, 150)
            assert len(w2.collisions) == before, f"collision executing fuzz plan: {plan}"


class TestExecutionFingerprint:
    PINNED = "93680afa934c37b96c2cc77d1506f50fb4f3d3cedd7290cce7afb23f9699749f"

    def test_fuzzed_execution_fingerprint(self, cfg):
        """Execution logs and final worlds of 40 fuzzed plans over all five
        kinds hash to a pinned digest.

        The plans cover all six verbs and every start, done and safety-stop
        event except a relocate safety-stop.  Recompute ``PINNED`` only in a
        change that states it alters execution behaviour.
        """
        from anomaloop.world import RngStream

        from conftest import random_valid_plan

        rng = RngStream(4242)
        digest = hashlib.sha256()
        for trial in range(40):
            kind = list(AnomalyLabel)[trial % 5]
            world, _ = build(ScenarioSpec(kind, seed=rng.randint(0, 63)), cfg)
            world = warm_up(world, cfg)
            obs = observe(world)
            vplan = validate(random_valid_plan(rng, obs), obs)
            final, log = execute(world, compile_plan(vplan, world, cfg), 200)
            digest.update(log.digest().encode())
            digest.update(final.digest().encode())
        assert digest.hexdigest() == self.PINNED
