from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from anomaloop.geometry import four_way
from anomaloop.observation import observe
from anomaloop.world import (
    Halt,
    LaneIndex,
    LaneShift,
    Reverse,
    RngStream,
    Scripted,
    UnknownVehicleError,
    VehicleState,
    at_rest,
    build_box_occupancy,
    detect_collisions,
    fast_forward,
    occupancy,
    step,
)
from conftest import feasible_random_traffic, make_vehicle, make_world


def run(world, n):
    for _ in range(n):
        world = step(world)
    return world


class TestStep:
    def test_constant_velocity_advance(self, road, cfg):
        v = make_vehicle("v-0", s=50.0, v=10.0)
        w = make_world(road, cfg, [v])
        w2 = step(w)
        assert w2.vehicles["v-0"].s == pytest.approx(51.0)
        assert w2.tick == 1

    def test_step_does_not_mutate_input(self, road, cfg):
        w = make_world(road, cfg, [make_vehicle("v-0", s=50.0, v=10.0)])
        before = w.canonical_dump()
        step(w)
        assert w.canonical_dump() == before

    def test_follower_converges_to_safe_gap(self, road, cfg):
        # Single lane so the follower cannot overtake the slow leader.
        road1 = four_way(lanes=1)
        leader = make_vehicle("v-0", s=40.0, v=3.0, desired=3.0)
        fol = make_vehicle("v-1", s=31.5, v=3.0, desired=14.0)
        w = make_world(road1, cfg, [leader, fol])
        w = run(w, 400)
        a, b = w.vehicles["v-0"], w.vehicles["v-1"]
        assert not w.collisions
        gap = a.rear - b.front
        assert gap >= cfg.safe_gap(b.v) - 1e-9
        assert b.v == pytest.approx(a.v, abs=0.5)

    def test_forced_overlap_records_collision_and_wrecks(self, road, cfg):
        a = make_vehicle("v-0", s=50.0, v=0.0, desired=0.0)
        b = make_vehicle("v-1", s=40.0, v=8.0, desired=8.0)
        b.controller = Scripted(speed=8.0)  # braking disabled
        w = make_world(road, cfg, [a, b])
        w = run(w, 40)
        assert len(w.collisions) == 1
        ev = w.collisions[0]
        assert {ev.a, ev.b} == {"v-0", "v-1"}
        assert w.vehicles["v-0"].wrecked and w.vehicles["v-1"].wrecked
        assert w.vehicles["v-1"].v == 0.0

    def test_wreck_is_static_obstacle(self, road, cfg):
        wreck = make_vehicle("v-0", s=100.0, v=0.0, desired=0.0, wrecked=True)
        fol = make_vehicle("v-1", s=20.0, v=12.0, desired=12.0)
        w = make_world(four_way(lanes=1), cfg, [wreck, fol])
        w = run(w, 300)
        assert not w.collisions
        assert w.vehicles["v-0"].s == pytest.approx(100.0)
        assert w.vehicles["v-1"].v == pytest.approx(0.0, abs=0.2)


class TestControls:
    def test_unknown_vehicle(self, road, cfg):
        w = make_world(road, cfg, [make_vehicle("v-0")])
        with pytest.raises(UnknownVehicleError):
            w.vehicle("v-99")

    def test_halt_brakes_to_rest_within_bound(self, road, cfg):
        v0 = 12.0
        w = make_world(road, cfg, [make_vehicle("v-0", s=20.0, v=v0)])
        w.vehicles["v-0"].controller = Halt()
        ticks = math.ceil(v0 / (cfg.a_max * cfg.dt))
        w = run(w, ticks)
        assert w.vehicles["v-0"].v == 0.0

    def test_reverse_distance_five_metres(self, road, cfg):
        # Matches the staged reversal distances used for gridlock clearing.
        v = make_vehicle("v-0", s=100.0, v=0.0, desired=8.0)
        w = make_world(road, cfg, [v])
        w.vehicles["v-0"].controller = Reverse(remaining=5.0)
        w = run(w, 100)
        veh = w.vehicles["v-0"]
        assert veh.controller.done
        assert 100.0 - veh.s == pytest.approx(5.0, abs=cfg.cell_tolerance)
        assert veh.v == 0.0

    def test_reverse_capped_speed(self, road, cfg):
        w = make_world(road, cfg, [make_vehicle("v-0", s=150.0, v=0.0, desired=8.0)])
        w.vehicles["v-0"].controller = Reverse(remaining=15.0)
        top = 0.0
        for _ in range(80):
            w = step(w)
            veh = w.vehicles["v-0"]
            if veh.reversing:
                top = max(top, veh.v)
        assert top <= cfg.reverse_v_max + 1e-9

    def test_lane_change_waits_for_gap(self, road, cfg):
        mover = make_vehicle("v-0", lane=1, s=50.0, v=8.0, desired=8.0)
        blocker = make_vehicle("v-1", lane=0, s=50.0, v=8.0, desired=8.0)
        w = make_world(road, cfg, [mover, blocker])
        w.vehicles["v-0"].controller = LaneShift(direction="right")
        w2 = run(w, 5)
        assert w2.vehicles["v-0"].lane_idx == 1  # alongside: held
        # Clear the target lane: change happens.
        w3 = w.clone()
        w3.vehicles["v-1"].lane_idx = 1
        w3.vehicles["v-1"].s = 90.0
        w3 = run(w3, 5)
        assert w3.vehicles["v-0"].lane_idx == 0
        assert not w3.collisions


class TestRest:
    def test_fast_forward_equals_stepping_a_resting_deadlock(self, cfg):
        from anomaloop.commands import AnomalyLabel
        from anomaloop.scenarios import ScenarioSpec, build

        w, _ = build(ScenarioSpec(kind=AnomalyLabel.DEADLOCK, seed=5), cfg)
        for _ in range(cfg.warmup_ticks):
            before, w = w, step(w)
            if at_rest(before, w):
                break
        assert at_rest(before, w)
        stepped = run(w, 120)
        jumped = fast_forward(w, 120)
        assert jumped.canonical_dump() == stepped.canonical_dump()
        assert jumped.vehicles == stepped.vehicles
        assert w.tick + 120 == jumped.tick

    def test_moving_world_is_not_at_rest(self, road, cfg):
        w = make_world(road, cfg, [make_vehicle("v-0", s=50.0, v=10.0)])
        assert not at_rest(w, step(w))

    def test_blocked_lane_shift_is_not_at_rest(self, road, cfg):
        mover = make_vehicle("v-0", lane=1, s=50.0, v=0.0, desired=0.0)
        blocker = make_vehicle("v-1", lane=0, s=50.0, v=0.0, desired=0.0)
        w = make_world(road, cfg, [mover, blocker])
        assert at_rest(w, step(w))  # both parked: nothing changes
        w.vehicles["v-0"].controller = LaneShift(direction="right")
        nxt = step(w)
        assert nxt.vehicles["v-0"].controller.held == 1
        assert nxt.vehicles["v-0"].s == w.vehicles["v-0"].s
        assert not at_rest(w, nxt)

    def test_pending_arrival_stamp_is_not_at_rest(self, road, cfg):
        # Parked at the stop line with no arrival tick: the next step stamps one.
        w = make_world(road, cfg, [make_vehicle("v-0", s=190.0, v=0.0, desired=0.0)])
        nxt = step(w)
        assert w.vehicles["v-0"].arrival_tick is None and nxt.vehicles["v-0"].arrival_tick == 1
        assert not at_rest(w, nxt)
        assert at_rest(nxt, step(nxt))


class TestOccupancy:
    """`occupancy` keeps its lane index and box cells on the world; a kept
    pair must always equal a fresh build."""

    @staticmethod
    def fresh(world):
        index = LaneIndex(world.road, world.vehicles)
        return index.by_lane, build_box_occupancy(world.road, world.vehicles, index)

    def test_kept_pair_matches_fresh_build_while_stepping(self, road, cfg):
        vehicles = feasible_random_traffic(road, cfg, RngStream(7), 10)
        w = make_world(road, cfg, vehicles, seed=7)
        lane_changes = 0
        for _ in range(400):
            index, occ = occupancy(w)
            assert (index.by_lane, occ) == self.fresh(w)
            nxt = step(w)
            # A clone keeps nothing, so stepping it builds everything afresh.
            assert nxt.vehicles == step(w.clone()).vehicles
            lane_changes += sum(nxt.vehicles[vid].lane_idx != w.vehicles[vid].lane_idx for vid in w.vehicles)
            w = nxt
        assert lane_changes > 0

    def test_vehicle_moved_in_place_gets_fresh_build(self, road, cfg):
        w = step(make_world(road, cfg, [make_vehicle("v-0", s=50.0, v=5.0), make_vehicle("v-1", s=80.0, v=5.0)]))
        occupancy(w)
        w.vehicles["v-0"].s = 78.0  # now right behind v-1
        w.vehicles["v-1"].lane_idx = 1
        index, occ = occupancy(w)
        assert (index.by_lane, occ) == self.fresh(w)
        assert step(w).vehicles == step(w.clone()).vehicles

    def test_refresh_leaves_the_copied_index_unchanged(self, road, cfg):
        w = make_world(road, cfg, [make_vehicle("v-0", s=50.0), make_vehicle("v-1", s=60.0, lane=1)])
        index, _ = occupancy(w)
        snapshot = {key: list(entries) for key, entries in index.by_lane.items()}
        moved = w.vehicles["v-0"].clone()
        moved.lane_idx = 1
        changed = index.copy()
        changed.refresh("v-0", moved)
        assert index.by_lane == snapshot
        assert [e[2] for e in changed.entries("in-w", 1)] == ["v-0", "v-1"]
        assert changed.entries("in-w", 0) == []


class TestDetectCollisions:
    def test_empty_world(self, road, cfg):
        w = make_world(road, cfg, [])
        assert detect_collisions(w) == []

    def test_same_lane_overlap_definition(self, road, cfg):
        a = make_vehicle("v-0", s=50.0, v=0.0)
        b = make_vehicle("v-1", s=54.0, v=0.0)  # |ds| = 4 < (4.5+4.5)/2
        w = make_world(road, cfg, [a, b])
        events = detect_collisions(w)
        assert len(events) == 1
        assert {events[0].a, events[0].b} == {"v-0", "v-1"}

    def test_touching_is_not_overlap(self, road, cfg):
        a = make_vehicle("v-0", s=50.0, v=0.0)
        b = make_vehicle("v-1", s=54.51, v=0.0)
        w = make_world(road, cfg, [a, b])
        assert detect_collisions(w) == []

    def test_crossing_box_cell_co_occupancy(self, road, cfg):
        victim = VehicleState(
            id="v-0", seg="out-s", lane_idx=0, s=1.5, v=0.0, desired=0.0,
            route=("in-n", "out-s"), route_idx=1, wrecked=True,
        )
        violator = VehicleState(
            id="v-1", seg="in-w", lane_idx=0, s=196.5, v=0.0, desired=0.0,
            route=("in-w", "out-n"), wrecked=True,
        )
        w = make_world(road, cfg, [victim, violator])
        events = detect_collisions(w)
        assert len(events) == 1
        assert events[0].location.startswith("box@")


class TestObserve:
    def test_equal_states_byte_identical(self, road, cfg):
        w1 = make_world(road, cfg, [make_vehicle("v-0"), make_vehicle("v-1", lane=1, s=30.0)])
        w2 = make_world(road, cfg, [make_vehicle("v-0"), make_vehicle("v-1", lane=1, s=30.0)])
        assert observe(w1).render() == observe(w2).render()

    def test_row_count_equals_vehicle_count(self, road, cfg):
        vehicles = [make_vehicle(f"v-{i}", s=10.0 + 12.0 * i) for i in range(5)]
        w = make_world(road, cfg, vehicles)
        assert len(observe(w).rows) == 5

    def test_positions_beyond_tolerance_differ(self, road, cfg):
        w1 = make_world(road, cfg, [make_vehicle("v-0", s=50.0)])
        w2 = make_world(road, cfg, [make_vehicle("v-0", s=50.0 + 2 * cfg.cell_tolerance)])
        assert observe(w1).render() != observe(w2).render()

    def test_canonical_order_by_numeric_id(self, road, cfg):
        vehicles = [make_vehicle("v-10", s=10.0), make_vehicle("v-2", s=30.0), make_vehicle("v-1", s=50.0)]
        w = make_world(road, cfg, vehicles)
        assert observe(w).vehicle_ids() == ["v-1", "v-2", "v-10"]

    def test_ghost_jam_observation_shows_slow_blocker_pair(self, cfg):
        from anomaloop.commands import AnomalyLabel
        from anomaloop.scenarios import ScenarioSpec, build, warm_up

        world, truth = build(ScenarioSpec(kind=AnomalyLabel.GHOST_JAM, seed=7), cfg)
        world = warm_up(world, cfg)
        obs = observe(world)
        for vid in truth.with_role("blocker"):
            row = obs.row(vid)
            assert row.v < cfg.slow_pair_speed


class TestInvariants:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_determinism_bit_for_bit(self, road, cfg, seed):
        vehicles = feasible_random_traffic(road, cfg, RngStream(seed), 10)
        w1 = make_world(road, cfg, vehicles, seed=seed)
        w2 = make_world(road, cfg, [v.clone() for v in vehicles], seed=seed)
        for _ in range(500):
            w1 = step(w1)
            w2 = step(w2)
        assert w1.canonical_dump() == w2.canonical_dump()

    @pytest.mark.parametrize("seed", [11, 23, 37, 41, 59])
    def test_no_collision_in_ten_thousand_steps(self, road, cfg, seed):
        vehicles = feasible_random_traffic(road, cfg, RngStream(seed), 8)
        w = make_world(road, cfg, vehicles, seed=seed)
        w = run(w, 10_000)
        assert w.collisions == ()

    @pytest.mark.parametrize("seed", [5, 17])
    def test_conservation_and_kinematic_bounds(self, road, cfg, seed):
        vehicles = feasible_random_traffic(road, cfg, RngStream(seed), 8)
        w = make_world(road, cfg, vehicles, seed=seed)
        ids = set(w.vehicles)
        for _ in range(800):
            prev = w.vehicles
            w = step(w)
            assert set(w.vehicles) == ids
            for vid, veh in w.vehicles.items():
                dv = abs(veh.v - prev[vid].v)
                assert dv <= cfg.a_max * cfg.dt + 1e-9
                assert veh.odometer - prev[vid].odometer <= cfg.v_max * cfg.dt + 1e-9
                assert 0.0 <= veh.v <= cfg.v_max + 1e-9

    @given(st.integers(min_value=0, max_value=2**32))
    def test_rng_stream_deterministic(self, seed):
        a, b = RngStream(seed), RngStream(seed)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
