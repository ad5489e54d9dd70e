from __future__ import annotations

import pytest
from hypothesis import settings

from anomaloop.config import SimConfig
from anomaloop.geometry import four_way
from anomaloop.world import RngStream, VehicleState, WorldState

settings.register_profile("ci", max_examples=25, deadline=None)
settings.load_profile("ci")


@pytest.fixture
def cfg() -> SimConfig:
    return SimConfig()


@pytest.fixture
def road():
    return four_way()


def make_world(road, cfg, vehicles, tick=0):
    return WorldState(tick, road, {v.id: v for v in vehicles}, (), cfg)


def make_vehicle(vid, seg="in-w", lane=0, s=50.0, v=10.0, desired=None, route=None, loop=False, **kw):
    return VehicleState(
        id=vid,
        seg=seg,
        lane_idx=lane,
        s=s,
        v=v,
        desired=v if desired is None else desired,
        route=route or (seg, "out-e"),
        loop_route=loop,
        **kw,
    )


def random_valid_plan(rng: RngStream, obs):
    """A random plan that passes validation against ``obs``.

    Wrecked vehicles only ever get relocate; everything else draws from the
    drivable verbs with in-range arguments.
    """
    from anomaloop.commands import (
        AnomalyLabel,
        InterventionCommand,
        ResolutionPlan,
        SpeedChange,
        Verb,
    )

    rows = list(obs.rows)
    for i in range(len(rows) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        rows[i], rows[j] = rows[j], rows[i]
    count = rng.randint(0, min(len(rows), 5))
    commands = []
    for row in rows[:count]:
        if row.wrecked:
            commands.append(InterventionCommand(row.id, Verb.RELOCATE, rng.randint(10, 200) / 10.0, None))
            continue
        verb = rng.choice(
            [Verb.MOVE_FORWARD, Verb.MOVE_BACKWARD, Verb.CHANGE_LANE_LEFT, Verb.CHANGE_LANE_RIGHT, Verb.STOP]
        )
        distance = rng.randint(10, 200) / 10.0 if verb is Verb.MOVE_BACKWARD else None
        speed = None
        if verb in (Verb.MOVE_FORWARD, Verb.MOVE_BACKWARD):
            speed = rng.choice([None, SpeedChange.INCREASE, SpeedChange.MAINTAIN, SpeedChange.DECREASE])
        commands.append(InterventionCommand(row.id, verb, distance, speed))
    label = rng.choice(
        [AnomalyLabel.NORMAL, AnomalyLabel.CONGESTION, AnomalyLabel.GHOST_JAM, AnomalyLabel.DEADLOCK]
    )
    return ResolutionPlan(label, tuple(commands))


def feasible_random_traffic(road, cfg, rng: RngStream, n: int):
    """Overlap-free vehicles with speeds their gaps can absorb.

    Vehicles are dropped rear-to-front per lane with at least safe-gap
    spacing, so default controllers can always brake in time.
    """
    vehicles = []
    lanes = [(seg, lane) for seg in road.inbound for lane in range(road.segment(seg).lanes)]
    cursor = {key: 5.0 for key in lanes}
    arm_route = {"in-w": ("in-w", "out-e"), "in-n": ("in-n", "out-s"), "in-e": ("in-e", "out-w"), "in-s": ("in-s", "out-n")}
    for k in range(n):
        seg, lane = lanes[rng.next_u64() % len(lanes)]
        desired = rng.uniform(6.0, 14.0)
        v = rng.uniform(0.0, desired)
        pos = cursor[(seg, lane)] + rng.uniform(0.0, 25.0)
        gap_needed = cfg.safe_gap(v) + cfg.gap_d0 + v * v / cfg.a_max
        cursor[(seg, lane)] = pos + 4.5 + gap_needed
        if pos > road.segment(seg).length - 90.0:
            continue
        vehicles.append(
            VehicleState(
                id=f"v-{k}",
                seg=seg,
                lane_idx=lane,
                s=pos,
                v=v,
                desired=desired,
                route=arm_route[seg],
                loop_route=True,
            )
        )
    return vehicles
