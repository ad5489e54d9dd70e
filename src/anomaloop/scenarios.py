"""Scenario builders: five scene classes with ground truth and a
machine-checkable resolution predicate each.

Builders are deterministic in the spec seed.  ``build`` returns the staged
initial world; the anomaly manifests during a warm-up run (queues form, the
staged gridlock and wreck persist).  Normal, congestion and ghost-jam
traffic circulates on looping routes so flow stays observable; deadlock and
accident use finite routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .commands import AnomalyLabel
from .config import ConfigError, SimConfig, coerce_scalar, parse_kv_text
from .geometry import SHOULDER, four_way
from .world import (
    CollisionEvent,
    RngStream,
    VehicleState,
    WorldState,
    at_rest,
    box_cells_of,
    fast_forward,
    step,
)

KINDS = {label.value: label for label in AnomalyLabel}

DEFAULT_TICK_BUDGET = 2000
DEFAULT_RESOLVE_BUDGET = 3

_DEFAULT_PARAMS: dict[AnomalyLabel, dict[str, float | int]] = {
    AnomalyLabel.NORMAL: {"vehicles": 6},
    AnomalyLabel.CONGESTION: {"per_arm": 5},
    AnomalyLabel.GHOST_JAM: {
        "blockers": 2,
        "followers": 4,
        "blocker_speed": 2.5,
        "follower_speed_min": 11.0,
        "follower_speed_max": 14.0,
    },
    AnomalyLabel.DEADLOCK: {"queued_per_arm": 1},
    AnomalyLabel.ACCIDENT: {"queued": 2},
}


class InvalidParams(Exception):
    pass


@dataclass(frozen=True)
class ScenarioSpec:
    kind: AnomalyLabel
    seed: int
    params: dict = field(default_factory=dict)
    tick_budget: int = DEFAULT_TICK_BUDGET
    resolve_budget: int = DEFAULT_RESOLVE_BUDGET

    def param(self, name: str):
        if name in self.params:
            return self.params[name]
        return _DEFAULT_PARAMS[self.kind][name]


@dataclass(frozen=True)
class GroundTruth:
    label: AnomalyLabel
    involved: tuple[str, ...]
    fault: dict[str, str] | None = None
    # Staging metadata the resolution predicates need: role per vehicle
    # (blocker/follower/ring/wreck/traffic) and as-built desired speeds.
    roles: dict[str, str] = field(default_factory=dict)
    desired: dict[str, float] = field(default_factory=dict)

    def with_role(self, role: str) -> list[str]:
        return [vid for vid, r in self.roles.items() if r == role]


_ARM_ROUTES = {
    "w": ("in-w", "out-e"),
    "n": ("in-n", "out-s"),
    "e": ("in-e", "out-w"),
    "s": ("in-s", "out-n"),
}
_LEFT_ROUTES = {
    "w": ("in-w", "out-n"),
    "n": ("in-n", "out-e"),
    "e": ("in-e", "out-s"),
    "s": ("in-s", "out-w"),
}


def build(spec: ScenarioSpec, cfg: SimConfig | None = None) -> tuple[WorldState, GroundTruth]:
    """Stage the scenario world at tick 0.  Deterministic in ``spec.seed``."""
    cfg = cfg or SimConfig()
    known = set(_DEFAULT_PARAMS[spec.kind])
    unknown = set(spec.params) - known
    if unknown:
        raise InvalidParams(f"unknown params for {spec.kind.value}: {sorted(unknown)}")
    # Deadlock and accident are staged on single-lane approaches so the
    # blockage cannot be sidestepped through the second lane.
    lanes = 1 if spec.kind in (AnomalyLabel.DEADLOCK, AnomalyLabel.ACCIDENT) else 2
    road = four_way(lanes=lanes)
    rng = RngStream(spec.seed)
    builder = {
        AnomalyLabel.NORMAL: _build_normal,
        AnomalyLabel.CONGESTION: _build_congestion,
        AnomalyLabel.GHOST_JAM: _build_ghost_jam,
        AnomalyLabel.DEADLOCK: _build_deadlock,
        AnomalyLabel.ACCIDENT: _build_accident,
    }[spec.kind]
    return builder(spec, road, rng, cfg)


def warm_up(world: WorldState, cfg: SimConfig) -> WorldState:
    """Step ``cfg.warmup_ticks`` ticks; a world that comes to rest earlier
    is fast-forwarded over the remaining ones."""
    for done in range(1, cfg.warmup_ticks + 1):
        before, world = world, step(world)
        if at_rest(before, world):
            return fast_forward(world, cfg.warmup_ticks - done)
    return world


def _vehicle(vid, seg, lane, s, v, desired, route, loop=False, **kw) -> VehicleState:
    return VehicleState(
        id=vid, seg=seg, lane_idx=lane, s=s, v=v, desired=desired,
        route=route, loop_route=loop, **kw,
    )


def _build_normal(spec, road, rng, cfg):
    n = int(spec.param("vehicles"))
    if n < 1:
        raise InvalidParams("vehicles must be >= 1")
    if n > 12:
        # A fourth staging row would start inside the conflict box.
        raise InvalidParams("vehicles > 12 does not fit the approach")
    arms = ("w", "n", "e", "s")
    vehicles = {}
    for k in range(n):
        arm = arms[k % 4]
        desired = rng.uniform(10.0, 14.0)
        s = 15.0 + 55.0 * (k // 4) + rng.uniform(0.0, 20.0)
        route = _ARM_ROUTES[arm]
        vid = f"v-{k}"
        vehicles[vid] = _vehicle(vid, route[0], k % 2, s, desired, desired, route, loop=True)
    world = WorldState(0, road, vehicles, (), rng, cfg)
    truth = GroundTruth(
        label=AnomalyLabel.NORMAL,
        involved=(),
        roles={vid: "traffic" for vid in vehicles},
        desired={vid: veh.desired for vid, veh in vehicles.items()},
    )
    return world, truth


def _build_congestion(spec, road, rng, cfg):
    per_arm = int(spec.param("per_arm"))
    if per_arm < 1:
        raise InvalidParams("per_arm must be >= 1")
    if per_arm > 8:
        raise InvalidParams("per_arm > 8 does not fit the approach")
    vehicles = {}
    k = 0
    for arm in ("w", "n", "e", "s"):
        for j in range(per_arm):
            desired = rng.uniform(11.0, 14.0)
            s = 160.0 - 13.0 * j - rng.uniform(0.0, 3.0)
            # A third of the demand turns left, stressing the crossing order.
            route = _LEFT_ROUTES[arm] if (k % 3 == 2) else _ARM_ROUTES[arm]
            vid = f"v-{k}"
            vehicles[vid] = _vehicle(vid, route[0], j % 2, s, min(8.0, desired), desired, route, loop=True)
            k += 1
    world = WorldState(0, road, vehicles, (), rng, cfg)
    truth = GroundTruth(
        label=AnomalyLabel.CONGESTION,
        involved=(),
        roles={vid: "traffic" for vid in vehicles},
        desired={vid: veh.desired for vid, veh in vehicles.items()},
    )
    return world, truth


def _build_ghost_jam(spec, road, rng, cfg):
    blockers = int(spec.param("blockers"))
    followers = int(spec.param("followers"))
    if blockers != 2:
        raise InvalidParams("ghost jam needs exactly 2 side-by-side blockers")
    if followers < 3:
        raise InvalidParams("ghost jam needs at least 3 queued followers")
    blocker_s = 55.0
    if blocker_s - 12.0 - 10.0 * (followers - 1) < 1.0:
        raise InvalidParams("queue longer than segment")
    speed = float(spec.param("blocker_speed")) + rng.uniform(-0.3, 0.3)
    lo = float(spec.param("follower_speed_min"))
    hi = float(spec.param("follower_speed_max"))
    if not (0 < speed < lo):
        raise InvalidParams("blocker_speed must stay below follower speeds")
    vehicles = {}
    roles = {}
    for i, lane in enumerate((0, 1)):
        vid = f"v-{i}"
        vehicles[vid] = _vehicle(vid, "in-w", lane, blocker_s, speed, speed, _ARM_ROUTES["w"], loop=True)
        roles[vid] = "blocker"
    for j in range(followers):
        vid = f"v-{2 + j}"
        desired = rng.uniform(lo, hi)
        s = blocker_s - 12.0 - 10.0 * j
        vehicles[vid] = _vehicle(vid, "in-w", j % 2, s, 4.0, desired, _ARM_ROUTES["w"], loop=True)
        roles[vid] = "follower"
    world = WorldState(0, road, vehicles, (), rng, cfg)
    truth = GroundTruth(
        label=AnomalyLabel.GHOST_JAM,
        involved=tuple(vehicles),
        roles=roles,
        desired={vid: veh.desired for vid, veh in vehicles.items()},
    )
    return world, truth


# Ring nose depths (m into the box) staging the cyclic block: each body
# covers the crossing cell of the next arm's straight path without overlap.
_RING_DEPTH_BASE = {"w": 4.4, "n": 4.8, "e": 4.8, "s": 4.4}


def _build_deadlock(spec, road, rng, cfg):
    queued = int(spec.param("queued_per_arm"))
    if queued < 0 or queued > 4:
        raise InvalidParams("queued_per_arm must be in [0, 4]")
    length = road.segment("in-w").length
    half = road.box.half
    vehicles = {}
    roles = {}
    ring = []
    for i, arm in enumerate(("w", "n", "e", "s")):
        vid = f"v-{i}"
        depth = _RING_DEPTH_BASE[arm] + rng.uniform(0.0, 0.4)
        s = (length - half) + depth - cfg.vehicle_length / 2.0
        desired = rng.uniform(8.0, 12.0)
        veh = _vehicle(vid, f"in-{arm}", 0, s, 0.0, desired, _ARM_ROUTES[arm], box_entry_tick=0)
        vehicles[vid] = veh
        roles[vid] = "ring"
        ring.append(vid)
    k = 4
    for arm in ("w", "n", "e", "s"):
        for j in range(queued):
            vid = f"v-{k}"
            desired = rng.uniform(8.0, 12.0)
            s = 150.0 - 18.0 * j - rng.uniform(0.0, 5.0)
            vehicles[vid] = _vehicle(vid, f"in-{arm}", 0, s, 6.0, desired, _ARM_ROUTES[arm])
            roles[vid] = "queued"
            k += 1
    world = WorldState(0, road, vehicles, (), rng, cfg)
    truth = GroundTruth(
        label=AnomalyLabel.DEADLOCK,
        involved=tuple(ring),
        roles=roles,
        desired={vid: veh.desired for vid, veh in vehicles.items()},
    )
    return world, truth


def _build_accident(spec, road, rng, cfg):
    queued = int(spec.param("queued"))
    if queued < 0 or queued > 6:
        raise InvalidParams("queued must be in [0, 6]")
    vehicles = {}
    roles = {}
    # Straight-through vehicle with priority, stopped straddling the box seam.
    victim = _vehicle(
        "v-0", "out-s", 0, 1.5 + rng.uniform(0.0, 0.5), 0.0, 0.0,
        ("in-n", "out-s"), route_idx=1, wrecked=True, box_entry_tick=0,
    )
    # Left-turner that entered against priority; nose on the crossing cell.
    violator = _vehicle(
        "v-1", "in-w", 0, 196.5 + rng.uniform(0.0, 0.3), 0.0, 0.0,
        ("in-w", "out-n"), wrecked=True, box_entry_tick=2,
    )
    vehicles["v-0"] = victim
    vehicles["v-1"] = violator
    roles["v-0"] = "wreck"
    roles["v-1"] = "wreck"
    k = 2
    for arm, base in (("n", 150.0), ("w", 150.0)):
        for j in range(queued):
            vid = f"v-{k}"
            desired = rng.uniform(9.0, 13.0)
            s = base - 16.0 * j - rng.uniform(0.0, 4.0)
            vehicles[vid] = _vehicle(vid, f"in-{arm}", 0, s, 7.0, desired, _ARM_ROUTES[arm])
            roles[vid] = "queued"
            k += 1
    staged = CollisionEvent(0, "v-0", "v-1", "box@4,4")
    world = WorldState(0, road, vehicles, (staged,), rng, cfg)
    truth = GroundTruth(
        label=AnomalyLabel.ACCIDENT,
        involved=("v-1", "v-0"),
        fault={"v-1": "primary", "v-0": "none"},
        roles=roles,
        desired={vid: veh.desired for vid, veh in vehicles.items()},
    )
    return world, truth


# ── resolution predicates ─────────────────────────────────────────────────


def is_resolved(world: WorldState, truth: GroundTruth) -> bool:
    if truth.label in (AnomalyLabel.NORMAL, AnomalyLabel.CONGESTION):
        return True
    if truth.label is AnomalyLabel.GHOST_JAM:
        followers = truth.with_role("follower")
        ratios = []
        for vid in followers:
            veh = world.vehicles[vid]
            want = truth.desired[vid]
            v = 0.0 if veh.reversing else veh.v
            ratios.append(min(v, want) / want)
        return sum(ratios) / len(ratios) >= 0.6
    if truth.label is AnomalyLabel.DEADLOCK:
        road = world.road
        for veh in world.vehicles.values():
            if veh.lane_idx != SHOULDER and box_cells_of(road, veh):
                return False
        for vid in truth.involved:
            veh = world.vehicles[vid]
            if veh.v > 0.05 and not veh.reversing:
                continue
            if road.is_outbound(veh.seg) and veh.rear > road.box.half:
                continue
            return False
        return True
    if truth.label is AnomalyLabel.ACCIDENT:
        assert truth.fault is not None
        return all(world.vehicles[vid].lane_idx == SHOULDER for vid in truth.fault)
    raise ValueError(f"unknown label {truth.label}")


# ── scenario files ────────────────────────────────────────────────────────


def load_spec(path: str | Path) -> ScenarioSpec:
    entries = parse_kv_text(Path(path).read_text()) if Path(path).exists() else None
    if entries is None:
        raise ConfigError(f"no such scenario file: {path}")
    return spec_from_entries(entries)


def spec_from_entries(entries: dict[str, tuple[str, int]]) -> ScenarioSpec:
    if "kind" not in entries:
        raise ConfigError("missing required key", field="kind")
    kind_raw, kind_line = entries["kind"]
    if kind_raw.lower() not in KINDS:
        raise ConfigError(f"unknown kind {kind_raw!r}", line=kind_line, field="kind")
    kind = KINDS[kind_raw.lower()]

    def read_int(name: str, default: int) -> int:
        if name not in entries:
            return default
        raw, line = entries[name]
        value = coerce_scalar(raw)
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            raise ConfigError("expected a positive integer", line=line, field=name)
        return value

    seed = 0
    if "seed" in entries:
        raw, line = entries["seed"]
        value = coerce_scalar(raw)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ConfigError("expected a non-negative integer", line=line, field="seed")
        seed = value
    params = {}
    for key, (raw, line) in entries.items():
        if key.startswith("param."):
            name = key[len("param."):]
            if not name:
                raise ConfigError("empty param name", line=line, field=key)
            value = coerce_scalar(raw)
            if isinstance(value, str):
                raise ConfigError("expected a number", line=line, field=key)
            params[name] = value
        elif key not in ("kind", "seed", "tick_budget", "resolve_budget"):
            raise ConfigError(f"unknown key {key!r}", line=line, field=key)
    return ScenarioSpec(
        kind=kind,
        seed=seed,
        params=params,
        tick_budget=read_int("tick_budget", DEFAULT_TICK_BUDGET),
        resolve_budget=read_int("resolve_budget", DEFAULT_RESOLVE_BUDGET),
    )


def save_spec(spec: ScenarioSpec, path: str | Path) -> None:
    lines = [
        f"kind = {spec.kind.value}",
        f"seed = {spec.seed}",
        f"tick_budget = {spec.tick_budget}",
        f"resolve_budget = {spec.resolve_budget}",
    ]
    for name in sorted(spec.params):
        lines.append(f"param.{name} = {spec.params[name]}")
    Path(path).write_text("\n".join(lines) + "\n")
