"""Deterministic discrete-time lane-based traffic micro-world.

State is a value: :func:`step` returns a fresh :class:`WorldState` and never
mutates its input, so identical inputs give bit-identical runs.  Vehicles
follow a gap-based car-following rule, yield at the conflict box by a fixed
right-of-way order, and may change lanes discretely when both gaps in the
target lane are safe.  Collisions are 1-D interval overlaps per lane plus
conflict-box cell co-occupancy for crossing paths; collided vehicles wreck
in place and become static obstacles.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

from .config import SimConfig
from .geometry import SHOULDER, STRAIGHT_EXIT, RoadNet, turn_of

_U64 = (1 << 64) - 1


class UnknownVehicleError(KeyError):
    def __init__(self, vehicle_id: str):
        self.vehicle_id = vehicle_id
        super().__init__(f"unknown vehicle {vehicle_id!r}")


def vid_num(vehicle_id: str) -> int:
    """Numeric part of a ``v-<int>`` id, used for canonical ordering."""
    return int(vehicle_id.split("-", 1)[1])


@dataclass
class RngStream:
    """Tiny splitmix64 stream: seedable, cloneable, serialisable."""

    state: int
    drawn: int = 0

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _U64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        z ^= z >> 31
        self.drawn += 1
        return z

    def uniform(self, a: float = 0.0, b: float = 1.0) -> float:
        return a + (b - a) * (self.next_u64() / float(1 << 64))

    def randint(self, a: int, b: int) -> int:
        return a + self.next_u64() % (b - a + 1)

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]

    def clone(self) -> "RngStream":
        return RngStream(self.state, self.drawn)


# ── per-vehicle controllers (world-level primitives) ─────────────────────


@dataclass
class Reverse:
    """Back up by ``remaining`` metres, ramping to the reverse speed cap."""

    remaining: float
    speed: float = 0.0
    held: int = 0
    done: bool = False


@dataclass
class LaneShift:
    """Discrete sideways move once fore and aft gaps in the target lane admit."""

    direction: str  # "left" | "right"
    held: int = 0
    done: bool = False


@dataclass
class Halt:
    """Brake to rest and stay stopped while installed."""

    exec_hold: bool = False  # held by the executor: excluded from right-of-way contention


@dataclass
class Relocate:
    """Shift onto the shoulder, then crawl ``advance`` metres forward."""

    advance: float
    shifted: bool = False
    held: int = 0
    done: bool = False


@dataclass
class Scripted:
    """Test/staging hook: chase a speed with gating and braking disabled."""

    speed: float


@dataclass
class VehicleState:
    id: str
    seg: str
    lane_idx: int
    s: float
    v: float
    desired: float
    route: tuple[str, ...]
    route_idx: int = 0
    length: float = 4.5
    a: float = 0.0
    wrecked: bool = False
    loop_route: bool = False
    reversing: bool = False
    stopped_ticks: int = 0
    box_entry_tick: int | None = None
    arrival_tick: int | None = None
    lane_cooldown: int = 0
    odometer: float = 0.0
    controller: object | None = None

    @property
    def lane(self) -> str:
        idx = "sh" if self.lane_idx == SHOULDER else str(self.lane_idx)
        return f"{self.seg}:{idx}"

    @property
    def front(self) -> float:
        return self.s + self.length / 2.0

    @property
    def rear(self) -> float:
        return self.s - self.length / 2.0

    def clone(self) -> "VehicleState":
        # Shallow field copies, as copy.copy makes them, without its
        # reduce-protocol overhead: `step` clones every vehicle every tick.
        out = _shallow_copy(self)
        if self.controller is not None:
            out.controller = _shallow_copy(self.controller)
        return out


def _shallow_copy(obj):
    out = object.__new__(type(obj))
    out.__dict__ = obj.__dict__.copy()
    return out


@dataclass(frozen=True)
class CollisionEvent:
    tick: int
    a: str
    b: str
    location: str

    def pair(self) -> frozenset:
        return frozenset((self.a, self.b))


@dataclass
class WorldState:
    tick: int
    road: RoadNet
    vehicles: dict[str, VehicleState]
    collisions: tuple[CollisionEvent, ...]
    rng: RngStream
    config: SimConfig
    # What `occupancy` built for these vehicles: (placement key, index, box cells).
    _occupancy: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def dt(self) -> float:
        return self.config.dt

    def vehicle(self, vehicle_id: str) -> VehicleState:
        try:
            return self.vehicles[vehicle_id]
        except KeyError:
            raise UnknownVehicleError(vehicle_id) from None

    def ordered_ids(self) -> list[str]:
        return sorted(self.vehicles, key=vid_num)

    def clone(self) -> "WorldState":
        return WorldState(
            tick=self.tick,
            road=self.road,
            vehicles={vid: v.clone() for vid, v in self.vehicles.items()},
            collisions=self.collisions,
            rng=self.rng.clone(),
            config=self.config,
        )

    def canonical_dump(self) -> str:
        lines = [f"tick={self.tick}"]
        for vid in self.ordered_ids():
            v = self.vehicles[vid]
            ctrl = type(v.controller).__name__ if v.controller is not None else "-"
            lines.append(
                f"{vid} lane={v.lane} s={v.s:.6f} v={v.v:.6f} des={v.desired:.6f} "
                f"rev={int(v.reversing)} wreck={int(v.wrecked)} ctrl={ctrl} "
                f"ri={v.route_idx} stop={v.stopped_ticks} odo={v.odometer:.6f}"
            )
        for ev in self.collisions:
            lines.append(f"collision tick={ev.tick} {ev.a}+{ev.b} at={ev.location}")
        return "\n".join(lines)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_dump().encode()).hexdigest()


# ── route helpers ─────────────────────────────────────────────────────────


def next_segment(road: RoadNet, veh: VehicleState) -> str | None:
    nxt = veh.route_idx + 1
    if nxt < len(veh.route):
        return veh.route[nxt]
    if veh.loop_route:
        return road.loops.get(veh.route[veh.route_idx])
    return None


def prev_segment(road: RoadNet, veh: VehicleState) -> str | None:
    if veh.route_idx > 0:
        return veh.route[veh.route_idx - 1]
    return None


def exit_segment(road: RoadNet, veh: VehicleState) -> str | None:
    """Outbound segment this vehicle will use to cross the box."""
    if road.is_inbound(veh.seg):
        return next_segment(road, veh)
    return None


# ── occupancy index ───────────────────────────────────────────────────────


def occupancy_pieces(road: RoadNet, veh: VehicleState) -> list[tuple[str, int, float, float]]:
    """(segment, lane, lo, hi) intervals covered by the body, with overhangs."""
    seg_len = road.segments[veh.seg].length
    half_len = veh.length / 2.0
    front = veh.s + half_len
    rear = veh.s - half_len
    pieces = []
    lo = rear if rear > 0.0 else 0.0
    hi = front if front < seg_len else seg_len
    if hi > lo:
        pieces.append((veh.seg, veh.lane_idx, lo, hi))
    if front > seg_len:
        nxt = next_segment(road, veh)
        if nxt is not None:
            pieces.append((nxt, veh.lane_idx, 0.0, front - seg_len))
    if rear < 0.0:
        prev = prev_segment(road, veh)
        if prev is not None:
            plen = road.segments[prev].length
            pieces.append((prev, veh.lane_idx, plen + rear, plen))
    return pieces


class LaneIndex:
    """Per-(segment, lane) sorted body intervals for gap queries."""

    def __init__(self, road: RoadNet, vehicles: dict[str, VehicleState]):
        self.road = road
        self.by_lane: dict[tuple[str, int], list[tuple[float, float, str]]] = {}
        self._pieces: dict[str, list[tuple[str, int, float, float]]] = {}
        by_lane = self.by_lane
        for vid, veh in vehicles.items():
            pieces = self._pieces[vid] = occupancy_pieces(road, veh)
            for seg, lane, lo, hi in pieces:
                entries = by_lane.get((seg, lane))
                if entries is None:
                    by_lane[(seg, lane)] = [(lo, hi, vid)]
                else:
                    entries.append((lo, hi, vid))
        for entries in by_lane.values():
            entries.sort()

    def copy(self) -> "LaneIndex":
        """An index that :meth:`refresh` can change without touching this one."""
        out = object.__new__(LaneIndex)
        out.road = self.road
        out.by_lane = dict(self.by_lane)
        out._pieces = dict(self._pieces)
        return out

    def refresh(self, vid: str, veh: VehicleState) -> None:
        """Re-place one vehicle.  Affected lane lists are replaced, never
        changed in place, so they may be shared with the index copied from."""
        old = self._pieces.get(vid, ())
        pieces = self._pieces[vid] = occupancy_pieces(self.road, veh)
        for key in {(seg, lane) for seg, lane, _, _ in (*old, *pieces)}:
            entries = [e for e in self.by_lane.get(key, ()) if e[2] != vid]
            entries += [(lo, hi, vid) for seg, lane, lo, hi in pieces if (seg, lane) == key]
            entries.sort()
            self.by_lane[key] = entries

    def entries(self, seg: str, lane: int) -> list[tuple[float, float, str]]:
        return self.by_lane.get((seg, lane), [])

    def pieces(self, vid: str) -> list[tuple[str, int, float, float]]:
        return self._pieces.get(vid, [])


def route_segments_ahead(road: RoadNet, veh: VehicleState, lookahead: float):
    """Yield (segment_id, arc) for route segments ahead of the vehicle, where
    ``arc`` is the distance from the vehicle's front to the segment start."""
    arc = road.segments[veh.seg].length - veh.front
    route = veh.route
    idx = veh.route_idx
    while arc <= lookahead:
        if idx + 1 < len(route):
            idx += 1
            nxt = route[idx]
        elif veh.loop_route:
            entry = road.loops.get(route[idx])
            if entry is None:
                return
            arm = road.approaches[entry]
            route = (entry, f"out-{STRAIGHT_EXIT[arm]}")
            idx = 0
            nxt = entry
        else:
            return
        yield nxt, arc
        arc += road.segments[nxt].length


def gap_ahead(
    road: RoadNet,
    index: LaneIndex,
    vehicles: dict[str, VehicleState],
    veh: VehicleState,
    lane: int | None = None,
    lookahead: float = 80.0,
) -> tuple[float, float]:
    """(gap, leader_speed) to the nearest body ahead in a lane along the route.

    Leader speed is signed along the querying vehicle's direction of travel
    (negative for a reversing leader).  Returns (inf, 0) on open road; the
    end of a non-looping route counts as a wall.
    """
    lane = veh.lane_idx if lane is None else lane
    best = math.inf
    best_v = 0.0
    front = veh.front
    own = veh.id
    by_lane = index.by_lane
    reach = front + 1e-9
    for lo, hi, vid in by_lane.get((veh.seg, lane), ()):
        if vid == own or hi <= reach:
            continue
        gap = lo - front
        if gap <= 0.0:
            gap = 0.0
        if gap < best:
            other = vehicles[vid]
            best = gap
            best_v = -other.v if other.reversing else other.v
    # Walk the route only when its first segment starts short of the
    # nearest body found so far.
    if road.segments[veh.seg].length - front < best:
        for seg_id, arc in route_segments_ahead(road, veh, lookahead):
            if arc >= best:
                break
            for lo, hi, vid in by_lane.get((seg_id, lane), ()):
                if vid == own:
                    continue
                gap = arc + lo
                if gap <= 0.0:
                    gap = 0.0
                if gap < best:
                    other = vehicles[vid]
                    best = gap
                    best_v = -other.v if other.reversing else other.v
    if not veh.loop_route:
        segments = road.segments
        end = segments[veh.seg].length - front
        for i in range(veh.route_idx + 1, len(veh.route)):
            end += segments[veh.route[i]].length
        if end <= lookahead:
            wall = max(0.0, end - 0.2)
            if wall < best:
                best = wall
                best_v = 0.0
    return best, best_v


def gap_behind(
    road: RoadNet,
    index: LaneIndex,
    vehicles: dict[str, VehicleState],
    veh: VehicleState,
    lane: int | None = None,
) -> tuple[float, float]:
    """(gap, follower_speed) to the nearest body behind on the same segment."""
    lane = veh.lane_idx if lane is None else lane
    best = math.inf
    best_v = 0.0
    rear = veh.rear
    for lo, hi, vid in index.entries(veh.seg, lane):
        if vid == veh.id:
            continue
        if lo >= rear - 1e-9:
            continue
        gap = rear - hi
        if gap < best:
            best = max(gap, 0.0)
            best_v = vehicles[vid].v
    prev = prev_segment(road, veh)
    if prev is not None:
        plen = road.segment(prev).length
        for lo, hi, vid in index.entries(prev, lane):
            if vid == veh.id:
                continue
            gap = rear + (plen - hi)
            if gap < best:
                best = max(gap, 0.0)
                best_v = vehicles[vid].v
    return best, best_v


# ── conflict-box bookkeeping ──────────────────────────────────────────────


def _near_box(road: RoadNet, veh: VehicleState) -> bool:
    box = road.box
    if box is None or veh.lane_idx == SHOULDER:
        return False
    if veh.seg in road.approaches:
        return veh.front > road.segments[veh.seg].length - box.half
    if veh.seg in road.outbound:
        return veh.rear < box.half
    return False


def box_cells_of(road: RoadNet, veh: VehicleState) -> set[tuple[int, int]]:
    if not _near_box(road, veh):
        return set()
    cells: set[tuple[int, int]] = set()
    for seg, lane, lo, hi in occupancy_pieces(road, veh):
        cells |= road.box_cells_for_interval(seg, lane, lo, hi)
    return cells


def build_box_occupancy(
    road: RoadNet,
    vehicles: dict[str, VehicleState],
    index: LaneIndex,
) -> dict[str, set[tuple[int, int]]]:
    occ: dict[str, set[tuple[int, int]]] = {}
    for vid, veh in vehicles.items():
        if not _near_box(road, veh):
            continue
        cells: set[tuple[int, int]] = set()
        for seg, lane, lo, hi in index.pieces(vid):
            cells |= road.box_cells_for_interval(seg, lane, lo, hi)
        if cells:
            occ[vid] = cells
    return occ


# Every vehicle field that its occupancy pieces and box cells read.
_PLACEMENT = attrgetter("seg", "lane_idx", "s", "length", "route", "route_idx", "loop_route")


def occupancy(world: WorldState) -> tuple[LaneIndex, dict[str, set[tuple[int, int]]]]:
    """The world's lane index and conflict-box occupancy; callers must not
    change either.

    Built once per world and kept on it, outside its compared and dumped
    state, so a step reuses what the previous step's collision check built.
    Each call compares the vehicles' placements with those the kept pair was
    built from, so a world whose vehicles were moved in place gets a fresh
    build.
    """
    vehicles = world.vehicles
    key = (world.road, tuple(vehicles), tuple(map(_PLACEMENT, vehicles.values())))
    kept = world._occupancy
    if kept is None or kept[0] != key:
        index = LaneIndex(world.road, vehicles)
        kept = world._occupancy = (key, index, build_box_occupancy(world.road, vehicles, index))
    return kept[1], kept[2]


class _Claim(NamedTuple):
    vid: str
    arm: str
    cells: frozenset
    priority: tuple
    inside: bool


def _is_exec_held(veh: VehicleState) -> bool:
    return isinstance(veh.controller, Halt) and veh.controller.exec_hold


def _build_claims(road: RoadNet, vehicles: dict[str, VehicleState], cfg: SimConfig, tick: int) -> dict[str, _Claim]:
    claims: dict[str, _Claim] = {}
    if road.box is None:
        return claims
    zone = cfg.stopline_offset + cfg.claim_distance
    for vid, veh in vehicles.items():
        if veh.wrecked or veh.lane_idx == SHOULDER:
            continue
        if veh.seg not in road.approaches:
            continue
        out = next_segment(road, veh)
        if out is None:
            continue
        depth = road.depth_of_front(veh.seg, veh.front)
        if depth < -zone:
            continue
        if _is_exec_held(veh) or isinstance(veh.controller, Reverse):
            continue
        cells = road.path_cells(veh.seg, out, veh.lane_idx)
        straight = 0 if turn_of(road, veh.seg, out) == "straight" else 1
        arrived = veh.arrival_tick if veh.arrival_tick is not None else tick
        arm = road.approaches[veh.seg]
        claims[vid] = _Claim(vid, arm, cells, (straight, arrived, vid_num(vid)), depth >= 0.0)
    return claims


def _gating_wall(
    road: RoadNet,
    veh: VehicleState,
    cfg: SimConfig,
    box_occ: dict[str, set[tuple[int, int]]],
    claims: dict[str, _Claim],
    vehicles: dict[str, VehicleState],
) -> float | None:
    """Distance from the vehicle's front to where it must stop, or None."""
    if road.box is None or veh.seg not in road.approaches or veh.lane_idx == SHOULDER:
        return None
    out = next_segment(road, veh)
    if out is None:
        return None
    depth = road.depth_of_front(veh.seg, veh.front)
    if depth < -(cfg.stopline_offset + cfg.claim_distance):
        return None

    own_cells = box_occ.get(veh.id, ())
    # Same-lane bodies are the car-following rule's job.
    others = [
        cells
        for ovid, cells in box_occ.items()
        if ovid != veh.id and not (vehicles[ovid].seg == veh.seg and vehicles[ovid].lane_idx == veh.lane_idx)
    ]
    blocked_depth: float | None = None
    if others:
        remaining = road.crossing_path_cells(veh.seg, out, veh.lane_idx, max(depth, 0.0))
        base = max(0, math.floor(max(depth, 0.0)))
        for i, cell in enumerate(remaining):
            if cell not in own_cells and any(cell in cells for cells in others):
                blocked_depth = float(base + i)
                break

    if depth >= 0.0:
        if blocked_depth is None:
            return None
        return max(blocked_depth - depth, 0.0)

    # Not yet inside: decide entry at the stop line.  Contention applies only
    # across arms; same-arm ordering is plain car-following.
    must_hold = blocked_depth is not None
    if not must_hold:
        mine = claims.get(veh.id)
        if mine is not None:
            for other in claims.values():
                if other.vid == veh.id or other.arm == mine.arm:
                    continue
                if not (other.cells & mine.cells):
                    continue
                if other.inside or other.priority < mine.priority:
                    must_hold = True
                    break
    if not must_hold:
        return None
    wall_depth = -cfg.stopline_offset
    if depth >= wall_depth:
        return 0.0
    return wall_depth - depth


# ── the step function ─────────────────────────────────────────────────────


def _follow_speed(veh: VehicleState, eff_gap: float, leader_v: float, cfg: SimConfig, desired: float | None = None) -> float:
    """Gap-based rule: cruise toward desired with headway + stopping-distance
    braking, then a hard clamp that never consumes the last margin of room."""
    dt = cfg.dt
    want = veh.desired if desired is None else desired
    v = veh.v
    headway = cfg.safe_gap(v)
    lv = max(leader_v, 0.0)
    need = headway
    if v > lv:
        brake_ref = cfg.a_max / 2.0
        need = max(need, cfg.gap_d0 + (v * v - lv * lv) / (2.0 * brake_ref))
    if eff_gap < need:
        nv = max(0.0, v - cfg.a_max * dt)
    elif eff_gap > need + cfg.accel_headroom and v < want - 1e-9:
        nv = min(want, v + cfg.a_cruise * dt)
    elif v > want + 1e-9:
        nv = max(want, v - cfg.a_cruise * dt)
    else:
        nv = v
    closing = max(0.0, -leader_v) * dt
    room = max(0.0, eff_gap - cfg.collision_margin - closing)
    return max(0.0, min(nv, cfg.v_max, room / dt))


def _in_lane_change_zone(road: RoadNet, veh: VehicleState, cfg: SimConfig) -> bool:
    """True when lane changes are forbidden (inside or just short of the box)."""
    if road.box is None:
        return False
    if veh.seg in road.approaches:
        return road.depth_of_front(veh.seg, veh.front) > -cfg.lane_change_exclusion
    if veh.seg in road.outbound:
        return veh.rear < road.box.half
    return False


def _lane_gaps_admit(
    road: RoadNet,
    index: LaneIndex,
    vehicles: dict[str, VehicleState],
    veh: VehicleState,
    target: int,
    cfg: SimConfig,
) -> bool:
    # A body exactly alongside is neither ahead nor behind: reject overlap first.
    for lo, hi, vid in index.entries(veh.seg, target):
        if vid != veh.id and hi > veh.rear - 0.3 and lo < veh.front + 0.3:
            return False
    fore, _ = gap_ahead(road, index, vehicles, veh, lane=target, lookahead=60.0)
    aft, follower_v = gap_behind(road, index, vehicles, veh, lane=target)
    return fore >= cfg.safe_gap(veh.v) and aft >= cfg.safe_gap(follower_v)


def _try_lane_moves(
    road: RoadNet,
    index: LaneIndex,
    vehicles: dict[str, VehicleState],
    order: list[str],
    cfg: SimConfig,
) -> list[tuple[str, str]]:
    """Process discrete lateral moves sequentially by id.  Returns events."""
    events = []
    for vid in order:
        veh = vehicles[vid]
        ctrl = veh.controller
        seg = road.segment(veh.seg)
        if isinstance(ctrl, Relocate) and not ctrl.shifted:
            # Shoulder shift: only needs the shoulder interval clear.
            clear = all(
                hi <= veh.rear - 0.5 or lo >= veh.front + 0.5
                for lo, hi, ovid in index.entries(veh.seg, SHOULDER)
                if ovid != vid
            )
            if clear:
                veh.lane_idx = SHOULDER
                ctrl.shifted = True
                index.refresh(vid, veh)
                events.append((vid, "shoulder_shift"))
            else:
                ctrl.held += 1
            continue
        if veh.wrecked:
            continue
        if isinstance(ctrl, LaneShift) and not ctrl.done:
            target = veh.lane_idx + 1 if ctrl.direction == "left" else veh.lane_idx - 1
            if not (0 <= target < seg.lanes) or _in_lane_change_zone(road, veh, cfg):
                ctrl.held += 1
                continue
            if _lane_gaps_admit(road, index, vehicles, veh, target, cfg):
                veh.lane_idx = target
                ctrl.done = True
                veh.lane_cooldown = 20
                index.refresh(vid, veh)
                events.append((vid, "lane_change"))
            else:
                ctrl.held += 1
            continue
        if ctrl is None and not veh.reversing:
            # Opportunistic overtake: blocked well below desired speed.
            if veh.lane_cooldown > 0:
                veh.lane_cooldown -= 1
                continue
            if veh.v >= veh.desired - 1.0:
                continue
            if _in_lane_change_zone(road, veh, cfg):
                continue
            gap, lv = gap_ahead(road, index, vehicles, veh)
            if gap > cfg.safe_gap(veh.v) + 6.0 or lv >= veh.desired - 1.0:
                continue
            for target in (veh.lane_idx + 1, veh.lane_idx - 1):
                if not (0 <= target < seg.lanes):
                    continue
                if _lane_gaps_admit(road, index, vehicles, veh, target, cfg):
                    veh.lane_idx = target
                    veh.lane_cooldown = 20
                    index.refresh(vid, veh)
                    events.append((vid, "lane_change"))
                    break
    return events


def detect_collisions(world: WorldState) -> list[CollisionEvent]:
    """All currently overlapping pairs: same-lane intervals, plus shared
    conflict-box cells for vehicles on different lane lines."""
    road = world.road
    vehicles = world.vehicles
    found: dict[frozenset, CollisionEvent] = {}
    index, occ = occupancy(world)
    for (seg, lane), entries in index.by_lane.items():
        for i in range(len(entries)):
            lo_i, hi_i, vid_i = entries[i]
            for j in range(i + 1, len(entries)):
                lo_j, hi_j, vid_j = entries[j]
                if lo_j >= hi_i - 1e-9:
                    break
                pair = frozenset((vid_i, vid_j))
                if pair not in found:
                    a, b = sorted((vid_i, vid_j), key=vid_num)
                    lane_name = "sh" if lane == SHOULDER else str(lane)
                    loc = f"{seg}:{lane_name}@{max(lo_i, lo_j):.2f}"
                    found[pair] = CollisionEvent(world.tick, a, b, loc)
    vids = sorted(occ, key=vid_num)
    for i in range(len(vids)):
        for j in range(i + 1, len(vids)):
            va, vb = vehicles[vids[i]], vehicles[vids[j]]
            if va.seg == vb.seg and va.lane_idx == vb.lane_idx:
                continue
            shared = occ[vids[i]] & occ[vids[j]]
            if shared:
                pair = frozenset((vids[i], vids[j]))
                if pair not in found:
                    cell = min(shared)
                    found[pair] = CollisionEvent(world.tick, vids[i], vids[j], f"box@{cell[0]},{cell[1]}")
    return [found[k] for k in sorted(found, key=lambda p: tuple(sorted(p, key=vid_num)))]


def _car_follow(
    road: RoadNet,
    index: LaneIndex,
    vehicles: dict[str, VehicleState],
    veh: VehicleState,
    cfg: SimConfig,
    box_occ: dict[str, set[tuple[int, int]]],
    claims: dict[str, _Claim],
) -> tuple[float, int]:
    """Forward move under the car-following rule and right-of-way gating."""
    gap, lv = gap_ahead(road, index, vehicles, veh)
    wall = _gating_wall(road, veh, cfg, box_occ, claims, vehicles)
    if wall is not None and wall < gap:
        gap, lv = wall, 0.0
    return _follow_speed(veh, gap, lv, cfg), 1


def step(world: WorldState) -> WorldState:
    """Advance one tick.  Total and deterministic on well-formed states."""
    cfg = world.config
    road = world.road
    dt = cfg.dt
    vehicles = {vid: v.clone() for vid, v in world.vehicles.items()}
    order = sorted(vehicles, key=vid_num)

    # The clones share their originals' placements until a lane move.
    index, box_occ = occupancy(world)
    index = index.copy()
    if _try_lane_moves(road, index, vehicles, order, cfg):
        box_occ = build_box_occupancy(road, vehicles, index)
    claims = _build_claims(road, vehicles, cfg, world.tick)
    if len({claim.arm for claim in claims.values()}) < 2:
        claims = {}  # right of way is contested only across arms

    # Decide speeds from the common post-lane-move snapshot.
    moves: dict[str, tuple[float, int]] = {}
    for vid in order:
        veh = vehicles[vid]
        ctrl = veh.controller
        if ctrl is None and not veh.wrecked and not veh.reversing:
            moves[vid] = _car_follow(road, index, vehicles, veh, cfg, box_occ, claims)
            continue
        if veh.wrecked and not isinstance(ctrl, Relocate):
            moves[vid] = (0.0, 1)
            continue
        if veh.reversing and not (isinstance(ctrl, Reverse) and not ctrl.done):
            # Leftover backward momentum with no active reversal: brake out.
            moves[vid] = (max(0.0, veh.v - cfg.a_max * dt), -1)
            continue
        if isinstance(ctrl, Scripted):
            nv = min(cfg.v_max, veh.v + cfg.a_max * dt) if veh.v < ctrl.speed else max(ctrl.speed, veh.v - cfg.a_max * dt)
            moves[vid] = (min(nv, ctrl.speed) if nv > ctrl.speed else nv, 1)
            continue
        if isinstance(ctrl, Halt):
            moves[vid] = (max(0.0, veh.v - cfg.a_max * dt), 1)
            continue
        if isinstance(ctrl, Reverse) and ctrl.done:
            # Completed reversal holds position until the controller is removed.
            moves[vid] = (0.0, 1)
            continue
        if isinstance(ctrl, Reverse):
            rear_gap, follower_v = gap_behind(road, index, vehicles, veh)
            room = max(0.0, rear_gap - cfg.collision_margin - follower_v * dt)
            room = min(room, max(0.0, veh.rear - 0.05))  # stay on the segment
            # Ramp up at cruise accel, ramp down so the commanded distance is
            # reached near rest rather than at the reverse speed cap.
            speed = min(
                cfg.reverse_v_max,
                ctrl.speed + cfg.a_cruise * dt,
                math.sqrt(2.0 * cfg.a_max * max(ctrl.remaining, 0.0)),
            )
            move = min(speed * dt, ctrl.remaining, room)
            if move <= 1e-9 and ctrl.remaining > 1e-9:
                ctrl.held += 1
                ctrl.speed = 0.0
                moves[vid] = (0.0, -1)
            else:
                ctrl.speed = move / dt
                ctrl.remaining -= move
                if ctrl.remaining <= 1e-9:
                    ctrl.done = True
                moves[vid] = (move / dt, -1)
            continue
        if isinstance(ctrl, Relocate):
            if not ctrl.shifted:
                moves[vid] = (max(0.0, veh.v - cfg.a_max * dt), 1)
                continue
            gap, lv = gap_ahead(road, index, vehicles, veh)
            speed = min(cfg.relocate_v, veh.v + cfg.a_cruise * dt)
            room = max(0.0, gap - cfg.collision_margin)
            move = min(speed * dt, ctrl.advance, room)
            if move <= 1e-9 and ctrl.advance > 1e-9:
                ctrl.held += 1
            ctrl.advance -= move
            if ctrl.advance <= 1e-9:
                ctrl.done = True
            moves[vid] = (move / dt, 1)
            continue
        # Default car-following (also applies while a LaneShift waits).
        moves[vid] = _car_follow(road, index, vehicles, veh, cfg, box_occ, claims)

    # Integrate and transfer.
    half = road.box.half if road.box is not None else None
    claim_depth = -(cfg.stopline_offset + cfg.claim_distance)
    stamp = world.tick + 1
    a_max = cfg.a_max
    for vid in order:
        veh = vehicles[vid]
        nv, direction = moves[vid]
        a = (nv - veh.v) / dt if direction > 0 else (-nv - (-veh.v if veh.reversing else veh.v)) / dt
        veh.a = max(-a_max, min(a_max, a))
        veh.v = nv
        veh.reversing = direction < 0 and nv > 0.0
        delta = nv * dt * direction
        veh.s += delta
        veh.odometer += abs(delta)
        seg = road.segments[veh.seg]
        if half is not None and (veh.box_entry_tick is None or veh.arrival_tick is None) and veh.seg in road.approaches:
            depth = road.depth_of_front(veh.seg, veh.front)
            if veh.box_entry_tick is None and depth >= 0.0:
                veh.box_entry_tick = stamp
            if veh.arrival_tick is None and depth >= claim_depth:
                veh.arrival_tick = stamp
        while veh.s > seg.length:
            nxt = next_segment(road, veh)
            if nxt is None:
                veh.s = seg.length
                break
            veh.s -= seg.length
            if veh.route_idx + 1 < len(veh.route):
                veh.route_idx += 1
            else:
                # Loop wrap: restart the cycle at the matching inbound segment.
                veh.route = veh.route[:0] + _wrapped_route(road, veh)
                veh.route_idx = 0
            veh.seg = veh.route[veh.route_idx]
            seg = road.segments[veh.seg]
        if half is not None and veh.seg in road.outbound and veh.rear > half:
            veh.box_entry_tick = None
            veh.arrival_tick = None
        if veh.v < 0.05:
            veh.stopped_ticks += 1
        else:
            veh.stopped_ticks = 0

    interim = WorldState(world.tick + 1, road, vehicles, world.collisions, world.rng.clone(), cfg)
    seen = {ev.pair() for ev in world.collisions}
    new_events = [ev for ev in detect_collisions(interim) if ev.pair() not in seen]
    if new_events:
        for ev in new_events:
            for vid in (ev.a, ev.b):
                veh = vehicles[vid]
                veh.v = 0.0
                veh.wrecked = True
                veh.desired = 0.0
                veh.reversing = False
                veh.controller = None
        interim.collisions = world.collisions + tuple(new_events)
    return interim


def _wrapped_route(road: RoadNet, veh: VehicleState) -> tuple[str, ...]:
    """Continue a looping route: u-turn onto the paired inbound, then cross."""
    entry = road.loops[veh.route[veh.route_idx]]
    arm = road.approaches[entry]
    return (entry, f"out-{STRAIGHT_EXIT[arm]}")


# ── worlds at rest ────────────────────────────────────────────────────────

# Every vehicle field `step` reads and may also write.  `id`, `length` and
# `loop_route` are read but never written, so they cannot differ between a
# world and its successor; `a` and `stopped_ticks` are written but never read.
_STEP_STATE = attrgetter(
    "s", "v", "odometer", "seg", "lane_idx", "route", "route_idx", "reversing",
    "wrecked", "desired", "arrival_tick", "box_entry_tick", "lane_cooldown", "controller",
)


def at_rest(before: WorldState, after: WorldState) -> bool:
    """True when ``after = step(before)`` equals ``before`` in everything
    ``step`` reads, so every further step repeats the same transition and
    :func:`fast_forward` gives its result exactly.

    Compared: the collision log, and per vehicle the position, speed,
    odometer, lane, route, flags, desired speed, box-entry and arrival
    stamps, lane-change cooldown and the controller by value.  That leaves
    the tick, which ``step`` reads only to stamp an unset arrival or
    box-entry tick (and as the arrival fallback of a right-of-way claim,
    which needs the same unset stamp): a vehicle at the stamping depth would
    have been stamped by this very step, so equal stamps mean none is
    pending.  A blocked controller counts its ``held`` ticks up every step,
    so a world waiting on one is never at rest.
    """
    if after.collisions != before.collisions:
        return False
    prior = before.vehicles
    return all(_STEP_STATE(veh) == _STEP_STATE(prior[vid]) for vid, veh in after.vehicles.items())


def fast_forward(world: WorldState, ticks: int) -> WorldState:
    """The state after ``ticks`` more steps of a world at rest (see
    :func:`at_rest`), without stepping it.

    Only the fields ``step`` writes but never reads move: the tick, and each
    vehicle's ``stopped_ticks``, which counts up because every vehicle is
    stopped (a speed of 0.05 m/s or more would have moved it).  ``a``, the
    other written-only field, comes out the same from every such step, and
    ``step`` never draws from the random stream.
    """
    out = world.clone()
    out.tick += ticks
    for veh in out.vehicles.values():
        veh.stopped_ticks += ticks
    return out

