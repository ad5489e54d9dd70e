"""Canonical textual scene serialization handed to resolvers.

The observation is a deterministic function of world state: rows are ordered
by numeric vehicle id and positions are quantised to the cell tolerance, so
equal states render byte-identically and states that differ beyond the
tolerance render differently.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .geometry import RoadNet, four_way, turn_of
from .world import WorldState, exit_segment, occupancy


@dataclass(frozen=True)
class VehicleRow:
    id: str
    lane: str
    s: float
    v: float
    desired: float
    heading: str
    move: str  # straight | left | right | - (not approaching the box)
    stopped_ticks: int
    wrecked: bool
    box_depth: float | None


@dataclass(frozen=True)
class BoxOccupant:
    id: str
    arm: str
    depth: float
    entered_tick: int


@dataclass(frozen=True)
class CollisionRow:
    tick: int
    a: str
    b: str
    location: str


@dataclass(frozen=True)
class SceneObservation:
    tick: int
    road_length: float
    road_lanes: int
    box_size: int
    rows: tuple[VehicleRow, ...]
    box_occupants: tuple[BoxOccupant, ...]
    collisions: tuple[CollisionRow, ...]

    def render(self) -> str:
        lines = [f"TICK {self.tick}"]
        lines.append(f"ROAD four-way length={self.road_length:.1f} lanes={self.road_lanes} box={self.box_size}")
        if self.box_occupants:
            occ = " ".join(f"{o.id}:arm={o.arm}:depth={o.depth:.2f}:entered={o.entered_tick}" for o in self.box_occupants)
            lines.append(f"BOX {occ}")
        else:
            lines.append("BOX empty")
        for r in self.rows:
            depth = f"{r.box_depth:.2f}" if r.box_depth is not None else "-"
            lines.append(
                f"VEHICLE {r.id} lane={r.lane} s={r.s:.2f} v={r.v:.2f} desired={r.desired:.2f} "
                f"heading={r.heading} move={r.move} stopped={r.stopped_ticks} "
                f"wrecked={'yes' if r.wrecked else 'no'} depth={depth}"
            )
        for c in self.collisions:
            lines.append(f"COLLISION tick={c.tick} {c.a}+{c.b} at={c.location}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.render().encode()).hexdigest()

    def vehicle_ids(self) -> list[str]:
        return [r.id for r in self.rows]

    def row(self, vehicle_id: str) -> VehicleRow:
        for r in self.rows:
            if r.id == vehicle_id:
                return r
        raise KeyError(vehicle_id)

    def rebuild_road(self) -> RoadNet:
        # Observations always come from the four-way template.
        return four_way(self.road_length, self.road_lanes, self.box_size)


def _quantise(value: float, tol: float) -> float:
    return round(round(value / tol) * tol, 6)


def observe(world: WorldState) -> SceneObservation:
    """Serialize the full world: every vehicle, box occupancy, recent events."""
    road = world.road
    cfg = world.config
    rows = []
    occupants = []
    _, occ = occupancy(world)
    for vid in world.ordered_ids():
        veh = world.vehicles[vid]
        seg = road.segment(veh.seg)
        move = "-"
        depth = None
        if road.is_inbound(veh.seg):
            out = exit_segment(road, veh)
            if out is not None:
                move = turn_of(road, veh.seg, out)
            d = road.depth_of_front(veh.seg, veh.front)
            if d is not None and d > -60.0:
                depth = round(d, 2)
        elif road.is_outbound(veh.seg) and road.box is not None and veh.rear < road.box.half:
            depth = round(road.box.half + veh.front, 2)
        rows.append(
            VehicleRow(
                id=vid,
                lane=veh.lane,
                s=_quantise(veh.s, cfg.cell_tolerance),
                v=round(-veh.v if veh.reversing else veh.v, 2),
                desired=round(veh.desired, 2),
                heading=seg.direction,
                move=move,
                stopped_ticks=veh.stopped_ticks,
                wrecked=veh.wrecked,
                box_depth=depth,
            )
        )
        if vid in occ:
            arm = road.arm_of(veh.seg) or "-"
            occupants.append(
                BoxOccupant(
                    id=vid,
                    arm=arm,
                    depth=depth if depth is not None else 0.0,
                    entered_tick=veh.box_entry_tick if veh.box_entry_tick is not None else world.tick,
                )
            )
    recent = world.collisions[-10:]
    return SceneObservation(
        tick=world.tick,
        road_length=road.segment(road.inbound[0]).length if road.inbound else 0.0,
        road_lanes=road.segment(road.inbound[0]).lanes if road.inbound else 0,
        box_size=road.box.size if road.box is not None else 0,
        rows=tuple(rows),
        box_occupants=tuple(occupants),
        collisions=tuple(CollisionRow(ev.tick, ev.a, ev.b, ev.location) for ev in recent),
    )
