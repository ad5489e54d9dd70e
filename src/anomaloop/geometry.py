"""Road network: lane segments, the four-way intersection template, and the
conflict-box cell model.

The conflict box is a ``size x size`` grid of 1 m cells shared by the four
approaches.  Each (heading, lane) pair maps to one straight line of cells
through the grid; crossing lines share cells, opposite straights do not.
A vehicle's progress through the box is measured as *depth*: metres along
its path from its own entry edge (0 at entry, ``size`` at exit).  Inbound
segments carry depths ``[0, half]``, outbound segments ``[half, size]``,
so box cells are always cells of ordinary segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

ARMS = ("w", "n", "e", "s")
# Travel heading of traffic coming *from* each arm toward the box.
INBOUND_HEADING = {"w": "E", "n": "S", "e": "W", "s": "N"}
# Heading of traffic leaving the box *onto* each arm.
OUTBOUND_HEADING = {"w": "W", "n": "N", "e": "E", "s": "S"}
# arm reached by going straight / turning left / turning right from each entry.
STRAIGHT_EXIT = {"w": "e", "n": "s", "e": "w", "s": "n"}
LEFT_EXIT = {"w": "n", "n": "e", "e": "s", "s": "w"}
RIGHT_EXIT = {"w": "s", "n": "w", "e": "n", "s": "e"}

SHOULDER = -1  # lane index of the per-segment shoulder strip


@dataclass(frozen=True)
class LaneSegment:
    id: str
    length: float
    lanes: int
    direction: str  # compass heading of travel: E/W/N/S


@dataclass(frozen=True)
class ConflictBox:
    size: int = 12

    @property
    def half(self) -> float:
        return self.size / 2.0


def _line_of(heading: str, lane: int, size: int) -> tuple[str, int]:
    """Grid line used by (heading, lane): ('row'|'col', index).

    Right-hand traffic: lane 0 is the rightmost lane of its heading.
    """
    lo = size // 2 - 2  # first of the four central lines (4 for size 12)
    if heading == "E":
        return ("row", lo + lane)
    if heading == "W":
        return ("row", lo + 3 - lane)
    if heading == "S":
        return ("col", lo + lane)
    if heading == "N":
        return ("col", lo + 3 - lane)
    raise ValueError(f"bad heading {heading!r}")


def _cell_at(heading: str, lane: int, depth: int, size: int) -> tuple[int, int]:
    """Grid cell at integer depth along the (heading, lane) line."""
    kind, idx = _line_of(heading, lane, size)
    d = min(max(depth, 0), size - 1)
    if heading == "E":
        return (d, idx)
    if heading == "W":
        return (size - 1 - d, idx)
    if heading == "S":
        return (idx, size - 1 - d)
    return (idx, d)


def cells_for_depth_range(heading: str, lane: int, lo: float, hi: float, size: int) -> set[tuple[int, int]]:
    """Cells touched by a body spanning depths [lo, hi) along one line."""
    if hi <= 0 or lo >= size or hi <= lo:
        return set()
    first = max(0, math.floor(lo))
    last = min(size - 1, math.ceil(hi) - 1)
    return {_cell_at(heading, lane, d, size) for d in range(first, last + 1)}


@dataclass(frozen=True)
class RoadNet:
    """Segment graph plus optional four-way conflict box."""

    segments: dict[str, LaneSegment]
    box: ConflictBox | None = None
    inbound: tuple[str, ...] = ()
    outbound: tuple[str, ...] = ()
    # inbound segment id -> intersection entry arm
    approaches: dict[str, str] = field(default_factory=dict)
    # outbound segment id -> inbound segment it feeds when routes loop
    loops: dict[str, str] = field(default_factory=dict)

    def segment(self, seg_id: str) -> LaneSegment:
        return self.segments[seg_id]

    def is_inbound(self, seg_id: str) -> bool:
        return seg_id in self.approaches

    def is_outbound(self, seg_id: str) -> bool:
        return seg_id in self.outbound

    def arm_of(self, seg_id: str) -> str | None:
        if seg_id in self.approaches:
            return self.approaches[seg_id]
        if self.is_outbound(seg_id):
            return seg_id.split("-", 1)[1]
        return None

    def validate(self) -> None:
        if self.box is not None:
            if len(self.inbound) != 4 or len(self.outbound) != 4:
                raise ValueError("four-way template requires 4 inbound and 4 outbound segments")
            for seg_id in (*self.inbound, *self.outbound):
                if seg_id not in self.segments:
                    raise ValueError(f"unknown segment {seg_id!r}")

    # ── conflict-box mapping ──────────────────────────────────────────────

    def depth_of_front(self, seg_id: str, s_front: float) -> float | None:
        """Signed depth of a body front on an approach: negative while still
        short of entry."""
        if self.box is None:
            return None
        return s_front - (self.segments[seg_id].length - self.box.half)

    def box_cells_for_interval(self, seg_id: str, lane: int, lo: float, hi: float) -> set[tuple[int, int]]:
        """Box cells covered by body interval [lo, hi] on a segment lane."""
        if self.box is None or lane == SHOULDER:
            return set()
        size = self.box.size
        half = self.box.half
        seg = self.segments[seg_id]
        if self.is_inbound(seg_id):
            d_lo = lo - (seg.length - half)
            d_hi = hi - (seg.length - half)
            return cells_for_depth_range(seg.direction, lane, d_lo, min(d_hi, half), size)
        if self.is_outbound(seg_id):
            d_lo = half + lo
            d_hi = half + hi
            return cells_for_depth_range(seg.direction, lane, max(d_lo, half), d_hi, size)
        return set()

    def crossing_path_cells(self, in_seg: str, out_seg: str, lane: int, from_depth: float) -> list[tuple[int, int]]:
        """Remaining cells of the in->out path through the box, nearest first.

        Straight routes follow one line end to end.  Turning routes follow
        the entry line to the corner shared with the exit line, then the
        exit line outward; the corner approximation is coarse but
        conservative for yielding decisions.
        """
        if self.box is None:
            return []
        size = self.box.size
        h_in = self.segments[in_seg].direction
        h_out = self.segments[out_seg].direction
        full = _path_cells(h_in, h_out, lane, size)
        start = max(0, math.floor(from_depth))
        return list(full[start:])

    def path_cells(self, in_seg: str, out_seg: str, lane: int) -> frozenset[tuple[int, int]]:
        """Every cell of the in->out path through the box."""
        if self.box is None:
            return frozenset()
        h_in = self.segments[in_seg].direction
        h_out = self.segments[out_seg].direction
        return _path_cell_set(h_in, h_out, lane, self.box.size)


@lru_cache(maxsize=None)
def _path_cells(h_in: str, h_out: str, lane: int, size: int) -> tuple[tuple[int, int], ...]:
    if h_in == h_out:
        return tuple(_cell_at(h_in, lane, d, size) for d in range(size))
    entry_kind, entry_idx = _line_of(h_in, lane, size)
    exit_kind, exit_idx = _line_of(h_out, lane, size)
    assert entry_kind != exit_kind, "turning path requires perpendicular lines"
    cells: list[tuple[int, int]] = []
    for d in range(size):
        cell = _cell_at(h_in, lane, d, size)
        cells.append(cell)
        # Stop once the entry line meets the exit line.
        if (entry_kind == "row" and cell[0] == exit_idx) or (entry_kind == "col" and cell[1] == exit_idx):
            break
    corner = cells[-1]
    exit_line = [_cell_at(h_out, lane, d, size) for d in range(size)]
    # Walk the exit line outward from the corner.
    if corner in exit_line:
        start = exit_line.index(corner) + 1
    else:
        # Closest exit-line cell to the corner.
        start = min(range(size), key=lambda k: abs(exit_line[k][0] - corner[0]) + abs(exit_line[k][1] - corner[1]))
    cells.extend(exit_line[start:])
    return tuple(cells)


@lru_cache(maxsize=None)
def _path_cell_set(h_in: str, h_out: str, lane: int, size: int) -> frozenset[tuple[int, int]]:
    return frozenset(_path_cells(h_in, h_out, lane, size))


def turn_of(road: RoadNet, in_seg: str, out_seg: str) -> str:
    """Classify the in->out movement: straight, left, or right."""
    arm_in = road.approaches.get(in_seg)
    arm_out = road.arm_of(out_seg)
    if arm_in is None or arm_out is None:
        return "straight"
    if STRAIGHT_EXIT[arm_in] == arm_out:
        return "straight"
    if LEFT_EXIT[arm_in] == arm_out:
        return "left"
    if RIGHT_EXIT[arm_in] == arm_out:
        return "right"
    return "straight"


def four_way(length: float = 200.0, lanes: int = 2, box_size: int = 12) -> RoadNet:
    """The standard template: one intersection, four arms, two-way traffic.

    Inbound segments run from the arm tip to the box centre; outbound
    segments run from the centre outward.  ``loops`` describes the u-turn
    continuation used by circulating routes.
    """
    segments: dict[str, LaneSegment] = {}
    inbound = []
    outbound = []
    approaches = {}
    loops = {}
    for arm in ARMS:
        in_id = f"in-{arm}"
        out_id = f"out-{arm}"
        segments[in_id] = LaneSegment(in_id, length, lanes, INBOUND_HEADING[arm])
        segments[out_id] = LaneSegment(out_id, length, lanes, OUTBOUND_HEADING[arm])
        inbound.append(in_id)
        outbound.append(out_id)
        approaches[in_id] = arm
        loops[out_id] = f"in-{arm}"
    net = RoadNet(
        segments=segments,
        box=ConflictBox(box_size),
        inbound=tuple(inbound),
        outbound=tuple(outbound),
        approaches=approaches,
        loops=loops,
    )
    net.validate()
    return net
