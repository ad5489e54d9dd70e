"""Output checks, written apart from the program code they check.

Each check reads the program's outputs (world states, plans, reports) as
plain data and recomputes the property with its own code: body intervals,
box extents, speed limits, the resolution conditions of the three anomaly
studies and the fault line of an accident plan.  Each returns a list of
problems; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import re

SHOULDER_LANE = -1  # lane index the world gives the shoulder strip
EPS = 1e-6
RECOVERY_RATIO = 0.6  # mean follower speed / desired speed that ends a ghost jam

_FAULT_LINE = re.compile(r"^\s*FAULT\s+(v-\d+)\s+(\w+)\s*$", re.IGNORECASE | re.MULTILINE)


def _body(veh) -> tuple[float, float]:
    return veh.s - veh.length / 2.0, veh.s + veh.length / 2.0


def lane_overlaps(world) -> list[str]:
    """Non-wrecked bodies sharing a segment lane must not overlap."""
    lanes: dict[tuple[str, int], list[tuple[float, float, str]]] = {}
    for vid, veh in world.vehicles.items():
        if not veh.wrecked:
            lo, hi = _body(veh)
            lanes.setdefault((veh.seg, veh.lane_idx), []).append((lo, hi, vid))
    problems = []
    for (seg, lane), bodies in sorted(lanes.items()):
        bodies.sort()
        # Sorted by rear, any overlap shows between neighbours.
        for (_, hi_a, a), (lo_b, _, b) in zip(bodies, bodies[1:]):
            if lo_b < hi_a - EPS:
                problems.append(f"tick {world.tick}: {a} and {b} overlap on {seg} lane {lane}")
    return problems


def speed_violations(world, v_max: float) -> list[str]:
    return [
        f"tick {world.tick}: {vid} at |v|={abs(veh.v):.3f} > v_max={v_max}"
        for vid, veh in world.vehicles.items()
        if abs(veh.v) > v_max + EPS
    ]


def in_box(world, veh) -> bool:
    """Whether a body on a carriageway lane covers part of the conflict box.

    The box takes the last ``size/2`` metres of each inbound segment and
    the first ``size/2`` metres of each outbound segment.
    """
    if veh.lane_idx == SHOULDER_LANE or world.road.box is None:
        return False
    half = world.road.box.size / 2.0
    lo, hi = _body(veh)
    if veh.seg.startswith("in-"):
        return hi > world.road.segments[veh.seg].length - half + EPS
    if veh.seg.startswith("out-"):
        return lo < half - EPS
    return False


def anomaly_cleared(world, truth) -> bool:
    """The study's resolution condition, recomputed from the world."""
    label = truth.label.value
    roles = truth.roles
    if label == "accident":
        wrecks = [vid for vid, role in roles.items() if role == "wreck"]
        return bool(wrecks) and all(world.vehicles[vid].lane_idx == SHOULDER_LANE for vid in wrecks)
    if label == "ghost_jam":
        followers = [vid for vid, role in roles.items() if role == "follower"]
        ratios = []
        for vid in followers:
            veh = world.vehicles[vid]
            want = truth.desired[vid]
            v = 0.0 if veh.reversing else veh.v
            ratios.append(min(v, want) / want)
        return bool(ratios) and sum(ratios) / len(ratios) >= RECOVERY_RATIO
    if label == "deadlock":
        return not any(in_box(world, veh) for veh in world.vehicles.values())
    raise ValueError(f"no resolution condition for {label}")


def fault_problems(plan_texts: list[str], truth) -> list[str]:
    """An accident plan's single ``FAULT ... primary`` names the violator."""
    violators = [vid for vid, degree in (truth.fault or {}).items() if degree == "primary"]
    problems = []
    for text in plan_texts:
        primaries = [vid.lower() for vid, degree in _FAULT_LINE.findall(text) if degree.lower() == "primary"]
        if primaries != violators:
            problems.append(f"plan names primary fault {primaries}, ground truth is {violators}")
    if not plan_texts:
        problems.append("accident episode made no plan")
    return problems


def world_digest(world) -> str:
    """Digest of every body's full-precision state and the collision log."""
    h = hashlib.sha256()
    for vid in sorted(world.vehicles):
        veh = world.vehicles[vid]
        h.update(f"{vid} {veh.seg} {veh.lane_idx} {veh.s!r} {veh.v!r} {veh.odometer!r} {veh.wrecked}\n".encode())
    for ev in world.collisions:
        h.update(f"{ev.tick} {ev.a} {ev.b}\n".encode())
    return h.hexdigest()


def sane_world(world, v_max: float) -> list[str]:
    return lane_overlaps(world) + speed_violations(world, v_max)


# ── per workload ──────────────────────────────────────────────────────────


def episode_problems(out, v_max: float) -> list[str]:
    """closed_loop: one anomaly episode run with the oracle."""
    ep, metrics, report, _ = out
    truth = ep.truth
    tag = f"{truth.label.value} seed {ep.spec.seed}"
    problems = []
    if not ep.resolved or not report["resolved"]:
        problems.append("episode reports unresolved")
    if not anomaly_cleared(ep.world_final, truth):
        problems.append("final world does not meet the resolution condition")
    if report["control"]["resolved"] is not False:
        problems.append("no-intervention control reports resolved")
    if len(ep.world_final.collisions) != len(ep.world_start.collisions) or metrics.new_collisions != 0:
        problems.append("a new collision was recorded")
    problems += sane_world(ep.world_start, v_max) + sane_world(ep.world_final, v_max)
    if truth.label.value == "accident":
        problems += fault_problems([r.plan_text for r in ep.iterations if r.plan_text is not None], truth)
    return [f"{tag}: {p}" for p in problems]


def control_problems(ep, step, ticks: int) -> list[str]:
    """Step the post-warm-up world with no intervention; it must stay broken."""
    world = ep.world_start
    for _ in range(ticks):
        world = step(world)
        if anomaly_cleared(world, ep.truth):
            return [f"{ep.truth.label.value} seed {ep.spec.seed}: control resolved itself by tick {world.tick}"]
    return []


def dense_problems(out, v_max: float) -> list[str]:
    """dense_traffic: a collision-free scene that needs no plan."""
    ep, _, report, _ = out
    tag = f"{ep.truth.label.value} seed {ep.spec.seed}"
    problems = []
    if ep.iterations:
        problems.append("a plan was made for a scene without an anomaly")
    for world in (ep.world_start, ep.world_final):
        if world.collisions:
            problems.append(f"tick {world.tick}: collisions {[(c.a, c.b) for c in world.collisions]}")
        problems += sane_world(world, v_max)
    stuck = [vid for vid, veh in ep.world_final.vehicles.items() if veh.odometer <= 0.0]
    if stuck:
        problems.append(f"odometer never advanced for {stuck}")
    return [f"{tag}: {p}" for p in problems]


def continuation_problems(world, step, ticks: int, v_max: float) -> list[str]:
    """Keep a dense scene running: no collision and no speed over the limit."""
    for _ in range(ticks):
        world = step(world)
        if world.collisions:
            return [f"tick {world.tick}: collision {world.collisions[0].a}+{world.collisions[0].b}"]
        bad = speed_violations(world, v_max)
        if bad:
            return bad
    return []


def resolution_problems(out, truth, parse, serialize) -> list[str]:
    """resolve_service: one oracle resolution of a post-warm-up world."""
    plan, report, traces, controllers = out
    label = truth.label.value
    problems = []
    scene = traces[0].output.strip() if traces else ""
    if scene != label or plan.label.value != label:
        problems.append(f"scene label {scene!r} / plan label {plan.label.value}, ground truth {label}")
    if label == "deadlock" and set(report.involved) != set(truth.involved):
        problems.append(f"ring {sorted(report.involved)} != ground truth {sorted(truth.involved)}")
    if label == "ghost_jam":
        blockers = {vid for vid, role in truth.roles.items() if role == "blocker"}
        if set(report.involved[:2]) != blockers:
            problems.append(f"blocking pair {report.involved[:2]} != ground truth {sorted(blockers)}")
    if parse(serialize(plan)) != plan:
        problems.append("plan changes under a serialize/parse round trip")
    if len(controllers) != len(plan.commands):
        problems.append(f"{len(plan.commands)} commands compiled into {len(controllers)} controllers")
    return problems
