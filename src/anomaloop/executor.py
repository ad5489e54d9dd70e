"""Compile validated plans into per-vehicle controllers and drive the world.

:func:`compile_plan` makes one :class:`VehicleController` per plan command.
It holds the command itself plus what compilation decides: the cruise target
of a ``move_forward``, and the deadlock phasing.  :func:`_activate` is the one
place that maps a verb to what it does in the world.

``move_forward`` is a one-shot driver re-parameterisation: ``increase`` can
only raise the vehicle's cruise speed toward the compiled target, ``decrease``
only lower it, ``maintain`` leaves it alone; afterwards the default
car-following rule drives.  ``move_backward``, ``change_lane_left/right``,
``stop`` and ``relocate`` install the world controllers ``Reverse``,
``LaneShift``, ``Halt`` and ``Relocate`` and are polled to completion; a
polled move blocked for more than ``hold_limit`` ticks safety-stops.

Deadlock plans execute in two phases: every reversal completes (or
safety-stops) before forward commands activate, and reversed vehicles are
then released back into traffic one at a time as the conflict box clears.
See the "Execution" section of ``docs/grammar.md``.
"""

from __future__ import annotations

import enum
import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from . import commands
from .commands import AnomalyLabel, InterventionCommand, SpeedChange, ValidatedPlan, Verb
from .config import SimConfig
from .geometry import SHOULDER
from .world import (
    Halt,
    LaneShift,
    Relocate,
    Reverse,
    WorldState,
    at_rest,
    box_cells_of,
    fast_forward,
    step,
    vid_num,
)


class StalePlan(Exception):
    def __init__(self, age: int, bound: int):
        super().__init__(f"plan is {age} ticks old, staleness bound is {bound}")


class Status(enum.Enum):
    PENDING = "pending"
    ACTIVE = "active"
    DONE = "done"
    SAFETY_STOPPED = "safety-stopped"


@dataclass
class VehicleController:
    vehicle: str
    command: InterventionCommand
    target: float | None = None  # compiled cruise target of a move_forward
    phase: int = 0
    hold_after: bool = False  # kept stopped after completion until released
    release_rank: int | None = None
    status: Status = Status.PENDING
    activated_tick: int | None = None
    completed_tick: int | None = None
    start_s: float | None = None
    displacement: float | None = None
    released: bool = False


@dataclass
class ExecutionLog:
    records: list[dict] = field(default_factory=list)
    ticks_run: int = 0
    resolution_tick: int | None = None
    safety_stops: int = 0

    def add(self, tick: int, event: str, **fields) -> None:
        self.records.append({"tick": tick, "event": event, **fields})

    def digest(self) -> str:
        payload = json.dumps(self.records, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def compile_plan(vplan: ValidatedPlan, world: WorldState, cfg: SimConfig | None = None) -> list[VehicleController]:
    """One controller per plan command; deadlock reversals get the barrier."""
    cfg = cfg or world.config
    age = world.tick - vplan.tick
    if age >= cfg.staleness_bound:
        raise StalePlan(age, cfg.staleness_bound)
    deadlock = vplan.plan.label is AnomalyLabel.DEADLOCK
    controllers: list[VehicleController] = []
    release_rank = 0
    for cmd in vplan.plan.commands:
        ctl = VehicleController(cmd.vehicle, cmd)
        current = world.vehicle(cmd.vehicle).v
        if cmd.verb is Verb.MOVE_FORWARD:
            if cmd.speed is SpeedChange.INCREASE:
                ctl.target = min(cfg.v_max, current + 3.0)
            elif cmd.speed is SpeedChange.DECREASE:
                ctl.target = max(0.0, current - 3.0)
            else:
                ctl.target = current
            ctl.phase = 1 if deadlock else 0
        elif cmd.verb is Verb.MOVE_BACKWARD and deadlock:
            ctl.hold_after = True
            ctl.release_rank = release_rank
            release_rank += 1
        controllers.append(ctl)
    return controllers


def _ring_clear(world: WorldState, ring: set[str]) -> bool:
    """True when none of the plan's vehicles still occupies the box."""
    for vid in ring:
        veh = world.vehicles.get(vid)
        if veh is not None and veh.lane_idx != SHOULDER and box_cells_of(world.road, veh):
            return False
    return True


def _activate(ctl: VehicleController, world: WorldState, log: ExecutionLog) -> None:
    veh = world.vehicles[ctl.vehicle]
    ctl.status = Status.ACTIVE
    ctl.activated_tick = world.tick
    ctl.start_s = veh.s
    cmd = ctl.command
    if cmd.verb is Verb.MOVE_FORWARD:
        mode = cmd.speed or SpeedChange.MAINTAIN
        if isinstance(veh.controller, Halt):
            veh.controller = None
        if mode is SpeedChange.INCREASE:
            veh.desired = max(veh.desired, ctl.target)
        elif mode is SpeedChange.DECREASE:
            veh.desired = min(veh.desired, ctl.target)
        ctl.status = Status.DONE
        ctl.completed_tick = world.tick
        log.add(world.tick, "forward", vehicle=ctl.vehicle, mode=mode.value, target=round(ctl.target, 3))
    elif cmd.verb is Verb.MOVE_BACKWARD:
        veh.controller = Reverse(remaining=cmd.distance_m)
        log.add(world.tick, "reverse_start", vehicle=ctl.vehicle, distance=cmd.distance_m)
    elif cmd.verb in (Verb.CHANGE_LANE_LEFT, Verb.CHANGE_LANE_RIGHT):
        direction = "left" if cmd.verb is Verb.CHANGE_LANE_LEFT else "right"
        veh.controller = LaneShift(direction=direction)
        log.add(world.tick, "lane_change_start", vehicle=ctl.vehicle, direction=direction)
    elif cmd.verb is Verb.STOP:
        veh.controller = Halt()
        log.add(world.tick, "stop", vehicle=ctl.vehicle)
    elif cmd.verb is Verb.RELOCATE:
        veh.controller = Relocate(advance=cmd.distance_m)
        log.add(world.tick, "relocate_start", vehicle=ctl.vehicle, distance=cmd.distance_m)


# Verbs polled to completion: the world controller `_activate` installed for
# them and the program name their log events carry.
_POLLED = {
    Verb.MOVE_BACKWARD: (Reverse, "reverse"),
    Verb.CHANGE_LANE_LEFT: (LaneShift, "lane_change"),
    Verb.CHANGE_LANE_RIGHT: (LaneShift, "lane_change"),
    Verb.RELOCATE: (Relocate, "relocate"),
}


def _poll(ctl: VehicleController, world: WorldState, cfg: SimConfig, log: ExecutionLog) -> None:
    if ctl.status is not Status.ACTIVE:
        return
    veh = world.vehicles[ctl.vehicle]
    verb = ctl.command.verb
    if verb is Verb.STOP:
        if veh.v == 0.0:
            ctl.status = Status.DONE
            ctl.completed_tick = world.tick
            log.add(world.tick, "stopped", vehicle=ctl.vehicle)
        return
    kind, program = _POLLED[verb]
    inner = veh.controller
    if not isinstance(inner, kind):  # wrecked mid-move or controller displaced
        ctl.status = Status.SAFETY_STOPPED
        log.safety_stops += 1
        log.add(world.tick, "safety_stop", vehicle=ctl.vehicle, program=program, detail="controller lost")
        return
    if not inner.done and inner.held <= cfg.hold_limit:
        return
    reverse = verb is Verb.MOVE_BACKWARD
    if reverse:
        ctl.displacement = ctl.start_s - veh.s
    veh.controller = Halt(exec_hold=True) if ctl.hold_after else None
    if not inner.done:
        ctl.status = Status.SAFETY_STOPPED
        log.safety_stops += 1
        log.add(world.tick, "safety_stop", vehicle=ctl.vehicle, program=program)
        return
    ctl.status = Status.DONE
    ctl.completed_tick = world.tick
    if reverse:
        log.add(world.tick, "reverse_done", vehicle=ctl.vehicle, displacement=round(ctl.displacement, 4))
    else:
        if verb is Verb.RELOCATE:
            ctl.displacement = abs(veh.s - ctl.start_s)
        log.add(world.tick, f"{program}_done", vehicle=ctl.vehicle, lane=veh.lane)


def execute(
    world: WorldState,
    controllers: list[VehicleController],
    budget: int,
    stop_when: Callable[[WorldState], bool] | None = None,
) -> tuple[WorldState, ExecutionLog]:
    """Run controllers to completion within ``budget`` ticks.

    With ``stop_when`` the loop keeps stepping after all controllers finish
    (the world needs to drain for the predicate to become observable) and
    stops at the first tick the predicate holds.
    """
    cfg = world.config
    w = world.clone()
    log = ExecutionLog()
    phase = 0
    release_queue = sorted(
        (c for c in controllers if c.hold_after),
        key=lambda c: (c.release_rank if c.release_rank is not None else 0),
    )
    ring = {c.vehicle for c in controllers}
    terminal = (Status.DONE, Status.SAFETY_STOPPED)

    for _ in range(budget):
        for ctl in controllers:
            if ctl.status is Status.PENDING and ctl.phase <= phase:
                _activate(ctl, w, log)
        collisions_before = len(w.collisions)
        w = step(w)
        log.ticks_run += 1
        if len(w.collisions) > collisions_before:
            for ev in w.collisions[collisions_before:]:
                log.add(w.tick, "collision", vehicles=[ev.a, ev.b], location=ev.location)
        for ctl in controllers:
            _poll(ctl, w, cfg, log)
        if phase == 0 and all(c.status in terminal for c in controllers if c.phase == 0):
            phase = 1
            if any(c.phase == 1 for c in controllers):
                log.add(w.tick, "phase_barrier")
        # Sequenced release of held reversers once the plan's own vehicles
        # have drained out of the box; the released vehicle then re-enters
        # under the normal right-of-way gating.
        if phase == 1:
            pending_release = [c for c in release_queue if not c.released and c.status in terminal]
            if pending_release and _ring_clear(w, ring):
                ctl = pending_release[0]
                veh = w.vehicles[ctl.vehicle]
                if isinstance(veh.controller, Halt) and veh.controller.exec_hold:
                    veh.controller = None
                ctl.released = True
                log.add(w.tick, "release", vehicle=ctl.vehicle)
        if stop_when is not None and stop_when(w):
            log.resolution_tick = w.tick
            log.add(w.tick, "resolved")
            break
        if stop_when is None:
            all_terminal = all(c.status in terminal for c in controllers)
            releases_left = any(not c.released for c in release_queue)
            if all_terminal and not releases_left:
                break
    return w, log


# ── the closed loop ───────────────────────────────────────────────────────


@dataclass
class IterationRecord:
    index: int
    obs_digest: str
    traces: tuple
    plan_text: str | None
    log: ExecutionLog | None
    failure: str | None = None
    failed_stage: str | None = None


@dataclass
class EpisodeResult:
    spec: object
    truth: object
    world_start: WorldState  # post warm-up snapshot the loop started from
    world_final: WorldState
    iterations: list[IterationRecord]
    resolved: bool
    exec_start_tick: int | None
    resolution_tick: int | None
    ticks_executed: int
    before_speeds: dict[str, float]
    after_speeds: dict[str, float]
    tracked: tuple[str, ...]


def tracked_vehicles(truth) -> tuple[str, ...]:
    ids = list(truth.involved)
    for vid, role in truth.roles.items():
        if role in ("follower", "queued") and vid not in ids:
            ids.append(vid)
    return tuple(sorted(ids, key=vid_num))


def run_closed_loop(spec, resolver, cfg: SimConfig | None = None) -> EpisodeResult:
    """build -> warm-up -> {observe -> resolve -> validate -> compile ->
    execute} until resolved or budgets exhausted."""
    from .observation import observe
    from .pipeline import StageFailure, run_pipeline
    from .scenarios import build, is_resolved

    cfg = cfg or SimConfig()
    world, truth = build(spec, cfg)
    tracked = tracked_vehicles(truth)

    # Warm-up, recording the last ``after_window`` speed samples.  A world at
    # rest keeps its speeds, so the samples it would still take repeat the
    # last one.
    window: deque[dict[str, float]] = deque(maxlen=cfg.after_window)
    for done in range(1, cfg.warmup_ticks + 1):
        before, world = world, step(world)
        speeds = {vid: world.vehicles[vid].v for vid in tracked}
        window.append(speeds)
        if at_rest(before, world):
            left = cfg.warmup_ticks - done
            window.extend([speeds] * min(left, cfg.after_window))
            world = fast_forward(world, left)
            break
    before_speeds = {
        vid: sum(sample[vid] for sample in window) / len(window) for vid in tracked
    } if window else {}

    world_start = world.clone()
    iterations: list[IterationRecord] = []
    resolved = is_resolved(world, truth)
    exec_start_tick: int | None = None
    resolution_tick: int | None = None
    ticks_executed = 0

    for index in range(spec.resolve_budget):
        if resolved:
            break
        obs = observe(world)
        try:
            plan, report, traces = run_pipeline(obs, resolver)
        except StageFailure as failure:
            iterations.append(
                IterationRecord(index, obs.digest(), failure.traces, None, None,
                                failure=failure.detail, failed_stage=failure.stage.value)
            )
            continue
        plan_text = commands.serialize(plan)
        try:
            vplan = commands.validate(plan, obs)
        except commands.PlanValidationError as err:
            iterations.append(
                IterationRecord(index, obs.digest(), tuple(traces), plan_text, None, failure=str(err))
            )
            continue
        controllers = compile_plan(vplan, world, cfg)
        budget = min(cfg.exec_budget, spec.tick_budget - ticks_executed)
        if budget <= 0:
            break
        if exec_start_tick is None:
            exec_start_tick = world.tick
        world, log = execute(world, controllers, budget, stop_when=lambda w: is_resolved(w, truth))
        ticks_executed += log.ticks_run
        iterations.append(IterationRecord(index, vplan.obs_digest, tuple(traces), plan_text, log))
        if log.resolution_tick is not None:
            resolved = True
            resolution_tick = log.resolution_tick

    # Post-resolution settling window, measured on a continuation copy so the
    # reported final state is the resolution-tick state.
    after_speeds: dict[str, float] = {}
    cont = world.clone()
    totals = {vid: 0.0 for vid in tracked}
    for _ in range(cfg.after_window):
        cont = step(cont)
        for vid in tracked:
            totals[vid] += cont.vehicles[vid].v
    if cfg.after_window:
        after_speeds = {vid: total / cfg.after_window for vid, total in totals.items()}

    return EpisodeResult(
        spec=spec,
        truth=truth,
        world_start=world_start,
        world_final=world,
        iterations=iterations,
        resolved=resolved,
        exec_start_tick=exec_start_tick,
        resolution_tick=resolution_tick,
        ticks_executed=ticks_executed,
        before_speeds=before_speeds,
        after_speeds=after_speeds,
        tracked=tracked,
    )
