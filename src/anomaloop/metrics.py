"""Episode metrics: clearance time, speed recovery, travel-time delta.

The travel-time baseline is the deterministic no-intervention continuation
of the same post-warm-up world, sampled after exactly as many ticks as the
episode executed.  The control run stops once its outcome is decided: when
the scene has resolved and the sample tick is past, or when the world comes
to rest and can no longer change.  For a Normal scene no plan executes, so
baseline and episode are the same run and the delta is exactly zero.
Negative deltas mean the intervention saved travel time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import SimConfig
from .executor import EpisodeResult
from .scenarios import is_resolved
from .world import at_rest, step


@dataclass(frozen=True)
class ControlRun:
    """No-intervention counterfactual of one episode."""

    resolved_ever: bool
    distances: dict[str, float]  # odometer gain per tracked vehicle


@dataclass(frozen=True)
class Metrics:
    time_to_clear: int | None  # ticks from first plan execution; None = never
    mean_speed_before: float
    mean_speed_after: float
    travel_time_delta_s: float
    new_collisions: int
    stage_durations_s: dict[str, float]
    total_duration_s: float

    def to_dict(self) -> dict:
        return {
            "time_to_clear": self.time_to_clear,
            "mean_speed_before": round(self.mean_speed_before, 4),
            "mean_speed_after": round(self.mean_speed_after, 4),
            "travel_time_delta_s": round(self.travel_time_delta_s, 4),
            "new_collisions": self.new_collisions,
            "stage_durations_s": self.stage_durations_s,
            "total_duration_s": self.total_duration_s,
        }


def run_control(ep: EpisodeResult, cfg: SimConfig) -> ControlRun:
    """Step the post-warm-up world with no intervention.

    Tests whether the anomaly dissolves on its own within the tick budget;
    distances are sampled at the episode's executed-tick count so they
    compare like for like.  The run ends as soon as both outputs are fixed:
    once the scene has resolved and the sample tick is past, or once the
    world is at rest, where neither the resolution predicate nor any
    odometer can change again (so an unreached sample equals the current
    distances).
    """
    world = ep.world_start
    start_odo = {vid: world.vehicles[vid].odometer for vid in ep.tracked}
    sample_at = ep.ticks_executed
    distances: dict[str, float] = {vid: 0.0 for vid in ep.tracked}
    resolved_ever = is_resolved(world, ep.truth)
    for i in range(max(sample_at, ep.spec.tick_budget)):
        if resolved_ever and i >= sample_at:
            break
        before, world = world, step(world)
        if not resolved_ever:
            resolved_ever = is_resolved(world, ep.truth)
        resting = at_rest(before, world)
        if i < sample_at and (resting or i + 1 == sample_at):
            distances = {vid: world.vehicles[vid].odometer - start_odo[vid] for vid in ep.tracked}
        if resting:
            break
    return ControlRun(resolved_ever=resolved_ever, distances=distances)


def compute_metrics(ep: EpisodeResult, control: ControlRun) -> Metrics:
    time_to_clear = None
    if ep.resolution_tick is not None and ep.exec_start_tick is not None:
        time_to_clear = ep.resolution_tick - ep.exec_start_tick

    tracked = ep.tracked
    mean_before = sum(ep.before_speeds.get(v, 0.0) for v in tracked) / len(tracked) if tracked else 0.0
    mean_after = sum(ep.after_speeds.get(v, 0.0) for v in tracked) / len(tracked) if tracked else 0.0

    start_odo = {vid: ep.world_start.vehicles[vid].odometer for vid in tracked}
    delta = 0.0
    for vid in tracked:
        desired = ep.truth.desired.get(vid, 0.0)
        if desired <= 0:
            continue
        episode_d = ep.world_final.vehicles[vid].odometer - start_odo[vid]
        control_d = control.distances.get(vid, 0.0)
        delta += (control_d - episode_d) / desired

    stage_totals: dict[str, float] = {"Scene": 0.0, "Analysis": 0.0, "Solution": 0.0, "Formatting": 0.0}
    for record in ep.iterations:
        for trace in record.traces:
            stage_totals[trace.stage.value] += trace.duration_s
    total = stage_totals["Scene"] + stage_totals["Analysis"] + stage_totals["Solution"] + stage_totals["Formatting"]

    new_collisions = len(ep.world_final.collisions) - len(ep.world_start.collisions)
    return Metrics(
        time_to_clear=time_to_clear,
        mean_speed_before=mean_before,
        mean_speed_after=mean_after,
        travel_time_delta_s=delta,
        new_collisions=new_collisions,
        stage_durations_s=stage_totals,
        total_duration_s=total,
    )
