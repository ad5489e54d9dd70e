"""Four-stage resolution pipeline: Scene -> Analysis -> Solution -> Formatting.

Each stage consumes the previous stage's text output, so any backend that
speaks the stage text contracts can drive the loop.  The deterministic
rule-based oracle lives here; the HTTP-backed resolver is in ``remote``.

Stage text contracts:

* Scene: a single label token (``normal`` .. ``accident``).
* Analysis: ``LABEL:``/``CAUSE:``/``INVOLVED:``/``NARRATIVE:`` lines.
* Solution: draft plan text (the command grammar, possibly unpolished).
* Formatting: canonical plan text that must parse under the grammar.
"""

from __future__ import annotations

import enum
import hashlib
import time
from dataclasses import dataclass

from . import commands
from .commands import AnomalyLabel, PlanParseError, ResolutionPlan
from .config import SimConfig
from .geometry import LEFT_EXIT, RIGHT_EXIT, SHOULDER, STRAIGHT_EXIT
from .observation import SceneObservation, VehicleRow
from .world import vid_num


class Stage(enum.Enum):
    SCENE = "Scene"
    ANALYSIS = "Analysis"
    SOLUTION = "Solution"
    FORMATTING = "Formatting"


STAGES = (Stage.SCENE, Stage.ANALYSIS, Stage.SOLUTION, Stage.FORMATTING)


class CauseCode(enum.Enum):
    SLOW_PAIR_BLOCKING = "slow_pair_blocking"
    RIGHT_OF_WAY_GRIDLOCK = "right_of_way_gridlock"
    FAILURE_TO_YIELD = "failure_to_yield"
    IMPROPER_LANE_CHANGE = "improper_lane_change"
    NONE = "none"


_CAUSES_FOR_LABEL = {
    AnomalyLabel.NORMAL: {CauseCode.NONE},
    AnomalyLabel.CONGESTION: {CauseCode.NONE},
    AnomalyLabel.GHOST_JAM: {CauseCode.SLOW_PAIR_BLOCKING},
    AnomalyLabel.DEADLOCK: {CauseCode.RIGHT_OF_WAY_GRIDLOCK},
    AnomalyLabel.ACCIDENT: {CauseCode.FAILURE_TO_YIELD, CauseCode.IMPROPER_LANE_CHANGE},
}


@dataclass(frozen=True)
class AnalysisReport:
    label: AnomalyLabel
    cause: CauseCode
    involved: tuple[str, ...]
    narrative: str = ""


@dataclass(frozen=True)
class StageTrace:
    stage: Stage
    input_digest: str
    output: str
    duration_s: float


@dataclass
class StageContext:
    obs: SceneObservation
    obs_text: str
    scene_output: str = ""
    analysis_output: str = ""
    solution_output: str = ""
    reask_diagnostics: str = ""


class StageFailure(Exception):
    def __init__(self, stage: Stage, detail: str, traces: tuple[StageTrace, ...] = ()):
        self.stage = stage
        self.detail = detail
        self.traces = traces
        super().__init__(f"{stage.value} stage failed: {detail}")


class InconsistentScene(Exception):
    """The label's structural pattern is absent from the observation."""


class NoFeasibleAction(Exception):
    """No executable intervention exists (e.g. a reverse path is blocked)."""


class Resolver:
    """Backend interface: produce each stage's text for a given context.

    ``capabilities`` declares which stages the backend claims to handle;
    a failed stage must raise :class:`StageFailure`, never invent output.
    """

    name = "resolver"

    def __init__(self):
        self.capabilities = {stage: True for stage in STAGES}

    def run_stage(self, stage: Stage, ctx: StageContext) -> str:
        raise NotImplementedError


# ── scene helpers ─────────────────────────────────────────────────────────


def _lane_of(row: VehicleRow) -> tuple[str, int]:
    seg, _, idx = row.lane.rpartition(":")
    return seg, (SHOULDER if idx == "sh" else int(idx))


def _find_slow_pair(obs: SceneObservation, cfg: SimConfig) -> tuple[VehicleRow, VehicleRow] | None:
    """Two content crawlers side by side, away from the intersection."""
    candidates = []
    for row in obs.rows:
        if row.wrecked or row.desired <= 0:
            continue
        v = abs(row.v)
        if 0.3 <= v <= cfg.slow_pair_speed and v >= 0.8 * row.desired:
            if row.box_depth is None or row.box_depth < -15.0:
                candidates.append(row)
    for i, a in enumerate(candidates):
        for b in candidates[i + 1 :]:
            seg_a, lane_a = _lane_of(a)
            seg_b, lane_b = _lane_of(b)
            if seg_a == seg_b and abs(lane_a - lane_b) == 1 and abs(a.s - b.s) <= 3.0:
                pair = (a, b) if lane_a < lane_b else (b, a)
                if len(_queued_behind(obs, pair)) >= 3:
                    return pair
    return None


def _queued_behind(obs: SceneObservation, pair: tuple[VehicleRow, VehicleRow]) -> list[VehicleRow]:
    seg, _ = _lane_of(pair[0])
    tail = min(pair[0].s, pair[1].s)
    queued = [
        row
        for row in obs.rows
        if row.id not in (pair[0].id, pair[1].id)
        and _lane_of(row)[0] == seg
        and row.s < tail
        and not row.wrecked
        and row.desired > 0
        and abs(row.v) < 0.5 * row.desired
    ]
    queued.sort(key=lambda r: (-r.s, vid_num(r.id)))
    return queued


def _stalled_in_box(obs: SceneObservation, cfg: SimConfig) -> list[VehicleRow]:
    out = []
    for row in obs.rows:
        if row.box_depth is None or _lane_of(row)[1] == SHOULDER:
            continue
        if row.box_depth > -cfg.box_adjacency and abs(row.v) < 0.05 and row.stopped_ticks >= cfg.deadlock_window:
            out.append(row)
    return out


def classify_scene(obs: SceneObservation, cfg: SimConfig | None = None) -> AnomalyLabel:
    """Decision rules with fixed precedence:
    Accident > Deadlock > GhostJam > Congestion > Normal."""
    cfg = cfg or SimConfig()
    if obs.collisions or any(row.wrecked for row in obs.rows):
        return AnomalyLabel.ACCIDENT
    if len(_stalled_in_box(obs, cfg)) >= 4:
        return AnomalyLabel.DEADLOCK
    if _find_slow_pair(obs, cfg) is not None:
        return AnomalyLabel.GHOST_JAM
    rows = [row for row in obs.rows if row.desired > 0]
    if rows:
        mean_v = sum(abs(row.v) for row in rows) / len(rows)
        mean_desired = sum(row.desired for row in rows) / len(rows)
        if mean_desired > 0 and mean_v < 0.5 * mean_desired:
            return AnomalyLabel.CONGESTION
    return AnomalyLabel.NORMAL


# ── analysis ──────────────────────────────────────────────────────────────


def _exit_arm(row: VehicleRow) -> str | None:
    seg, _ = _lane_of(row)
    if not seg.startswith("in-"):
        return None
    arm = seg[3:]
    if row.move == "straight":
        return STRAIGHT_EXIT[arm]
    if row.move == "left":
        return LEFT_EXIT[arm]
    if row.move == "right":
        return RIGHT_EXIT[arm]
    return None


def _box_bodies(obs: SceneObservation, road, cfg: SimConfig) -> dict[str, set]:
    bodies = {}
    half_len = cfg.vehicle_length / 2.0
    for row in obs.rows:
        seg, lane = _lane_of(row)
        if lane == SHOULDER:
            continue
        cells = road.box_cells_for_interval(seg, lane, row.s - half_len, row.s + half_len)
        if cells:
            bodies[row.id] = cells
    return bodies


def _deadlock_ring(obs: SceneObservation, cfg: SimConfig) -> list[str]:
    """Cycle of mutually blocking vehicles, in waits-for order."""
    road = obs.rebuild_road()
    stalled = {row.id: row for row in _stalled_in_box(obs, cfg)}
    bodies = _box_bodies(obs, road, cfg)
    edges: dict[str, list[str]] = {}
    for vid, row in stalled.items():
        seg, lane = _lane_of(row)
        exit_arm = _exit_arm(row)
        if exit_arm is None or row.box_depth is None:
            continue
        remaining = road.crossing_path_cells(seg, f"out-{exit_arm}", lane, max(row.box_depth, 0.0))
        own = bodies.get(vid, set())
        blockers = []
        for cell in remaining:
            if cell in own:
                continue
            for ovid, cells in bodies.items():
                if ovid != vid and cell in cells and ovid in stalled:
                    blockers.append(ovid)
            if blockers:
                break
        edges[vid] = sorted(set(blockers), key=vid_num)

    # Find a cycle by walking lowest-id successors.
    for start in sorted(edges, key=vid_num):
        path: list[str] = []
        seen: dict[str, int] = {}
        node = start
        while node in edges and edges[node]:
            if node in seen:
                cycle = path[seen[node]:]
                pivot = min(range(len(cycle)), key=lambda i: vid_num(cycle[i]))
                return cycle[pivot:] + cycle[:pivot]
            seen[node] = len(path)
            path.append(node)
            node = edges[node][0]
    return []


def analyze(obs: SceneObservation, label: AnomalyLabel, cfg: SimConfig | None = None) -> AnalysisReport:
    """Identify involved vehicles and the cause behind a non-normal label."""
    cfg = cfg or SimConfig()
    if label is AnomalyLabel.NORMAL:
        raise ValueError("analysis precondition: label != Normal")

    if label is AnomalyLabel.GHOST_JAM:
        pair = _find_slow_pair(obs, cfg)
        if pair is None:
            raise InconsistentScene("no slow side-by-side pair in scene")
        queued = _queued_behind(obs, pair)
        involved = (pair[0].id, pair[1].id) + tuple(row.id for row in queued)
        narrative = (
            f"{pair[0].id} and {pair[1].id} crawl side by side at about "
            f"{abs(pair[0].v):.1f} m/s and hold both lanes; {len(queued)} vehicles "
            "are queued behind with no way to overtake."
        )
        return AnalysisReport(label, CauseCode.SLOW_PAIR_BLOCKING, involved, narrative)

    if label is AnomalyLabel.DEADLOCK:
        ring = _deadlock_ring(obs, cfg)
        if len(ring) < 3:
            raise InconsistentScene("no waits-for cycle at the intersection")
        narrative = (
            "vehicles "
            + ", ".join(ring)
            + " hold the intersection in a circular blocking pattern; each waits on the next and none can proceed."
        )
        return AnalysisReport(label, CauseCode.RIGHT_OF_WAY_GRIDLOCK, tuple(ring), narrative)

    if label is AnomalyLabel.ACCIDENT:
        wrecked = [row for row in obs.rows if row.wrecked]
        if len(wrecked) < 2:
            raise InconsistentScene("fewer than two wrecked vehicles in scene")
        if obs.collisions:
            last = obs.collisions[-1]
            pair = [row for row in wrecked if row.id in (last.a, last.b)]
            if len(pair) == 2:
                wrecked = pair
        wrecked = wrecked[:2]
        turners = [row for row in wrecked if row.move in ("left", "right")]
        if len(turners) == 1:
            violator = turners[0]
            cause = CauseCode.FAILURE_TO_YIELD
        else:
            entry = {o.id: o.entered_tick for o in obs.box_occupants}
            wrecked.sort(key=lambda r: (entry.get(r.id, 0), vid_num(r.id)))
            violator = wrecked[-1]
            cause = CauseCode.IMPROPER_LANE_CHANGE
        victim = next(row for row in wrecked if row.id != violator.id)
        narrative = (
            f"{violator.id} entered the intersection against {victim.id}'s right of way and they collided; "
            "both block the crossing paths."
        )
        return AnalysisReport(label, cause, (violator.id, victim.id), narrative)

    # Congestion: everyone is slow, nobody in particular is to blame.
    slow = [row for row in obs.rows if row.desired > 0 and abs(row.v) < 0.3 * row.desired and not row.wrecked]
    slow.sort(key=lambda r: vid_num(r.id))
    narrative = "demand exceeds intersection capacity; queues on every approach with no single blocking vehicle."
    return AnalysisReport(label, CauseCode.NONE, tuple(row.id for row in slow[:8]), narrative)


# ── solution ──────────────────────────────────────────────────────────────


def solve(report: AnalysisReport, obs: SceneObservation, cfg: SimConfig | None = None) -> str:
    """Draft plan text for the analysed anomaly (the command grammar)."""
    cfg = cfg or SimConfig()
    label = report.label
    if label is AnomalyLabel.NORMAL:
        return "PLAN normal"

    if label is AnomalyLabel.GHOST_JAM:
        b_keep, b_move = report.involved[0], report.involved[1]
        keep_lane = _lane_of(obs.row(b_keep))[1]
        move_lane = _lane_of(obs.row(b_move))[1]
        direction = "right" if move_lane > keep_lane else "left"
        lines = [
            "PLAN ghost_jam",
            f"ACTION {b_keep} move_forward speed=increase",
            f"ACTION {b_move} change_lane_{direction}",
        ]
        for vid in report.involved[2:]:
            lines.append(f"ACTION {vid} move_forward speed=increase")
        return "\n".join(lines)

    if label is AnomalyLabel.DEADLOCK:
        ring = list(report.involved)
        proceeder = _pick_proceeder(ring, obs)
        reversers = [vid for vid in ring if vid != proceeder]
        reversers.sort(key=lambda vid: (-(obs.row(vid).box_depth or 0.0), vid_num(vid)))
        lines = ["PLAN deadlock"]
        for vid in reversers:
            depth = obs.row(vid).box_depth or 0.0
            dist = min(6.0, max(5.0, round(depth + 1.0, 1)))
            _check_reverse_room(vid, dist, obs, cfg)
            lines.append(f"ACTION {vid} move_backward distance_m={dist:g}")
        lines.append(f"ACTION {proceeder} move_forward speed=maintain")
        return "\n".join(lines)

    if label is AnomalyLabel.ACCIDENT:
        violator, victim = report.involved[0], report.involved[1]
        return "\n".join(
            [
                "PLAN accident",
                f"FAULT {violator} primary",
                f"FAULT {victim} none",
                f"ACTION {violator} relocate distance_m=8",
                f"ACTION {victim} relocate distance_m=8",
            ]
        )

    # Congestion: nudge the stalled vehicles along.
    targets = list(report.involved) or [row.id for row in obs.rows[:3]]
    lines = ["PLAN congestion"]
    for vid in targets:
        lines.append(f"ACTION {vid} move_forward speed=increase")
    return "\n".join(lines)


def _pick_proceeder(ring: list[str], obs: SceneObservation) -> str:
    """The ring vehicle whose exit lane is unoccupied; ties to lowest id."""
    free = []
    for vid in sorted(ring, key=vid_num):
        row = obs.row(vid)
        exit_arm = _exit_arm(row)
        if exit_arm is None:
            continue
        exit_seg = f"out-{exit_arm}"
        occupied = any(
            _lane_of(r)[0] == exit_seg and _lane_of(r)[1] != SHOULDER and r.s < 40.0
            for r in obs.rows
            if r.id != vid
        )
        if not occupied:
            free.append(vid)
    pool = free or sorted(ring, key=vid_num)
    return min(pool, key=vid_num)


def _check_reverse_room(vid: str, dist: float, obs: SceneObservation, cfg: SimConfig) -> None:
    row = obs.row(vid)
    seg, lane = _lane_of(row)
    rear = row.s - cfg.vehicle_length / 2.0
    for other in obs.rows:
        if other.id == vid:
            continue
        oseg, olane = _lane_of(other)
        if oseg == seg and olane == lane and other.s < row.s:
            room = rear - (other.s + cfg.vehicle_length / 2.0)
            if room < dist + 0.5:
                raise NoFeasibleAction(f"reverse path of {vid} blocked by {other.id}")


# ── stage text parsing ────────────────────────────────────────────────────


def parse_scene_output(text: str) -> AnomalyLabel | None:
    token = text.strip().lower().replace(" ", "_")
    for label in AnomalyLabel:
        if token == label.value:
            return label
    # Accept a first-line answer with trailing commentary.
    first = text.strip().splitlines()[0].strip().lower().replace(" ", "_") if text.strip() else ""
    for label in AnomalyLabel:
        if first == label.value:
            return label
    return None


def render_analysis(report: AnalysisReport) -> str:
    involved = ", ".join(report.involved)
    return (
        f"LABEL: {report.label.value}\n"
        f"CAUSE: {report.cause.value}\n"
        f"INVOLVED: {involved}\n"
        f"NARRATIVE: {report.narrative}"
    )


def parse_analysis_output(text: str, obs: SceneObservation, scene_label: AnomalyLabel) -> AnalysisReport:
    """Parse and consistency-check an Analysis stage answer."""
    fields = {}
    narrative_lines = []
    in_narrative = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        key, _, value = line.partition(":")
        key_lower = key.strip().lower()
        if key_lower in ("label", "cause", "involved") and _:
            fields[key_lower] = value.strip()
            in_narrative = False
        elif key_lower == "narrative" and _:
            narrative_lines.append(value.strip())
            in_narrative = True
        elif in_narrative:
            narrative_lines.append(line)
    if "label" not in fields or "cause" not in fields:
        raise InconsistentScene("analysis output missing LABEL/CAUSE lines")
    label_token = fields["label"].lower().replace(" ", "_")
    try:
        label = AnomalyLabel(label_token)
    except ValueError:
        raise InconsistentScene(f"unknown analysis label {fields['label']!r}") from None
    if label is not scene_label:
        raise InconsistentScene(f"analysis label {label.value} contradicts scene label {scene_label.value}")
    try:
        cause = CauseCode(fields["cause"].lower().strip())
    except ValueError:
        raise InconsistentScene(f"unknown cause code {fields['cause']!r}") from None
    if cause not in _CAUSES_FOR_LABEL[label]:
        raise InconsistentScene(f"cause {cause.value} inconsistent with label {label.value}")
    involved = tuple(tok.strip().lower() for tok in fields.get("involved", "").split(",") if tok.strip())
    known = set(obs.vehicle_ids())
    unknown = [vid for vid in involved if vid not in known]
    if unknown:
        raise InconsistentScene(f"analysis names vehicles not in scene: {unknown}")
    return AnalysisReport(label, cause, involved, " ".join(narrative_lines))


# ── the oracle resolver ───────────────────────────────────────────────────


class OracleResolver(Resolver):
    """Deterministic rule-based backend: the reference resolution policy."""

    name = "oracle"

    def __init__(self, cfg: SimConfig | None = None):
        super().__init__()
        self.cfg = cfg or SimConfig()

    def run_stage(self, stage: Stage, ctx: StageContext) -> str:
        try:
            if stage is Stage.SCENE:
                return classify_scene(ctx.obs, self.cfg).value
            if stage is Stage.ANALYSIS:
                label = parse_scene_output(ctx.scene_output)
                if label is None:
                    raise StageFailure(stage, "no scene label to analyse")
                if label is AnomalyLabel.NORMAL:
                    report = AnalysisReport(label, CauseCode.NONE, (), "free-flowing traffic; nothing to resolve.")
                else:
                    report = analyze(ctx.obs, label, self.cfg)
                return render_analysis(report)
            if stage is Stage.SOLUTION:
                scene_label = parse_scene_output(ctx.scene_output)
                report = parse_analysis_output(ctx.analysis_output, ctx.obs, scene_label)
                return solve(report, ctx.obs, self.cfg)
            if stage is Stage.FORMATTING:
                plan = commands.parse(ctx.solution_output)
                return commands.serialize(plan)
        except StageFailure:
            raise
        except (InconsistentScene, NoFeasibleAction, PlanParseError) as exc:
            raise StageFailure(stage, str(exc)) from exc
        raise StageFailure(stage, f"unsupported stage {stage}")


# ── the pipeline driver ───────────────────────────────────────────────────


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_pipeline(
    obs: SceneObservation,
    resolver: Resolver,
) -> tuple[ResolutionPlan, AnalysisReport, list[StageTrace]]:
    """Drive the four stages strictly in order and parse the final plan.

    Raises :class:`StageFailure` carrying the traces recorded so far.
    """
    ctx = StageContext(obs=obs, obs_text=obs.render())
    traces: list[StageTrace] = []

    def timed(stage: Stage, stage_input: str) -> str:
        t0 = time.perf_counter()
        try:
            out = resolver.run_stage(stage, ctx)
        except StageFailure as exc:
            duration = time.perf_counter() - t0
            traces.append(StageTrace(stage, _digest(stage_input), f"<failure: {exc.detail}>", duration))
            raise StageFailure(exc.stage, exc.detail, tuple(traces)) from exc
        duration = time.perf_counter() - t0
        traces.append(StageTrace(stage, _digest(stage_input), out, duration))
        return out

    ctx.scene_output = timed(Stage.SCENE, ctx.obs_text)
    label = parse_scene_output(ctx.scene_output)
    if label is None:
        raise StageFailure(Stage.SCENE, f"classification refused: {ctx.scene_output[:80]!r}", tuple(traces))

    ctx.analysis_output = timed(Stage.ANALYSIS, ctx.scene_output)
    try:
        report = parse_analysis_output(ctx.analysis_output, obs, label)
    except InconsistentScene as exc:
        raise StageFailure(Stage.ANALYSIS, str(exc), tuple(traces)) from exc

    ctx.solution_output = timed(Stage.SOLUTION, ctx.analysis_output)
    if label is not AnomalyLabel.NORMAL and not ctx.solution_output.strip():
        raise StageFailure(Stage.SOLUTION, "empty solution for a non-normal scene", tuple(traces))

    # Formatting allows exactly one re-ask carrying the parser diagnostics;
    # both attempts share one trace so a resolution always has four traces.
    t0 = time.perf_counter()

    def formatting_failure(detail: str) -> StageFailure:
        duration = time.perf_counter() - t0
        traces.append(StageTrace(Stage.FORMATTING, _digest(ctx.solution_output), f"<failure: {detail}>", duration))
        return StageFailure(Stage.FORMATTING, detail, tuple(traces))

    try:
        formatted = resolver.run_stage(Stage.FORMATTING, ctx)
    except StageFailure as exc:
        raise formatting_failure(exc.detail) from exc
    try:
        plan = commands.parse(formatted)
    except PlanParseError as first_err:
        ctx.reask_diagnostics = str(first_err)
        try:
            formatted = resolver.run_stage(Stage.FORMATTING, ctx)
        except StageFailure as exc:
            raise formatting_failure(exc.detail) from exc
        try:
            plan = commands.parse(formatted)
        except PlanParseError as second_err:
            raise formatting_failure(f"unparseable after re-ask: {second_err}") from second_err
    traces.append(StageTrace(Stage.FORMATTING, _digest(ctx.solution_output), formatted, time.perf_counter() - t0))
    if plan.label is not label:
        raise StageFailure(
            Stage.FORMATTING,
            f"formatted plan label {plan.label.value} contradicts scene label {label.value}",
            tuple(traces),
        )
    return plan, report, traces
