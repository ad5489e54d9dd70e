"""Batch runner, report/transcript writers, timing table, conformance check.

Transcripts are JSON-lines (one event per record); reports are single JSON
documents.  With a fixed config and seed the oracle path is deterministic,
so both artifacts are byte-identical across runs once wall-clock duration
fields are stripped (see :func:`strip_durations`).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .commands import AnomalyLabel
from .config import ConfigError, SimConfig
from .executor import EpisodeResult, run_closed_loop
from .metrics import ControlRun, Metrics, compute_metrics, run_control
from .observation import observe
from .pipeline import STAGES, OracleResolver, Resolver, StageFailure, run_pipeline
from .scenarios import ScenarioSpec, build, warm_up

DURATION_KEYS = {
    "duration_s",
    "stage_durations_s",
    "total_duration_s",
    "scene_s",
    "analysis_s",
    "solution_s",
    "formatting_s",
    "total_s",
}


def strip_durations(value):
    """Remove wall-clock fields so deterministic runs compare byte-equal."""
    if isinstance(value, dict):
        return {k: strip_durations(v) for k, v in value.items() if k not in DURATION_KEYS}
    if isinstance(value, list):
        return [strip_durations(v) for v in value]
    return value


# ── resolver construction ─────────────────────────────────────────────────


@dataclass(frozen=True)
class ResolverSpec:
    """Picklable recipe for building a resolver inside worker processes."""

    kind: str  # "oracle" | "remote"
    endpoint: str = ""
    model: str = ""

    def __post_init__(self):
        if self.kind not in ("oracle", "remote"):
            raise ConfigError(f"unknown resolver {self.kind!r}", field="resolver")
        if self.kind == "remote" and not (self.endpoint and self.model):
            raise ConfigError("remote resolver needs --endpoint and --model")

    def create(self, cfg: SimConfig) -> Resolver:
        if self.kind == "oracle":
            return OracleResolver(cfg)
        # Imported here: only remote runs need the HTTP and TLS modules `remote` loads.
        from .remote import EndpointConfig, RemoteResolver

        return RemoteResolver(EndpointConfig(base_url=self.endpoint, model=self.model))


# ── single episode ────────────────────────────────────────────────────────


def spec_to_dict(spec: ScenarioSpec) -> dict:
    return {
        "kind": spec.kind.value,
        "seed": spec.seed,
        "params": dict(spec.params),
        "tick_budget": spec.tick_budget,
        "resolve_budget": spec.resolve_budget,
    }


def episode_report(ep: EpisodeResult, metrics: Metrics, control: ControlRun) -> dict:
    iterations = []
    for record in ep.iterations:
        entry: dict = {
            "index": record.index,
            "observation_digest": record.obs_digest,
            "stages": [
                {
                    "stage": t.stage.value,
                    "input_digest": t.input_digest,
                    "output": t.output,
                    "duration_s": t.duration_s,
                }
                for t in record.traces
            ],
            "plan_text": record.plan_text,
        }
        if record.failure is not None:
            entry["failure"] = record.failure
            entry["failed_stage"] = record.failed_stage
        if record.log is not None:
            entry["execution"] = {
                "digest": record.log.digest(),
                "ticks": record.log.ticks_run,
                "resolution_tick": record.log.resolution_tick,
                "safety_stops": record.log.safety_stops,
            }
        iterations.append(entry)
    truth = ep.truth
    return {
        "spec": spec_to_dict(ep.spec),
        "ground_truth": {
            "label": truth.label.value,
            "involved": list(truth.involved),
            "fault": dict(truth.fault) if truth.fault else None,
            "roles": dict(truth.roles),
        },
        "tracked": list(ep.tracked),
        "iterations": iterations,
        "resolved": ep.resolved,
        "final_world_digest": ep.world_final.digest(),
        "metrics": metrics.to_dict(),
        "control": {"resolved": control.resolved_ever},
    }


def episode_transcript(ep: EpisodeResult, metrics: Metrics) -> list[dict]:
    events: list[dict] = [
        {"event": "episode_start", "kind": ep.spec.kind.value, "seed": ep.spec.seed},
        {"event": "warmup_done", "tick": ep.world_start.tick},
    ]
    for record in ep.iterations:
        events.append({"event": "iteration_start", "index": record.index, "observation_digest": record.obs_digest})
        for t in record.traces:
            events.append(
                {
                    "event": "stage",
                    "stage": t.stage.value,
                    "input_digest": t.input_digest,
                    "output_digest": hashlib.sha256(t.output.encode()).hexdigest(),
                    "duration_s": t.duration_s,
                }
            )
        if record.failure is not None:
            events.append({"event": "iteration_failed", "index": record.index, "stage": record.failed_stage, "detail": record.failure})
        if record.plan_text is not None:
            events.append({"event": "plan", "text": record.plan_text})
        if record.log is not None:
            for rec in record.log.records:
                events.append({"event": "exec", **rec})
            events.append(
                {
                    "event": "execution_done",
                    "index": record.index,
                    "ticks": record.log.ticks_run,
                    "resolution_tick": record.log.resolution_tick,
                    "safety_stops": record.log.safety_stops,
                }
            )
    events.append({"event": "episode_end", "resolved": ep.resolved, "time_to_clear": metrics.time_to_clear})
    return events


def run_episode(spec: ScenarioSpec, resolver_spec: ResolverSpec, cfg: SimConfig):
    resolver = resolver_spec.create(cfg)
    ep = run_closed_loop(spec, resolver, cfg)
    control = run_control(ep, cfg)
    metrics = compute_metrics(ep, control)
    report = episode_report(ep, metrics, control)
    transcript = episode_transcript(ep, metrics)
    return ep, metrics, report, transcript


def write_episode_artifacts(out_dir: str | Path, report: dict, transcript: list[dict]) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "transcript.jsonl", "w") as fh:
        for event in transcript:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ── batch ─────────────────────────────────────────────────────────────────


def _batch_job(args):
    index, spec, resolver_spec, cfg = args
    _, metrics, report, transcript = run_episode(spec, resolver_spec, cfg)
    for event in transcript:
        event["episode"] = index
    return index, report, transcript


def batch_specs(kinds: list[AnomalyLabel], seeds: list[int], repetitions: int = 1) -> list[ScenarioSpec]:
    return [
        ScenarioSpec(kind=kind, seed=seed)
        for kind in kinds
        for seed in seeds
        for _ in range(repetitions)
    ]


def run_batch(
    specs: list[ScenarioSpec],
    resolver_spec: ResolverSpec,
    cfg: SimConfig,
    workers: int = 1,
):
    """Run episodes (parallel across episodes, deterministic per episode)."""
    jobs = [(i, spec, resolver_spec, cfg) for i, spec in enumerate(specs)]
    results: list[tuple[int, dict, list[dict]]] = []
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_batch_job, jobs))
    else:
        results = [_batch_job(job) for job in jobs]
    results.sort(key=lambda item: item[0])
    reports = [r for _, r, _ in results]
    transcript = [event for _, _, events in results for event in events]
    timing = timing_rows(reports)
    batch_report = {
        "episodes": reports,
        "all_resolved": all(r["resolved"] for r in reports),
        "timing": timing,
    }
    return batch_report, transcript


def timing_rows(reports: list[dict]) -> list[dict]:
    """Per-kind mean stage durations in the four-stage + Total layout.

    Total is the sum of the four stage columns, computed before any
    rounding (full-precision floats are written as-is).
    """
    by_kind: dict[str, list[dict]] = {}
    for report in reports:
        by_kind.setdefault(report["spec"]["kind"], []).append(report["metrics"]["stage_durations_s"])
    rows = []
    for kind in sorted(by_kind):
        entries = by_kind[kind]
        n = len(entries)
        scene = sum(e["Scene"] for e in entries) / n
        analysis = sum(e["Analysis"] for e in entries) / n
        solution = sum(e["Solution"] for e in entries) / n
        formatting = sum(e["Formatting"] for e in entries) / n
        rows.append(
            {
                "kind": kind,
                "scene_s": scene,
                "analysis_s": analysis,
                "solution_s": solution,
                "formatting_s": formatting,
                "total_s": scene + analysis + solution + formatting,
            }
        )
    return rows


def timing_table_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["kind", "scene_s", "analysis_s", "solution_s", "formatting_s", "total_s"])
    for row in rows:
        writer.writerow(
            [row["kind"], repr(row["scene_s"]), repr(row["analysis_s"]), repr(row["solution_s"]),
             repr(row["formatting_s"]), repr(row["total_s"])]
        )
    return buf.getvalue()


def write_batch_artifacts(out_dir: str | Path, batch_report: dict, transcript: list[dict]) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "transcript.jsonl", "w") as fh:
        for event in transcript:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
    with open(out / "report.json", "w") as fh:
        json.dump(batch_report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    (out / "timing_table.csv").write_text(timing_table_csv(batch_report["timing"]))


# ── conformance ───────────────────────────────────────────────────────────


def conformance_suite(seeds: int = 3) -> list[ScenarioSpec]:
    return [ScenarioSpec(kind=kind, seed=seed) for kind in AnomalyLabel for seed in range(seeds)]


def run_conformance(resolver: Resolver, cfg: SimConfig, seeds: int = 3) -> dict:
    """Drive the pipeline over the scenario suite and mark each stage.

    A stage passes only if every suite episode completes it; stages after a
    failure are unreached and fail with it.
    """
    from .commands import PlanValidationError, validate

    passed = {stage.value: True for stage in STAGES}
    episodes = []
    for spec in conformance_suite(seeds):
        world, truth = build(spec, cfg)
        world = warm_up(world, cfg)
        obs = observe(world)
        outcome = {"kind": spec.kind.value, "seed": spec.seed, "failed_stage": None}
        try:
            plan, report, traces = run_pipeline(obs, resolver)
            try:
                validate(plan, obs)
            except PlanValidationError as err:
                outcome["failed_stage"] = "Formatting"
                outcome["detail"] = str(err)
        except StageFailure as failure:
            outcome["failed_stage"] = failure.stage.value
            outcome["detail"] = failure.detail
        if outcome["failed_stage"] is not None:
            reached = False
            for stage in STAGES:
                if stage.value == outcome["failed_stage"]:
                    reached = True
                if reached:
                    passed[stage.value] = False
        episodes.append(outcome)
    return {
        "resolver": resolver.name,
        "stages": passed,
        "capabilities": {stage.value: bool(resolver.capabilities.get(stage, True)) for stage in STAGES},
        "episodes": episodes,
    }


def format_conformance(checklist: dict) -> str:
    cols = [stage.value for stage in STAGES]
    header = f"{'resolver':<12}" + "".join(f"{c:<12}" for c in cols)
    marks = "".join(f"{'✓' if checklist['stages'][c] else '✗':<12}" for c in cols)
    return header + "\n" + f"{checklist['resolver']:<12}" + marks
