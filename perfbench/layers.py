"""Which program functions the traced run wraps, and the per-layer metrics
computed from the spans.

Every per-layer metric comes from the timed window of the traced run.  Times
and counts are given per operation (an episode or a resolution), so a run
that completes more operations does not read as a slower layer; ratios are
taken where the work happens.  Layers a workload does not use read 0.
"""

from __future__ import annotations

import importlib

# (module, function, span name) — the public entry points of each layer.
FUNCTIONS = (
    ("world", "step", "world.step"),
    ("world", "detect_collisions", "world.detect_collisions"),
    ("scenarios", "build", "scenarios.build"),
    ("scenarios", "warm_up", "scenarios.warm_up"),
    ("scenarios", "is_resolved", "scenarios.is_resolved"),
    ("metrics", "run_control", "metrics.run_control"),
    ("metrics", "compute_metrics", "metrics.compute_metrics"),
    ("executor", "compile_plan", "executor.compile_plan"),
    ("executor", "execute", "executor.execute"),
    ("executor", "run_closed_loop", "executor.run_closed_loop"),
    ("observation", "observe", "observation.observe"),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("pipeline", "classify_scene", "pipeline.classify_scene"),
    ("pipeline", "analyze", "pipeline.analyze"),
    ("pipeline", "solve", "pipeline.solve"),
    ("commands", "parse", "commands.parse"),
    ("commands", "validate", "commands.validate"),
    ("commands", "serialize", "commands.serialize"),
    ("remote", "chat_completion", "remote.chat_completion"),
    ("remote", "build_messages", "remote.build_messages"),
    ("remote", "load_template", "remote.load_template"),
    ("harness", "run_episode", "harness.run_episode"),
    ("harness", "episode_report", "harness.episode_report"),
    ("harness", "episode_transcript", "harness.episode_transcript"),
)

STAGES = ("Scene", "Analysis", "Solution", "Formatting")


# ── hooks: counts measured where the work happens ─────────────────────────


def _on_step(tracer, frame, args, result):
    tracer.count("world.vehicle_ticks", len(args[0].vehicles))
    parent = tracer.parent()
    if parent is not None and parent.name == "metrics.run_control":
        tracer.count("metrics.control_ticks")


def _on_is_resolved(tracer, frame, args, result):
    # run_control tests the start state, then the state after every tick
    # until the first success, so the n-th test (from 0) sees tick n.
    parent = tracer.parent()
    if parent is None or parent.name != "metrics.run_control":
        return
    tested = parent.notes.get("tested", 0)
    if result and "resolved_at" not in parent.notes:
        parent.notes["resolved_at"] = tested
    parent.notes["tested"] = tested + 1


def _on_run_control(tracer, frame, args, result):
    # Useful control ticks: up to the later of the ticks the episode executed
    # (the travel-time sample point) and the first tick the control resolves.
    ep = args[0]
    horizon = max(ep.ticks_executed, ep.spec.tick_budget)
    resolved_at = frame.notes.get("resolved_at", horizon)
    tracer.count("metrics.control_ticks_useful", min(horizon, max(ep.ticks_executed, resolved_at)))


def _on_stage(tracer, frame, args, result):
    parent = tracer.parent()
    if args[1].value == "Formatting" and parent is not None and parent.name == "pipeline.run_pipeline":
        parent.notes["formatting"] = parent.notes.get("formatting", 0) + 1


def _on_run_pipeline(tracer, frame, args, result):
    tracer.count("pipeline.formatting_reasks", max(0, frame.notes.get("formatting", 0) - 1))


def _stage_name(args) -> str:
    return f"pipeline.stage.{args[1].value}"


HOOKS = {
    "world.step": _on_step,
    "scenarios.is_resolved": _on_is_resolved,
    "metrics.run_control": _on_run_control,
    "pipeline.run_pipeline": _on_run_pipeline,
}


def install(tracer) -> None:
    modules = {name: importlib.import_module(f"anomaloop.{name}") for name, _, _ in FUNCTIONS}
    for mod_name, attr, span in FUNCTIONS:
        tracer.patch_function(modules[mod_name], attr, span, hook=HOOKS.get(span))
    for cls in (modules["pipeline"].OracleResolver, modules["remote"].RemoteResolver):
        tracer.patch_method(cls, "run_stage", "pipeline.stage", namer=_stage_name, hook=_on_stage)
    tracer.patch_method(modules["observation"].SceneObservation, "render", "observation.render")


# ── metrics ───────────────────────────────────────────────────────────────

PER_LAYER = (
    ("world.step.calls", "calls/op"),
    ("world.step.self_s", "s/op"),
    ("world.step.us_per_vehicle_tick", "us"),
    ("world.detect_collisions.s", "s/op"),
    ("metrics.run_control.s", "s/op"),
    ("metrics.control_ticks", "ticks/op"),
    ("metrics.control_ticks_useful", "ticks/op"),
    ("metrics.control_useful_share", "ratio"),
    ("metrics.mean_clear_sim_s", "s"),
    ("scenarios.build.s", "s/op"),
    ("scenarios.build.setup_s", "s"),
    ("scenarios.warm_up.setup_s", "s"),
    ("scenarios.is_resolved.calls", "calls/op"),
    ("scenarios.is_resolved.s", "s/op"),
    ("executor.execute.self_s", "s/op"),
    ("executor.compile_plan.s", "s/op"),
    ("observation.observe.s", "s/op"),
    ("observation.renders_per_resolve", "ratio"),
    ("pipeline.run_pipeline.self_s", "s/op"),
    ("pipeline.stage.Scene.s", "s/op"),
    ("pipeline.stage.Analysis.s", "s/op"),
    ("pipeline.stage.Solution.s", "s/op"),
    ("pipeline.stage.Formatting.s", "s/op"),
    ("pipeline.formatting_reasks", "count/op"),
    ("commands.parse.calls_per_resolve", "ratio"),
    ("commands.parse.s", "s/op"),
    ("commands.validate.s", "s/op"),
    ("commands.serialize.s", "s/op"),
    ("remote.chat_completion.calls", "calls/op"),
    ("remote.chat_completion.s", "s/op"),
    ("remote.attempts_per_call", "ratio"),
    ("remote.build_messages.s", "s/op"),
    ("remote.load_template.s", "s/op"),
    ("remote.requests_per_connection", "ratio"),
    ("stub.serve_s", "s/op"),
    ("harness.run_episode.self_s", "s/op"),
    ("harness.episode_report.s", "s/op"),
    ("harness.episode_transcript.s", "s/op"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(tracer, ops: int, mean_clear_sim_s: float, stub_stats: dict | None) -> dict[str, float]:
    """Per-layer values from the timed window; ``ops`` timed operations."""
    t = tracer
    per_op = lambda x: _ratio(x, ops)  # noqa: E731
    resolves = t.calls("pipeline.run_pipeline")
    control_ticks = t.counter("metrics.control_ticks")
    useful = t.counter("metrics.control_ticks_useful")
    values = {
        "world.step.calls": per_op(t.calls("world.step")),
        "world.step.self_s": per_op(t.self_s("world.step")),
        "world.step.us_per_vehicle_tick": 1e6 * _ratio(t.total_s("world.step"), t.counter("world.vehicle_ticks")),
        "world.detect_collisions.s": per_op(t.total_s("world.detect_collisions")),
        "metrics.run_control.s": per_op(t.total_s("metrics.run_control")),
        "metrics.control_ticks": per_op(control_ticks),
        "metrics.control_ticks_useful": per_op(useful),
        "metrics.control_useful_share": _ratio(useful, control_ticks),
        "metrics.mean_clear_sim_s": mean_clear_sim_s,
        "scenarios.build.s": per_op(t.total_s("scenarios.build")),
        "scenarios.build.setup_s": t.total_s("scenarios.build", phase="setup"),
        "scenarios.warm_up.setup_s": t.total_s("scenarios.warm_up", phase="setup"),
        "scenarios.is_resolved.calls": per_op(t.calls("scenarios.is_resolved")),
        "scenarios.is_resolved.s": per_op(t.total_s("scenarios.is_resolved")),
        "executor.execute.self_s": per_op(t.self_s("executor.execute")),
        "executor.compile_plan.s": per_op(t.total_s("executor.compile_plan")),
        "observation.observe.s": per_op(t.total_s("observation.observe")),
        "observation.renders_per_resolve": _ratio(t.calls("observation.render"), resolves),
        "pipeline.run_pipeline.self_s": per_op(t.self_s("pipeline.run_pipeline")),
        "pipeline.formatting_reasks": per_op(t.counter("pipeline.formatting_reasks")),
        "commands.parse.calls_per_resolve": _ratio(t.calls("commands.parse"), resolves),
        "commands.parse.s": per_op(t.total_s("commands.parse")),
        "commands.validate.s": per_op(t.total_s("commands.validate")),
        "commands.serialize.s": per_op(t.total_s("commands.serialize")),
        "remote.chat_completion.calls": per_op(t.calls("remote.chat_completion")),
        "remote.chat_completion.s": per_op(t.total_s("remote.chat_completion")),
        "remote.build_messages.s": per_op(t.total_s("remote.build_messages")),
        "remote.load_template.s": per_op(t.total_s("remote.load_template")),
        "harness.run_episode.self_s": per_op(t.self_s("harness.run_episode")),
        "harness.episode_report.s": per_op(t.total_s("harness.episode_report")),
        "harness.episode_transcript.s": per_op(t.total_s("harness.episode_transcript")),
    }
    for stage in STAGES:
        values[f"pipeline.stage.{stage}.s"] = per_op(t.total_s(f"pipeline.stage.{stage}"))
    # The stub's counts run from its start to the end of the timed window,
    # so they are set against the chat calls of every traced phase.
    stub = stub_stats or {}
    all_calls = sum(t.calls("remote.chat_completion", phase=p) for p in t.agg)
    requests = stub.get("requests", 0)
    values["remote.attempts_per_call"] = _ratio(requests, all_calls)
    values["remote.requests_per_connection"] = _ratio(requests, stub.get("connections", 0))
    values["stub.serve_s"] = _ratio(stub.get("serve_s", 0.0), requests) * _ratio(
        t.calls("remote.chat_completion") * values["remote.attempts_per_call"], ops
    )
    return {name: values[name] for name, _ in PER_LAYER}
