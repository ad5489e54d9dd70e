"""The tracer: self time, patching of names imported into other modules,
per-layer counts, and traced outputs equal to untraced ones."""

from __future__ import annotations

import types

import checks
import layers
from anomaloop import executor, harness, metrics, scenarios, world
from anomaloop.commands import AnomalyLabel
from anomaloop.config import SimConfig
from anomaloop.scenarios import ScenarioSpec
from spans import Tracer

CFG = SimConfig()


def test_self_time_is_span_time_minus_children():
    tracer = Tracer()
    mod = types.SimpleNamespace()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))

    def outer():
        inner()
        inner()
        return sum(range(20000))

    mod.outer = tracer.wrap("outer", outer)
    mod.outer()
    calls, total, self_s = tracer.agg["setup"]["outer"]
    assert calls == 1 and tracer.calls("inner", "setup") == 2
    assert abs(self_s + tracer.total_s("inner", "setup") - total) < 1e-9
    assert 0 < self_s < total
    names = [span[0] for span in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]


def test_step_is_patched_wherever_it_was_imported_and_restored():
    original = world.step
    tracer = Tracer()
    tracer.patch_function(world, "step", "world.step")
    try:
        for mod in (world, executor, metrics, scenarios):
            assert mod.step is not original and mod.step.__wrapped__ is original
    finally:
        tracer.uninstall()
    for mod in (world, executor, metrics, scenarios):
        assert mod.step is original


def run(kind, seed, traced, **params):
    tracer = Tracer()
    if traced:
        layers.install(tracer)
        tracer.phase = "timed"
    try:
        out = harness.run_episode(ScenarioSpec(kind=kind, seed=seed, params=params), harness.ResolverSpec("oracle"), CFG)
    finally:
        tracer.uninstall()
    return tracer, out


def test_control_ticks_useful_share():
    tracer, _ = run(AnomalyLabel.GHOST_JAM, 0, traced=True)
    values = layers.compute(tracer, 1, 0.0, None)
    assert values["metrics.control_ticks"] == 2000
    assert values["metrics.control_useful_share"] == 1.0
    assert values["observation.renders_per_resolve"] == 4
    assert values["commands.parse.calls_per_resolve"] == 2
    tracer, _ = run(AnomalyLabel.NORMAL, 0, traced=True)
    values = layers.compute(tracer, 1, 0.0, None)
    assert values["metrics.control_ticks"] == 2000
    assert values["metrics.control_ticks_useful"] == 0
    assert values["world.step.calls"] == 2400


def test_traced_outputs_equal_untraced():
    for kind in (AnomalyLabel.DEADLOCK, AnomalyLabel.ACCIDENT):
        _, plain = run(kind, 2, traced=False)
        _, traced = run(kind, 2, traced=True)
        assert checks.world_digest(plain[0].world_final) == checks.world_digest(traced[0].world_final)
        assert [r.plan_text for r in plain[0].iterations] == [r.plan_text for r in traced[0].iterations]
