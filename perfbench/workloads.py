"""The benchmark's workloads.

Every workload is a closed loop with one client: a round is a fixed list of
operations made from the workload seed, and the run repeats whole rounds.
An operation is an episode (closed_loop, dense_traffic) or a resolution
(resolve_service, remote_resolve).  Scenario seeds are drawn from
``range(SEED_SPACE)``; every seed in it was run through each workload
without a failed operation or a failed check.

The program is called through module attributes (``harness.run_episode``,
not an imported name), so the traced run's wrappers see each call.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from anomaloop import commands, executor, harness, observation, pipeline, scenarios, world
from anomaloop.commands import AnomalyLabel
from anomaloop.config import SimConfig

import checks

SEED_SPACE = 64
STUDIES = (AnomalyLabel.GHOST_JAM, AnomalyLabel.DEADLOCK, AnomalyLabel.ACCIDENT)
NORMAL_VEHICLES = 12  # three staging rows, all short of the conflict box
CONGESTION_PER_ARM = 8  # the builder's maximum
CONTINUATION_TICKS = 300
STUB = Path(__file__).with_name("stub.py")


def scenario_seeds(seed: int, salt: str, n: int) -> list[int]:
    return random.Random(f"{seed}:{salt}").sample(range(SEED_SPACE), n)


class Workload:
    """Inputs of one workload, the operations of a round and their checks."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = SimConfig()

    def setup(self) -> None:
        """Build the inputs; timed as set-up."""

    def ops(self) -> list[tuple[str, object]]:
        """The round: (key, zero-argument callable) pairs."""
        raise NotImplementedError

    def check(self, key: str, out) -> list[str]:
        """Full check of one operation's output."""
        raise NotImplementedError

    def check_once(self, outputs: dict) -> list[str]:
        """Costlier checks, run once on the first round's outputs."""
        return []

    def fingerprint(self, key: str, out):
        """The deterministic part of an output; equal in every round."""
        raise NotImplementedError

    def counters(self) -> dict:
        """Counts kept outside this process, read at the end of the timed window."""
        return {}

    def finish(self) -> list[str]:
        """Checks that need the whole run; called once after the timed window."""
        return []

    def mean_clear_sim_s(self, outputs: dict) -> float:
        return 0.0

    def close(self) -> None:
        """Stop anything the workload started."""


# ── episodes ──────────────────────────────────────────────────────────────


class _Episodes(Workload):
    def specs(self) -> list[scenarios.ScenarioSpec]:
        raise NotImplementedError

    def setup(self) -> None:
        self.resolver = harness.ResolverSpec("oracle")
        self.by_key = {f"{s.kind.value}-{s.seed}": s for s in self.specs()}

    def ops(self):
        return [(key, lambda spec=spec: harness.run_episode(spec, self.resolver, self.cfg)) for key, spec in self.by_key.items()]

    def fingerprint(self, key, out):
        ep, metrics, report, _ = out
        plans = tuple(r.plan_text for r in ep.iterations)
        return checks.world_digest(ep.world_final), plans, report["control"]["resolved"], metrics.time_to_clear


class ClosedLoop(_Episodes):
    """The paper's three studies through harness.run_episode with the oracle."""

    name = "closed_loop"
    SEEDS_PER_STUDY = 2

    def specs(self):
        return [
            scenarios.ScenarioSpec(kind=kind, seed=s)
            for kind in STUDIES
            for s in scenario_seeds(self.seed, kind.value, self.SEEDS_PER_STUDY)
        ]

    def check(self, key, out):
        return checks.episode_problems(out, self.cfg.v_max)

    def check_once(self, outputs):
        problems, seen = [], set()
        for out in outputs.values():
            ep = out[0]
            if ep.truth.label not in seen:
                seen.add(ep.truth.label)
                problems += checks.control_problems(ep, world.step, ep.spec.tick_budget)
        return problems

    def mean_clear_sim_s(self, outputs):
        ticks = [out[1].time_to_clear for out in outputs.values() if out[1].time_to_clear is not None]
        return self.cfg.dt * sum(ticks) / len(ticks) if ticks else 0.0


class DenseTraffic(_Episodes):
    """normal and congestion scenes at high vehicle counts; no plan is made."""

    name = "dense_traffic"

    def specs(self):
        normal = [
            scenarios.ScenarioSpec(kind=AnomalyLabel.NORMAL, seed=s, params={"vehicles": NORMAL_VEHICLES})
            for s in scenario_seeds(self.seed, "normal", 2)
        ]
        congestion = [
            scenarios.ScenarioSpec(kind=AnomalyLabel.CONGESTION, seed=s, params={"per_arm": CONGESTION_PER_ARM})
            for s in scenario_seeds(self.seed, "congestion", 1)
        ]
        return normal + congestion

    def check(self, key, out):
        return checks.dense_problems(out, self.cfg.v_max)

    def check_once(self, outputs):
        problems = []
        for key, out in outputs.items():
            found = checks.continuation_problems(out[0].world_final, world.step, CONTINUATION_TICKS, self.cfg.v_max)
            problems += [f"{key} continued: {p}" for p in found]
        return problems


# ── resolutions ───────────────────────────────────────────────────────────


class ResolveService(Workload):
    """Resolution requests over post-warm-up worlds of all five kinds."""

    name = "resolve_service"
    SEEDS_PER_KIND = 4

    def setup(self) -> None:
        self.worlds = {}
        for kind in AnomalyLabel:
            for s in scenario_seeds(self.seed, kind.value, self.SEEDS_PER_KIND):
                w, truth = scenarios.build(scenarios.ScenarioSpec(kind=kind, seed=s), self.cfg)
                self.worlds[f"{kind.value}-{s}"] = (scenarios.warm_up(w, self.cfg), truth)
        self.resolver = pipeline.OracleResolver(self.cfg)

    def resolve(self, w, resolver):
        obs = observation.observe(w)
        plan, report, traces = pipeline.run_pipeline(obs, resolver)
        vplan = commands.validate(plan, obs)
        return plan, report, traces, executor.compile_plan(vplan, w, self.cfg)

    def ops(self):
        return [(key, lambda w=w: self.resolve(w, self.resolver)) for key, (w, _) in self.worlds.items()]

    def check(self, key, out):
        found = checks.resolution_problems(out, self.worlds[key][1], commands.parse, commands.serialize)
        return [f"{key}: {p}" for p in found]

    def fingerprint(self, key, out):
        plan, report, traces, controllers = out
        return plan, report.involved, tuple(t.output for t in traces), len(controllers)


class RemoteResolve(ResolveService):
    """The same requests through remote.RemoteResolver and a local stub."""

    name = "remote_resolve"

    def setup(self) -> None:
        from anomaloop import remote

        import stub

        super().setup()
        # Oracle answers for every stage prompt the remote resolver will send.
        table, self.oracle_plans = {}, {}
        for key, (w, _) in self.worlds.items():
            obs = observation.observe(w)
            plan, _, traces = pipeline.run_pipeline(obs, self.resolver)
            self.oracle_plans[key] = plan
            ctx = pipeline.StageContext(obs=obs, obs_text=obs.render())
            for stage, trace in zip(pipeline.STAGES, traces):
                table[stub.prompt_key(remote.build_messages(stage, ctx))] = trace.output
                if stage is pipeline.Stage.SCENE:
                    ctx.scene_output = trace.output
                elif stage is pipeline.Stage.ANALYSIS:
                    ctx.analysis_output = trace.output
                elif stage is pipeline.Stage.SOLUTION:
                    ctx.solution_output = trace.output
        self.proc = subprocess.Popen(
            [sys.executable, str(STUB)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.proc.stdin.write(json.dumps(table) + "\n")
        self.proc.stdin.flush()
        port = int(self.proc.stdout.readline())
        os.environ[remote.API_KEY_ENV] = "perfbench"
        os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1"
        endpoint = remote.EndpointConfig(base_url=f"http://127.0.0.1:{port}", model="oracle-stub", timeout_s=10.0)
        self.remote_resolver = remote.RemoteResolver(endpoint)

    def ops(self):
        return [(key, lambda w=w: self.resolve(w, self.remote_resolver)) for key, (w, _) in self.worlds.items()]

    def check(self, key, out):
        problems = super().check(key, out)
        if out[0] != self.oracle_plans[key]:
            problems.append(f"{key}: remote plan differs from the oracle plan for the same observation")
        return problems

    def counters(self):
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def finish(self):
        self.proc.stdin.close()
        stats = json.loads(self.proc.stdout.readline())
        self.proc.wait(timeout=30)
        problems = []
        if stats["unknown"]:
            problems.append(f"stub saw {stats['unknown']} unknown prompts")
        if stats["repeats"]:
            problems.append(f"stub saw {stats['repeats']} repeated (retried) prompts")
        return problems

    def close(self) -> None:
        proc = getattr(self, "proc", None)
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        if proc is not None:
            proc.stdout.close()


WORKLOADS = {cls.name: cls for cls in (ClosedLoop, DenseTraffic, ResolveService, RemoteResolve)}
