"""Command-line entry point: run, batch, conformance, validate-plan.

Exit codes:
  0  resolved, or ok
  1  unresolved episode, failed conformance stage or invalid plan
  2  bad input: a malformed config or scenario file, an unknown key, a
     missing file (ConfigError); bad scenario params (InvalidParams); a
     missing or rejected API key (AuthError)
  3  the remote resolver's transport gave up: retries spent
     (BudgetExceeded) or a failure not worth retrying (TransportError)
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .commands import AnomalyLabel, PlanParseError, PlanValidationError, parse as parse_plan, validate as validate_plan
from .config import ConfigError, SimConfig, parse_kv_file
from .harness import (
    ResolverSpec,
    batch_specs,
    format_conformance,
    run_batch,
    run_conformance,
    run_episode,
    write_batch_artifacts,
    write_episode_artifacts,
)
from .observation import observe
from .remote import AuthError, BudgetExceeded, TransportError
from .scenarios import InvalidParams, build, load_spec, warm_up

EXIT_OK = 0
EXIT_UNRESOLVED = 1
EXIT_CONFIG = 2
EXIT_TRANSPORT = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anomaloop", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--resolver", choices=("oracle", "remote"), default="oracle")
        p.add_argument("--endpoint", default="", help="remote resolver base URL")
        p.add_argument("--model", default="", help="remote resolver model name")
        p.add_argument("--config", default="", help="flat key=value config file")
        p.add_argument("--out", default="out", help="output directory")

    p_run = sub.add_parser("run", help="run one closed-loop episode")
    p_run.add_argument("--scenario", required=True, help="scenario file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    common(p_run)

    p_batch = sub.add_parser("batch", help="run a kinds x seeds suite")
    p_batch.add_argument("--kinds", default="ghost_jam,deadlock,accident", help="comma-separated scene kinds")
    p_batch.add_argument("--seeds", type=int, default=20, help="seeds 0..N-1 per kind")
    p_batch.add_argument("--repetitions", type=int, default=1)
    p_batch.add_argument("--workers", type=int, default=1)
    common(p_batch)

    p_conf = sub.add_parser("conformance", help="per-stage validity checklist for a resolver")
    p_conf.add_argument("--seeds", type=int, default=3)
    common(p_conf)

    p_val = sub.add_parser("validate-plan", help="parse and validate a plan file against a scenario")
    p_val.add_argument("--plan", required=True)
    p_val.add_argument("--scenario", required=True)
    p_val.add_argument("--config", default="")
    return parser


def _load_config(path: str) -> tuple[SimConfig, dict[str, str]]:
    """The ``--config`` file's simulation config and its resolver entries
    (``endpoint``, ``model``); any other key must name a SimConfig field."""
    entries = parse_kv_file(path) if path else {}
    resolver = {key: entries.pop(key)[0] for key in ("endpoint", "model") if key in entries}
    return SimConfig.from_mapping(entries), resolver


def _resolver_spec(args, file_entries: dict[str, str]) -> ResolverSpec:
    """Command-line flags win over the config file's entries."""
    return ResolverSpec(
        kind=args.resolver,
        endpoint=args.endpoint or file_entries.get("endpoint", ""),
        model=args.model or file_entries.get("model", ""),
    )


def cmd_run(args) -> int:
    cfg, file_entries = _load_config(args.config)
    spec = load_spec(args.scenario)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    resolver_spec = _resolver_spec(args, file_entries)
    ep, metrics, report, transcript = run_episode(spec, resolver_spec, cfg)
    write_episode_artifacts(args.out, report, transcript)
    ttc = metrics.time_to_clear if metrics.time_to_clear is not None else "inf"
    print(f"{spec.kind.value} seed={spec.seed} resolved={ep.resolved} time_to_clear={ttc}")
    return EXIT_OK if ep.resolved else EXIT_UNRESOLVED


def cmd_batch(args) -> int:
    cfg, file_entries = _load_config(args.config)
    kinds = []
    for token in args.kinds.split(","):
        token = token.strip().lower()
        if not token:
            continue
        try:
            kinds.append(AnomalyLabel(token))
        except ValueError:
            raise ConfigError(f"unknown kind {token!r}", field="kinds") from None
    specs = batch_specs(kinds, list(range(args.seeds)), args.repetitions)
    resolver_spec = _resolver_spec(args, file_entries)
    batch_report, transcript = run_batch(specs, resolver_spec, cfg, workers=args.workers)
    write_batch_artifacts(args.out, batch_report, transcript)
    rows = batch_report["timing"]
    print(f"{'kind':<12}{'scene_s':>10}{'analysis_s':>12}{'solution_s':>12}{'formatting_s':>14}{'total_s':>10}")
    for row in rows:
        print(
            f"{row['kind']:<12}{row['scene_s']:>10.4f}{row['analysis_s']:>12.4f}"
            f"{row['solution_s']:>12.4f}{row['formatting_s']:>14.4f}{row['total_s']:>10.4f}"
        )
    resolved = sum(1 for r in batch_report["episodes"] if r["resolved"])
    print(f"episodes resolved: {resolved}/{len(batch_report['episodes'])}")
    return EXIT_OK if batch_report["all_resolved"] else EXIT_UNRESOLVED


def cmd_conformance(args) -> int:
    cfg, file_entries = _load_config(args.config)
    resolver = _resolver_spec(args, file_entries).create(cfg)
    checklist = run_conformance(resolver, cfg, seeds=args.seeds)
    print(format_conformance(checklist))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "conformance.json").write_text(json.dumps(checklist, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if all(checklist["stages"].values()) else EXIT_UNRESOLVED


def cmd_validate_plan(args) -> int:
    cfg, _ = _load_config(args.config)
    spec = load_spec(args.scenario)
    try:
        plan_text = Path(args.plan).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read plan: {err}") from None
    world, _ = build(spec, cfg)
    world = warm_up(world, cfg)
    obs = observe(world)
    try:
        plan = parse_plan(plan_text)
        validate_plan(plan, obs)
    except (PlanParseError, PlanValidationError) as err:
        print(f"invalid: {err}")
        return EXIT_UNRESOLVED
    print(f"ok: {len(plan.commands)} commands, {len(plan.faults)} fault assignments")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "run": cmd_run,
        "batch": cmd_batch,
        "conformance": cmd_conformance,
        "validate-plan": cmd_validate_plan,
    }[args.command]
    try:
        return handler(args)
    except (ConfigError, InvalidParams, AuthError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (BudgetExceeded, TransportError) as err:
        print(f"transport error: {err}", file=sys.stderr)
        return EXIT_TRANSPORT


if __name__ == "__main__":
    sys.exit(main())
