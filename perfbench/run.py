"""Benchmark entry point: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
run builds the workload's inputs (timed as ``setup_s``, from this file's
first statement), runs one untimed warm round and checks its outputs, then
repeats whole rounds until ``--seconds`` have passed and checks that every
round's outputs equal the first's.  With ``--trace 1`` the same run is made
with every layer wrapped by the tracer and the per-layer metrics are printed
instead; one more round is then run with tracing off, and its outputs must
equal the traced ones.  Spans are written to ``perfbench/out/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_program():
    """Import the workloads and, with them, the program from ``src/``; exit 2 if it is absent."""
    if not (SRC / "anomaloop" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'anomaloop'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def low_decile(seconds) -> float:
    """10th percentile of one operation's latencies (the fastest of fewer than 11).

    Host speed on a shared machine drops by up to 1.7x for seconds to
    minutes while other tenants run; a low percentile of each operation's
    repeated latencies follows the program's own cost, where the median and
    the mean follow the neighbours.
    """
    ordered = sorted(seconds)
    return ordered[int(0.1 * (len(ordered) - 1))]


def run_round(ops, tracer=None, first_op=0):
    """Run each operation once: {key: output or exception}, {key: seconds}."""
    outputs, seconds = {}, {}
    for i, (key, fn) in enumerate(ops):
        if tracer is not None:
            tracer.op = first_op + i
        t = time.perf_counter()
        try:
            outputs[key] = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs[key] = exc
        seconds[key] = time.perf_counter() - t
    return outputs, seconds


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = load_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    problems: list[str] = []
    try:
        wl.setup()
        setup_s = time.perf_counter() - _T0
        ops = wl.ops()

        # Warm round: not timed; its outputs get the full checks.
        if tracer is not None:
            tracer.phase = "warm"
        first, _ = run_round(ops)
        good = {key: out for key, out in first.items() if not isinstance(out, Exception)}
        for key, out in good.items():
            problems += wl.check(key, out)
        problems += wl.check_once(good)
        expected = {key: wl.fingerprint(key, out) for key, out in good.items()}

        # Timed window: whole rounds until the time is up.
        if tracer is not None:
            tracer.phase = "timed"
        latencies = {key: array("d") for key, _ in ops}
        attempted = failed = 0
        errors: dict[str, str] = {}
        start = time.perf_counter()
        while True:
            outputs, seconds = run_round(ops, tracer, attempted)
            attempted += len(ops)
            for key, out in outputs.items():
                if isinstance(out, Exception):
                    failed += 1
                    errors.setdefault(key, f"{type(out).__name__}: {out}")
                    continue
                latencies[key].append(seconds[key])
                if key not in expected:
                    expected[key] = wl.fingerprint(key, out)
                elif wl.fingerprint(key, out) != expected[key]:
                    problems.append(f"{key}: output differs between rounds")
            if time.perf_counter() - start >= args.seconds:
                break
        elapsed = time.perf_counter() - start
        last = {key: out for key, out in outputs.items() if not isinstance(out, Exception)}
        counters = wl.counters()

        if tracer is not None:
            # The traced outputs must equal those of an untraced run.
            tracer.uninstall()
            plain, _ = run_round(ops)
            for key, out in plain.items():
                if not isinstance(out, Exception) and key in expected and wl.fingerprint(key, out) != expected[key]:
                    problems.append(f"{key}: traced and untraced outputs differ")
        problems += wl.finish()
    finally:
        wl.close()

    for key, err in errors.items():
        print(f"failed operation {key}: {err}", file=sys.stderr)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    fast = [low_decile(lat) for lat in latencies.values() if lat]
    ops_per_s = len(fast) / sum(fast) if fast else 0.0
    if tracer is None:
        values = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        import layers

        computed = layers.compute(tracer, attempted - failed, wl.mean_clear_sim_s(last), counters)
        values = {name: (computed[name], unit) for name, unit in layers.PER_LAYER}
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(trace_file)
        print(f"spans written to {trace_file} ({len(tracer.spans)} kept, {tracer.dropped} dropped)", file=sys.stderr)

    print(
        f"{args.workload}: {attempted} operations in {elapsed:.2f} s ({attempted // max(1, len(ops))} rounds of "
        f"{len(ops)}), {failed} failed, {len(problems)} check failures; {ops_per_s:.6g} ops/s"
    )
    for name, (value, unit) in values.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
