"""The operadforge benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one caller, closed loop: each operation starts when the previous
verdict has returned.  Inputs come from `--seed` (see workloads.py) and every
verdict is checked against the answer known by construction.  The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`
every operation runs twice, once untraced and once through the layer tracer,
in alternating order; the metrics are then the per-layer ones that
BENCHMARK.json lists, taken from the traced calls, and the tracing overhead,
taken by comparing the two calls of each operation.  Every per-layer metric,
listed or not, is printed on the lines above the JSON.  The spans are written
under `.bench_out/`.

Exit status: 0 when every verdict matched its known answer, 1 when one did
not (each such operation is named on standard error) or when operadforge
cannot be imported from the checkout's `src/`.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Iterator

from tracer import Tracer, layer_metrics
from workloads import FAILED, OK, WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up is repeated this many times in a run and its median reported.
SETUP_REPS = 5
# The tail latency is the highest of these percentiles, in tenths of a
# percent (nearest rank), that has at least TAIL_BEYOND samples beyond it.
# Rungs a decade apart in the operation count keep the percentile the same
# from run to run, and leave more than ten samples beyond it; the sample
# with exactly ten beyond it swung by a quarter between runs.
TAIL_PER_MILLE = (999, 990, 900)
TAIL_BEYOND = 10


def import_operadforge() -> None:
    """Import operadforge afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "operadforge" or m.startswith("operadforge.")]:
        del sys.modules[name]
    try:
        mod = importlib.import_module("operadforge")
    except ImportError as e:
        raise SystemExit(f"cannot import operadforge from {SRC}: {e}") from None
    if not Path(mod.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"operadforge imported from {mod.__file__}, not from {SRC}")


def setup(workload: str, seed: int) -> tuple[float, Iterator[Op]]:
    """Median over SETUP_REPS of: import operadforge, generate the first
    block of inputs.  Returns it with the operation stream of the last
    repetition, whose modules stay imported."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        import_operadforge()
        blocks = WORKLOADS[workload](seed)
        first = next(blocks)
        times.append(perf_counter() - t0)
    return statistics.median(times), itertools.chain(first, itertools.chain.from_iterable(blocks))


@dataclass
class Loop:
    """What one pass of the closed loop did.  Operations are not kept, so
    memory does not grow with the number completed."""

    latency: list[float] = field(default_factory=list)
    wrong: int = 0
    failed: int = 0

    @property
    def ops(self) -> int:
        return len(self.latency)

    @property
    def ops_per_s(self) -> float:
        return self.ops / sum(self.latency)


def drive(
    ops: Iterable[Op],
    seconds: float | None,
    call: Callable[[int, Op], object] = lambda i, op: op.call(),
) -> Loop:
    """Run operations one after another until `seconds` of wall time have
    passed (or the operations run out); time each call alone."""
    loop = Loop()
    t_start = perf_counter()
    for i, op in enumerate(ops):
        if seconds is not None and perf_counter() - t_start >= seconds:
            break
        t0 = perf_counter()
        try:
            result = call(i, op)
        except Exception:
            t1 = perf_counter()
            print(f"operation raised: {op.label}", file=sys.stderr)
            traceback.print_exc()
            verdict = FAILED
        else:
            t1 = perf_counter()
            verdict = op.judge(result)
        loop.latency.append(t1 - t0)
        if verdict == FAILED:
            loop.failed += 1
        elif verdict != OK:
            loop.wrong += 1
            print(f"wrong verdict: {op.label}: got {result!r}, expected {op.expected}", file=sys.stderr)
    return loop


def traced_drive(ops: Iterable[Op], seconds: float | None, tracer: Tracer) -> tuple[Loop, list[float]]:
    """Run each operation untraced and then traced, or the other way round
    on every second one, so that neither call always finds the caches warm.
    The traced result is the one judged.  Returns the loop with the seconds
    spent in the untraced and in the traced calls."""
    spent = [0.0, 0.0]

    def paired(i: int, op: Op):
        results = [None, None]
        for traced in (0, 1) if i % 2 == 0 else (1, 0):
            t0 = perf_counter()
            results[traced] = tracer.run_op(i, op.call) if traced else op.call()
            spent[traced] += perf_counter() - t0
        return results[1]

    return drive(ops, seconds, paired), spent


def tail_rank(n: int) -> tuple[float, int]:
    """(percentile, nearest rank) of the tail latency among n sorted samples;
    the maximum when no percentile has TAIL_BEYOND samples beyond it."""
    for q in TAIL_PER_MILLE:
        rank = -(-q * n // 1000)
        if n - rank >= TAIL_BEYOND:
            return q / 10, rank
    return 100.0, n


def end_to_end(loop: Loop, setup_s: float) -> tuple[dict, str]:
    lat = sorted(loop.latency)
    n = len(lat)
    p, rank = tail_rank(n)
    metrics = {
        "ops_per_s": (loop.ops_per_s, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (lat[rank - 1] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    note = f"latency_tail_ms is p{p:g}: {n - rank} of {n} samples beyond it"
    return metrics, note


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    setup_s, ops = setup(args.workload, args.seed)
    if args.trace:
        tracer = Tracer()
        tracer.install()
        loop, (untraced_s, traced_s) = traced_drive(ops, args.seconds, tracer)
        tracer.uninstall()
        metrics = layer_metrics(tracer.totals(), loop.ops)
        metrics["trace.ops"] = (loop.ops, "count")
        metrics["trace.untraced_ops_per_s"] = (loop.ops / untraced_s, "1/s")
        metrics["trace.traced_ops_per_s"] = (loop.ops / traced_s, "1/s")
        metrics["trace.ops_per_s_share"] = (untraced_s / traced_s, "share")
        listed = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        reported = {name: metrics[name] for name in metrics if name in listed}
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.bin.gz"
        tracer.write_spans(spans)
        note = f"{len(tracer.start)} spans written to {spans.relative_to(ROOT)}"
    else:
        loop = drive(ops, args.seconds)
        metrics, note = end_to_end(loop, setup_s)
        reported = metrics

    n = loop.ops
    print(
        f"{args.workload} seed={args.seed}: {n} operations in "
        f"{sum(loop.latency):.2f} s of calls, closed loop, one caller"
        + (", each run untraced and traced" if args.trace else "")
    )
    print(
        f"wrong_verdict_share {loop.wrong / n:.4g} ({loop.wrong} of {n} attempted); "
        f"failed_share {loop.failed / n:.4g} ({loop.failed} of {n} attempted)"
    )
    print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": loop.wrong == 0,
                "attempted": n,
                "failed": loop.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in reported.items()},
            }
        )
    )
    return 1 if loop.wrong else 0


if __name__ == "__main__":
    sys.exit(main())
