"""Release benchmark for dprand: one workload per process, one JSON result line.

    python3 relbench/run.py --workload tract-person --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: dprand is imported from the checkout's
src/. With --trace 0 it reports the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics of a separate traced run. The last
line of standard output is the result; a copy with the span totals goes to
.relbench/ under the checkout.
"""
import time

_T0 = time.perf_counter()  # the set-up clock starts before any other import

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".relbench"


def since_process_start() -> float:
    """Seconds from this process's start to now; 0 where /proc/self/stat is not readable."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_STARTUP_S = since_process_start()


def per_layer_metrics(tracer, w, elapsed: float) -> dict:
    """Layer figures of a traced run, each per unit of the work that layer did."""

    def per(x, n):
        return x / n if n else 0.0

    provide, read, mix, spawn, generate, protect, next_bytes, stat = (
        tracer.get(name) for name in (
            "entropy.provide", "entropy.read", "entropy.mix", "bitgen.spawn", "drbg.generate",
            "mechanisms.protect", "bitgen.next_bytes", "quality.stat"))
    metrics = {
        "entropy.provide_s": per(provide.total_s, provide.calls),
        "entropy.provide_calls": per(provide.calls, w.streams),
        "entropy.read_calls": per(read.calls, w.streams),
        "entropy.read_s": per(read.self_s, w.streams),
        "entropy.mix_s": per(mix.total_s, w.streams),
        "entropy.log_records_per_stream": per(w.log_records, w.streams),
        "bitgen.spawn_self_s": per(spawn.self_s, w.streams),
        "bitgen.words": w.consumed_bytes / 8,
        "bitgen.next_bytes_s": per(next_bytes.self_s, next_bytes.amount / 1e6),
        "bitgen.buffer_use": per(w.consumed_bytes, generate.amount),
        "drbg.generate_calls": per(generate.calls, w.streams),
        "drbg.generate_s": per(generate.total_s, generate.calls),
        "drbg.mb_s": per(generate.amount / 1e6, generate.total_s),
        "mechanisms.protect_s": per(protect.total_s, w.cells),
        "mechanisms.self_s": per(protect.self_s, w.cells),
        "quality.stat_s": per(stat.total_s, stat.calls),
        "quality.mb_s": per(stat.amount / 1e6, stat.total_s),
    }
    for layer, self_s in tracer.layer_self_s().items():
        metrics[f"share.{layer}"] = self_s / elapsed
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tract-person", "block-release", "bulk-bytes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "dprand" / "__init__.py").is_file():
        print(f"no dprand sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # one thread: the benchmark measures a single core
    sys.path.insert(0, str(ROOT / "src"))
    from dprand import DprandError
    from spans import NoTracer, Tracer
    from workloads import WORKLOADS, instrument

    tracer = Tracer() if args.trace else NoTracer()
    instrument(tracer)
    try:
        workload = WORKLOADS[args.workload](args.seed, tracer)
        elapsed = 0.0
        rounds = failed = 0
        round_s = []
        setup_s = None
        while elapsed < args.seconds:
            start = time.perf_counter()
            if setup_s is None:
                setup_s = _STARTUP_S + (start - _T0)
            try:
                workload.round()
            except DprandError as exc:
                failed += workload.ops_per_round
                workload.discard()
                print(f"round {rounds} failed: {exc!r}", file=sys.stderr)
            round_s.append(time.perf_counter() - start)
            elapsed += round_s[-1]
            rounds += 1
            workload.settle()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    finally:
        tracer.restore()
    workload.finish()
    # rates are medians over rounds, so that a burst of load on a shared machine moves one round
    rounds_per_s = statistics.median(1 / t for t in round_s)

    if args.trace:
        values = per_layer_metrics(tracer, workload, elapsed)
        units = {m["name"]: m["unit"] for m in _declared("per_layer")}
    else:
        values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                  **workload.end_to_end(rounds_per_s)}
        units = {m["name"]: m["unit"] for m in _declared("end_to_end")}
    result = {
        "correct": not workload.failures,
        "attempted": rounds * workload.ops_per_round,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    for failure in workload.failures:
        print(f"check failed: {failure}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    record = {**result, "workload": args.workload, "seed": args.seed, "seconds": elapsed,
              "round_s": round_s, "failures": workload.failures,
              "end_to_end": workload.end_to_end(rounds_per_s),
              "spans": tracer.to_dict() if args.trace else {}}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _declared(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


if __name__ == "__main__":
    sys.exit(main())
