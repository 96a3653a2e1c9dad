"""Command-line entry point.

Exit codes: 0 success, 1 domain error (bad inputs, refused operations,
failed self-tests), 2 usage error. Every subcommand honors --json, and the
JSON it emits carries a "schema" field that only changes with a version
bump.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import bitgen, budget, entropy, kat, mechanisms, quality
from .attack import GeometricInvCdfChannel, IdentityChannel, sparse_histogram_attack
from .bitgen import GeneratorHandle
from .drbg import SEED_LEN
from .errors import DprandError
from .events import EventLog
from .mt19937 import Mt19937, temper, untemper

REMOTE_ENV = "DP_ENTROPY_REMOTE"

MIX_KAT_HEX = (
    "f14947acb1807602119f8fe1f5ef67366466b9c962ce31bd0197405bd775ecc4"
    "f298acad7bca7660b8abc91e9f8f7feb")
MT_REFERENCE_SEED = 5489
MT_REFERENCE_FIRST10 = [
    3499211612, 581869302, 3890346734, 3586334585, 545404204,
    4161255391, 3922919429, 949333985, 2715962298, 1323567403,
]
MT_REFERENCE_10000TH = 4123659995


def _emit(args, payload: dict, text: str):
    print(payload_json(payload) if args.json else text)


def payload_json(payload: dict) -> str:
    return json.dumps(payload, indent=2)


def _seed_handle(args) -> GeneratorHandle:
    if args.seed_hex:
        # reproducible demo path; deterministic seeds are insecure by definition
        return GeneratorHandle.from_drbg_seed(args.seed_hex)
    provider = entropy.SeedProvider([entropy.os_urandom_source()],
                                    insecure_override=args.insecure_override)
    return bitgen.spawn_streams(provider, 1)[0]


def _cmd_budget(args) -> int:
    spec = budget.BudgetSpec.from_file(args.spec)
    report = budget.compute_budget(spec)
    _emit(args, report.to_dict(), report.to_text())
    return 0


def _cmd_sample(args) -> int:
    if args.count < 1:
        raise DprandError("count must be >= 1")
    params = mechanisms.MechanismParams(args.epsilon, args.sensitivity)
    g = _seed_handle(args)
    if args.mechanism == "geometric":
        measurements = mechanisms.geometric_mechanism([0] * args.count, params, g)
    else:
        override = args.insecure_override or bool(args.seed_hex)
        measurements = mechanisms.laplace_mechanism_insecure(
            [0.0] * args.count, params, g, insecure_override=override)
    values = [m.value for m in measurements]
    payload = {
        "schema": "dprand.sample/1",
        "mechanism": args.mechanism,
        "epsilon": args.epsilon,
        "sensitivity": args.sensitivity,
        "count": args.count,
        "insecure": measurements[0].insecure,
        "values": values,
    }
    csv = "index,value\n" + "\n".join(f"{i},{v}" for i, v in enumerate(values))
    _emit(args, payload, csv)
    return 0


def _cmd_attack(args) -> int:
    if args.backend != "mt19937":
        raise DprandError(f"no attack implemented for backend {args.backend!r}")
    dump = json.loads(Path(args.cells).read_text())
    if "cells" not in dump:
        raise DprandError("measurement dump must carry a 'cells' array")
    cells = dump["cells"]
    channel_name = args.channel or dump.get("channel", "identity")
    if channel_name == "identity":
        channel = IdentityChannel()
    elif channel_name == "geometric-invcdf":
        params = mechanisms.MechanismParams(dump.get("epsilon", 1.0), dump.get("sensitivity", 1.0))
        channel = GeometricInvCdfChannel(params)
    else:
        raise DprandError(f"unknown channel {channel_name!r}")
    transcript = sparse_histogram_attack(cells, channel)
    summary = (f"{transcript.validation}: observed {len(transcript.observed_cells)} cells, "
               f"predicted {len(transcript.predicted_cells)}")
    _emit(args, transcript.to_dict(), summary)
    return 0 if transcript.validation == "validated" else 1


def run_selftest(kat_dir=None) -> list[tuple[str, bool, str]]:
    """Known-answer checks for the primitives; returns (name, ok, detail) rows."""
    checks: list[tuple[str, bool, str]] = []

    results = kat.run_kat_dir(kat_dir or kat.bundled_vector_dir())
    for r in results:
        checks.append((f"drbg-kat {r.vector.name}", r.ok,
                       r.message or ("skipped" if r.status == "skip" else "byte-exact")))

    got = entropy.mix([bytes(48)], 48, "seed").hex()
    checks.append(("mix-kat zero-block", got == MIX_KAT_HEX,
                   "regression vector match" if got == MIX_KAT_HEX else f"got {got}"))

    g = Mt19937.from_seed(MT_REFERENCE_SEED)
    first = [g.next_u32() for _ in range(10)]
    ok = first == MT_REFERENCE_FIRST10
    checks.append(("mt19937 reference stream", ok,
                   "first outputs match" if ok else f"got {first[:3]}..."))
    rest = 0
    for _ in range(9990):
        rest = g.next_u32()
    checks.append(("mt19937 10000th output", rest == MT_REFERENCE_10000TH,
                   f"got {rest}, want {MT_REFERENCE_10000TH}"))

    word = 0x9D2C5680
    checks.append(("mt19937 untemper", untemper(temper(word)) == word, "round trip"))
    return checks


def _cmd_selftest(args) -> int:
    checks = run_selftest(args.kat_dir)
    failed = [c for c in checks if not c[1]]
    if args.json:
        print(payload_json({
            "schema": "dprand.selftest/1",
            "passed": len(checks) - len(failed),
            "failed": len(failed),
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        }))
    else:
        for name, ok, detail in checks:
            print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
        print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 1 if failed else 0


def _cmd_entropy(args) -> int:
    if args.action != "probe":
        raise DprandError(f"unknown entropy action {args.action!r}")
    log = EventLog()
    if args.source == "os":
        source = entropy.os_urandom_source()
    elif args.source == "remote":
        endpoint = os.environ.get(REMOTE_ENV)
        if not endpoint:
            raise DprandError(f"set {REMOTE_ENV} to the remote entropy endpoint first")
        source = entropy.remote_source(endpoint)
    elif args.source in ("rdrand", "rdseed"):
        source = entropy.rdrand_source() if args.source == "rdrand" else entropy.rdseed_source()
    elif args.source == "fixed":
        if not args.insecure_override:
            raise DprandError("the fixed test source requires --insecure-override")
        source = entropy.fixed_test_source(b"\xA5" * 32)
    else:
        raise DprandError(f"unknown source {args.source!r}")
    data = entropy.read_with_retry(source, min(args.n, source.block_size), log)
    payload = {
        "schema": "dprand.entropy-probe/1",
        "source": source.name,
        "resistance_class": source.resistance.value,
        "bytes": len(data),
        "sample_hex": data[:16].hex(),
        "diagnostics": log.entries(),
    }
    text = (f"{source.name}: {len(data)} bytes "
            f"(resistance: {source.resistance.value})\n"
            f"first bytes: {data[:16].hex()}\n"
            f"diagnostics: {log.to_jsonl()}")
    _emit(args, payload, text)
    return 0


def _cmd_bench(args) -> int:
    counts = [int(x) for x in args.threads.split(",") if x.strip()]
    configs = [(kind, n) for kind in ("drbg", "os-locked") for n in counts]
    report = quality.bench_throughput(configs, args.duration)
    _emit(args, report.to_dict(), report.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument("--insecure-override", action="store_true",
                        help="allow test-fixed seeding and known-weak mechanisms")

    parser = argparse.ArgumentParser(
        prog="dprand",
        description="Randomness toolkit for differential-privacy pipelines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("budget", parents=[common],
                       help="total random bits for a hierarchical-histogram workload")
    p.add_argument("--spec", required=True, help="JSON workload description")
    p.set_defaults(func=_cmd_budget)

    p = sub.add_parser("sample", parents=[common], help="draw DP noise values")
    p.add_argument("--mechanism", required=True, choices=["geometric", "laplace-insecure"])
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--sensitivity", type=float, default=1.0)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed-hex", help=f"{SEED_LEN}-byte hex seed for reproducible demos "
                                      "(implies --insecure-override)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("attack", parents=[common],
                       help="run the state-recovery demo on a measurement dump")
    p.add_argument("backend", choices=["mt19937"])
    p.add_argument("--cells", required=True, help="JSON dump: {\"cells\": [...]}")
    p.add_argument("--channel", choices=["identity", "geometric-invcdf"])
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("selftest", parents=[common], help="known-answer self checks")
    p.add_argument("--kat-dir", help="directory of .rsp vector files (default: bundled)")
    p.set_defaults(func=_cmd_selftest)

    p = sub.add_parser("entropy", parents=[common], help="probe an entropy source")
    p.add_argument("action", choices=["probe"])
    p.add_argument("--source", default="os",
                   choices=["os", "remote", "rdrand", "rdseed", "fixed"])
    p.add_argument("--n", type=int, default=32)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("bench", parents=[common], help="throughput benchmark")
    p.add_argument("--threads", default="1,4", help="comma list of worker counts")
    p.add_argument("--duration", type=float, default=2.0, help="seconds per configuration")
    p.set_defaults(func=_cmd_bench)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DprandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(run())
