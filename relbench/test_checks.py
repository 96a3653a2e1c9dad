"""Each of the benchmark's checks passes on correct output and fails on wrong output.

    python3 -m pytest relbench
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from refdrbg import ReferenceCtrDrbg, reference_stream  # noqa: E402

from dprand import (GeneratorHandle, MechanismParams, geometric_mechanism,  # noqa: E402
                    run_stat_tests_on_bytes)

REFILL = 65536
SEED = bytes(range(48))


def test_reference_drbg_matches_published_vector():
    # SP 800-90A CTR_DRBG AES-256 no df, no reseed, COUNT = 0: instantiate, generate, generate
    drbg = ReferenceCtrDrbg(bytes.fromhex(
        "df5d73faa468649edda33b5cca79b0b05600419ccb7a879ddfec9db32ee494e5"
        "531b51de16a30f769262474c73bec010"))
    drbg.generate(64)
    assert drbg.generate(64).hex() == (
        "d1c07cd95af8a7f11012c84ce48bb8cb87189e99d40fccb1771c619bdf82ab22"
        "80b1dc2f2581f39164f7ac0c510494b3a43c41b7db17514c87b107ae793e01c5")


def _handle_bytes(chunk: int, chunks: int) -> bytes:
    handle = GeneratorHandle.from_drbg_seed(SEED)
    return b"".join(handle.next_bytes(chunk) for _ in range(chunks))


def test_stream_check_passes_across_refills():
    received = _handle_bytes(1_000_000, 1)  # 15 refill boundaries, none on a chunk edge
    assert checks.check_stream(SEED, received) == []


def test_stream_check_catches_a_flipped_byte_at_a_refill_boundary():
    received = bytearray(reference_stream(SEED, 4 * REFILL))
    received[2 * REFILL] ^= 0x01
    assert checks.check_stream(SEED, bytes(received)) == [
        f"stream differs from the reference at byte {2 * REFILL} (2 refills in)"]


def test_stream_check_catches_a_duplicated_byte_at_a_refill_boundary():
    good = reference_stream(SEED, 4 * REFILL)
    received = good[:REFILL] + good[REFILL - 1:REFILL] + good[REFILL:-1]
    assert len(checks.check_stream(SEED, received)) == 1


def test_word_count_check():
    assert checks.check_word_count(250_000, 1_000_000) == []
    assert checks.check_word_count(250_001, 1_000_000) != []


def _noise(epsilon: float, n: int, seed: int = 0) -> list[int]:
    rng = np.random.default_rng(seed)
    p = 1 - math.exp(-epsilon)
    return (rng.geometric(p, n) - rng.geometric(p, n)).tolist()


def _tally(noise, true_counts=None) -> checks.NoiseTally:
    true_counts = true_counts if true_counts is not None else [3] * len(noise)
    tally = checks.NoiseTally()
    tally.add([t + k for t, k in zip(true_counts, noise)], true_counts)
    return tally


@pytest.mark.parametrize("epsilon", [0.1, math.log(2)])
def test_noise_check_passes_at_the_right_alpha(epsilon):
    assert checks.check_noise(_tally(_noise(epsilon, 100_000)), epsilon) == []


@pytest.mark.parametrize("epsilon, drawn_at", [(0.1, 0.12), (math.log(2), 0.8)])
def test_noise_check_fails_at_a_wrong_alpha(epsilon, drawn_at):
    failures = checks.check_noise(_tally(_noise(drawn_at, 50_000)), epsilon)
    assert any("chi-square" in f for f in failures)
    assert any("variance" in f for f in failures)


def test_noise_check_fails_on_a_shifted_mean():
    noise = [k + 1 for k in _noise(math.log(2), 50_000)]
    assert any("mean" in f for f in checks.check_noise(_tally(noise), math.log(2)))


def test_noise_check_fails_on_non_integer_noise():
    noise = [k + 0.5 for k in _noise(0.1, 1000)]
    assert checks.check_noise(_tally(noise), 0.1) == ["1000 cells carry non-integer noise"]


def test_noise_check_passes_on_dprand_output():
    params = MechanismParams(math.log(2))
    true_counts = [0, 5, 1, 0] * 5000
    protected = geometric_mechanism(true_counts, params, GeneratorHandle.from_drbg_seed(SEED))
    tally = checks.NoiseTally()
    tally.add([m.value for m in protected], true_counts)
    assert checks.check_noise(tally, params.epsilon) == []


def test_distinct_first_words():
    assert checks.check_distinct([1, 2, 3]) == []
    assert checks.check_distinct([1, 2, 1]) == ["1 streams repeat another stream's first word"]


def _battery(data: bytes):
    return [(t.name, t.statistic, t.p_value) for t in run_stat_tests_on_bytes(data).tests]


def test_battery_floor_passes_random_bytes_and_fails_a_stuck_stream():
    assert checks.check_battery(_battery(_handle_bytes(1_000_000, 1))) == []
    stuck = bytes(500_000) + _handle_bytes(500_000, 1)
    assert checks.check_battery(_battery(stuck)) != []


def test_battery_floor_leaves_the_runs_precondition_to_monobit():
    assert checks.check_battery([("monobit", 4.1, 4e-5), ("runs", math.inf, 0.0)]) == []
    assert checks.check_battery([("monobit", 9.0, 1e-19), ("runs", math.inf, 0.0)]) != []


def test_runs_without_sources_exit_nonzero_and_print_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "relbench", tmp_path / "relbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(command + ["--workload", "bulk-bytes", "--seed", "1",
                                     "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["tract-person", "block-release", "bulk-bytes"])
def test_every_workload_reports_its_declared_metrics(workload, trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(bench["command"] + ["--workload", workload, "--seed", "3",
                                              "--seconds", "0.5", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    declared = bench["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
