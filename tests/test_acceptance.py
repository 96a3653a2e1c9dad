"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to watch the verdict lines
as they print. Each test enforces its stated tolerance; nothing here is
calibrated after the fact.
"""
import math
import os
import random
import time

import pytest

from dprand.attack import MIN_CELLS, predict_outputs, reconstruct_state, sparse_histogram_attack
from dprand.bitgen import GeneratorHandle, spawn_streams
from dprand.budget import compute_budget, us_2020_spec
from dprand.drbg import SEED_LEN, CtrDrbg, DrbgConfig
from dprand.entropy import SeedProvider, fixed_test_source, mix
from dprand.errors import DuplicateSeed, ReseedRequired
from dprand.events import EventLog
from dprand.kat import bundled_vector_dir, run_kat_dir
from dprand.mechanisms import (MechanismParams, two_sided_geometric,
                               two_sided_geometric_mass_within, two_sided_geometric_pmf)
from dprand.quality import bench_throughput, run_stat_tests_on_bytes

PAPER_TOTAL_BITS_ESTIMATE = 7e14  # reported alongside "roughly 90TB"
EXPECTED_TOTAL_BITS = 1_210_388_341_413_888  # pinned from the independent arithmetic oracle


def verdict(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_1_budget_reproduction():
    start = time.monotonic()
    report = compute_budget(us_2020_spec())
    elapsed = time.monotonic() - start
    ratio = report.total_bits / PAPER_TOTAL_BITS_ESTIMATE
    same_order = 0.1 < ratio < 10.0
    ok = (elapsed < 1.0 and report.total_bits == EXPECTED_TOTAL_BITS and same_order)
    assert verdict(
        "1", ok,
        f"exact product {report.total_bits:,} bits ({report.terabytes:.1f} TB) in "
        f"{elapsed * 1000:.1f} ms; reported estimate ~7e14 bits (~90 TB), ratio "
        f"{ratio:.2f}x, same order of magnitude (direct evaluation of the stated "
        f"factors gives ~1.7x the headline estimate; pinned, not forced to agree)")


def test_criterion_2_mt_prediction_any_alignment():
    rng = random.Random(0xC2)
    start = time.monotonic()
    exact = 0
    trials = 100
    for _ in range(trials):
        seed = rng.getrandbits(64)
        offset = rng.randrange(0, 1000)
        target = random.Random(seed)  # the reference implementation is the victim
        for _ in range(offset):
            target.getrandbits(32)
        window = [target.getrandbits(32) for _ in range(624)]
        future = [target.getrandbits(32) for _ in range(1000)]
        state = reconstruct_state(window)
        if predict_outputs(state, 1000) == future:
            exact += 1
    elapsed = time.monotonic() - start
    ok = exact == trials and elapsed < 10.0
    assert verdict("2", ok, f"{exact}/{trials} seeds predicted 1000/1000 outputs at random "
                            f"alignment offsets in {elapsed:.2f} s (< 10 s)")


def test_criterion_3_sparse_histogram_attack():
    # 10,000-cell all-zero histogram behind the MT identity channel
    g = GeneratorHandle.insecure_mt19937(0xDA5)
    cells = [g.next_u64() for _ in range(10_000)]
    transcript = sparse_histogram_attack(cells)
    mt_ok = (transcript.validation == "validated"
             and transcript.predicted_cells == cells[MIN_CELLS:]
             and transcript.recovered_true_counts == [0] * (10_000 - MIN_CELLS))

    refuted = 0
    trials = 100
    for _ in range(trials):
        h = GeneratorHandle.from_drbg_seed(os.urandom(SEED_LEN))
        drbg_cells = [h.next_u64() for _ in range(10_000)]
        if sparse_histogram_attack(drbg_cells).validation == "refuted":
            refuted += 1
    ok = mt_ok and refuted == trials
    assert verdict("3", ok, f"MT: validated on cell {MIN_CELLS}, "
                            f"{len(transcript.predicted_cells)}/{10_000 - MIN_CELLS} cells "
                            f"recovered exactly; DRBG: refuted {refuted}/{trials}")


def test_criterion_4_drbg_known_answer_vectors():
    results = run_kat_dir(bundled_vector_dir())
    failed = [r for r in results if r.status == "fail"]
    passed = sum(r.status == "pass" for r in results)
    ok = not failed and passed >= 14
    assert verdict("4", ok, f"{passed} known-answer vectors byte-exact "
                            f"(instantiate/generate, reseed, and prediction-resistance "
                            f"lifecycles), {len(failed)} failures")


@pytest.fixture(scope="module")
def geometric_sample():
    params = MechanismParams(math.log(2.0), 1.0)  # alpha = 1/2
    g = GeneratorHandle.from_drbg_seed(b"\xC5" * SEED_LEN)
    n = 10**6
    counts: dict[int, int] = {}
    for _ in range(n):
        k = two_sided_geometric(params, g)
        counts[k] = counts.get(k, 0) + 1
    return params, n, counts


def test_criterion_5_mechanism_pmf_chi_square(geometric_sample):
    from scipy import stats
    params, n, counts = geometric_sample
    alpha = params.alpha
    assert abs(two_sided_geometric_pmf(0, 0.5) - 1 / 3) < 1e-15
    assert abs(two_sided_geometric_pmf(1, 0.5) - 1 / 6) < 1e-15

    K = 10
    observed = [counts.get(k, 0) for k in range(-K, K + 1)]
    expected = [n * two_sided_geometric_pmf(k, alpha) for k in range(-K, K + 1)]
    tail_obs = n - sum(observed)
    tail_exp = n * (1.0 - two_sided_geometric_mass_within(K, alpha))
    chi2 = sum((o - e) ** 2 / e for o, e in
               zip(observed + [tail_obs], expected + [tail_exp]))
    dof = 2 * K + 1  # 22 bins - 1
    critical = stats.chi2.ppf(1 - 0.001, dof)
    chi_ok = chi2 < critical

    mass_ok = all(
        abs(sum(two_sided_geometric_pmf(k, alpha) for k in range(-K2, K2 + 1))
            - two_sided_geometric_mass_within(K2, alpha)) < 1e-12
        for K2 in range(61))

    # symmetry: +k and -k agree within binomial noise across the same draws
    sym_ok = True
    for k in range(1, 11):
        a, b = counts.get(k, 0), counts.get(-k, 0)
        tot = a + b
        if tot and abs(a - b) > 4.0 * math.sqrt(tot):
            sym_ok = False
    ok = chi_ok and mass_ok and sym_ok
    assert verdict("5", ok, f"chi-square {chi2:.1f} < {critical:.1f} (sig 0.001, {dof} dof, "
                            f"10^6 draws, alpha=0.5); truncated mass matches closed form "
                            f"within 1e-12 for K<=60; symmetry within binomial noise")


def test_criterion_6_reseed_policy():
    ok = True
    details = []
    for k in (1, 2, 16):
        drbg = CtrDrbg(os.urandom(SEED_LEN), DrbgConfig(reseed_interval=k))
        allowed = 0
        try:
            for _ in range(k + 1):
                drbg.generate(8)
                allowed += 1
        except ReseedRequired:
            pass
        ok &= allowed == k
        drbg.reseed(os.urandom(SEED_LEN))
        drbg.generate(8)  # interval restored after reseed
        details.append(f"k={k}: {allowed} generates")

    pr = CtrDrbg(os.urandom(SEED_LEN), DrbgConfig(prediction_resistance=True))
    pr.generate(8)
    try:
        pr.generate(8)
        ok = False
        details.append("PR: second generate was NOT blocked")
    except ReseedRequired:
        pr.reseed(os.urandom(SEED_LEN))
        pr.generate(8)
        details.append("PR: reseed required before every generate")
    assert verdict("6", ok, "; ".join(details))


@pytest.fixture(scope="module")
def bench_report():
    return bench_throughput(
        [("drbg", 1), ("drbg", 4), ("os-locked", 1), ("os-locked", 4)], duration=1.5)


def test_criterion_7a_independent_drbg_scaling(bench_report):
    rows = {(r.kind, r.workers): r for r in bench_report.rows}
    one = rows[("drbg", 1)].aggregate_mb_s
    four = rows[("drbg", 4)].aggregate_mb_s
    cores = os.cpu_count()
    ok = four >= 2.0 * one
    assert verdict("7a", ok, f"4 DRBG workers {four:.0f} MB/s vs 1 worker {one:.0f} MB/s "
                             f"(need >= 2x; machine has {cores} core(s); "
                             f"the scaling property requires parallel hardware)")


def test_criterion_7b_shared_lock_contention(bench_report):
    rows = {(r.kind, r.workers): r for r in bench_report.rows}
    single = rows[("os-locked", 1)].per_worker_mb_s[0]
    contended = rows[("os-locked", 4)].per_worker_mb_s
    per_thread = sum(contended) / len(contended)
    ok = per_thread < single
    assert verdict("7b", ok, f"shared-locked source: {per_thread:.0f} MB/s per worker under "
                             f"4-way contention vs {single:.0f} MB/s alone "
                             f"(direction matches the pool-lock observation)")


def test_criterion_8_statistical_calibration():
    trials = 1000
    sample_bytes = 1_000_000
    master = b"\x08" * 48
    rejections = {"monobit": 0, "runs": 0, "byte-chi2": 0}
    for i in range(trials):
        seed = mix([master], SEED_LEN, f"calibration/{i}")
        g = GeneratorHandle.from_drbg_seed(seed)
        report = run_stat_tests_on_bytes(g.next_bytes(sample_bytes))
        for t in report.tests:
            if not t.passed:
                rejections[t.name] += 1
    rates = {name: count / trials for name, count in rejections.items()}
    calibrated = all(0.002 <= r <= 0.03 for r in rates.values())

    zero_report = run_stat_tests_on_bytes(b"\x00" * sample_bytes)
    alt_report = run_stat_tests_on_bytes(b"\x55" * sample_bytes)
    degenerate = (not dict((t.name, t) for t in zero_report.tests)["monobit"].passed
                  and not dict((t.name, t) for t in alt_report.tests)["runs"].passed)
    ok = calibrated and degenerate
    assert verdict("8", ok, f"rejection rates over {trials} DRBG trials at alpha=0.01: "
                            f"{rates} (bounds [0.002, 0.03]); all-zero fails monobit and "
                            f"alternating bytes fail runs, deterministically")


def test_criterion_9_clone_hazard_detection():
    provider = SeedProvider([fixed_test_source(b"\x42" * 48)], insecure_override=True)
    try:
        spawn_streams(provider, 2, nonce="cloned-image", log=EventLog(),
                      tag_builder=lambda nonce, index: f"worker/{nonce}")  # index dropped
        raised = False
    except DuplicateSeed:
        raised = True

    streams = spawn_streams(provider, 16, nonce="cloned-image", log=EventLog())
    windows: dict[bytes, int] = {}
    shared = 0
    for idx, handle in enumerate(streams):
        data = handle.next_bytes(1 << 20)
        for off in range(0, len(data), 16):
            w = data[off:off + 16]
            if windows.setdefault(w, idx) != idx:
                shared += 1
    ok = raised and shared == 0
    assert verdict("9", ok, f"byte-identical seed material with identical tags raises "
                            f"DuplicateSeed ({raised}); with stream-index tags, 16 streams x "
                            f"1 MiB share {shared} 128-bit windows")
