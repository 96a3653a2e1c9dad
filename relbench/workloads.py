"""The three release workloads, driven through dprand's public API.

Each workload builds its inputs from the seed in its constructor (the
set-up, which ends with the first spawn), does one round of timed work per
round() and checks that round's outputs in settle(), outside the clock.
Every round attempts the same operations: cells on the mechanism
workloads, next_bytes chunks on bulk-bytes.
"""
from __future__ import annotations

import math
import os
import random
from math import prod

import numpy as np

import dprand.bitgen
import dprand.drbg
import dprand.entropy
from dprand import (GeneratorHandle, MechanismParams, SeedProvider, emulated_seed_source,
                    geometric_mechanism, os_urandom_source, rdrand_source,
                    run_stat_tests_on_bytes, spawn_streams, us_2020_spec)

import checks

PERSON_DIMS = us_2020_spec().person_hist_dims  # 42 x 2 x 116 x 2 x 63


def sparse_counts(rng: np.random.Generator, cells: int) -> list[int]:
    """True counts of a sparse histogram slice: about one cell in twenty is occupied."""
    occupied = rng.random(cells) < 0.05
    return np.where(occupied, rng.geometric(0.2, cells), 0).tolist()


def pooled_fetch(pool: bytes):
    """rdrand stand-in: hands out the next n bytes of a pool drawn once at set-up.

    The pool wraps around; every stream's seed still mixes a fresh
    os.urandom block and a per-stream tag, so no two seeds repeat.
    """
    pos = 0

    def fetch(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(pool):
            pos = 0
        pos += n
        return pool[pos - n:pos]

    return fetch


def process_log_records() -> int:
    """Records in dprand's process-wide logs, while it has them."""
    logs = ((dprand.entropy, "DIAGNOSTICS", "entries"), (dprand.entropy, "SEEDING_AUDIT", "events"),
            (dprand.bitgen, "STREAM_AUDIT", "entries"))
    return sum(len(getattr(getattr(module, name), method)())
               for module, name, method in logs if hasattr(module, name))


def instrument(tracer) -> None:
    """Trace the layer functions that are called from inside other layers."""
    tracer.patch(dprand.entropy, "read_with_retry", "entropy.read")
    tracer.patch(dprand.entropy, "mix", "entropy.mix")
    tracer.patch(dprand.bitgen, "mix", "entropy.mix")
    tracer.patch(dprand.drbg.CtrDrbg, "generate", "drbg.generate", amount=len)


class Workload:
    ops_per_round: int

    def __init__(self, tracer):
        self.tracer = tracer
        self.failures: list[str] = []
        self.streams = 0
        self.cells = 0
        self.consumed_bytes = 0  # bytes handed out by every handle of the run
        self.log_records = 0  # in-process log records added by the run
        self._pending: list = []
        self._records_before = process_log_records()

    def discard(self) -> None:
        """Drop the outputs of a round that raised."""
        self._pending.clear()

    def finish(self) -> None:
        self.log_records += process_log_records() - self._records_before


class MechanismWorkload(Workload):
    """Protects sparse histogram slices, each on a fresh stream, at EPSILON."""

    EPSILON: float

    def __init__(self, tracer):
        super().__init__(tracer)
        self.params = MechanismParams(self.EPSILON)
        self.tally = checks.NoiseTally()
        self.first_words: list[int] = []
        self.cell_words = 0  # 32-bit words drawn inside geometric_mechanism
        self._spawn_streams = tracer.wrap("bitgen.spawn", spawn_streams)
        self._next_u64 = tracer.wrap("bitgen.draw", GeneratorHandle.next_u64)
        self._protect = tracer.wrap("mechanisms.protect", geometric_mechanism)

    def _spawn(self, count: int) -> list[GeneratorHandle]:
        handles = self._spawn_streams(self.provider, count)
        self.streams += len(handles)
        return handles

    def _protect_slice(self, handle: GeneratorHandle, true_counts: list[int]) -> None:
        self.first_words.append(self._next_u64(handle))
        before = handle.words_emitted
        protected = self._protect(true_counts, self.params, handle)
        self.cell_words += handle.words_emitted - before
        self.consumed_bytes += 4 * handle.words_emitted
        self.cells += len(true_counts)
        self._pending.append((true_counts, protected))

    def settle(self) -> None:
        for true_counts, protected in self._pending:
            if len(protected) != len(true_counts):
                self.failures.append(f"{len(protected)} outputs for {len(true_counts)} cells")
            self.tally.add([m.value for m in protected], true_counts)
        self._pending.clear()

    def finish(self) -> None:
        super().finish()
        self.failures += checks.check_noise(self.tally, self.EPSILON)
        self.failures += checks.check_distinct(self.first_words)

    def end_to_end(self, rounds_per_s: float) -> dict:
        cells_per_s = rounds_per_s * self.ops_per_round
        return {
            "cells_per_s": cells_per_s,
            "words_per_cell": self.cell_words / 2 / self.cells,
            "random_mb_s": cells_per_s * self.consumed_bytes / self.cells / 1e6,
        }


class TractPerson(MechanismWorkload):
    """One audited os-urandom stream per tract; each protects a person-histogram slice."""

    EPSILON = 0.1
    SLICE_DIMS = PERSON_DIMS[2:]  # 116 x 2 x 63 cells per tract
    SLICES = 4  # distinct inputs, used in turn

    def __init__(self, seed: int, tracer):
        super().__init__(tracer)
        rng = np.random.default_rng(seed)
        self.slices = [sparse_counts(rng, prod(self.SLICE_DIMS)) for _ in range(self.SLICES)]
        self.ops_per_round = prod(self.SLICE_DIMS)
        self.provider = tracer.wrap("entropy.provide", SeedProvider([os_urandom_source()]))
        self._ready = self._spawn(1)
        self._round = 0

    def round(self) -> None:
        handles = self._ready or self._spawn(1)
        self._ready = None
        self._protect_slice(handles[0], self.slices[self._round % self.SLICES])
        self._round += 1


class BlockRelease(MechanismWorkload):
    """Small blocks with a stream each, one spawn per county, seeded by urandom + emulated rdseed.

    A round is one release of COUNTIES counties. Each release gets its own
    provider and diagnostics log, the log that grows by 1026 records per
    stream, so that a run's memory does not grow with its length; the
    seeding and stream audit logs are dprand's process-wide defaults.
    """

    EPSILON = math.log(2)
    BLOCK_DIMS = (PERSON_DIMS[1], PERSON_DIMS[3], PERSON_DIMS[4])  # 2 x 2 x 63 cells per block
    COUNTIES = 8
    BLOCKS = 8  # per county
    RDRAND_POOL = 1 << 20

    def __init__(self, seed: int, tracer):
        super().__init__(tracer)
        rng = np.random.default_rng(seed)
        self.blocks = [sparse_counts(rng, prod(self.BLOCK_DIMS))
                       for _ in range(self.COUNTIES * self.BLOCKS)]
        self.ops_per_round = self.COUNTIES * self.BLOCKS * prod(self.BLOCK_DIMS)
        self._rdrand_fetch = pooled_fetch(os.urandom(self.RDRAND_POOL))
        self._new_release()
        self._ready = self._spawn(self.BLOCKS)

    def _new_release(self) -> None:
        # a fresh diagnostics log per release, while dprand has the class and its parameter
        self._release_log = getattr(dprand.entropy, "DiagnosticsLog", lambda: None)()
        log = {"diagnostics": self._release_log} if self._release_log is not None else {}
        seed_grade = emulated_seed_source(rdrand_source(self._rdrand_fetch), **log)
        provider = SeedProvider([os_urandom_source(), seed_grade], **log)
        self.provider = self.tracer.wrap("entropy.provide", provider)

    def round(self) -> None:
        handles, self._ready = self._ready, None
        if handles is None:
            self._new_release()
        for county in range(self.COUNTIES):
            if county or handles is None:
                handles = self._spawn(self.BLOCKS)
            for block, handle in enumerate(handles):
                self._protect_slice(handle, self.blocks[county * self.BLOCKS + block])

    def settle(self) -> None:
        super().settle()
        if self._release_log is not None:
            self.log_records += len(self._release_log.entries())


class BulkBytes(Workload):
    """One known-seed stream per round delivers CHUNKS chunks through next_bytes."""

    CHUNK = 1_000_000  # the battery's smallest sample; not a multiple of the 64 KiB refill
    CHUNKS = 16
    STAT_EVERY = 8  # chunks 0 and 8 of every stream go through the battery
    CHECKED_CHUNKS = 3  # of the first stream, compared with the reference DRBG after the run

    def __init__(self, seed: int, tracer):
        super().__init__(tracer)
        self.ops_per_round = self.CHUNKS
        self._seeds = random.Random(seed)
        self._next_bytes = tracer.wrap("bitgen.next_bytes", GeneratorHandle.next_bytes,
                                       amount=len)
        self._stat = tracer.wrap("quality.stat", run_stat_tests_on_bytes,
                                 amount=lambda report: report.sample_bytes)
        self.battery: list[tuple[str, float, float]] = []
        self.first_seed = self._seeds.randbytes(48)
        self.kept: list[bytes] = []
        self._ready = GeneratorHandle.from_drbg_seed(self.first_seed)
        self.streams = 1

    def round(self) -> None:
        handle, self._ready = self._ready, None
        keep = handle is not None
        if handle is None:
            handle = GeneratorHandle.from_drbg_seed(self._seeds.randbytes(48))
            self.streams += 1
        reports = []
        for index in range(self.CHUNKS):
            data = self._next_bytes(handle, self.CHUNK)
            if index % self.STAT_EVERY == 0:
                reports.append(self._stat(data))
            if keep and index < self.CHECKED_CHUNKS:
                self.kept.append(data)
        self._pending.append((handle, reports))

    def settle(self) -> None:
        for handle, reports in self._pending:
            nbytes = self.CHUNKS * self.CHUNK
            self.failures += checks.check_word_count(handle.words_emitted, nbytes)
            self.consumed_bytes += 4 * handle.words_emitted
            self.cells += nbytes // 8
            self.battery += [(t.name, t.statistic, t.p_value) for r in reports for t in r.tests]
        self._pending.clear()

    def finish(self) -> None:
        super().finish()
        self.failures += checks.check_battery(self.battery)
        self.failures += checks.check_stream(self.first_seed, b"".join(self.kept))

    def end_to_end(self, rounds_per_s: float) -> dict:
        # no mechanism runs here: a cell is one 64-bit word, the paper's flat accounting
        bytes_per_s = rounds_per_s * self.CHUNKS * self.CHUNK
        return {
            "cells_per_s": bytes_per_s / 8,
            "words_per_cell": self.consumed_bytes / 8 / self.cells,
            "random_mb_s": bytes_per_s / 1e6,
        }


WORKLOADS = {"tract-person": TractPerson, "block-release": BlockRelease,
             "bulk-bytes": BulkBytes}
