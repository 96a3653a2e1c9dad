import os
import sys
import threading
from hashlib import sha256

import pytest

from dprand.bitgen import spawn_streams
from dprand.drbg import SEED_LEN
from dprand.entropy import (emulated_seed_source, mix, os_urandom_source, rdrand_source,
                            read_with_retry)
from dprand.errors import DuplicateSeed
from dprand.events import CAPACITY, EventLog


def pooled_fetch(pool: bytes):
    """rdrand stand-in: the next n bytes of a fixed pool, wrapping around."""
    pos = 0

    def fetch(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(pool):
            pos = 0
        pos += n
        return pool[pos - n:pos]

    return fetch


def test_two_source_streams_stay_bounded_and_clone_detection_stays_complete():
    log = EventLog()
    urandom = os_urandom_source()
    seed_grade = emulated_seed_source(rdrand_source(pooled_fetch(os.urandom(1 << 16))), log=log)
    provided = []

    def seed_root():
        provided.append([read_with_retry(urandom, 48, log), read_with_retry(seed_grade, 48, log)])
        return provided[-1]

    streams = 1100
    spawn_streams(seed_root, streams, nonce="n", log=log)

    entries = log.entries()
    # per stream: urandom, the 1024 rdrand reads as one record, the derived read, the spawn
    last = entries[-4:]
    assert [(e["kind"], e.get("source")) for e in last] == [
        ("acquire", "os-urandom"), ("acquire", "rdrand"), ("acquire", "rdrand-seed-emulation"),
        ("spawn", None)]
    assert last[1]["reads"] == 1024 and last[1]["bytes"] == 8192
    assert len(entries) + log.dropped <= 4 * streams
    assert len(entries) == CAPACITY and log.dropped > 0

    first_fingerprint = sha256(mix(provided[0], SEED_LEN, "dprand/stream/n/0")).hexdigest()
    assert all(e.get("fingerprint_hex") != first_fingerprint for e in entries)  # evicted
    with pytest.raises(DuplicateSeed):
        spawn_streams(lambda: provided[0], 1, nonce="n", log=log)
    # the fingerprint set is not bounded like the records: more than CAPACITY seeds later,
    # the first stream's seed is still refused
    for i in range(CAPACITY):
        log.record_spawn(streams + i, f"{i:064x}")
    with pytest.raises(DuplicateSeed):
        log.record_spawn(0, first_fingerprint)


def test_concurrent_writers_lose_no_count_and_admit_each_seed_once():
    log = EventLog()
    seeds = 1000
    accepted = []
    barrier = threading.Barrier(8)

    def writer(i):
        barrier.wait(timeout=30)
        for j in range(seeds):
            log.record("acquire", source=f"w{i}", reads=1, attempts=1, latency_ms=0.0, bytes=j)
            try:
                log.record_spawn(i, f"{j:064x}")  # all eight threads race for every seed
                accepted.append(j)
            except DuplicateSeed:
                pass

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(log.entries()) == CAPACITY
    assert len(log.entries()) + log.dropped == 8 * seeds + seeds
    assert sorted(accepted) == list(range(seeds))
