import random
import threading

import pytest

from conftest import scripted_source
from dprand.bitgen import spawn_streams
from dprand.entropy import (MAX_BLOCK_LEN, EntropySource, Resistance, SeedProvider,
                            SourceKind, emulated_seed_source, fetch_remote,
                            fixed_test_source, mix, os_urandom_source, rdrand_source,
                            rdseed_source, read_with_retry, remote_source)
from dprand.errors import (BadResponse, EmptyInput, InsecureUseRefused, RemoteTimeout,
                           RetryExhausted, SourceUnavailable)
from dprand.events import EVENTS, EventLog
from oracle_sha256 import sha256 as oracle_sha256

MIX_KAT_HEX = (
    "f14947acb1807602119f8fe1f5ef67366466b9c962ce31bd0197405bd775ecc4"
    "f298acad7bca7660b8abc91e9f8f7feb")


class TestReadWithRetry:
    def test_ready_source_single_attempt(self):
        log = EventLog()
        assert read_with_retry(scripted_source([b"\x11"]), 8, log) == b"\x11" * 8
        [entry] = log.entries()
        assert entry == {"kind": "acquire", "t": entry["t"], "source": "scripted", "reads": 1,
                         "attempts": 1, "latency_ms": entry["latency_ms"], "bytes": 8}

    def test_five_not_ready_then_success(self):
        log = EventLog()
        src = scripted_source([None] * 5 + [b"\x22"], kind=SourceKind.HARDWARE_RAND)
        assert read_with_retry(src, 4, log) == b"\x22" * 4
        assert log.entries()[0]["attempts"] == 6

    def test_hardware_rand_exhausts_after_eleven(self):
        src = scripted_source([None] * 50, kind=SourceKind.HARDWARE_RAND)
        with pytest.raises(RetryExhausted) as info:
            read_with_retry(src, 8, EventLog())
        assert info.value.attempts == 11

    def test_hardware_seed_exhausts_after_101(self):
        src = scripted_source([None] * 200, kind=SourceKind.HARDWARE_SEED)
        with pytest.raises(RetryExhausted) as info:
            read_with_retry(src, 8, EventLog())
        assert info.value.attempts == 101

    def test_os_device_does_not_retry(self):
        with pytest.raises(RetryExhausted) as info:
            read_with_retry(scripted_source([None, b"\x11"]), 8, EventLog())
        assert info.value.attempts == 1

    def test_attempt_accounting_over_random_patterns(self):
        # attempts must equal 1 + not-ready count for every failure pattern
        rng = random.Random(1234)
        for _ in range(200):
            failures = rng.randrange(0, 10)
            log = EventLog()
            src = scripted_source([None] * failures + [b"\x33"], kind=SourceKind.HARDWARE_RAND)
            read_with_retry(src, 8, log)
            assert log.entries()[0]["attempts"] == 1 + failures

    def test_read_size_bounds(self):
        with pytest.raises(ValueError):
            read_with_retry(scripted_source([b"\x11"], block_size=16), 17)
        with pytest.raises(ValueError):
            read_with_retry(scripted_source([b"\x11"]), 0)

    def test_os_source_reads_are_capped_before_the_fetch(self):
        log = EventLog()
        src = os_urandom_source()
        assert src.block_size == MAX_BLOCK_LEN
        with pytest.raises(ValueError):
            read_with_retry(src, MAX_BLOCK_LEN + 1, log)
        assert log.entries() == []
        assert len(read_with_retry(src, MAX_BLOCK_LEN, log)) == MAX_BLOCK_LEN

    def test_source_block_size_bounded_by_mixable_chunk(self):
        with pytest.raises(ValueError):
            EntropySource("big", SourceKind.OS_DEVICE, MAX_BLOCK_LEN + 1, lambda n: bytes(n))

    def test_unavailable_platform_source(self):
        for src in (rdrand_source(), rdseed_source()):
            assert not src.available
            with pytest.raises(SourceUnavailable):
                read_with_retry(src, 8, EventLog())

    def test_os_source_concurrent_reads(self):
        src = os_urandom_source()
        log = EventLog()
        results = []

        def reader():
            results.append(read_with_retry(src, 32, log))

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8 and len(set(results)) == 8
        assert src.resistance is Resistance.ADDITIVE


class TestMix:
    def test_rejects_empty_chunk(self):
        with pytest.raises(ValueError):
            mix([b"x", b""], 48, "seed")

    def test_rejects_oversized_chunk(self):
        with pytest.raises(ValueError):
            mix([b"\0" * 1025], 48, "seed")

    def test_chunk_boundary_ok(self):
        assert len(mix([b"\0" * 1024], 48, "seed")) == 48

    def test_rejects_non_bytes_chunk(self):
        # a bare bytes object where a list of chunks belongs iterates as ints
        for chunks in (b"\x42" * 48, [bytearray(b"x")], ["x"]):
            with pytest.raises(TypeError):
                mix(chunks, 48, "seed")

    def test_deterministic(self):
        blocks = [b"alpha" * 4, b"beta" * 6]
        assert mix(blocks, 48, "seed") == mix(blocks, 48, "seed")

    def test_domain_separation(self):
        blocks = [b"alpha" * 4]
        assert mix(blocks, 48, "seed") != mix(blocks, 48, "stream")

    def test_known_answer_zero_block(self):
        # pinned once from an independent from-scratch hash implementation
        got = mix([b"\x00" * 48], 48, "seed")
        assert got.hex() == MIX_KAT_HEX

    def test_known_answer_matches_oracle_reconstruction(self):
        import struct
        payload = b""
        for chunk in (b"seed", b"\x00" * 48):
            payload += struct.pack(">Q", len(chunk)) + chunk
        expected = (oracle_sha256(b"\x00\x00\x00\x00" + payload) +
                    oracle_sha256(b"\x00\x00\x00\x01" + payload))[:48]
        assert expected.hex() == MIX_KAT_HEX

    def test_empty_input_refused(self):
        with pytest.raises(EmptyInput):
            mix([], 48, "seed")

    def test_output_length_bounds(self):
        with pytest.raises(ValueError):
            mix([b"x"], 65, "seed")
        assert len(mix([b"x"], 64, "seed")) == 64
        assert len(mix([b"x"], 1, "seed")) == 1

    def test_length_prefixing_blocks_boundary_shift(self):
        # same concatenation, different block split, must not collide
        a = mix([b"ab", b"c"], 32, "t")
        b = mix([b"a", b"bc"], 32, "t")
        assert a != b

    def test_avalanche(self):
        # flipping one input bit flips each output bit roughly half the time
        rng = random.Random(77)
        trials = 1000
        out_bits = 48 * 8
        flip_counts = [0] * out_bits
        for _ in range(trials):
            data = bytearray(rng.randbytes(48))
            base = mix([bytes(data)], 48, "avalanche")
            pos = rng.randrange(48 * 8)
            data[pos // 8] ^= 1 << (pos % 8)
            flipped = mix([bytes(data)], 48, "avalanche")
            diff = int.from_bytes(base, "big") ^ int.from_bytes(flipped, "big")
            for i in range(out_bits):
                flip_counts[i] += (diff >> i) & 1
        rates = [c / trials for c in flip_counts]
        assert min(rates) >= 0.4 and max(rates) <= 0.6

    def test_second_source_never_a_noop(self):
        rng = random.Random(88)
        for _ in range(1000):
            a, b = rng.randbytes(32), rng.randbytes(32)
            assert mix([a, b], 48, "t") != mix([a], 48, "t")


class TestRemote:
    def test_fetch_passthrough(self, entropy_server):
        url, behavior = entropy_server
        log = EventLog()
        global_before = len(EVENTS.entries()) + EVENTS.dropped
        src = remote_source(url)
        assert read_with_retry(src, 1024, log) == behavior.pattern * 1024
        assert src.resistance is Resistance.UNKNOWN
        assert behavior.requests == [1024]
        # one record per read, and none more from the fetch, here or in the global log
        assert len(EVENTS.entries()) + EVENTS.dropped == global_before
        [entry] = log.entries()
        assert entry["kind"] == "acquire" and entry["source"] == "remote"
        assert entry["bytes"] == 1024

    def test_latency_is_measured(self, entropy_server):
        url, behavior = entropy_server
        behavior.delay_s = 0.1
        log = EventLog()
        read_with_retry(remote_source(url), 64, log)
        [entry] = log.entries()
        assert entry["kind"] == "acquire"
        assert entry["latency_ms"] >= 100.0

    def test_short_body_is_bad_response(self, entropy_server):
        url, behavior = entropy_server
        behavior.short_by = 524
        with pytest.raises(BadResponse):
            fetch_remote(url, 1024)

    def test_error_status_is_bad_response(self, entropy_server):
        url, behavior = entropy_server
        behavior.status = 500
        with pytest.raises(BadResponse):
            fetch_remote(url, 16)

    def test_timeout(self, entropy_server):
        url, behavior = entropy_server
        behavior.delay_s = 1.0
        with pytest.raises(RemoteTimeout):
            fetch_remote(url, 16, timeout=0.2)

    def test_request_size_cap(self):
        with pytest.raises(ValueError):
            fetch_remote("http://127.0.0.1:1", 1025)

    def test_remote_source_wraps_fetch(self, entropy_server):
        url, _ = entropy_server
        src = remote_source(url)
        assert len(read_with_retry(src, 256, EventLog())) == 256


class TestSeedProvider:
    def test_empty_fixed_source_refused_at_construction(self):
        with pytest.raises(EmptyInput):
            fixed_test_source(b"")

    def test_refuses_fixed_source_without_override(self):
        provider = SeedProvider([fixed_test_source(b"\x42" * 32)])
        with pytest.raises(InsecureUseRefused):
            provider()

    def test_override_allows_fixed_source_and_is_audited(self):
        log = EventLog()
        provider = SeedProvider([fixed_test_source(b"\x42" * 32)],
                                insecure_override=True, log=log)
        assert provider() == [b"\x42" * 48]
        [seed] = [e for e in log.entries() if e["kind"] == "seed"]
        assert seed["insecure_override"] is True
        assert seed["kinds"] == ["test_fixed"]
        assert seed["sources"] == ["test-fixed"]

    def test_no_unaudited_fixed_seeding_path(self):
        # a refused provide() leaves no seed event; every test_fixed seed event carries the override
        log = EventLog()

        def seed_events():
            return [e for e in log.entries() if e["kind"] == "seed"]

        with pytest.raises(InsecureUseRefused):
            SeedProvider([os_urandom_source(), fixed_test_source(b"\x11" * 16)], log=log)()
        assert seed_events() == []
        SeedProvider([os_urandom_source()], log=log)()
        SeedProvider([fixed_test_source(b"\x11" * 16)], insecure_override=True, log=log)()
        events = seed_events()
        assert [e["kinds"] for e in events] == [["os_device"], ["test_fixed"]]
        fixed = [e for e in events if "test_fixed" in e["kinds"]]
        assert fixed and all(e["insecure_override"] is True for e in fixed)

    def test_mixes_multiple_sources(self):
        log = EventLog()
        provider = SeedProvider([os_urandom_source(), fixed_test_source(b"\x01" * 48)],
                                insecure_override=True, log=log)
        chunks = provider()
        assert len(chunks) == 2 and chunks[1] == b"\x01" * 48
        # provenance is in the log: one acquire per source in order, then the seed record
        entries = log.entries()
        assert [(e["kind"], e.get("source")) for e in entries] == [
            ("acquire", "os-urandom"), ("acquire", "test-fixed"), ("seed", None)]
        assert entries[-1]["sources"] == ["os-urandom", "test-fixed"]
        assert entries[-1]["purpose"] == "seed"


class TestEmulatedSeedSource:
    def test_hashes_512_samples_into_one_block(self):
        calls = []

        def counting_fetch(n):
            calls.append(n)
            return b"\x5A" * n

        rand = EntropySource("rdrand", SourceKind.HARDWARE_RAND, 8, counting_fetch)
        derived = emulated_seed_source(rand, log=EventLog())
        block = read_with_retry(derived, 48, EventLog())
        assert len(block) == 48
        assert len(calls) == 1024  # 512 samples, two 8-byte halves each
        assert derived.resistance is Resistance.MULTIPLICATIVE
        # deterministic underlying source makes the derived block deterministic
        calls.clear()
        assert read_with_retry(derived, 48, EventLog()) == block

    def test_not_ready_reads_are_retried_and_counted_in_one_record(self):
        # each inner read keeps rdrand's contract: up to 10 not-ready signals, then data
        data = [bytes([i % 251]) for i in range(1024)]
        rng = random.Random(9)
        not_ready = {rng.randrange(1023): rng.randrange(1, 11) for _ in range(40)}
        not_ready[1023] = 10
        script = []
        for i, step in enumerate(data):
            script += [None] * not_ready.get(i, 0) + [step]
        k = sum(not_ready.values())

        def derive(script, log):
            rand = scripted_source(script, kind=SourceKind.HARDWARE_RAND, name="rdrand")
            return read_with_retry(emulated_seed_source(rand, log=log), 48, log)

        log = EventLog()
        assert derive(script, log) == derive(data, EventLog())
        [aggregate] = [e for e in log.entries() if e["source"] == "rdrand"]
        assert aggregate["kind"] == "acquire"
        assert (aggregate["reads"], aggregate["attempts"], aggregate["bytes"]) == (1024, 1024 + k, 8192)

    def test_eleven_not_ready_in_a_row_exhausts(self):
        script = [b"\x01"] * 5 + [None] * 11 + [b"\x02"] * 1024
        rand = scripted_source(script, kind=SourceKind.HARDWARE_RAND, name="rdrand")
        log = EventLog()
        with pytest.raises(RetryExhausted) as info:
            read_with_retry(emulated_seed_source(rand, log=log), 48, log)
        assert info.value.attempts == 11
        [entry] = log.entries()
        assert (entry["source"], entry["reads"], entry["attempts"], entry["bytes"]) == \
            ("rdrand", 6, 16, 0)

    def test_unavailable_when_underlying_missing(self):
        derived = emulated_seed_source(rdrand_source())
        assert not derived.available


def counter_fetch():
    """rdrand stand-in whose i-th fetch (1-based) returns i as n little-endian bytes."""
    calls = 0

    def fetch(n):
        nonlocal calls
        calls += 1
        return calls.to_bytes(n, "little")

    return fetch


class TestSeedingPinned:
    """Seed, fingerprint and stream bytes of the two-source seeding path, pinned exactly."""

    def test_emulated_seed_read(self):
        log = EventLog()
        derived = emulated_seed_source(rdrand_source(counter_fetch()), log=log)
        assert read_with_retry(derived, 48, log).hex() == (
            "572459fffaf100505bb3f9c8b8bf7dac3f47a6367bda047f"
            "793d1b2fa07f11038ea3c44e535088ffa3e36e51c7d63658")

    def test_two_source_spawn(self):
        log = EventLog()
        emulated = emulated_seed_source(rdrand_source(counter_fetch()), log=log)
        provider = SeedProvider([fixed_test_source(bytes(range(48))), emulated],
                                insecure_override=True, log=log)
        handles = spawn_streams(provider, 2, nonce="pin", log=log)
        assert [e["fingerprint_hex"] for e in log.entries() if e["kind"] == "spawn"] == [
            "00067f6bd7507ab59227308409807f466d3a2f640fe5ba1350f0d8be5f7569ac",
            "4f720eaba32a8c5e25f1ab91f864f7fb50e79232fe573e13e6b487fae263d94d"]
        assert [h.next_bytes(16).hex() for h in handles] == [
            "e8895946f4130a713abe86df5752f9a6", "ea449aac400475f5ae2611a3d4a02d67"]
