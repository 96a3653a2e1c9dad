import json
import os
import random

import pytest

from dprand.bitgen import Backend, GeneratorHandle, spawn_streams
from dprand.drbg import SEED_LEN, CtrDrbg, DrbgConfig
from dprand.entropy import SeedProvider, fixed_test_source, os_urandom_source
from dprand.errors import DuplicateSeed, ReseedRequired
from dprand.events import EventLog
from dprand.mt19937 import Mt19937, init_by_array, init_genrand, temper, untemper

REFERENCE_SEED = 5489
REFERENCE_FIRST10 = [
    3499211612, 581869302, 3890346734, 3586334585, 545404204,
    4161255391, 3922919429, 949333985, 2715962298, 1323567403,
]
REFERENCE_10000TH = 4123659995  # pinned constant for the scalar-seeded stream


def cpython_stream(words, count):
    """The C reference implementation inside CPython, driven from raw state."""
    r = random.Random()
    r.setstate((3, tuple(words) + (624,), None))
    return [r.getrandbits(32) for _ in range(count)]


class TestReferenceConformance:
    def test_first_thousand_outputs_match_reference(self):
        ref = cpython_stream(init_genrand(REFERENCE_SEED), 1000)
        g = Mt19937.from_seed(REFERENCE_SEED)
        assert [g.next_u32() for _ in range(1000)] == ref
        assert ref[:10] == REFERENCE_FIRST10

    def test_ten_thousandth_output(self):
        g = Mt19937.from_seed(REFERENCE_SEED)
        out = 0
        for _ in range(10000):
            out = g.next_u32()
        assert out == REFERENCE_10000TH

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**31, 2**32 - 1])
    def test_array_seeding_matches_cpython(self, seed):
        mine = Mt19937.from_seed_array([seed])
        ref = random.Random(seed)
        assert all(mine.next_u32() == ref.getrandbits(32) for _ in range(700))

    def test_init_by_array_multiword_key(self):
        mine = Mt19937(type(Mt19937.from_seed(0).state)(init_by_array([1, 2, 3]), 624))
        ref = random.Random()
        ref.setstate((3, tuple(init_by_array([1, 2, 3])) + (624,), None))
        assert all(mine.next_u32() == ref.getrandbits(32) for _ in range(100))


class TestTempering:
    def test_round_trip_both_directions(self):
        rng = random.Random(31337)
        for _ in range(100_000):
            y = rng.getrandbits(32)
            assert temper(untemper(y)) == y
            assert untemper(temper(y)) == y

    def test_edges(self):
        for y in (0, 0xFFFFFFFF, 0x80000000, 1):
            assert untemper(temper(y)) == y


class TestHandleWords:
    def test_mt_u64_low_word_first(self):
        a = GeneratorHandle.insecure_mt19937(7)
        b = GeneratorHandle.insecure_mt19937(7)
        w1, w2 = b.next_u32(), b.next_u32()
        assert a.next_u64() == (w2 << 32) | w1

    def test_mt_interleaving_consumes_three_words(self):
        g = GeneratorHandle.insecure_mt19937(7)
        g.next_u64()
        g.next_u32()
        assert g.words_emitted == 3
        ref = GeneratorHandle.insecure_mt19937(7)
        for _ in range(3):
            ref.next_u32()
        assert g.next_u32() == ref.next_u32()

    def test_mt_word_625_crosses_twist(self):
        g = GeneratorHandle.insecure_mt19937(99)
        for _ in range(625):
            g.next_u32()
        assert g.words_emitted == 625

    def test_drbg_u64_is_little_endian_bytes(self):
        seed = os.urandom(SEED_LEN)
        g = GeneratorHandle.from_drbg_seed(seed)
        raw = CtrDrbg(seed).generate(65536)
        assert g.next_u64() == int.from_bytes(raw[:8], "little")
        assert g.next_u32() == int.from_bytes(raw[8:12], "little")

    def test_identical_seeds_identical_streams(self):
        seed = os.urandom(SEED_LEN)
        a = GeneratorHandle.from_drbg_seed(seed)
        b = GeneratorHandle.from_drbg_seed(seed)
        assert [a.next_u64() for _ in range(200)] == [b.next_u64() for _ in range(200)]

    def test_backend_labels(self):
        assert GeneratorHandle.insecure_mt19937(1).backend is Backend.MT19937_INSECURE
        assert GeneratorHandle.from_drbg_seed(bytes(SEED_LEN)).backend is Backend.DRBG

    def test_reseed_required_propagates(self):
        g = GeneratorHandle.from_drbg_seed(bytes(SEED_LEN), DrbgConfig(reseed_interval=1))
        g.next_u64()  # first buffer fill
        with pytest.raises(ReseedRequired):
            g.next_bytes(131072)  # forces a second generate
        assert g.words_emitted == 2  # the failed refill consumed nothing
        g.reseed(os.urandom(SEED_LEN))
        g.next_u64()
        assert g.words_emitted == 4

    def test_drbg_stream_is_consecutive_generates_across_refills(self):
        seed = os.urandom(SEED_LEN)
        drbg = CtrDrbg(seed)
        expected = b"".join(drbg.generate(65536) for _ in range(3))
        g = GeneratorHandle.from_drbg_seed(seed)
        rng = random.Random(6)
        got = bytearray()
        while len(got) < 2 * 65536 + 4096:
            op = rng.choice(("u32", "u64", "bytes"))
            if op == "u32":
                got += g.next_u32().to_bytes(4, "little")
            elif op == "u64":
                got += g.next_u64().to_bytes(8, "little")
            else:
                got += g.next_bytes(4 * rng.randrange(1, 2048))
        assert bytes(got) == expected[:len(got)]
        assert g.words_emitted == len(got) // 4

    def test_mt_bytes_are_little_endian_words_across_refills(self):
        ref = Mt19937.from_seed(11)
        expected = b"".join(ref.next_u32().to_bytes(4, "little") for _ in range(4 * 624 + 3))
        g = GeneratorHandle.insecure_mt19937(11)
        got = g.next_bytes(12) + g.next_bytes(3 * 2496) + g.next_bytes(2496)
        assert got == expected


class TestDouble53:
    class _Stub:
        def __init__(self, words):
            self.words = list(words)

        def next_u64(self):
            return self.words.pop(0)

    def test_zero_word(self):
        assert GeneratorHandle.next_double53(self._Stub([0])) == 0.0

    def test_max_word_strictly_below_one(self):
        val = GeneratorHandle.next_double53(self._Stub([2**64 - 1]))
        assert val == (2**53 - 1) * 2.0**-53
        assert val < 1.0

    def test_half(self):
        assert GeneratorHandle.next_double53(self._Stub([1 << 63])) == 0.5

    def test_empirical_mean(self):
        g = GeneratorHandle.from_drbg_seed(b"\x42" * SEED_LEN)
        n = 10**6
        mean = sum(g.next_double53() for _ in range(n)) / n
        assert 0.499 <= mean <= 0.501

    def test_consumes_exactly_one_u64(self):
        g = GeneratorHandle.insecure_mt19937(3)
        g.next_double53()
        assert g.words_emitted == 2


class TestAccounting:
    def test_words_emitted_matches_consumption_for_any_interleaving(self):
        rng = random.Random(2024)
        for _ in range(20):
            g = GeneratorHandle.insecure_mt19937(rng.getrandbits(31))
            d = GeneratorHandle.from_drbg_seed(rng.randbytes(SEED_LEN))
            expected = 0
            for _ in range(200):
                op = rng.choice(("u32", "u64", "dbl", "bytes"))
                if op == "u32":
                    g.next_u32(); d.next_u32(); expected += 1
                elif op == "u64":
                    g.next_u64(); d.next_u64(); expected += 2
                elif op == "dbl":
                    g.next_double53(); d.next_double53(); expected += 2
                else:
                    g.next_bytes(16); d.next_bytes(16); expected += 4
            assert g.words_emitted == expected
            assert d.words_emitted == expected

    def test_next_bytes_requires_word_alignment(self):
        with pytest.raises(ValueError):
            GeneratorHandle.insecure_mt19937(1).next_bytes(7)


class TestSpawnStreams:
    def test_live_entropy_streams_are_distinct(self):
        provider = SeedProvider([os_urandom_source()])
        log = EventLog()
        handles = spawn_streams(provider, 2, log=log)
        fingerprints = [e["fingerprint_hex"] for e in log.entries() if e["kind"] == "spawn"]
        assert len(set(fingerprints)) == 2
        assert handles[0].next_bytes(1024) != handles[1].next_bytes(1024)

    def test_constant_entropy_distinct_tags_do_not_collide(self):
        provider = SeedProvider([fixed_test_source(b"\x42" * 48)], insecure_override=True)
        log = EventLog()
        handles = spawn_streams(provider, 2, nonce="fixed-nonce", log=log)
        fingerprints = {e["fingerprint_hex"] for e in log.entries() if e["kind"] == "spawn"}
        assert len(fingerprints) == 2  # stream-index tags separate the seeds
        assert handles[0].next_bytes(1024) != handles[1].next_bytes(1024)

    def test_identical_material_and_tags_fail_closed(self):
        provider = SeedProvider([fixed_test_source(b"\x42" * 48)], insecure_override=True)
        with pytest.raises(DuplicateSeed):
            spawn_streams(provider, 2, nonce="n", log=EventLog(),
                          tag_builder=lambda nonce, index: "same-tag-every-time")

    def test_bare_bytes_seed_root_is_refused(self):
        # a seed root must return a list of chunks; bare bytes would be read as ints
        log = EventLog()
        with pytest.raises(TypeError):
            spawn_streams(lambda: b"\x42" * 48, 1, log=log)
        assert log.entries() == []

    def test_audit_log_records_every_stream(self):
        provider = SeedProvider([os_urandom_source()])
        log = EventLog()
        spawn_streams(provider, 3, log=log)
        entries = [e for e in log.entries() if e["kind"] == "spawn"]
        assert [e["stream_index"] for e in entries] == [0, 1, 2]
        assert all(len(e["fingerprint_hex"]) == 64 for e in entries)
        lines = [json.loads(line) for line in log.to_jsonl().splitlines()]
        assert lines == [{"schema": "dprand.event/1", **e} for e in log.entries()]

    def test_duplicate_detected_across_calls_on_one_log(self):
        provider = SeedProvider([fixed_test_source(b"\x42" * 48)], insecure_override=True)
        log = EventLog()
        spawn_streams(provider, 1, nonce="n", log=log)
        with pytest.raises(DuplicateSeed):
            spawn_streams(provider, 1, nonce="n", log=log)
        assert len([e for e in log.entries() if e["kind"] == "spawn"]) == 1

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            spawn_streams(SeedProvider([os_urandom_source()]), 0)

    def test_no_shared_windows_across_streams(self):
        # quick version; the acceptance suite runs 16 streams at 1 MiB each
        provider = SeedProvider([os_urandom_source()])
        handles = spawn_streams(provider, 4, log=EventLog())
        seen: dict[bytes, int] = {}
        for idx, h in enumerate(handles):
            data = h.next_bytes(65536)
            for off in range(0, len(data), 16):
                window = data[off:off + 16]
                assert seen.setdefault(window, idx) == idx
