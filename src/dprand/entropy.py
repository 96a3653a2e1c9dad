"""Entropy acquisition and conditioning.

Raw bits come from several kinds of source (OS device, hardware-style
instructions, a remote service, fixed test doubles); a hash-based extractor
mixes any number of blocks into full-entropy seed material. A stuck or
hostile source can therefore never cancel another source's contribution,
which a bare XOR combiner would allow.
"""
from __future__ import annotations

import enum
import os
import struct
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from hashlib import sha256

from .errors import (BadResponse, EmptyInput, InsecureUseRefused, RemoteTimeout,
                     RetryExhausted, SourceUnavailable)
from .events import EVENTS, EventLog

MAX_BLOCK_LEN = 1024
MAX_MIX_LEN = 64  # two hash outputs via the counter expansion

RDRAND_RETRIES = 10    # tight-loop retries recommended for the fast instruction
RDSEED_RETRIES = 100   # seed-grade instruction: more retries, with a pause each time


class Resistance(enum.Enum):
    """How samples compose when concatenated into wider values."""

    MULTIPLICATIVE = "multiplicative"  # seed-grade: prediction resistance scales with width
    ADDITIVE = "additive"              # generator-output-grade: resistance only adds
    UNKNOWN = "unknown"


class SourceKind(enum.Enum):
    OS_DEVICE = "os_device"
    HARDWARE_SEED = "hardware_seed"
    HARDWARE_RAND = "hardware_rand"
    REMOTE_SERVICE = "remote_service"
    TEST_FIXED = "test_fixed"


@dataclass(frozen=True)
class EntropyBlock:
    """A bounded run of raw bytes tagged with where it came from."""

    data: bytes
    source_id: str
    resistance_class: Resistance = Resistance.UNKNOWN

    def __post_init__(self):
        if not 0 < len(self.data) <= MAX_BLOCK_LEN:
            raise ValueError(f"block length must be in [1, {MAX_BLOCK_LEN}], got {len(self.data)}")


@dataclass(frozen=True)
class SourceDescriptor:
    name: str
    kind: SourceKind
    block_size: int
    retry_limit: int = 0
    pause_between_retries: bool = False

    def __post_init__(self):
        if self.kind is SourceKind.HARDWARE_RAND:
            if self.retry_limit != RDRAND_RETRIES or self.pause_between_retries:
                raise ValueError("hardware_rand sources retry 10 times with no pause")
        if self.kind is SourceKind.HARDWARE_SEED:
            if self.retry_limit != RDSEED_RETRIES or not self.pause_between_retries:
                raise ValueError("hardware_seed sources retry 100 times with a pause")


class EntropySource:
    """A descriptor plus the fetch primitive that actually produces bytes.

    fetch(n) returns n bytes when the source is ready and None when it
    signals not-ready (the carry-flag-cleared analogue). A missing fetch
    means the source does not exist on this platform; we surface that rather
    than silently substituting another source, so fallback stays a caller
    decision.
    """

    def __init__(self, descriptor: SourceDescriptor, fetch=None,
                 resistance: Resistance = Resistance.UNKNOWN):
        self.descriptor = descriptor
        self._fetch = fetch
        self.resistance = resistance

    @property
    def name(self) -> str:
        return self.descriptor.name

    @property
    def available(self) -> bool:
        return self._fetch is not None

    def fetch_once(self, n: int):
        if self._fetch is None:
            raise SourceUnavailable(f"source {self.name!r} is not available on this platform")
        return self._fetch(n)


def _read(source: EntropySource, n: int) -> tuple[bytes | None, int]:
    """Up to 1 + retry_limit fetches of n bytes; (data, attempts), data None if all were not-ready.

    Writes no record: callers log one record per read, or one per loop of reads.
    """
    desc = source.descriptor
    if n < 1 or n > desc.block_size:
        raise ValueError(f"read size must be in [1, {desc.block_size}] for {source.name!r}")
    attempts = 0
    while attempts <= desc.retry_limit:
        attempts += 1
        data = source.fetch_once(n)
        if data is not None:
            if len(data) != n:
                raise BadResponse(f"source {source.name!r} returned {len(data)} bytes, wanted {n}")
            return data, attempts
        if desc.pause_between_retries:
            time.sleep(0)  # yield the core, mirroring a PAUSE in the retry loop
    return None, attempts


def _log_acquire(log: EventLog, source: str, reads: int, attempts: int, start: float,
                 nbytes: int) -> None:
    log.record("acquire", source=source, reads=reads, attempts=attempts,
               latency_ms=round((time.monotonic() - start) * 1000.0, 3), bytes=nbytes)


def read_with_retry(source: EntropySource, n: int,
                    log: EventLog | None = None) -> EntropyBlock:
    """Read exactly n bytes, retrying not-ready signals up to the descriptor's budget.

    Total attempts are 1 + retry_limit before RetryExhausted; one acquire
    record with the attempt count and latency lands in the log either way.
    """
    log = log if log is not None else EVENTS
    start = time.monotonic()
    data, attempts = _read(source, n)
    _log_acquire(log, source.name, 1, attempts, start, n if data is not None else 0)
    if data is None:
        raise RetryExhausted(source.name, attempts)
    return EntropyBlock(data, source.name, source.resistance)


def _length_prefixed(chunks) -> bytes:
    out = bytearray()
    for chunk in chunks:
        out += struct.pack(">Q", len(chunk))
        out += chunk
    return bytes(out)


def mix(blocks: list[EntropyBlock], out_len: int, domain_tag: str) -> bytes:
    """Condition blocks into out_len bytes with a hash extractor.

    Deterministic in (blocks, out_len, domain_tag). The payload is the
    length-prefixed concatenation of the tag and every block, hashed under
    an output-block counter when out_len exceeds one digest.
    """
    if not blocks:
        raise EmptyInput("refusing to derive seed material from zero entropy blocks")
    if not 1 <= out_len <= MAX_MIX_LEN:
        raise ValueError(f"mix output length must be in [1, {MAX_MIX_LEN}]")
    payload = _length_prefixed([domain_tag.encode()] + [b.data for b in blocks])
    out = bytearray()
    counter = 0
    while len(out) < out_len:
        out += sha256(struct.pack(">I", counter) + payload).digest()
        counter += 1
    return bytes(out[:out_len])


# --- concrete sources ---

_OS_LOCK = threading.Lock()  # one pool, one lock, like the device it stands in for


def os_urandom_source(block_size: int = 4096) -> EntropySource:
    """The operating system's pooled generator; reads serialize internally."""

    def fetch(n: int) -> bytes:
        with _OS_LOCK:
            return os.urandom(n)

    desc = SourceDescriptor("os-urandom", SourceKind.OS_DEVICE, block_size)
    return EntropySource(desc, fetch, Resistance.ADDITIVE)


def rdrand_source(fetch=None) -> EntropySource:
    """Hardware fast-rand instruction; unavailable without a native fetcher."""
    desc = SourceDescriptor("rdrand", SourceKind.HARDWARE_RAND, 8,
                            retry_limit=RDRAND_RETRIES, pause_between_retries=False)
    return EntropySource(desc, fetch, Resistance.ADDITIVE)


def rdseed_source(fetch=None) -> EntropySource:
    """Hardware seed-grade instruction; unavailable without a native fetcher."""
    desc = SourceDescriptor("rdseed", SourceKind.HARDWARE_SEED, 8,
                            retry_limit=RDSEED_RETRIES, pause_between_retries=True)
    return EntropySource(desc, fetch, Resistance.MULTIPLICATIVE)


def fixed_test_source(data: bytes, name: str = "test-fixed") -> EntropySource:
    """Deterministic test double; production seeding refuses it without an override."""

    def fetch(n: int) -> bytes:
        reps = (n + len(data) - 1) // len(data)
        return (data * reps)[:n]

    desc = SourceDescriptor(name, SourceKind.TEST_FIXED, MAX_BLOCK_LEN)
    return EntropySource(desc, fetch, Resistance.UNKNOWN)


def emulated_seed_source(rand_source: EntropySource,
                         samples: int = 512,
                         log: EventLog | None = None) -> EntropySource:
    """Derive a seed-grade source from a fast-rand source.

    Hashes `samples` 16-byte reads into one output block, so at least one
    fresh internal reseed of the underlying generator lands in every block.
    Each 8-byte read keeps the source's retry contract; the 2 * samples reads
    of one block share a single acquire record.
    """
    log = log if log is not None else EVENTS

    def fetch(n: int) -> bytes:
        start = time.monotonic()
        halves = []
        total = 0
        for _ in range(2 * samples):
            data, attempts = _read(rand_source, 8)
            total += attempts
            if data is None:
                _log_acquire(log, rand_source.name, len(halves) + 1, total, start, 0)
                raise RetryExhausted(rand_source.name, attempts)
            halves.append(data)
        _log_acquire(log, rand_source.name, len(halves), total, start, 8 * len(halves))
        blocks = [EntropyBlock(halves[i] + halves[i + 1], rand_source.name, rand_source.resistance)
                  for i in range(0, len(halves), 2)]
        return mix(blocks, n, "rdseed-emulation")

    desc = SourceDescriptor(f"{rand_source.name}-seed-emulation", SourceKind.HARDWARE_SEED,
                            MAX_MIX_LEN, retry_limit=RDSEED_RETRIES, pause_between_retries=True)
    if not rand_source.available:
        fetch = None
    return EntropySource(desc, fetch, Resistance.MULTIPLICATIVE)


def fetch_remote(endpoint: str, n: int, timeout: float = 5.0) -> EntropyBlock:
    """GET {endpoint}/entropy?n=N and return exactly n raw bytes.

    One request per call, n capped at the service's 1024-byte chunk size.
    Writes no record: read_with_retry over remote_source logs the round trip.
    """
    if not 1 <= n <= MAX_BLOCK_LEN:
        raise ValueError(f"remote reads are limited to [1, {MAX_BLOCK_LEN}] bytes per request")
    url = f"{endpoint.rstrip('/')}/entropy?n={n}"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            status = resp.status
            body = resp.read()
    except TimeoutError as exc:
        raise RemoteTimeout(f"no answer from {url} within {timeout}s") from exc
    except urllib.error.HTTPError as exc:
        raise BadResponse(f"{url} answered status {exc.code}") from exc
    except urllib.error.URLError as exc:
        if isinstance(exc.reason, TimeoutError):
            raise RemoteTimeout(f"no answer from {url} within {timeout}s") from exc
        raise BadResponse(f"{url} unreachable: {exc.reason}") from exc
    if status != 200:
        raise BadResponse(f"{url} answered status {status}")
    if len(body) != n:
        raise BadResponse(f"{url} returned {len(body)} bytes, wanted {n}")
    return EntropyBlock(body, "remote", Resistance.UNKNOWN)


def remote_source(endpoint: str, timeout: float = 5.0) -> EntropySource:
    def fetch(n: int) -> bytes:
        return fetch_remote(endpoint, n, timeout).data

    desc = SourceDescriptor("remote", SourceKind.REMOTE_SERVICE, MAX_BLOCK_LEN)
    return EntropySource(desc, fetch, Resistance.UNKNOWN)


# --- production seeding path ---

class SeedProvider:
    """Reads one block from every configured source per call.

    This is the production gateway between raw sources and anything that
    seeds a generator: a test_fixed source is refused outright unless the
    caller sets insecure_override, and each provide() writes a seed record.
    """

    def __init__(self, sources: list[EntropySource], block_len: int = 48, *,
                 insecure_override: bool = False,
                 log: EventLog | None = None,
                 purpose: str = "seed"):
        if not sources:
            raise EmptyInput("a seed provider needs at least one source")
        self.sources = sources
        self.block_len = block_len
        self.insecure_override = insecure_override
        self.log = log if log is not None else EVENTS
        self.purpose = purpose

    def __call__(self) -> list[EntropyBlock]:
        for src in self.sources:
            if src.descriptor.kind is SourceKind.TEST_FIXED and not self.insecure_override:
                raise InsecureUseRefused(
                    f"source {src.name!r} is a fixed test double; "
                    "pass insecure_override=True to seed from it anyway")
        blocks = [read_with_retry(src, min(self.block_len, src.descriptor.block_size), self.log)
                  for src in self.sources]
        self.log.record("seed", purpose=self.purpose,
                        sources=[s.name for s in self.sources],
                        kinds=[s.descriptor.kind.value for s in self.sources],
                        insecure_override=self.insecure_override)
        return blocks
