"""Entropy acquisition and conditioning.

Raw bits come from several kinds of source (OS device, hardware-style
instructions, a remote service, fixed test doubles) as plain bytes; a
hash-based extractor mixes any number of byte strings into full-entropy
seed material. A stuck or hostile source can therefore never cancel
another source's contribution, which a bare XOR combiner would allow.
"""
from __future__ import annotations

import enum
import os
import struct
import threading
import time
import urllib.error
import urllib.request
from hashlib import sha256

from .errors import (BadResponse, EmptyInput, InsecureUseRefused, RemoteTimeout,
                     RetryExhausted, SourceUnavailable)
from .events import EVENTS, EventLog

MAX_BLOCK_LEN = 1024  # longest single read, and longest chunk mix accepts
MAX_MIX_LEN = 64  # two hash outputs via the counter expansion
SEED_READ_LEN = 48  # bytes a SeedProvider reads from each source per call
EMULATION_SAMPLES = 512  # 16-byte fast-rand samples hashed into one emulated seed block

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


# (retries after the first attempt, pause between retries, resistance) fixed by each kind
_KIND_POLICY = {
    SourceKind.HARDWARE_RAND: (RDRAND_RETRIES, False, Resistance.ADDITIVE),
    SourceKind.HARDWARE_SEED: (RDSEED_RETRIES, True, Resistance.MULTIPLICATIVE),
    SourceKind.OS_DEVICE: (0, False, Resistance.ADDITIVE),
    SourceKind.REMOTE_SERVICE: (0, False, Resistance.UNKNOWN),
    SourceKind.TEST_FIXED: (0, False, Resistance.UNKNOWN),
}


class EntropySource:
    """A named source of one kind plus the fetch primitive that actually produces bytes.

    The kind fixes the retry budget, the pause between retries and the
    resistance class. fetch(n) returns n bytes when the source is ready and
    None when it signals not-ready (the carry-flag-cleared analogue). A
    missing fetch means the source does not exist on this platform; we
    surface that rather than silently substituting another source, so
    fallback stays a caller decision.
    """

    def __init__(self, name: str, kind: SourceKind, block_size: int, fetch=None):
        if not 1 <= block_size <= MAX_BLOCK_LEN:
            raise ValueError(f"block size must be in [1, {MAX_BLOCK_LEN}], got {block_size}")
        self.name = name
        self.kind = kind
        self.block_size = block_size
        self.retry_limit, self.pause, self.resistance = _KIND_POLICY[kind]
        self._fetch = fetch

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
    if n < 1 or n > source.block_size:
        raise ValueError(f"read size must be in [1, {source.block_size}] for {source.name!r}")
    attempts = 0
    while attempts <= source.retry_limit:
        attempts += 1
        data = source.fetch_once(n)
        if data is not None:
            if len(data) != n:
                raise BadResponse(f"source {source.name!r} returned {len(data)} bytes, wanted {n}")
            return data, attempts
        if source.pause:
            time.sleep(0)  # yield the core, mirroring a PAUSE in the retry loop
    return None, attempts


def _log_acquire(log: EventLog, source: str, reads: int, attempts: int, start: float,
                 nbytes: int) -> None:
    log.record("acquire", source=source, reads=reads, attempts=attempts,
               latency_ms=round((time.monotonic() - start) * 1000.0, 3), bytes=nbytes)


def read_with_retry(source: EntropySource, n: int,
                    log: EventLog | None = None) -> bytes:
    """Read exactly n bytes, retrying not-ready signals up to the source's budget.

    Total attempts are 1 + retry_limit before RetryExhausted; one acquire
    record with the attempt count and latency lands in the log either way.
    """
    log = log if log is not None else EVENTS
    start = time.monotonic()
    data, attempts = _read(source, n)
    _log_acquire(log, source.name, 1, attempts, start, n if data is not None else 0)
    if data is None:
        raise RetryExhausted(source.name, attempts)
    return data


_LENGTH = struct.Struct(">Q")


def mix(chunks: list[bytes], out_len: int, domain_tag: str) -> bytes:
    """Condition byte strings into out_len bytes with a hash extractor.

    Deterministic in (chunks, out_len, domain_tag). Each chunk must be bytes
    of length 1..MAX_BLOCK_LEN, so a bare bytes object passed where a list
    of chunks belongs is refused rather than read as ints. The payload is
    the length-prefixed concatenation of the tag and every chunk, hashed
    under an output-block counter when out_len exceeds one digest.
    """
    if not chunks:
        raise EmptyInput("refusing to derive seed material from zero entropy chunks")
    if not 1 <= out_len <= MAX_MIX_LEN:
        raise ValueError(f"mix output length must be in [1, {MAX_MIX_LEN}]")
    tag = domain_tag.encode()
    parts = [_LENGTH.pack(len(tag)), tag]
    for chunk in chunks:
        if not isinstance(chunk, bytes):
            raise TypeError(f"mix chunks must be bytes, got {type(chunk).__name__}")
        if not 0 < len(chunk) <= MAX_BLOCK_LEN:
            raise ValueError(f"chunk length must be in [1, {MAX_BLOCK_LEN}], got {len(chunk)}")
        parts += (_LENGTH.pack(len(chunk)), chunk)
    payload = b"".join(parts)
    out = bytearray()
    counter = 0
    while len(out) < out_len:
        out += sha256(struct.pack(">I", counter) + payload).digest()
        counter += 1
    return bytes(out[:out_len])


# --- concrete sources ---

_OS_LOCK = threading.Lock()  # one pool, one lock, like the device it stands in for


def os_urandom_source() -> EntropySource:
    """The operating system's pooled generator; reads serialize internally."""

    def fetch(n: int) -> bytes:
        with _OS_LOCK:
            return os.urandom(n)

    return EntropySource("os-urandom", SourceKind.OS_DEVICE, MAX_BLOCK_LEN, fetch)


def rdrand_source(fetch=None) -> EntropySource:
    """Hardware fast-rand instruction; unavailable without a native fetcher."""
    return EntropySource("rdrand", SourceKind.HARDWARE_RAND, 8, fetch)


def rdseed_source(fetch=None) -> EntropySource:
    """Hardware seed-grade instruction; unavailable without a native fetcher."""
    return EntropySource("rdseed", SourceKind.HARDWARE_SEED, 8, fetch)


def fixed_test_source(data: bytes, name: str = "test-fixed") -> EntropySource:
    """Deterministic test double; production seeding refuses it without an override."""
    if not data:
        raise EmptyInput("a fixed test source needs at least one byte to repeat")

    def fetch(n: int) -> bytes:
        reps = (n + len(data) - 1) // len(data)
        return (data * reps)[:n]

    return EntropySource(name, SourceKind.TEST_FIXED, MAX_BLOCK_LEN, fetch)


def emulated_seed_source(rand_source: EntropySource,
                         log: EventLog | None = None) -> EntropySource:
    """Derive a seed-grade source from a fast-rand source.

    Hashes EMULATION_SAMPLES 16-byte reads into one output block, so at
    least one fresh internal reseed of the underlying generator lands in
    every block. Each 8-byte read keeps the source's retry contract; the
    reads of one block share a single acquire record.
    """
    log = log if log is not None else EVENTS

    def fetch(n: int) -> bytes:
        start = time.monotonic()
        halves = []
        total = 0
        for _ in range(2 * EMULATION_SAMPLES):
            data, attempts = _read(rand_source, 8)
            total += attempts
            if data is None:
                _log_acquire(log, rand_source.name, len(halves) + 1, total, start, 0)
                raise RetryExhausted(rand_source.name, attempts)
            halves.append(data)
        _log_acquire(log, rand_source.name, len(halves), total, start, 8 * len(halves))
        samples = [halves[i] + halves[i + 1] for i in range(0, len(halves), 2)]
        return mix(samples, n, "rdseed-emulation")

    return EntropySource(f"{rand_source.name}-seed-emulation", SourceKind.HARDWARE_SEED,
                         MAX_MIX_LEN, fetch if rand_source.available else None)


def fetch_remote(endpoint: str, n: int, timeout: float = 5.0) -> bytes:
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
    return body


def remote_source(endpoint: str, timeout: float = 5.0) -> EntropySource:
    def fetch(n: int) -> bytes:
        return fetch_remote(endpoint, n, timeout)

    return EntropySource("remote", SourceKind.REMOTE_SERVICE, MAX_BLOCK_LEN, fetch)


# --- production seeding path ---

class SeedProvider:
    """Reads SEED_READ_LEN bytes (fewer if its reads are smaller) from every source per call.

    This is the production gateway between raw sources and anything that
    seeds a generator: a test_fixed source is refused outright unless the
    caller sets insecure_override, and each provide() writes a seed record.
    """

    def __init__(self, sources: list[EntropySource], *,
                 insecure_override: bool = False,
                 log: EventLog | None = None):
        if not sources:
            raise EmptyInput("a seed provider needs at least one source")
        self.sources = sources
        self.insecure_override = insecure_override
        self.log = log if log is not None else EVENTS

    def __call__(self) -> list[bytes]:
        for src in self.sources:
            if src.kind is SourceKind.TEST_FIXED and not self.insecure_override:
                raise InsecureUseRefused(
                    f"source {src.name!r} is a fixed test double; "
                    "pass insecure_override=True to seed from it anyway")
        chunks = [read_with_retry(src, min(SEED_READ_LEN, src.block_size), self.log)
                  for src in self.sources]
        self.log.record("seed", purpose="seed",
                        sources=[s.name for s in self.sources],
                        kinds=[s.kind.value for s in self.sources],
                        insecure_override=self.insecure_override)
        return chunks
