"""Uniform bit-generator handles and the per-worker stream manager.

A handle is single-owner: hand it between threads if you like, never share
one. Parallel randomness comes from spawn_streams, which derives mutually
independent generators and fails closed when two of them would start from
identical seed material (the cloned-VM hazard).
"""
from __future__ import annotations

import enum
import secrets
from hashlib import sha256

from .drbg import SEED_LEN, CtrDrbg, DrbgConfig
from .entropy import mix
from .events import EVENTS, EventLog
from .mt19937 import N, Mt19937, MtState

_DOUBLE_SCALE = 2.0 ** -53
_DRBG_REFILL = 65536
_MT_REFILL = 4 * N  # one twist of outputs


class Backend(enum.Enum):
    DRBG = "drbg"
    MT19937_INSECURE = "mt19937_insecure"


class GeneratorHandle:
    """Uniform 32/64-bit words and 53-bit doubles read from one little-endian byte stream.

    The source, the DRBG or (insecure) MT19937, is read through its generate(n) -> bytes.
    words_emitted counts 32-bit words consumed, whatever the call mix:
    next_u32 is one word, next_u64 and next_double53 are two.
    """

    def __init__(self, backend: Backend, source, refill: int):
        # not for direct use: the named constructors keep the insecure path loud
        self.backend = backend
        self.words_emitted = 0
        self._source = source
        self._refill = refill
        self._buf = b""
        self._pos = 0

    @classmethod
    def from_drbg(cls, drbg: CtrDrbg) -> "GeneratorHandle":
        return cls(Backend.DRBG, drbg, min(_DRBG_REFILL, drbg.config.max_bytes_per_request))

    @classmethod
    def from_drbg_seed(cls, seed_material: bytes | str,
                       config: DrbgConfig | None = None) -> "GeneratorHandle":
        return cls.from_drbg(CtrDrbg(seed_material, config))

    @classmethod
    def insecure_mt19937(cls, seed: int) -> "GeneratorHandle":
        """Attack/testing backend only; the name is the warning label."""
        return cls(Backend.MT19937_INSECURE, Mt19937.from_seed(seed), _MT_REFILL)

    @classmethod
    def insecure_mt19937_from_state(cls, state: MtState) -> "GeneratorHandle":
        return cls(Backend.MT19937_INSECURE, Mt19937(state), _MT_REFILL)

    def _take(self, n: int) -> bytes:
        """The next n bytes of the stream; a failed refill leaves the handle unchanged."""
        buf, end = self._buf, self._pos + n
        if end <= len(buf):
            out = buf[self._pos:end]
        else:
            pieces = [buf[self._pos:]]
            while end > len(buf):
                end -= len(buf)
                buf = self._source.generate(self._refill)
                pieces.append(buf)
            pieces[-1] = buf[:end]
            out = b"".join(pieces)
            self._buf = buf
        self._pos = end
        self.words_emitted += n // 4
        return out

    def reseed(self, seed_material: bytes | str) -> None:
        """Forward fresh seed material to the DRBG; buffered keystream is dropped."""
        if self.backend is not Backend.DRBG:
            raise TypeError("only DRBG-backed handles reseed")
        self._source.reseed(seed_material)
        self._buf = b""
        self._pos = 0

    # --- word interface ---

    def next_u32(self) -> int:
        return int.from_bytes(self._take(4), "little")

    def next_u64(self) -> int:
        """8 little-endian bytes; on MT that is two 32-bit draws, low word first."""
        return int.from_bytes(self._take(8), "little")

    def next_double53(self) -> float:
        """Uniform in [0, 1) with 53 random bits; consumes exactly one 64-bit word."""
        return (self.next_u64() >> 11) * _DOUBLE_SCALE

    def next_bytes(self, n: int) -> bytes:
        """Bulk byte draw for the statistical tests; n must be word-aligned."""
        if n % 4:
            raise ValueError("byte draws must be a multiple of 4 to keep word accounting exact")
        return self._take(n)


def _default_tag(nonce: str, index: int) -> str:
    return f"dprand/stream/{nonce}/{index}"


def spawn_streams(seed_root, count: int, *,
                  config: DrbgConfig | None = None,
                  nonce: str | None = None,
                  log: EventLog | None = None,
                  tag_builder=_default_tag) -> list[GeneratorHandle]:
    """Derive `count` independent DRBG-backed handles.

    seed_root is a callable returning a fresh list of byte strings per
    invocation (a SeedProvider fits). Each stream's seed is mix(chunks, tag)
    where the tag carries a per-run nonce and the stream index, so even
    byte-identical entropy cannot produce byte-identical streams. Identical seed material
    AND identical tags still collide, and that collision is the clone hazard:
    spawn fails closed with DuplicateSeed, against every seed the event log
    has ever recorded (evicted spawn records included), instead of returning twins.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if nonce is None:
        nonce = secrets.token_hex(16)
    log = log if log is not None else EVENTS
    handles = []
    for index in range(count):
        seed = mix(list(seed_root()), SEED_LEN, tag_builder(nonce, index))
        log.record_spawn(index, sha256(seed).hexdigest())
        handles.append(GeneratorHandle.from_drbg_seed(seed, config))
    return handles
