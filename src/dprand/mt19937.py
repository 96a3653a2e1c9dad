"""MT19937 core: reference seeding, twist, tempering, and the inverse transform.

This generator exists here for two reasons only: as the attack target showing
why non-cryptographic generators void DP guarantees, and as a conformance
reference. Production randomness comes from the DRBG.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

N = 624
MATRIX_A = 0x9908B0DF
UPPER_MASK = 0x80000000
LOWER_MASK = 0x7FFFFFFF
_MASK32 = 0xFFFFFFFF


@dataclass
class MtState:
    """624 32-bit state words plus the read position; index == 624 means a twist is pending."""

    words: list[int]
    index: int = N

    def __post_init__(self):
        if len(self.words) != N:
            raise ValueError(f"state needs exactly {N} words, got {len(self.words)}")
        if not 0 <= self.index <= N:
            raise ValueError(f"index must be in [0, {N}], got {self.index}")


def init_genrand(seed: int) -> list[int]:
    """Scalar seeding recurrence (multiplier 1812433253) from the reference algorithm."""
    mt = [0] * N
    mt[0] = seed & _MASK32
    for i in range(1, N):
        mt[i] = (1812433253 * (mt[i - 1] ^ (mt[i - 1] >> 30)) + i) & _MASK32
    return mt


def init_by_array(key: list[int]) -> list[int]:
    """Array seeding from the reference algorithm (what CPython's random module uses)."""
    mt = init_genrand(19650218)
    i, j = 1, 0
    for _ in range(max(N, len(key))):
        mt[i] = ((mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525)) + key[j] + j) & _MASK32
        i += 1
        j += 1
        if i >= N:
            mt[0] = mt[N - 1]
            i = 1
        if j >= len(key):
            j = 0
    for _ in range(N - 1):
        mt[i] = ((mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941)) - i) & _MASK32
        i += 1
        if i >= N:
            mt[0] = mt[N - 1]
            i = 1
    mt[0] = 0x80000000
    return mt


def temper(y: int) -> int:
    y ^= y >> 11
    y ^= (y << 7) & 0x9D2C5680
    y ^= (y << 15) & 0xEFC60000
    y ^= y >> 18
    return y


def _invert_right_xor(y: int, shift: int) -> int:
    # x ^ (x >> shift) == y; top `shift` bits of x are already exposed in y.
    x = y
    for _ in range(32 // shift):
        x = y ^ (x >> shift)
    return x


def _invert_left_xor_masked(y: int, shift: int, mask: int) -> int:
    # x ^ ((x << shift) & mask) == y; bottom `shift` bits of x are exposed in y.
    x = y
    for _ in range(32 // shift):
        x = (y ^ ((x << shift) & mask)) & _MASK32
    return x


def untemper(y: int) -> int:
    """Invert the tempering transform; total on 32-bit words, temper(untemper(y)) == y."""
    y = _invert_right_xor(y, 18)
    y = _invert_left_xor_masked(y, 15, 0xEFC60000)
    y = _invert_left_xor_masked(y, 7, 0x9D2C5680)
    y = _invert_right_xor(y, 11)
    return y


def twist_transform(a: int, b: int) -> int:
    """One step of the recurrence: combines the sign bit of `a` with the low bits of `b`."""
    y = (a & UPPER_MASK) | (b & LOWER_MASK)
    x = y >> 1
    if y & 1:
        x ^= MATRIX_A
    return x


class Mt19937:
    """Plain sequential MT19937 over an explicit state.

    The in-place twist implements the linear recurrence
    x[k+624] = x[k+397] ^ twist_transform(x[k], x[k+1]) over the output
    sequence, so a state built from ANY 624 consecutive untempered outputs
    (twist-aligned or not) evolves correctly. The attack module relies on
    this.
    """

    def __init__(self, state: MtState):
        self._mt = list(state.words)
        self._index = state.index

    @classmethod
    def from_seed(cls, seed: int) -> "Mt19937":
        return cls(MtState(init_genrand(seed), N))

    @classmethod
    def from_seed_array(cls, key: list[int]) -> "Mt19937":
        return cls(MtState(init_by_array(key), N))

    @property
    def state(self) -> MtState:
        return MtState(list(self._mt), self._index)

    def _twist(self):
        mt = self._mt
        for i in range(N):
            mt[i] = mt[(i + 397) % N] ^ twist_transform(mt[i], mt[(i + 1) % N])
        self._index = 0

    def next_u32(self) -> int:
        if self._index >= N:
            self._twist()
        y = temper(self._mt[self._index])
        self._index += 1
        return y

    def generate(self, n: int) -> bytes:
        """The next n // 4 outputs as little-endian 32-bit words: the byte stream handles read."""
        words = n // 4
        return struct.pack(f"<{words}I", *[self.next_u32() for _ in range(words)])
