"""Reference AES-256 CTR_DRBG without a derivation function (NIST SP 800-90A, 10.2.1).

Written from the standard's steps, apart from dprand: every output block is
one explicit increment of V followed by one AES-ECB encryption of V, and the
update function runs the same loop over seedlen bits before XOR-ing in the
provided data. dprand instead drives AES in counter mode over whole runs of
blocks, so agreement between the two is the check.
"""
from __future__ import annotations

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

KEY_LEN = 32
BLOCK_LEN = 16
SEED_LEN = KEY_LEN + BLOCK_LEN
_V_MOD = 1 << (8 * BLOCK_LEN)


class ReferenceCtrDrbg:
    """Instantiate and generate only: no reseeds, no additional input."""

    def __init__(self, seed_material: bytes):
        if len(seed_material) != SEED_LEN:
            raise ValueError(f"seed material must be {SEED_LEN} bytes")
        self._key = bytes(KEY_LEN)
        self._v = 0
        self._update(seed_material)

    def _blocks(self, count: int) -> bytes:
        # V = (V + 1) mod 2^blocklen; output_block = Block_Encrypt(Key, V)
        counters = bytearray()
        for _ in range(count):
            self._v = (self._v + 1) % _V_MOD
            counters += self._v.to_bytes(BLOCK_LEN, "big")
        ecb = Cipher(algorithms.AES(self._key), modes.ECB()).encryptor()
        return ecb.update(bytes(counters)) + ecb.finalize()

    def _update(self, provided: bytes) -> None:
        temp = bytes(a ^ b for a, b in zip(self._blocks(SEED_LEN // BLOCK_LEN), provided))
        self._key = temp[:KEY_LEN]
        self._v = int.from_bytes(temp[KEY_LEN:], "big")

    def generate(self, n: int) -> bytes:
        out = self._blocks(-(-n // BLOCK_LEN))[:n]
        self._update(bytes(SEED_LEN))
        return out


def reference_stream(seed_material: bytes, nbytes: int, refill: int = 65536) -> bytes:
    """The first nbytes a word handle delivers: consecutive `refill`-byte generates."""
    drbg = ReferenceCtrDrbg(seed_material)
    out = bytearray()
    while len(out) < nbytes:
        out += drbg.generate(refill)
    return bytes(out[:nbytes])
