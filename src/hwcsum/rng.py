"""Bit-exact 32-bit Mersenne Twister and the derived sampling helpers.

Every piece of randomness in this package (splits, parameter init,
epoch shuffles, dropout masks) flows through this generator so that a
single 32-bit seed reproduces a whole run on any machine.
"""

import numpy as np

_N = 624
_M = 397
_MATRIX_A = 0x9908B0DF
_UPPER_MASK = 0x80000000  # most significant w-r bits
_LOWER_MASK = 0x7FFFFFFF  # least significant r bits

_TWO32 = 1 << 32


def _twist(mt: np.ndarray):
    """Regenerate the 624-word state in place, as vector blocks.

    Word kk becomes mt[kk+397] ^ f(mt[kk], mt[kk+1]) (indices mod 624).
    Every f reads two words not yet regenerated, so all 623 f values but
    the last come from the old state at once. mt[kk+397] is old for
    kk < 227 and already regenerated from kk = 227 on, so the xor runs
    in three blocks, each reading only words that are final before it.
    """
    y = (mt[:-1] & _UPPER_MASK) | (mt[1:] & _LOWER_MASK)
    f = (y >> 1) ^ ((y & 1) * np.uint32(_MATRIX_A))
    k = _N - _M  # 227
    mt[:k] = mt[_M:] ^ f[:k]
    mt[k:2 * k] = mt[:k] ^ f[k:2 * k]
    mt[2 * k:_N - 1] = mt[k:_M - 1] ^ f[2 * k:]
    y = (int(mt[_N - 1]) & _UPPER_MASK) | (int(mt[0]) & _LOWER_MASK)
    mt[_N - 1] = int(mt[_M - 1]) ^ (y >> 1) ^ (_MATRIX_A if y & 1 else 0)


def _temper(y: np.ndarray) -> np.ndarray:
    y = y ^ (y >> 11)
    y ^= (y << 7) & np.uint32(0x9D2C5680)
    y ^= (y << 15) & np.uint32(0xEFC60000)
    y ^= y >> 18
    return y


class MT19937:
    """The classic mt19937ar generator (624-word state, standard tempering)."""

    def __init__(self, seed: int):
        if not (0 <= seed < _TWO32):
            raise ValueError(f"seed must be a 32-bit unsigned integer, got {seed}")
        self._mt = [0] * _N
        self._mti = _N
        self._init_genrand(seed)

    def _init_genrand(self, s: int):
        mt = self._mt
        mt[0] = s & 0xFFFFFFFF
        for i in range(1, _N):
            mt[i] = (1812433253 * (mt[i - 1] ^ (mt[i - 1] >> 30)) + i) & 0xFFFFFFFF
        self._mti = _N

    def next_u32(self) -> int:
        """Next output on [0, 2^32), bit-identical to the reference stream."""
        mt = self._mt
        if self._mti >= _N:
            for kk in range(_N - _M):
                y = (mt[kk] & _UPPER_MASK) | (mt[kk + 1] & _LOWER_MASK)
                mt[kk] = mt[kk + _M] ^ (y >> 1) ^ (_MATRIX_A if y & 1 else 0)
            for kk in range(_N - _M, _N - 1):
                y = (mt[kk] & _UPPER_MASK) | (mt[kk + 1] & _LOWER_MASK)
                mt[kk] = mt[kk + (_M - _N)] ^ (y >> 1) ^ (_MATRIX_A if y & 1 else 0)
            y = (mt[_N - 1] & _UPPER_MASK) | (mt[0] & _LOWER_MASK)
            mt[_N - 1] = mt[_M - 1] ^ (y >> 1) ^ (_MATRIX_A if y & 1 else 0)
            self._mti = 0

        y = mt[self._mti]
        self._mti += 1

        # Tempering
        y ^= y >> 11
        y ^= (y << 7) & 0x9D2C5680
        y ^= (y << 15) & 0xEFC60000
        y ^= y >> 18
        return y

    def u32_array(self, n: int) -> np.ndarray:
        """The next n outputs as a uint32 array, equal to n next_u32 calls.

        Continues from the current position in the state, so scalar and
        bulk draws may interleave freely.
        """
        if n < 0:
            raise ValueError(f"draw count must be >= 0, got {n}")
        out = np.empty(n, dtype=np.uint32)
        mt = np.array(self._mt, dtype=np.uint32)
        filled = 0
        while filled < n:
            if self._mti >= _N:
                _twist(mt)
                self._mti = 0
            take = min(n - filled, _N - self._mti)
            out[filled:filled + take] = mt[self._mti:self._mti + take]
            self._mti += take
            filled += take
        self._mt = mt.tolist()
        return _temper(out)

    def uniform_array(self, n: int, lo: float, hi: float) -> np.ndarray:
        """The next n values of uniform(lo, hi) as a float64 array."""
        return lo + (hi - lo) * (self.u32_array(n) * (1.0 / _TWO32))

    def bounded(self, m: int) -> int:
        """Uniform integer in [0, m) by rejection, bias-free.

        Draws are rejected at or above floor(2^32 / m) * m, then reduced
        modulo m. The rejection limit makes every residue equally likely.
        """
        if m <= 0:
            raise ValueError(f"bound must be positive, got {m}")
        limit = (_TWO32 // m) * m
        while True:
            u = self.next_u32()
            if u < limit:
                return u % m

    def random_float(self) -> float:
        """Uniform float in [0, 1) with 32 bits of resolution."""
        return self.next_u32() * (1.0 / _TWO32)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random_float()

    def shuffle(self, items: list):
        """In-place Fisher-Yates shuffle, iterating i = n-1 down to 1.

        Each step swaps position i with j = bounded(i + 1). The direction
        and the bounded sampling rule are fixed so that identical seeds
        give identical permutations everywhere.
        """
        for i in range(len(items) - 1, 0, -1):
            j = self.bounded(i + 1)
            items[i], items[j] = items[j], items[i]
