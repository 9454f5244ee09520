"""Bit-exact 32-bit Mersenne Twister and the derived sampling helpers.

Every piece of randomness in this package (splits, parameter init,
epoch shuffles, dropout masks) flows through this generator so that a
single 32-bit seed reproduces a whole run on any machine.
"""

import numpy as np

_TWO32 = 1 << 32


class MT19937:
    """The classic mt19937ar stream (Matsumoto & Nishimura 1998).

    The state is seeded by init_genrand(seed) and advanced by numpy's C
    MT19937 bit generator, whose raw output is genrand_int32: the same
    tempered 32-bit words, in the same order, as the reference C code.
    """

    def __init__(self, seed: int):
        if not (0 <= seed < _TWO32):
            raise ValueError(f"seed must be a 32-bit unsigned integer, got {seed}")
        # RandomState(int) seeds with init_genrand; its key and position
        # move into a bit generator through the public state setter
        _, key, pos = np.random.RandomState(seed).get_state()[:3]
        self._bits = np.random.MT19937()
        self._bits.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": pos}}

    def next_u32(self) -> int:
        """Next output on [0, 2^32), bit-identical to the reference stream."""
        return self._bits.random_raw()

    def u32_array(self, n: int) -> np.ndarray:
        """The next n outputs as a uint32 array, equal to n next_u32 calls.

        Continues from the current position in the state, so scalar and
        bulk draws may interleave freely. A negative n raises ValueError.
        """
        return self._bits.random_raw(n).astype(np.uint32)

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
