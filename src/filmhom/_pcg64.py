"""numpy's ``default_rng(seed).uniform``, bit for bit, without importing
numpy's random package.

Importing that package alone adds about 5 MB resident, most of it OpenSSL's
libcrypto, which it maps through ``secrets`` and ``hmac``; filmhom draws a
few thousand doubles at most.  The generator is PCG64 (O'Neill, "PCG:
A Family of Simple Fast Space-Efficient Statistically Good Algorithms for
Random Number Generation", HMC-CS-2014-0905), seeded through numpy's
``SeedSequence`` (NEP 19) with its pool of four 32-bit words.  Each double
costs about half a microsecond in pure Python.
"""

import itertools
import math

import numpy as np

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def _hashmix(value, const, mult):
    """SeedSequence's hash of a 32-bit word: (hash, next hash constant)."""
    value ^= const
    const = const * mult & _M32
    value = value * const & _M32
    return value ^ value >> 16, const


def _mix(x, y):
    """SeedSequence's mix of a hashed word into a pool word."""
    x = (0xca01f9dd * x - 0x4973f715 * y) & _M32
    return x ^ x >> 16


def _seed_words(seed):
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as four ints."""
    entropy = [seed & _M32]       # little-endian 32-bit words, 0 as one word
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    # a pool of four hashed words, each then mixed into the other three,
    # and the words past the fourth mixed into all four
    const, pool = 0x43b0d7e5, []
    for word in (entropy + [0] * 4)[:4]:
        word, const = _hashmix(word, const, 0x931e8875)
        pool.append(word)
    for src, dst in itertools.permutations(range(4), 2):
        word, const = _hashmix(pool[src], const, 0x931e8875)
        pool[dst] = _mix(pool[dst], word)
    for word, dst in itertools.product(entropy[4:], range(4)):
        word, const = _hashmix(word, const, 0x931e8875)
        pool[dst] = _mix(pool[dst], word)
    # generate_state: eight 32-bit words from the cycled pool, paired
    # little-endian into 64-bit ones
    const, state = 0x8b51f9dd, []
    for word in pool + pool:
        word, const = _hashmix(word, const, 0x58f38ded)
        state.append(word)
    return [state[k] | state[k + 1] << 32 for k in range(0, 8, 2)]


class PCG64:
    """The bit generator of numpy's ``default_rng(seed)`` for an int
    seed >= 0, with ``Generator.uniform`` as its one draw."""

    def __init__(self, seed):
        w0, w1, w2, w3 = _seed_words(seed)
        self._inc = ((w2 << 64 | w3) << 1 | 1) & _M128
        # state 0, one step, add the initial state, one step
        self._state = ((self._inc + (w0 << 64 | w1)) * _MULTIPLIER + self._inc) & _M128

    def uniform(self, low, high, shape):
        """An array of ``shape`` drawn as ``Generator.uniform(low, high,
        shape)`` draws it, in C order: ``low + (high - low) * u`` with
        ``u = (x >> 11) * 2**-53`` for each XSL-RR output x."""
        width, state, inc, out = high - low, self._state, self._inc, []
        for _ in range(math.prod(shape)):
            state = (state * _MULTIPLIER + inc) & _M128
            x, rot = (state >> 64 ^ state) & _M64, state >> 122
            x = (x >> rot | x << (64 - rot)) & _M64
            out.append(low + width * ((x >> 11) * 2.0 ** -53))
        self._state = state
        return np.array(out).reshape(shape)
