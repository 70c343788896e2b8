"""The package draws its seeded probes and chords with a pure-Python replica
of ``numpy.random.default_rng(seed).uniform``; every draw must equal
numpy's bit for bit, so that ``--reproducible`` outputs do not move."""

import numpy as np
import pytest

from filmhom._pcg64 import PCG64
from filmhom.config import load_config
from filmhom.energy import _chords

SEEDS = [*range(201), 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 64 - 1, 2 ** 64,
         2 ** 64 + 1, 1234567890123456789012345678901234567890]
# (low, high, shape) of successive draws from one generator: the probes of
# several probe_scale values, the chords of check_convexity and edge ranges
DRAWS = [(-1.5, 1.5, (2, 3)), (-1.5, 1.5, (2, 3)), (-1.5, 1.5, (2, 3)),
         (-2.0, 2.0, (2, 1, 3, 200)), (0.0, 1.0, (200,)), (-0.25, 0.25, (1, 1)),
         (-1e-300, 1e-300, (3, 2)), (-1e300, 1e300, (4,)), (0.0, 0.0, (2,)),
         (-7.0, 7.0, (0,))]


def _bits(array):
    return array.dtype, array.shape, array.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_equals_numpy_bit_for_bit(seed):
    ours, theirs = PCG64(seed), np.random.default_rng(seed)
    for low, high, shape in DRAWS:
        assert _bits(ours.uniform(low, high, shape)) == \
            _bits(theirs.uniform(low, high, shape)), (low, high, shape)


@pytest.mark.parametrize("m,n", [(1, 2), (1, 3), (2, 3), (3, 3)])
def test_convexity_chords_equal_numpy_draws(m, n):
    rng = np.random.default_rng(0)
    F, G = rng.uniform(-2.0, 2.0, size=(2, m, n, 200))
    lam = rng.uniform(0.0, 1.0, size=200)
    chords = _chords(m, n)
    assert [_bits(a) for a in chords] == [_bits(F), _bits(G), _bits(lam)]
    assert not any(a.flags.writeable for a in chords)
    assert _chords(m, n) is chords


@pytest.mark.parametrize("seed,scale", [(0, 1.0), (12345, 0.5), (2 ** 40, 3.0),
                                        (7, 0.0)])
def test_probe_matrices_equal_numpy_draws(seed, scale):
    cfg = load_config({"dims": {"n": 3, "m": 2},
                       "profile": {"kind": "sin2-product", "dim": 2},
                       "sweep": {"random_probes": 3, "seed": seed,
                                 "probe_scale": scale}})
    rng = np.random.default_rng(seed)
    want = [rng.uniform(-scale, scale, size=(2, 2)) for _ in range(3)]
    assert [_bits(a) for a in cfg.probe_matrices(2)] == [_bits(a) for a in want]
