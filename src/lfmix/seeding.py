"""Counter-based deterministic random draws.

Every random quantity in the package is a pure function of a 64-bit seed and
a tuple of integer counters (agent id, time step, coordinate, sweep point).
Draws therefore do not depend on evaluation order, thread count, or on how
many other draws exist: resizing a system or reordering a sweep leaves all
unrelated values untouched.

Seeds and counters are ints or int arrays, reduced modulo 2^64; arrays
broadcast against each other and give one draw per element, equal to the
scalar draw of that element. All arithmetic is on ``np.uint64`` operands,
whose products wrap modulo 2^64 under any numpy promotion rules.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_ONE = np.uint64(1)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))


def _u64(c):
    if isinstance(c, np.ndarray):
        return c.astype(np.uint64)  # two's complement for negative ids
    return np.uint64(int(c) & _MASK64)


def _finalize(z):
    # splitmix64 finalizer; bijective on 64-bit integers
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def derive_key(seed, *counters):
    """Fold integer counters into a seed; one mixing round per counter.

    Returns an ``np.uint64``, or a uint64 array when any argument is an array.
    """
    with np.errstate(over="ignore"):
        z = _finalize(_u64(seed) ^ _GOLDEN)
        for c in counters:
            z = _finalize(z ^ _finalize((_u64(c) + _ONE) * _GOLDEN))
    return z


def unit_uniform(seed, *counters):
    """Uniform draw in [0, 1) keyed by (seed, *counters). Pure and stateless."""
    return (derive_key(seed, *counters) >> _S11).astype(np.float64) * (1.0 / (1 << 53))
