"""Deterministic random streams for state sampling and conjecture scans.

The generator is SplitMix64 (Steele, Lea & Flood): 64-bit state advanced by
the additive constant 0x9E3779B97F4A7C15, output finalized with the
murmur-style mixer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

All arithmetic is modulo 2**64.  Derived quantities are fixed so another
implementation can reproduce the streams bit for bit:

* uniform double in (0, 1]:   ((next_u64() >> 11) + 1) * 2**-53
* standard normal pair:       Box-Muller on two consecutive uniforms u1, u2:
                              r = sqrt(-2 ln u1),
                              (r cos(2 pi u2), r sin(2 pi u2));
                              the cosine value is returned first.
* complex standard normal:    re then im, each a standard normal draw.
* child stream for index k:   seeded with the k-th output (0-based) of the
                              parent stream, i.e. mix(seed + (k+1)*GAMMA).

The stream is counter-based: output j (0-based) of the stream seeded with s is
mix(s + (j+1)*GAMMA), with no sequential state.  ``stream_uniforms`` uses this
to draw the uniforms of many streams in one uint64 array pass, and
``complex_normals`` turns them into complex normals pair by pair; both give
the same bits as the ``SplitMix64`` methods.  A fresh stream spends exactly
one uniform pair per complex normal, so a sampled state's draw count follows
from its recipe alone: 2*N*rank uniforms for a Ginibre state of dimension N,
terms + 2*terms*(n+m) for a separable n x m mixture of ``terms`` product
states.  ``density.sample_block`` draws a whole block of recipes this way
(``density.sample_blocks`` feeds it a job one block at a time); a state
sampled inside a job has the same bytes as its one-recipe replay.

``sample_block`` works in three phases: one ``stream_uniforms`` draw, then
``complex_normals`` on the uniforms of every recipe group (and the weights
-ln u of every separable group's head uniforms), then the matrix builds.
Every logarithm of a draw, Box-Muller's and the separable and random
X-state weights', is taken by ``scalar_logs``, one ``math.log`` call at a
time: numpy's vector log differs from it in the last bit on some values,
and differently with and without AVX-512.  That pass ran about 3.2 times
slower per value right after the complex matmul of a Ginibre build (Intel
Xeon, OpenBLAS 0.3.31), so no logarithm is taken once a build has started.
``stream_uniforms`` and ``complex_normals`` work mostly in place: each
peaks at about 2 to 2.5 times its output.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_TWO_PI = 2.0 * math.pi
_INV_2_53 = 2.0 ** -53


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


# perfbench/tracer.py patches the four draw methods by name; keep them.
class SplitMix64:
    """SplitMix64 stream with uniform, normal and complex-normal draws."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def uniform(self) -> float:
        """Uniform double in (0, 1]; never 0, so safe under log()."""
        return ((self.next_u64() >> 11) + 1) * _INV_2_53

    def normal(self) -> float:
        if self._spare_normal is not None:
            value, self._spare_normal = self._spare_normal, None
            return value
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(_TWO_PI * u2)
        return r * math.cos(_TWO_PI * u2)

    def complex_normal(self) -> complex:
        re = self.normal()
        im = self.normal()
        return complex(re, im)


def child_seed(seed: int, index: int) -> int:
    """Seed for the index-th child stream: the index-th parent output, O(1)."""
    if index < 0:
        raise ValueError(f"child index must be >= 0, got {index}")
    return _mix((seed + (index + 1) * _GAMMA) & _MASK64)


def stream_uniforms(seeds, counts) -> np.ndarray:
    """The first ``counts[i]`` uniforms of each stream ``seeds[i]``, concatenated.

    Bit-identical to ``SplitMix64(seeds[i]).uniform()`` repeated; seeds are
    masked to 64 bits first, as the constructor does.  Output j of the whole
    array is stream i's output ``j - offsets[i]``, whose mixer input
    ``start_i + (j + 1 - offsets[i]) * GAMMA`` is written as
    ``(j + 1) * GAMMA + (start_i - offsets[i] * GAMMA)`` mod 2**64; the mix
    runs in place, so at most two arrays of the output's size are alive.
    """
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.array([seed & _MASK64 for seed in seeds], dtype=np.uint64)
    offsets = (np.cumsum(counts) - counts).astype(np.uint64)
    z = np.arange(1, int(counts.sum()) + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.repeat(starts - offsets * np.uint64(_GAMMA), counts)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    z += np.uint64(1)
    out = z.astype(np.float64)
    out *= _INV_2_53
    return out


def scalar_logs(x: np.ndarray) -> np.ndarray:
    """``math.log`` of every value of an array, in its shape: the logarithm
    of the scalar draws, which numpy's vector log differs from in the last
    bit on some values (the square root, cosine and sine agree)."""
    return np.fromiter(map(math.log, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def complex_normals(uniforms: np.ndarray) -> np.ndarray:
    """Box-Muller on consecutive uniform pairs (u1, u2) along the last axis:
    one complex normal r cos(2 pi u2) + i r sin(2 pi u2), r = sqrt(-2 ln u1),
    per pair, as ``SplitMix64.complex_normal`` draws it from a fresh stream.
    """
    r = scalar_logs(uniforms[..., 0::2])
    r *= -2.0
    np.sqrt(r, out=r)
    angle = _TWO_PI * uniforms[..., 1::2]
    out = np.empty(r.shape, dtype=np.complex128)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    out.real *= r
    out.imag *= r
    return out
