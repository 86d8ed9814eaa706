"""Host-speed sampling, so that times read in seconds of a reference host.

The benchmark's host is a shared machine whose speed on fixed work swings
by up to 2x within seconds. Plain wall times of one operation spread by 12
to 19% from that alone. A `Sampler` measures the host's speed while the
operation runs: a SIGALRM timer interrupts the process every few tens of
milliseconds, and the handler times one fixed chunk of Python big-integer
and tuple work, the kind of work mpmath's pure-Python backend does. The
operation's wall time, less the time the handler took, times the mean
sampled speed relative to the reference gives the operation's time on a
host that runs one chunk in REF_CHUNK_S. On the same code this spreads by
1.3 to 3% per operation.

The handler touches no state of the library (no mpmath context, no numpy),
so the operation computes exactly what it computes without it.
"""

from __future__ import annotations

import signal
import time

REF_CHUNK_S = 0.5e-3      # one chunk's time on the reference host
_A = (1 << 127) + 0x5DEECE66D
_B = (1 << 125) + 12345
_MASK = (1 << 128) - 1
_X = (0, (1 << 127) + 977, -127, 128)
_Y = (0, (1 << 127) + 31337, -128, 128)


def _mul(x, y):
    """A 128-bit float product on (sign, mantissa, exponent, bits) tuples."""
    s1, m1, e1, _ = x
    s2, m2, e2, _ = y
    m = m1 * m2
    shift = m.bit_length() - 128
    if shift > 0:
        m >>= shift
        return (s1 ^ s2, m, e1 + e2 + shift, m.bit_length())
    return (s1 ^ s2, m, e1 + e2, m.bit_length())


def _add(x, y):
    """A 128-bit float sum of two positive (sign, mantissa, exponent, bits) tuples."""
    _, m1, e1, _ = x
    _, m2, e2, _ = y
    d = e1 - e2
    m = (m1 << d) + m2 if d >= 0 else m1 + (m2 << -d)
    e = min(e1, e2)
    shift = m.bit_length() - 128
    if shift > 0:
        m >>= shift
        e += shift
    return (0, m, e, m.bit_length())


def chunk() -> None:
    """A fixed piece of work, 0.5 ms on a fast spell of the host.

    Half is a tight loop of 128-bit integer arithmetic. The other half does
    what mpmath's pure-Python backend does per operation: unpack and build
    (sign, mantissa, exponent, bits) tuples, call small functions, keep
    results in a dict. Either half alone follows the host's speed less
    closely on one of the workloads than the two together (README.md).
    """
    acc = 1
    for i in range(1000):
        acc = ((acc * _A + _B) >> 61) & _MASK ^ i
    x, kept = _X, {}
    for i in range(300):
        x = _add(_mul(x, _Y), _X)
        kept[i & 63] = x


class Sampler:
    """Samples the host's speed on SIGALRM from start() until stop()."""

    def __init__(self, interval_s: float):
        self.interval_s = interval_s
        self.chunks = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        chunk()
        self.chunks.append(time.perf_counter() - t0)

    def start(self) -> "Sampler":
        self.chunks = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def stop(self) -> dict:
        """Stop sampling; returns the time spent sampling and the speed factor.

        `factor` is the mean of REF_CHUNK_S / chunk time: a wall time with
        `spent_s` taken off, times `factor`, reads in reference seconds.
        """
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.chunks:      # shorter than one interval: sample once now
            self._sample(None, None)
            spent = 0.0
        else:
            spent = sum(self.chunks)
        factor = sum(REF_CHUNK_S / c for c in self.chunks) / len(self.chunks)
        return {"spent_s": spent, "factor": factor, "samples": len(self.chunks)}
