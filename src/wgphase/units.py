"""Unit conventions and conversions.

All rates, detunings and Rabi frequencies are carried internally as angular
frequencies in rad/ns.  Laser frequencies at the I/O boundary are plain
frequencies in GHz (1 GHz = 2*pi rad/ns), interferometer path lengths are in
meters, photon rates in counts/s.
"""

import sys
from numbers import Real

import numpy as np

TWO_PI = 2.0 * np.pi

#: speed of light, m/s
C_M_PER_S = 299_792_458.0


def is_number(value) -> bool:
    """A finite real number (a bool is not a number)."""
    return (isinstance(value, Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def detuning_angular(freq_ghz, f0_ghz):
    """Laser-emitter detuning in rad/ns for a laser grid in GHz."""
    return TWO_PI * (np.asarray(freq_ghz, dtype=float) - f0_ghz)


def smooth_length(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= n.  An FFT length with a large prime
    factor (8*4501 = 2**3 * 7 * 643) takes numpy's much slower Bluestein path."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the smallest power of two that takes odd to >= n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def wrap_angle(phi):
    """Wrap an angle (scalar or array) to the interval (-pi, pi]."""
    phi = np.asarray(phi, dtype=float)
    wrapped = np.mod(phi + np.pi, TWO_PI) - np.pi
    wrapped = np.where(wrapped <= -np.pi, wrapped + TWO_PI, wrapped)
    if wrapped.ndim == 0:
        return float(wrapped)
    return wrapped
