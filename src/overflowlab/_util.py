"""Small numeric helpers: range checks, compensated and exact summation, doubling
searches and guarded integer splits."""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import ValidationError

# Neighbouring floats that turn an open lower end (lo, ...) or a closed upper
# end (..., hi] into the half-open form check_range takes, exactly.
ABOVE_ZERO = math.ulp(0.0)
ABOVE_ONE = math.nextafter(1.0, 2.0)


def check_range(name: str, x: float, lo: float, hi: float, shown: str = "") -> None:
    """Raise ValidationError unless lo <= x < hi.

    Written as one negated chain so NaN, which fails every comparison, is
    rejected, and so is +inf even when ``hi`` is inf.  ``shown`` is the
    interval as the message prints it, for bounds given as ABOVE_ZERO or
    ABOVE_ONE; by default the message prints [lo, hi).
    """
    if not (lo <= x < hi):
        raise ValidationError(f"{name}: must lie in {shown or f'[{lo}, {hi})'}, got {x}")


def check_budgets(eps: float, delta: float) -> None:
    """Error and overflow budgets each lie in [0, 1), and so does their sum."""
    check_range("eps", eps, 0, 1)
    check_range("delta", delta, 0, 1)
    check_range("eps+delta", eps + delta, 0, 1)


# Relative guard for sequence-granularity splits.  Mass ratios that land within
# this distance of an exact integer (a common artifact of decimal probability
# grids evaluated in binary floating point) are resolved toward the
# exact-arithmetic answer instead of being pushed to the next integer.
SPLIT_GUARD = 1e-9


def guarded_ceil(x: float) -> int:
    """Ceiling that forgives float noise just above an integer."""
    return math.ceil(x - SPLIT_GUARD)


def guarded_floor(x: float) -> int:
    """Floor that forgives float noise just below an integer."""
    return math.floor(x + SPLIT_GUARD)


_LN2 = math.log(2.0)


def split_count(ln_target: float, lp: float, limit: int, mode: str) -> int:
    """Sequences needed to cover, or affordable within, a probability target.

    All sequences share the natural log probability ``lp``; the target mass
    arrives as its natural log so the ratio survives blocklengths where
    exp(lp) itself underflows.  Mode "cover" returns the least k with
    k * exp(lp) >= target, mode "fit" the greatest k with k * exp(lp) <=
    target, both softened by the usual split guard and clamped to
    [0, limit].
    """
    if limit <= 0:
        return 0
    z = ln_target - lp
    if z <= 700.0:
        x = math.exp(z)
        k = guarded_ceil(x) if mode == "cover" else guarded_floor(x)
        return min(max(k, 0), limit)
    # Huge ratios: exp(z) overflows a double, so build the integer from a
    # 53-bit mantissa and a power of two.  Exactness is moot out here; the
    # per-sequence quantum is billions of orders below double resolution.
    if z >= math.log(limit):
        return limit
    shift = int(z / _LN2) - 52
    mantissa = math.exp(z - shift * _LN2)
    k = (int(mantissa) + 1) << shift if mode == "cover" else int(mantissa) << shift
    return min(k, limit)


def count_mass(k: int, lp: float) -> float:
    """Total probability of ``k`` sequences of natural log probability ``lp``.

    Computed as exp(log k + lp): accurate even when exp(lp) underflows to
    zero while the aggregate is of order one.
    """
    if k <= 0:
        return 0.0
    return math.exp(math.log(k) + lp)


# Items in the first run of a doubling search; each further run doubles, so a
# search that ends w items in costs O(log w) vector passes, not one pass over
# everything.
FIRST_RUN = 256


def doubling_runs(start: int, stop: int) -> Iterator[tuple[int, int]]:
    """Consecutive ranges [lo, hi) covering [start, stop), of FIRST_RUN,
    2 * FIRST_RUN, 4 * FIRST_RUN, ... items (the last one cut at ``stop``)."""
    size = FIRST_RUN
    while start < stop:
        yield start, min(start + size, stop)
        start += size
        size *= 2


# Every finite double is an integer multiple of 2**-1074, the least subnormal,
# so a sum of doubles is exact as an integer count of that unit.
UNIT_BITS = 1074


def exact_units(x: float) -> int:
    """The finite float ``x`` as an exact integer multiple of 2**-UNIT_BITS."""
    num, den = x.as_integer_ratio()  # den is a power of two, at most 2**UNIT_BITS
    return num << (UNIT_BITS + 1 - den.bit_length())


def neumaier_cumsum(values: np.ndarray) -> np.ndarray:
    """Running sums of ``values`` with Neumaier compensation.

    Returns an array ``out`` with ``out[i] = sum(values[:i+1])`` accumulated
    with a carried correction term, so long spectra do not drift at the
    1e-12 scale the tests care about.
    """
    out = []
    total = 0.0
    comp = 0.0
    # Python floats, not numpy scalars: the same IEEE operations, done faster.
    for v in np.asarray(values, dtype=float).tolist():
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
        out.append(total + comp)
    return np.array(out, dtype=float)


def suffix_sums(values: np.ndarray) -> np.ndarray:
    """Compensated suffix sums; ``out[i] = sum(values[i:])``, ``out[-1] = 0``.

    The returned array has one extra slot so ``out[len(values)]`` is a valid
    (empty-suffix) query.
    """
    rev = neumaier_cumsum(values[::-1])
    out = np.zeros(len(values) + 1, dtype=float)
    out[:-1] = rev[::-1]
    return out
