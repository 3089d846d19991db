"""Small numeric helpers: range and integer checks, immutable base classes,
read-only columns, guarded integer splits, and exact summation, with running
totals of ints kept at block edges.  Standard library only."""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from array import array
from typing import Callable, Iterable, Iterator

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


def check_int(name: str, x, lo: float) -> int:
    """``x`` as a Python int, or ValidationError unless it is an integer >= lo.

    Integers are what ``operator.index`` accepts (numpy integers included);
    bool is refused although it is an int, and so is any float, even 2.0.
    """
    try:
        if isinstance(x, bool):
            raise TypeError
        value = operator.index(x)
    except TypeError:
        raise ValidationError(f"{name}: must be an integer, got {x!r}") from None
    check_range(name, value, lo, math.inf)
    return value


class Frozen:
    """Base of the validated classes: ``__init__`` writes the attributes into
    the instance dict once; after that none is set or deleted."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class FrozenValue(Frozen):
    """A Frozen class that compares, hashes and prints by its attributes, in
    the order ``__init__`` wrote them; it caches nothing in its dict."""

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({shown})"


def column(typecode: str, values: Iterable) -> memoryview:
    """A read-only column of 8-byte items: ``array(typecode, values)`` behind
    a memoryview, so it indexes, slices without copying, and converts with
    ``tolist``, ``tobytes`` or ``numpy.asarray`` (sharing memory)."""
    return memoryview(array(typecode, values)).toreadonly()


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


# Every finite double is an integer multiple of 2**-1074, the least subnormal,
# so a sum of doubles is exact as an integer count of that unit.
UNIT_BITS = 1074


def exact_units(x: float) -> int:
    """The finite float ``x`` as an exact integer multiple of 2**-UNIT_BITS."""
    num, den = x.as_integer_ratio()  # den is a power of two, at most 2**UNIT_BITS
    return num << (UNIT_BITS + 1 - den.bit_length())


_MANTISSA = (1 << 52) - 1
_HIDDEN = 1 << 52


def column_units(values: memoryview) -> list[int]:
    """``exact_units`` of every entry of a float column slice, all >= 0, read
    from their IEEE bit patterns in one pass.

    A normal double of biased exponent e >= 1 is its 53-bit significand times
    2**(e - 1075), so it is that significand << (e - 1) units; a subnormal's
    bit pattern is already its count of units.
    """
    return [(b & _MANTISSA | _HIDDEN) << (b >> 52) - 1 if b >= _HIDDEN else b
            for b in values.cast("B").cast("Q")]


class RunningTotals:
    """Exact running totals of a sequence of ints, kept at the end of every
    ``BLOCK``-item block; a block's running totals are rebuilt on first touch.

    ``terms(lo, hi)`` yields items lo .. hi - 1 (hi may pass the end).  It must
    not refer to the object holding this instance: that cycle would keep the
    holder alive until the cyclic garbage collector runs.
    """

    BLOCK = 32

    def __init__(self, terms: Callable[[int, int], Iterable[int]], size: int) -> None:
        self._terms = terms
        self._size = size
        sums = map(sum, map(terms, range(0, size, self.BLOCK),
                            range(self.BLOCK, size + self.BLOCK, self.BLOCK)))
        # _edges[j] is the total of items [0, j * BLOCK); the last one is the total.
        self._edges = tuple(itertools.accumulate(sums, initial=0))
        self._blocks: dict[int, tuple[int, ...]] = {}
        self.total = self._edges[-1]

    def __iter__(self) -> Iterator[int]:
        """The total of items [0, i) for i = 0 .. size, in one pass."""
        blocks = map(self._terms, range(0, self._size, self.BLOCK),
                     range(self.BLOCK, self._size + self.BLOCK, self.BLOCK))
        return itertools.accumulate(itertools.chain.from_iterable(blocks), initial=0)

    def _block(self, j: int) -> tuple[int, ...]:
        run = self._blocks.get(j)
        if run is None:
            lo = j * self.BLOCK
            run = itertools.accumulate(self._terms(lo, lo + self.BLOCK), initial=self._edges[j])
            run = self._blocks[j] = tuple(run)[1:]
        return run

    def through(self, i: int) -> int:
        """Exact total of items [0, i], for 0 <= i < size."""
        if not 0 <= i < self._size:
            raise IndexError(f"index {i} outside [0, {self._size})")
        j, r = divmod(i, self.BLOCK)
        return self._block(j)[r]

    def first_reaching(self, total: int) -> int:
        """Least i with through(i) >= total (items >= 0), or size if none is."""
        j = bisect.bisect_left(self._edges, total, 1) - 1
        if j == len(self._edges) - 1:
            return self._size
        return j * self.BLOCK + bisect.bisect_left(self._block(j), total)
