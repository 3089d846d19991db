"""Finite-alphabet source models and their exact block self-information spectra.

A spectrum here is the distribution of the normalized self-information
(1/n) * log(1/P(X^n)) of an n-symbol block, represented exactly at type-class
granularity and stored as columns: one entry per distinct per-sequence
probability (an atom), holding its log probability, an arbitrary precision
integer count of sequences, and the atom's total probability mass.
Float columns are read-only memoryviews over ``array('d')``: they index and
slice like sequences, and ``numpy.asarray`` wraps them without a copy.
Running sums take one exact path: a ``RunningTotals`` over the counts
(built on first read; every builder reads it to check the total count) and
one over the masses as integers in units of 2**-1074 (``Spectrum.mass_units``,
built by the constructor), each keeping the total at every block edge.
``Spectrum.count_through``, ``Spectrum.first_reaching`` and
``Spectrum.total_count`` read the first; ``Spectrum.mass_sum``, a correctly
rounded sum of any run of atoms, reads the second.  A Spectrum's ``atoms``,
``cumulative_counts``, ``prefix_mass`` and ``suffix_mass`` properties are
full per-atom views for outside readers.

Type counts come from a recurrence over the type vectors; where the last two
probability levels hold equally many symbols, the counts of (k, r - k) and
(r - k, k) are equal, so only half of them are computed and the other half
reuses the same integers.
All logarithms are kept in nats internally; rates are converted to base-K
units (K = the code alphabet size carried by the source) at the API surface.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import random
from collections import Counter
from functools import cached_property, reduce
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from ._util import (ABOVE_ZERO, UNIT_BITS, Frozen, FrozenValue, RunningTotals, check_int,
                    check_range, column, column_units, exact_units)
from .errors import CeilingExceeded, NumericError, ValidationError

# Number of type classes (after collapsing equal-probability symbols) a single
# spectrum construction may enumerate.
DEFAULT_TYPE_CEILING = 5_000_000

# Total mass must match 1 to this tolerance; the looser value applies to long
# blocks over alphabets with more than two symbols, where the sheer number of
# atoms makes 1e-9 unreachable in double precision.
MASS_TOL = 1e-9
MASS_TOL_LARGE = 1e-6

# Adjacent candidate atoms whose per-sequence log probabilities agree to this
# relative tolerance are merged into one atom.
_MERGE_RTOL = 1e-12

_LN2 = math.log(2.0)


def _prob_list(probs: Iterable[float]) -> list[float]:
    """The entries of a flat probability vector as floats, never empty."""
    try:
        p = list(probs)
    except TypeError:
        p = []
    if not p or not all(isinstance(x, numbers.Real) for x in p):
        raise ValidationError("probs: need a non-empty 1-d probability vector")
    return [float(x) for x in p]


def _total(p: Sequence[float]) -> float:
    """Left-to-right float sum, the same on every Python version."""
    return reduce(operator.add, p, 0.0)


class Distribution(FrozenValue):
    """A probability vector over a finite alphabet plus the code base K.

    ``probs`` is stored as a tuple of floats and ``base`` as an int >= 2.
    Instances are immutable and compare and hash by value.
    """

    probs: tuple[float, ...]
    base: int

    def __init__(self, probs: Iterable[float], base: int) -> None:
        base = check_int("base", base, 2)
        p = tuple(_prob_list(probs))
        if not all(map(math.isfinite, p)):
            raise ValidationError("probs: non-finite entry")
        if min(p) < 0.0:
            raise ValidationError("probs: negative entry")
        if abs(_total(p) - 1.0) > 1e-12:
            raise ValidationError(f"probs: sum {_total(p)!r} is not 1 (normalize first)")
        vars(self).update(probs=p, base=base)

    @property
    def alphabet_size(self) -> int:
        return len(self.probs)

    @property
    def support_size(self) -> int:
        return sum(x > 0.0 for x in self.probs)


def make_distribution(probs: Sequence[float], base: int = 2) -> Distribution:
    """Validate and normalize a probability vector into a Distribution.

    Entries may be off from a unit sum by at most 1e-9 (they are renormalized
    exactly); tiny negative dust below 1e-12 is clamped to zero.
    """
    p = _prob_list(probs)
    if any(x < -1e-12 for x in p):
        raise ValidationError(f"probs: negative entry {min(p)!r}")
    p = [0.0 if x <= 0.0 else x for x in p]  # NaN stays, for the Distribution to refuse
    total = _total(p)
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"probs: entries sum to {total!r}, off by more than 1e-9")
    if total == 0.0:
        raise ValidationError("probs: all entries are zero")
    p = [x / total for x in p]
    # Renormalization can leave the sum one ulp away from 1; nudge the largest
    # entry so the sum is exactly 1.  A largest entry that other symbols share
    # is left alone, since moving one of them would split a probability level
    # (a uniform source into two); the sum then stays within a few ulps of 1,
    # far inside the Distribution's 1e-12 check.
    drift = 1.0 - _total(p)
    top = p.index(max(p))
    if drift != 0.0 and p.count(p[top]) == 1:
        p[top] += drift
    return Distribution(probs=p, base=base)


class SpectrumAtom(NamedTuple):
    """One distinct per-sequence probability level of a block distribution."""

    log_prob_per_seq: float  # ln P(x^n) shared by every sequence in the atom
    count: int               # exact number of sequences at this level
    mass: float              # count * exp(log_prob_per_seq)


class Spectrum(Frozen):
    """Exact block self-information spectrum at type-class granularity.

    Atom i has per-sequence log probability ``log_probs[i]`` (nats, strictly
    decreasing, equivalently strictly increasing rate), ``counts[i]``
    sequences (exact ints) and total probability ``masses[i]``, which is
    derived from the other two.  ``log_probs``, ``masses`` and ``rates`` are
    read-only float columns (``_util.column``); ``mass_units`` holds the exact
    running totals of ``masses`` in units of 2**-UNIT_BITS.  Instances are
    immutable after construction and safe to share; they compare and hash by
    identity.
    """

    def __init__(self, n: int, base: int, log_probs: Iterable[float],
                 counts: Iterable[int]) -> None:
        n, base = check_int("n", n, 1), check_int("base", base, 2)
        # The checks read a list: iterating one is faster than a column.
        values = list(log_probs)
        try:
            lps = column("d", values)
        except TypeError:
            raise NumericError("log probabilities: need a flat sequence of floats") from None
        counts = tuple(counts)
        if len(lps) == 0:
            raise NumericError("spectrum has no atoms")
        if len(lps) != len(counts):
            raise NumericError(f"{len(lps)} log probabilities for {len(counts)} counts")
        # Strictly decreasing with finite ends means finite throughout (NaN
        # fails every comparison); the full finiteness pass only names a failure.
        if not (math.isfinite(lps[0]) and math.isfinite(lps[-1])
                and all(map(operator.gt, values, itertools.islice(values, 1, None)))):
            if not all(map(math.isfinite, lps)):
                raise NumericError("non-finite log probability in spectrum")
            raise NumericError("atoms are not strictly decreasing in log probability")
        if min(counts) < 1:
            raise NumericError("atom with empty sequence count")
        exponents = list(map(operator.add, map(math.log, counts), values))
        # An exponent above 1 is an inconsistent count: refuse it before exp
        # could overflow, naming the mass the cap at 1 would give.
        heaviest = math.exp(min(max(exponents), 1.0))
        if heaviest > 1.0 + 1e-9:
            raise NumericError(f"atom mass {heaviest!r} outside [0, 1]")
        masses = column("d", map(math.exp, exponents))
        # Every tail, tradeoff and code sums masses exactly, so their running
        # totals are built here: the first query on a spectrum then costs what
        # a later one does, instead of paying for the whole column.
        units = RunningTotals(lambda lo, hi: column_units(masses[lo:hi]), len(masses))
        vars(self).update(n=n, base=base, log_probs=lps, counts=counts, masses=masses,
                          mass_units=units)

    def __len__(self) -> int:
        return len(self.counts)

    @cached_property
    def atoms(self) -> tuple[SpectrumAtom, ...]:
        """One SpectrumAtom per atom, built on first read from the columns."""
        # tuple.__new__ makes each named tuple without a Python-level call.
        return tuple(map(tuple.__new__, itertools.repeat(SpectrumAtom),
                         zip(self.log_probs.tolist(), self.counts, self.masses.tolist())))

    @cached_property
    def rates(self) -> Sequence[float]:
        """Per-symbol rates -ln P / (n ln K), in base-K units, ascending."""
        return column("d", map(self._rate_of, self.log_probs))

    @cached_property
    def _rate_of(self) -> Callable[[float], float]:
        # lp / -c is (-lp) / c bit for bit: rounding is symmetric in sign.
        return (-(self.n * math.log(self.base))).__rtruediv__

    def rate(self, i: int) -> float:
        """``rates[i]``, computed alone: searches read a few rates, not the column."""
        return self._rate_of(self.log_probs[i])

    def __reduce__(self):
        # Columns are memoryviews, which neither pickle nor deepcopy: rebuild
        # from the constructor's arguments (the masses come out the same).
        return Spectrum, (self.n, self.base, self.log_probs.tolist(), self.counts)

    def mass_sum(self, start: int, stop: int | None = None,
                 extra: Sequence[float] = ()) -> float:
        """Correctly rounded sum of ``extra`` and ``masses[start:stop]``.

        Needs 0 <= start <= stop <= len(self).  The exact sum is an integer
        number of units and int / int division rounds correctly, so the result
        equals ``math.fsum([*extra, *masses[start:stop]])`` bit for bit.
        """
        stop = len(self) if stop is None else stop
        total = sum(map(exact_units, extra))
        if start < stop:
            units = self.mass_units
            total += units.through(stop - 1) - (units.through(start - 1) if start else 0)
        return total / (1 << UNIT_BITS)

    @cached_property
    def prefix_mass(self) -> Sequence[float]:
        """Correctly rounded mass of atoms [0, i] for every i, built on first read."""
        return column("d", [t / (1 << UNIT_BITS) for t in self.mass_units][1:])

    @cached_property
    def suffix_mass(self) -> Sequence[float]:
        """Correctly rounded mass of atoms [i, len) for every i, with one extra 0
        slot, built on first read."""
        total = self.mass_units.total
        return column("d", [(total - t) / (1 << UNIT_BITS) for t in self.mass_units])

    @cached_property
    def cumulative_counts(self) -> tuple[int, ...]:
        """Exact count of atoms [0, i] for every i, built on first read."""
        return tuple(itertools.accumulate(self.counts))

    @cached_property
    def _count_totals(self) -> RunningTotals:
        counts = self.counts  # the terms must not read self
        return RunningTotals(lambda lo, hi: counts[lo:hi], len(counts))

    def count_through(self, i: int) -> int:
        """Exact number of sequences in atoms [0, i], for 0 <= i < len(self)."""
        return self._count_totals.through(i)

    def first_reaching(self, total: int) -> int:
        """Least i with count_through(i) >= total, or len(self) if there is none."""
        return self._count_totals.first_reaching(total)

    @property
    def total_count(self) -> int:
        return self._count_totals.total


def _type_classes(n: int, mults: Sequence[int]) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every type of n symbols over len(mults) probability levels, with its size.

    Iterates ``(ks, count)`` for each vector ks of nonnegative ints summing to
    n, in lexicographic order of ks, where count = n! / prod(k_j!) *
    prod(m_j ** k_j) is the exact number of sequences of that type when m_j
    symbols share level j.  Each count is its neighbour's times one ratio of
    small ints, so a type costs one big-integer multiply and one exact
    divide.  When the last two levels hold equally many symbols, the split
    (k, rem - k) has the count of (rem - k, k): only the first half is
    computed and the second half yields the same int objects in reverse.
    """
    if len(mults) == 1:
        return iter([((n,), int(mults[0]) ** n)])
    return ((prefix + (k, len(counts) - 1 - k), count)
            for prefix, counts in _type_runs(n, mults)
            for k, count in enumerate(counts))


def _type_runs(n: int, mults: Sequence[int], weights: Sequence[Sequence[int]] = ()
               ) -> Iterator[tuple]:
    """The types of ``_type_classes`` in runs along the last two levels.

    Yields ``(prefix, counts, *sums)``: the run's types are prefix + (k, rem
    - k) for k = 0 .. rem, rem = len(counts) - 1, with those counts and one
    iterator of weighted sums per row of ``weights``.  Builds read whole
    runs, which costs far less per type than one tuple each.  One level is
    one run of the single type (n,) with an empty prefix.

    Each row of integer ``weights`` (one int per level) gives the exact sum
    sum_j k_j * w_j of every type in the run.  Along the last two levels a
    sum steps by one constant, so it costs one big-integer add per type.
    """
    mults = [int(m) for m in mults]
    if len(mults) == 1:
        yield ((), [mults[0] ** n], *([n * w[0]] for w in weights))
        return
    *outer, ma, mb = mults

    def walk(prefix: tuple[int, ...], rem: int, head: int, accs: list[int]):
        # head = n! / (prod of prefix k! * rem!) * prod of prefix m^k, and
        # accs[r] = sum of prefix k * weights[r]
        if len(prefix) < len(outer):
            j = len(prefix)
            m = outer[j]
            for k in range(rem + 1):
                yield from walk(prefix + (k,), rem - k, head, accs)
                head = head * ((rem - k) * m) // (k + 1)
                accs = [a + w[j] for a, w in zip(accs, weights)]
            return
        # The last two levels split rem as (k, rem - k).  Symmetric levels
        # compute k = 0 .. rem // 2 and mirror the rest.
        last = rem // 2 if ma == mb else rem
        count = head * mb ** rem
        counts = [count]
        for k in range(last):
            count = count * ((rem - k) * ma) // ((k + 1) * mb)
            counts.append(count)
        counts += counts[:rem - last][::-1]
        yield (prefix, counts, *(itertools.accumulate(itertools.repeat(w[-2] - w[-1], rem),
                                                      initial=a + rem * w[-1])
                                 for a, w in zip(accs, weights)))

    yield from walk((), n, 1, [0] * len(weights))


def _check_ceiling(n: int, groups: int, ceiling: int) -> None:
    n_types = math.comb(n + groups - 1, groups - 1)
    if n_types > ceiling:
        raise CeilingExceeded(f"{n_types} type classes over {groups} probability levels "
                              f"exceeds ceiling {ceiling}")


def level_types(d: Distribution, n: int, *, type_ceiling: int = DEFAULT_TYPE_CEILING
                ) -> tuple[tuple[float, ...], tuple[int, ...],
                           Iterator[tuple[tuple[int, ...], int]]]:
    """The level types of n draws from ``d``, the one type enumeration.

    Returns the distinct positive probabilities of ``d`` (ascending), the
    number of symbols sharing each, and an iterator over every type of n
    symbols over those levels with its exact number of sequences, in
    lexicographic order.  Zero-probability symbols are dropped: no reachable
    sequence touches them.  Refuses more than ``type_ceiling`` types before
    enumerating any.
    """
    n = check_int("n", n, 1)
    levels = sorted(Counter(q for q in d.probs if q > 0.0).items())
    values = tuple(q for q, _ in levels)
    mults = tuple(m for _, m in levels)
    _check_ceiling(n, len(values), type_ceiling)
    return values, mults, _type_classes(n, mults)


def _finish_spectrum(n: int, base: int, lps: list[float], counts: list[int],
                     mass_tol: float, total: int) -> Spectrum:
    """Sort candidates by log probability, merge near-equal levels, validate
    the mass and the exact sequence count against ``total``."""
    def gaps():
        return map(operator.sub, lps, itertools.islice(lps, 1, None))

    if not all(map(operator.gt, lps, itertools.islice(lps, 1, None))):
        # A stable sort: equal log probabilities keep their order.  There are
        # two candidates or more here, so itemgetter returns tuples.
        pick = operator.itemgetter(*sorted(range(len(lps)), key=lps.__getitem__, reverse=True))
        lps, counts = list(pick(lps)), list(pick(counts))
    # A candidate joins the group before it when it lies within the merge
    # tolerance of the group's first log probability.  One that is not
    # within it of its neighbour is not within it of the larger first entry
    # either, so only candidates close to their neighbour are compared again;
    # a gap above the tolerance at the largest |log probability| rules a
    # candidate out at once, and all of them when it is the smallest gap.
    # Sorted descending, so every difference below is >= 0 and needs no abs;
    # the conditional is max(1, |x|) without two calls.
    rtol = _MERGE_RTOL
    widest = rtol * max(1.0, abs(lps[0]), abs(lps[-1]))
    near = () if min(gaps(), default=math.inf) > widest else itertools.compress(
        range(1, len(lps)), map(widest.__ge__, gaps()))
    joined, lead, restart, prev = [], 0, 0, -1
    for i in near:
        x = lps[i]
        tol = rtol * (-x if x < -1.0 else x if x > 1.0 else 1.0)
        if lps[i - 1] - x > tol:
            continue
        # lead: the last candidate at or before i that is not close to its
        # neighbour; restart: the last one that failed against its group.
        # Against its neighbour, i was just found close.
        if prev != i - 1:
            lead = i - 1
        prev = i
        first = lead if lead > restart else restart
        if first == i - 1 or lps[first] - x <= tol:
            joined.append(i)
        else:
            restart = i
    if joined:
        merged_lps, merged_counts, pos = [], [], 0
        for i in joined:
            merged_lps += lps[pos:i]
            merged_counts += counts[pos:i]
            merged_counts[-1] += counts[i]
            pos = i + 1
        lps, counts = merged_lps + lps[pos:], merged_counts + counts[pos:]
    built = Spectrum(n=n, base=base, log_probs=lps, counts=counts)
    mass = built.mass_sum(0)
    if abs(mass - 1.0) > mass_tol:
        raise NumericError(f"spectrum mass {mass!r} deviates from 1 beyond {mass_tol}")
    if built.total_count != total:
        raise NumericError("type counts do not add up to the number of reachable sequences")
    return built


def _mass_tol(n: int, alphabet_size: int) -> float:
    return MASS_TOL_LARGE if (n > 1000 and alphabet_size > 2) else MASS_TOL


def _log_units(probs: Sequence[float], n: int) -> tuple[list[int], float, int]:
    """Integer weights that make the log probability of a type one exact sum.

    Returns ints u_j, a power of two ``scale`` and ``floor``, with
    log(probs[j]) == u_j * scale exactly, log being the double ``math.log``
    gives (one power-of-two denominator over the ``as_integer_ratio`` of
    every entry).  A type's log probability sum_j k_j * log(probs[j]) is then
    the integer sum_j k_j * u_j times ``scale``: converting that integer to
    a float rounds it once, correctly, and the scaling is exact.  A zero
    probability weighs ``floor`` = -2**b, where 2**b exceeds n times every
    other |u_j|, so a type with a symbol on it sums to at most ``floor`` and
    every other type to more.
    """
    logs = [math.log(q) if q > 0.0 else -math.inf for q in probs]
    ratios = {x: x.as_integer_ratio() for x in logs if x != -math.inf}
    den = max(d for _, d in ratios.values())
    units = {x: num * (den // d) for x, (num, d) in ratios.items()}
    floor = -1 << ((n * max(map(abs, units.values()))).bit_length() + 1)
    return [units.get(x, floor) for x in logs], 1.0 / den, floor


def iid_spectrum(d: Distribution, n: int, *,
                 type_ceiling: int = DEFAULT_TYPE_CEILING) -> Spectrum:
    """Exact spectrum of n i.i.d. draws from ``d``.

    Enumerates compositions of n over the distinct positive probability
    levels of ``d`` (symbols sharing a level are aggregated, which keeps
    permutation-equal types exactly merged), computes each type's sequence
    count as an exact integer, and its mass as exp(log(count) + log P).
    Over two levels log P is k0 * log q0 + (n - k0) * log q1 in floating
    point; over one or three and more it is the exact sum of k_j * log q_j,
    correctly rounded (``_log_units``).
    """
    n = check_int("n", n, 1)
    values, mults, _ = level_types(d, n, type_ceiling=type_ceiling)
    if len(values) == 2:
        # One run: types (0, n), (1, n - 1), ... in lexicographic order.
        # int * float converts the int exactly, as a float64 array product does.
        (_, counts), = _type_runs(n, mults)
        l0, l1 = math.log(values[0]), math.log(values[1])
        lps = [k * l0 + (n - k) * l1 for k in range(n + 1)]
    else:
        units, scale, _ = _log_units(values, n)
        lps, counts = [], []
        for _, run_counts, sums in _type_runs(n, mults, [units]):
            counts += run_counts
            lps += map(scale.__mul__, sums)  # the int rounds to a float once
    return _finish_spectrum(n, d.base, lps, counts, _mass_tol(n, d.alphabet_size),
                            d.support_size ** n)


def _check_components(d1: Distribution, d2: Distribution) -> None:
    """Two source components must share the alphabet size and the code base."""
    if d1.alphabet_size != d2.alphabet_size:
        raise ValidationError("probs2: component alphabets differ in size")
    if d1.base != d2.base:
        raise ValidationError("base: components carry different code bases")


def mixed_spectrum(d1: Distribution, d2: Distribution, w1: float, n: int, *,
                   type_ceiling: int = DEFAULT_TYPE_CEILING) -> Spectrum:
    """Exact spectrum of a two-component mixture source.

    The block probability of a sequence is w1*P1(x^n) + (1-w1)*P2(x^n), which
    depends on the sequence only through its type, so one atom per distinct
    pair of component log probabilities suffices.  Each component's log
    probability of a type is the correctly rounded exact sum of k_j * log q_j
    (``_log_units``), -inf when the type puts a symbol where the component
    has probability 0.

    Arguments
    ---------
    d1, d2 : component distributions on the same alphabet with the same base
    w1     : weight of the first component, strictly inside (0, 1)
    n      : block length
    """
    check_range("w1", w1, ABOVE_ZERO, 1, "(0, 1)")
    _check_components(d1, d2)
    n = check_int("n", n, 1)
    pairs = Counter((a, b) for a, b in zip(d1.probs, d2.probs) if a > 0.0 or b > 0.0)
    _check_ceiling(n, len(pairs), type_ceiling)
    units1, scale1, floor1 = _log_units([a for a, _ in pairs], n)
    units2, scale2, floor2 = _log_units([b for _, b in pairs], n)
    lw1, lw2 = math.log(w1), math.log1p(-w1)
    exp, log1p, dead = math.exp, math.log1p, -math.inf  # locals: the loop runs once a type
    lps, counts = [], []
    for _, run_counts, sums1, sums2 in _type_runs(n, list(pairs.values()), [units1, units2]):
        for count, x1, x2 in zip(run_counts, sums1, sums2):
            a = lw1 + x1 * scale1 if x1 > floor1 else dead
            b = lw2 + x2 * scale2 if x2 > floor2 else dead
            # log(e^a + e^b) by numpy's logaddexp formula, bit for bit.
            if a > b:
                lp = a + log1p(exp(b - a))
            elif b > a:
                lp = b + log1p(exp(a - b))
            elif a == dead:
                continue  # a type unreachable under both components
            else:
                lp = a + _LN2
            lps.append(lp)
            counts.append(count)
    # Sequences reachable under either component: |S1|^n + |S2|^n - |S1 & S2|^n.
    both = sum(a > 0.0 and b > 0.0 for a, b in zip(d1.probs, d2.probs))
    total = d1.support_size ** n + d2.support_size ** n - both ** n
    return _finish_spectrum(n, d1.base, lps, counts, _mass_tol(n, d1.alphabet_size), total)


def ceil_log2_parity(n: int) -> int:
    """Default switching rule: 0 (first component) when ceil(log2 n) is even, else 1."""
    n = check_int("n", n, 1)
    return 0 if ((n - 1).bit_length() % 2 == 0) else 1


class SwitchingSchedule(FrozenValue):
    """A source that uses one of two i.i.d. components for the whole block.

    Which component is active depends only on the block length, through
    ``rule`` (data on the instance, not baked into the spectrum builder).
    The default rule alternates with the parity of ceil(log2 n): even picks
    the first component, odd the second, so a doubling n-grid alternates
    components at every point.  Instances are immutable and compare and
    hash by value.
    """

    components: tuple[Distribution, Distribution]
    rule: Callable[[int], int]

    def __init__(self, components: Sequence[Distribution],
                 rule: Callable[[int], int] = ceil_log2_parity) -> None:
        pair = tuple(components) if isinstance(components, (tuple, list)) else ()
        if len(pair) != 2 or not all(isinstance(d, Distribution) for d in pair):
            raise ValidationError("components: need a pair of Distributions")
        if not callable(rule):
            raise ValidationError(f"rule: need a callable, got {rule!r}")
        _check_components(*pair)
        vars(self).update(components=pair, rule=rule)

    def active_component(self, n: int) -> int:
        idx = self.rule(n)
        if idx not in (0, 1):
            raise ValidationError(f"rule: component index must be 0 or 1, got {idx!r}")
        return idx


def switching_spectrum(schedule: SwitchingSchedule, n: int, *,
                       type_ceiling: int = DEFAULT_TYPE_CEILING) -> Spectrum:
    """Spectrum of the component the schedule activates at block length n."""
    n = check_int("n", n, 1)
    d = schedule.components[schedule.active_component(n)]
    return iid_spectrum(d, n, type_ceiling=type_ceiling)


def sample_sequences(d: Distribution, n: int, count: int, seed: int) -> memoryview:
    """Draw ``count`` i.i.d. length-n symbol sequences from ``random.Random(seed)``.

    Returns a read-only int64 column of shape (count, n): ``tolist`` gives
    the rows and ``numpy.asarray`` one (count, n) array.  Only symbols of
    positive probability are drawn.
    """
    n = check_int("n", n, 1)
    count = check_int("count", count, 1)
    seed = check_int("seed", seed, 0)
    symbols = [j for j, q in enumerate(d.probs) if q > 0.0]
    cum = list(itertools.accumulate(d.probs[j] for j in symbols))
    draws = random.Random(seed).choices(symbols, cum_weights=cum, k=count * n)
    return column("q", draws).cast("B").cast("q", (count, n))
