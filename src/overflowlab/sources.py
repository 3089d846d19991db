"""Finite-alphabet source models and their exact block self-information spectra.

A spectrum here is the distribution of the normalized self-information
(1/n) * log(1/P(X^n)) of an n-symbol block, represented exactly at type-class
granularity and stored as columns: one entry per distinct per-sequence
probability (an atom), holding its log probability, an arbitrary precision
integer count of sequences, and the atom's total probability mass.
Running sums take one exact path, built on first read: a ``RunningTotals``
over the counts and one over the masses as integers in units of 2**-1074
(``Spectrum.mass_units``), each keeping the total at every block edge.
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
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from ._util import (ABOVE_ZERO, UNIT_BITS, RunningTotals, check_range, exact_units,
                    unit_terms)
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

@dataclass(frozen=True)
class Distribution:
    """A probability vector over a finite alphabet plus the code base K."""

    probs: np.ndarray
    base: int

    def __post_init__(self) -> None:
        check_range("base", self.base, 2, math.inf)
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or len(p) == 0:
            raise ValidationError("probs: need a non-empty 1-d probability vector")
        if not np.all(np.isfinite(p)):
            raise ValidationError("probs: non-finite entry")
        if np.any(p < 0):
            raise ValidationError("probs: negative entry")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValidationError(f"probs: sum {float(p.sum())!r} is not 1 (normalize first)")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @property
    def alphabet_size(self) -> int:
        return len(self.probs)

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.probs))


def make_distribution(probs: Sequence[float], base: int = 2) -> Distribution:
    """Validate and normalize a probability vector into a Distribution.

    Entries may be off from a unit sum by at most 1e-9 (they are renormalized
    exactly); tiny negative dust below 1e-12 is clamped to zero.
    """
    p = np.asarray(list(probs), dtype=float)
    if p.ndim != 1 or len(p) == 0:
        raise ValidationError("probs: need a non-empty 1-d probability vector")
    if np.any(p < -1e-12):
        raise ValidationError(f"probs: negative entry {float(p.min())!r}")
    p = np.clip(p, 0.0, None)
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"probs: entries sum to {total!r}, off by more than 1e-9")
    if total == 0.0:
        raise ValidationError("probs: all entries are zero")
    p = p / total
    # Renormalization can leave the sum one ulp away from 1; nudge the largest
    # entry so the sum is exactly 1.  A largest entry that other symbols share
    # is left alone, since moving one of them would split a probability level
    # (a uniform source into two); the sum then stays within a few ulps of 1,
    # far inside the Distribution's 1e-12 check.
    drift = 1.0 - float(p.sum())
    top = int(np.argmax(p))
    if drift != 0.0 and np.count_nonzero(p == p[top]) == 1:
        p[top] += drift
    return Distribution(probs=p, base=int(base))


class SpectrumAtom(NamedTuple):
    """One distinct per-sequence probability level of a block distribution."""

    log_prob_per_seq: float  # ln P(x^n) shared by every sequence in the atom
    count: int               # exact number of sequences at this level
    mass: float              # count * exp(log_prob_per_seq)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Exact block self-information spectrum at type-class granularity.

    Atom i has per-sequence log probability ``log_probs[i]`` (nats, strictly
    decreasing, equivalently strictly increasing rate), ``counts[i]``
    sequences (exact ints) and total probability ``masses[i]``, which is
    derived from the other two.  Instances are immutable after construction
    and safe to share; they compare and hash by identity, since array
    columns have no single truth value.
    """

    n: int
    base: int
    log_probs: np.ndarray
    counts: tuple[int, ...]
    masses: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        check_range("n", self.n, 1, math.inf)
        lps = np.array(self.log_probs, dtype=float)
        counts = tuple(self.counts)
        if lps.ndim != 1 or len(lps) == 0:
            raise NumericError("spectrum has no atoms")
        if len(lps) != len(counts):
            raise NumericError(f"{len(lps)} log probabilities for {len(counts)} counts")
        if not np.all(np.isfinite(lps)):
            raise NumericError("non-finite log probability in spectrum")
        if np.any(np.diff(lps) >= 0.0):
            raise NumericError("atoms are not strictly decreasing in log probability")
        if min(counts) < 1:
            raise NumericError("atom with empty sequence count")
        # Capping the exponent at 1 keeps exp from overflowing on an
        # inconsistent count; any capped mass still fails the check below.
        exponents = np.fromiter(map(math.log, counts), float, len(counts))
        exponents += lps
        np.minimum(exponents, 1.0, out=exponents)
        masses = np.fromiter(map(math.exp, exponents.tolist()), float, len(counts))
        heaviest = float(masses.max())
        if heaviest > 1.0 + 1e-9:
            raise NumericError(f"atom mass {heaviest!r} outside [0, 1]")
        lps.flags.writeable = False
        masses.flags.writeable = False
        object.__setattr__(self, "log_probs", lps)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "masses", masses)

    def __len__(self) -> int:
        return len(self.counts)

    @cached_property
    def atoms(self) -> tuple[SpectrumAtom, ...]:
        """One SpectrumAtom per atom, built on first read from the columns."""
        # tuple.__new__ makes each named tuple without a Python-level call.
        return tuple(map(tuple.__new__, itertools.repeat(SpectrumAtom),
                         zip(self.log_probs.tolist(), self.counts, self.masses.tolist())))

    @cached_property
    def rates(self) -> np.ndarray:
        """Per-symbol rates -ln P / (n ln K), in base-K units, ascending."""
        r = -self.log_probs / (self.n * math.log(self.base))
        r.flags.writeable = False
        return r

    @cached_property
    def mass_units(self) -> RunningTotals:
        """Exact running totals of ``masses`` in units of 2**-UNIT_BITS."""
        mantissas, shifts = unit_terms(self.masses)  # the terms must not read self
        return RunningTotals(lambda lo, hi: map(operator.lshift, mantissas[lo:hi].tolist(),
                                                shifts[lo:hi].tolist()), len(self))

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
    def prefix_mass(self) -> np.ndarray:
        """Correctly rounded mass of atoms [0, i] for every i, built on first read."""
        p = np.array([t / (1 << UNIT_BITS) for t in self.mass_units][1:])
        p.flags.writeable = False
        return p

    @cached_property
    def suffix_mass(self) -> np.ndarray:
        """Correctly rounded mass of atoms [i, len) for every i, with one extra 0
        slot, built on first read."""
        total = self.mass_units.total
        s = np.array([(total - t) / (1 << UNIT_BITS) for t in self.mass_units])
        s.flags.writeable = False
        return s

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


def _type_classes(n: int, mults: Sequence[int], weights: Sequence[Sequence[int]] = ()
                  ) -> Iterator[tuple]:
    """Every type of n symbols over len(mults) probability levels, with its size.

    Iterates ``(ks, count)`` for each vector ks of nonnegative ints summing to
    n, in lexicographic order of ks, where count = n! / prod(k_j!) *
    prod(m_j ** k_j) is the exact number of sequences of that type when m_j
    symbols share level j.  Each count is its neighbour's times one ratio of
    small ints, so a type costs one big-integer multiply and one exact
    divide.  When the last two levels hold equally many symbols, the split
    (k, rem - k) has the count of (rem - k, k): only the first half is
    computed and the second half yields the same int objects in reverse.

    Each row of integer ``weights`` (one int per level) appends the exact sum
    sum_j k_j * w_j to the tuple: ``(ks, count, x)`` for one row, ``(ks,
    count, x, y)`` for two.  Along the last two levels a sum steps by one
    constant, so it costs one big-integer add per type.
    """
    mults = [int(m) for m in mults]
    if len(mults) == 1:
        return iter([((n,), mults[0] ** n, *(n * w[0] for w in weights))])
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
        sums = [itertools.accumulate(itertools.repeat(w[-2] - w[-1], rem), initial=a + rem * w[-1])
                for a, w in zip(accs, weights)]
        for k, row in enumerate(zip(counts, *sums)):
            yield (prefix + (k, rem - k), *row)

    return walk((), n, 1, [0] * len(weights))


def _check_ceiling(n: int, groups: int, ceiling: int) -> None:
    n_types = math.comb(n + groups - 1, groups - 1)
    if n_types > ceiling:
        raise CeilingExceeded(f"{n_types} type classes over {groups} probability levels "
                              f"exceeds ceiling {ceiling}")


def level_types(d: Distribution, n: int, *, type_ceiling: int = DEFAULT_TYPE_CEILING
                ) -> tuple[np.ndarray, np.ndarray, Iterator[tuple[tuple[int, ...], int]]]:
    """The level types of n draws from ``d``, the one type enumeration.

    Returns the distinct positive probabilities of ``d`` (ascending), the
    number of symbols sharing each, and an iterator over every type of n
    symbols over those levels with its exact number of sequences, in
    lexicographic order.  Zero-probability symbols are dropped: no reachable
    sequence touches them.  Refuses more than ``type_ceiling`` types before
    enumerating any.
    """
    check_range("n", n, 1, math.inf)
    values, mults = np.unique(d.probs[d.probs > 0.0], return_counts=True)
    _check_ceiling(n, len(values), type_ceiling)
    return values, mults, _type_classes(n, mults)


def _finish_spectrum(n: int, base: int, lps: np.ndarray, counts: Sequence[int],
                     mass_tol: float, total: int) -> Spectrum:
    """Sort candidates by log probability, merge near-equal levels, validate
    the mass and the exact sequence count against ``total``."""
    order = np.argsort(-lps, kind="stable")
    lps = lps[order]
    counts = [counts[i] for i in order.tolist()]
    # A candidate joins the group before it when it lies within the merge
    # tolerance of the group's first log probability.  One that is not
    # within it of its neighbour is not within it of the larger first entry
    # either, so only candidates close to their neighbour are compared again.
    joins = np.zeros(len(lps), dtype=bool)
    joins[1:] = np.abs(lps[:-1] - lps[1:]) <= _MERGE_RTOL * np.maximum(1.0, np.abs(lps[1:]))
    lead = np.maximum.accumulate(np.where(joins, 0, np.arange(len(lps)))).tolist()
    values = lps.tolist()
    restart = 0
    for i in np.flatnonzero(joins).tolist():
        first = max(lead[i], restart)
        if abs(values[first] - values[i]) > _MERGE_RTOL * max(1.0, abs(values[i])):
            joins[i] = False
            restart = i
    keep = ~joins
    group = (np.cumsum(keep) - 1).tolist()
    merged = list(itertools.compress(counts, keep.tolist()))
    for i in np.flatnonzero(joins).tolist():
        merged[group[i]] += counts[i]
    built = Spectrum(n=n, base=base, log_probs=lps[keep], counts=merged)
    mass = math.fsum(built.masses.tolist())
    if abs(mass - 1.0) > mass_tol:
        raise NumericError(f"spectrum mass {mass!r} deviates from 1 beyond {mass_tol}")
    if built.total_count != total:
        raise NumericError("type counts do not add up to the number of reachable sequences")
    return built


def _mass_tol(n: int, alphabet_size: int) -> float:
    return MASS_TOL_LARGE if (n > 1000 and alphabet_size > 2) else MASS_TOL


def _log_units(probs: np.ndarray, n: int) -> tuple[list[int], int, int]:
    """Integer weights that make the log probability of a type one exact sum.

    Returns ints u_j and a shift s with log(probs[j]) == u_j * 2**-s exactly,
    log being the double ``np.log`` gives (one power-of-two denominator over
    the ``as_integer_ratio`` of every entry).  A type's log probability
    sum_j k_j * log(probs[j]) is then the integer sum_j k_j * u_j times
    2**-s: ``float`` rounds that integer once, correctly, and the scaling is
    exact.  A zero probability weighs ``floor`` = -2**b, where 2**b exceeds n
    times every other |u_j|, so a type with a symbol on it sums to at most
    ``floor`` and every other type to more.
    """
    with np.errstate(divide="ignore"):
        logs = np.log(probs).tolist()
    ratios = {x: x.as_integer_ratio() for x in logs if x != -math.inf}
    den = max(d for _, d in ratios.values())
    units = {x: num * (den // d) for x, (num, d) in ratios.items()}
    floor = -1 << ((n * max(map(abs, units.values()))).bit_length() + 1)
    return [units.get(x, floor) for x in logs], den.bit_length() - 1, floor


def _unit_log_probs(sums: list[float], shift: int, floor: int) -> np.ndarray:
    """The log probabilities of types from their rounded ``_log_units`` sums."""
    lps = np.array(sums, dtype=float)
    dead = lps <= float(floor)
    np.ldexp(lps, -shift, out=lps)
    lps[dead] = -np.inf
    return lps


def iid_spectrum(d: Distribution, n: int, *,
                 type_ceiling: int = DEFAULT_TYPE_CEILING) -> Spectrum:
    """Exact spectrum of n i.i.d. draws from ``d``.

    Enumerates compositions of n over the distinct positive probability
    levels of ``d`` (symbols sharing a level are aggregated, which keeps
    permutation-equal types exactly merged), computes each type's sequence
    count as an exact integer, and its mass as exp(log(count) + log P).
    Over two levels log P is k0 * log q0 + (n - k0) * log q1 in floating
    point, one array expression; over one or three and more it is the exact
    sum of k_j * log q_j, correctly rounded (``_log_units``).
    """
    values, mults, types = level_types(d, n, type_ceiling=type_ceiling)
    if len(values) == 2:
        counts = [count for _, count in types]
        logq = np.log(values)
        k0 = np.arange(n + 1)  # types (0, n), (1, n - 1), ... in lexicographic order
        lps = k0 * float(logq[0]) + (n - k0) * float(logq[1])
        if not np.all(np.isfinite(lps)):
            raise NumericError("log probability overflowed")
    else:
        units, shift, floor = _log_units(values, n)
        # Each type vector is dropped as soon as it is read: keeping one tuple
        # per type alive would run the cyclic garbage collector over them many
        # times per build.
        lps, counts = [], []
        for _, count, x in _type_classes(n, mults, [units]):
            lps.append(float(x))
            counts.append(count)
        lps = _unit_log_probs(lps, shift, floor)
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
    check_range("n", n, 1, math.inf)
    p1 = np.asarray(d1.probs)
    p2 = np.asarray(d2.probs)
    keep = (p1 > 0.0) | (p2 > 0.0)
    pairs: dict[tuple[float, float], int] = {}
    for a, b in zip(p1[keep].tolist(), p2[keep].tolist()):
        pairs[(a, b)] = pairs.get((a, b), 0) + 1
    _check_ceiling(n, len(pairs), type_ceiling)
    units1, shift1, floor1 = _log_units(np.array([a for a, _ in pairs]), n)
    units2, shift2, floor2 = _log_units(np.array([b for _, b in pairs]), n)
    sums1, sums2, counts = [], [], []
    for _, count, x1, x2 in _type_classes(n, list(pairs.values()), [units1, units2]):
        sums1.append(float(x1))
        sums2.append(float(x2))
        counts.append(count)
    lps = np.logaddexp(math.log(w1) + _unit_log_probs(sums1, shift1, floor1),
                       math.log1p(-w1) + _unit_log_probs(sums2, shift2, floor2))
    del sums1, sums2  # free the per-type floats before the merge
    # Types unreachable under both components have log probability -inf.
    reachable = lps != -math.inf
    # Sequences reachable under either component: |S1|^n + |S2|^n - |S1 & S2|^n.
    both = int(np.count_nonzero((p1 > 0.0) & (p2 > 0.0)))
    total = d1.support_size ** n + d2.support_size ** n - both ** n
    return _finish_spectrum(n, d1.base, lps[reachable],
                            list(itertools.compress(counts, reachable.tolist())),
                            _mass_tol(n, d1.alphabet_size), total)


def ceil_log2_parity(n: int) -> int:
    """Default switching rule: 0 (first component) when ceil(log2 n) is even, else 1."""
    check_range("n", n, 1, math.inf)
    return 0 if ((n - 1).bit_length() % 2 == 0) else 1


@dataclass(frozen=True)
class SwitchingSchedule:
    """A source that uses one of two i.i.d. components for the whole block.

    Which component is active depends only on the block length, through
    ``rule`` (data on the instance, not baked into the spectrum builder).
    The default rule alternates with the parity of ceil(log2 n): even picks
    the first component, odd the second, so a doubling n-grid alternates
    components at every point.
    """

    components: tuple[Distribution, Distribution]
    rule: Callable[[int], int] = field(default=ceil_log2_parity)

    def __post_init__(self) -> None:
        _check_components(*self.components)

    def active_component(self, n: int) -> int:
        idx = self.rule(n)
        if idx not in (0, 1):
            raise ValidationError(f"rule: component index must be 0 or 1, got {idx!r}")
        return idx


def switching_spectrum(schedule: SwitchingSchedule, n: int, *,
                       type_ceiling: int = DEFAULT_TYPE_CEILING) -> Spectrum:
    """Spectrum of the component the schedule activates at block length n."""
    d = schedule.components[schedule.active_component(n)]
    return iid_spectrum(d, n, type_ceiling=type_ceiling)


def sample_sequences(d: Distribution, n: int, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` i.i.d. length-n symbol sequences; shape (count, n), dtype int."""
    check_range("n", n, 1, math.inf)
    check_range("count", count, 1, math.inf)
    check_range("seed", seed, 0, math.inf)
    rng = np.random.default_rng(seed)
    return rng.choice(d.alphabet_size, size=(count, n), p=np.asarray(d.probs))
