"""Functionals of a block spectrum: tails, smooth max entropy, quantile rates.

Everything here works at sequence granularity: a type class may be split,
in which case an integral number of its (interchangeable) sequences is taken.
"""

from __future__ import annotations

import bisect
import enum
import math
from typing import NamedTuple

from ._util import UNIT_BITS, check_budgets, check_range, count_mass, exact_units, split_count
from .errors import ValidationError
from .sources import Spectrum


class Comparator(enum.Enum):
    """Which side of a rate threshold counts as the tail."""

    STRICT = ">"
    NON_STRICT = ">="


def _tail_start(s: Spectrum, rate: float, cmp: Comparator) -> int:
    """Index of the first atom whose rate is admitted by ``cmp`` against ``rate``.

    Rates are strictly ascending, so the admitted region is a suffix.  The
    comparison is exact: ``cmp`` only picks the side of the search.
    """
    check_range("rate", rate, -math.inf, math.inf)
    search = bisect.bisect_right if cmp is Comparator.STRICT else bisect.bisect_left
    return search(range(len(s)), rate, key=s.rate)


def tail_mass(s: Spectrum, rate: float, cmp: Comparator = Comparator.STRICT) -> float:
    """Probability that the per-symbol rate of a block compares past ``rate``.

    ``rate`` is in base-K units per symbol.  The default comparator is
    strict, matching the upper-tail convention of the first-order threshold.
    """
    return s.mass_sum(_tail_start(s, rate, cmp))


class PrefixSelection(NamedTuple):
    """A top-probability set of sequences, possibly splitting one type class.

    Atoms ``[0, full_atoms)`` are taken whole; ``boundary_taken`` sequences
    (possibly zero) are taken from atom ``full_atoms`` when it exists.
    """

    full_atoms: int
    boundary_taken: int
    mass: float
    num_sequences: int


def _count_before(s: Spectrum, i: int) -> int:
    """Exact number of sequences in atoms [0, i)."""
    return s.count_through(i - 1) if i else 0


def _greedy_prefix(s: Spectrum, start: int, target: float) -> PrefixSelection:
    """Smallest descending-probability prefix of atoms [start..) with mass >= target.

    The boundary atom is the first at which the exact running mass from
    ``start`` reaches ``target``.  A target equal to an exact running sum
    ends the prefix at that atom and takes it whole.  Otherwise the boundary
    type class is split on the exact remainder, with a guarded ceiling so
    decimal knife edges resolve to the exact-arithmetic count.  A target of
    1 or more takes every atom from ``start`` on (the exact total of the
    float masses can pass 1 by rounding dust), and so does one the suffix
    cannot reach.  The mass is the correctly rounded mass of the selection.
    """
    if target <= 0.0:
        return PrefixSelection(full_atoms=start, boundary_taken=0, mass=0.0, num_sequences=0)
    units = s.mass_units
    goal = (units.through(start - 1) if start else 0) + exact_units(target)
    i = len(s) if target >= 1.0 else units.first_reaching(goal)
    seqs = _count_before(s, i) - _count_before(s, start)
    if i == len(s):
        return PrefixSelection(i, 0, s.mass_sum(start), seqs)
    lp, count = s.log_probs[i], s.counts[i]
    k = count
    if units.through(i) > goal:
        # Log-domain split: at large n a single sequence's probability
        # underflows a double even while the atom's mass is of order one.
        # The remainder is at least one unit, so the log is defined.
        rest = goal - (units.through(i - 1) if i else 0)
        k = split_count(math.log(rest / (1 << UNIT_BITS)), lp, count, "cover")
    if k == count:
        return PrefixSelection(i + 1, 0, s.mass_sum(start, i + 1), seqs + count)
    return PrefixSelection(i, k, s.mass_sum(start, i, extra=(count_mass(k, lp),)), seqs + k)


def top_probability_prefix(s: Spectrum, target: float) -> PrefixSelection:
    """Smallest set of highest-probability sequences with total mass >= target."""
    check_range("target", target, -math.inf, math.inf)
    return _greedy_prefix(s, 0, target)


def selection_log_mass(s: Spectrum, sel: PrefixSelection) -> float:
    """Natural log of a selection's mass, alive even where the float mass
    underflowed to zero (a selection of a few sequences at very large n)."""
    if sel.mass > 0.0:
        return math.log(sel.mass)
    # Log-sum-exp of log(count) + lp over the whole atoms and the boundary slice.
    b = sel.full_atoms
    logs = [math.log(count) + lp for count, lp in zip(s.counts[:b], s.log_probs[:b].tolist())]
    if sel.boundary_taken > 0:
        logs.append(math.log(sel.boundary_taken) + s.log_probs[b])
    if not logs:
        raise ValidationError("selection is empty; it has no log mass")
    top = max(logs)
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


def selection_mass_from(s: Spectrum, sel: PrefixSelection, first: int) -> float:
    """Mass of the selected sequences in atoms ``first`` on, correctly rounded:
    whole atoms up to the boundary, plus the boundary slice."""
    b = sel.full_atoms
    boundary = ()
    if first <= b < len(s):
        boundary = (count_mass(sel.boundary_taken, s.log_probs[b]),)
    return s.mass_sum(min(first, b), b, extra=boundary)


def smooth_max_entropy(s: Spectrum, gamma: float) -> float:
    """log_K of the least number of sequences capturing mass 1 - gamma.

    The boundary type class is split at sequence granularity.  At gamma = 0
    this is log_K of the number of positive-probability sequences.
    """
    check_range("gamma", gamma, 0, 1)
    sel = top_probability_prefix(s, 1.0 - gamma)
    return math.log(max(sel.num_sequences, 1)) / math.log(s.base)


class RestrictedTailResult(NamedTuple):
    """Outcome of the constrained tail minimization.

    value          : smallest achievable tail mass inside an admissible set
    set_mass       : probability of the constructed set (>= 1 - eps)
    boundary_split : (atom index, sequences taken) when a type class was split
    """

    value: float
    set_mass: float
    boundary_split: tuple[int, int] | None


def restricted_tail_inf(s: Spectrum, eps: float, rate: float,
                        cmp: Comparator = Comparator.NON_STRICT) -> RestrictedTailResult:
    """Minimize the mass beyond ``rate`` over sets keeping total mass >= 1 - eps.

    Construction: every sequence on the near side of the threshold is free,
    so all of them are included.  If that already reaches 1 - eps the value
    is 0.  Otherwise the deficit is covered by the most probable tail
    sequences (any lighter choice would have to include strictly more tail
    mass), splitting the boundary type class at sequence granularity; the
    value is exactly the tail mass added.

    The default comparator is non-strict, matching the tail convention of
    the constrained-minimum definitions.
    """
    check_range("eps", eps, 0, 1)
    start = _tail_start(s, rate, cmp)
    tail = s.mass_sum(start)
    free = 1.0 - tail
    if tail <= eps:
        return RestrictedTailResult(value=0.0, set_mass=free, boundary_split=None)
    sel = _greedy_prefix(s, start, tail - eps)
    split = None
    if sel.boundary_taken:
        split = (sel.full_atoms, sel.boundary_taken)
    return RestrictedTailResult(value=sel.mass, set_mass=free + sel.mass, boundary_split=split)


def finite_n_first_order(s: Spectrum, eps: float, delta: float) -> float:
    """Smallest atom rate R with P{rate > R} <= eps + delta.

    This is the finite-n analogue of the first-order threshold: the
    (eps + delta)-upper-quantile of the spectrum, reported on the atom-rate
    grid in base-K units per symbol.  It depends on (eps, delta) only
    through their sum, exactly: the exact tail is compared with the double eps + delta.
    """
    check_budgets(eps, delta)
    # The mass after atom j is total - through(j); the last atom always qualifies.
    units = s.mass_units
    j = units.first_reaching(units.total - exact_units(eps + delta))
    return s.rate(j)


def finite_n_second_order(s: Spectrum, eps: float, delta: float, rate: float) -> float:
    """sqrt(n) * (finite-n first-order threshold - rate), base-K units."""
    return math.sqrt(s.n) * (finite_n_first_order(s, eps, delta) - rate)
