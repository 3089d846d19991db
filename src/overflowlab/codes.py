"""Variable-length block codes with an error budget, described at type granularity.

Codes here are non-prefix: the only structural constraint is the counting
condition that at most sum_{i=1..t} K^i sequences may be decoded from strings
of length <= t.  Sequences outside the decode set all share a single
length-1 junk string; they count as errors, and a junk collision with a
decoded string resolves to the decoded sequence (the colliding sequence was
an error regardless of what the decoder outputs).

A ``CodeSpec`` is columns over its spectrum: the decode selection and one
read-only int64 column of codeword lengths (``_util.column``), one per decoded
atom.  Every query reads those; ``CodeSpec.assignments`` is a per-atom view
for outside readers.  The canonical code builds its column on first read:
until then overflow searches compute the few lengths they probe.

``optimal_tradeoff`` keeps its error budget as an exact integer count of
2**-1074 units and junks whole atoms in runs, one search of the spectrum's
exact mass totals per run, so delta* is the correctly rounded exact sum of
what overflows.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections import Counter
from functools import cached_property
from typing import NamedTuple, Sequence

from ._util import (SPLIT_GUARD, UNIT_BITS, Frozen, check_budgets, check_int, check_range,
                    column, count_mass, exact_units, split_count)
from .errors import ValidationError
from .sources import Distribution, Spectrum, level_types
from .tails import (PrefixSelection, selection_log_mass, selection_mass_from,
                    top_probability_prefix)

__all__ = [
    "Assignment", "CodeSpec", "TradeoffPoint", "CountingReport",
    "construct_code", "code_overflow", "validate_counting_condition",
    "optimal_tradeoff", "optimal_threshold", "simulate_roundtrip",
]


class Assignment(NamedTuple):
    """``count`` sequences of spectrum atom ``atom`` get codewords of ``length``."""

    atom: int
    count: int
    length: int


class _CanonicalLengths(NamedTuple):
    """The canonical code's length rule: decoded atom i, of log probability
    ``log_probs[i]``, gets ceil(-log_K(P(x) / P(A))) floored at 1, by the
    same IEEE operations as guarded_ceil."""

    log_probs: Sequence[float]  # of the decoded atoms
    ln_mass: float              # ln P(A)
    ln_base: float

    def __call__(self, i: int) -> int:
        return max(math.ceil((self.ln_mass - self.log_probs[i]) / self.ln_base - SPLIT_GUARD), 1)

    def column(self) -> Sequence[int]:
        ln_mass, ln_base = self.ln_mass, self.ln_base
        lengths = [math.ceil((ln_mass - lp) / ln_base - SPLIT_GUARD)
                   for lp in self.log_probs.tolist()]
        # Lengths never decrease, so the ones the floor at 1 raises are a prefix.
        short = bisect.bisect_left(lengths, 1)
        lengths[:short] = [1] * short
        return column("q", lengths)


class CodeSpec(Frozen):
    """A deterministic code at type granularity, compared by identity.

    ``selection`` is the decode set of ``spectrum``, ``error_mass`` the mass
    outside it, and ``lengths[i]`` the codeword length of decoded atom i,
    non-decreasing since heavier atoms never get longer codewords.  Within a
    split atom the decoded part is, by convention, the lexicographically
    smallest sequences of the atom (signature-major order); the convention
    only matters to the simulator, never to any probability.  A code built
    by ``construct_code`` holds its length rule in ``_lengths`` until
    ``lengths`` is first read; searches ask the rule for the few lengths
    they probe, so a code that is only queried builds no column.
    """

    def __init__(self, spectrum: Spectrum, selection: PrefixSelection,
                 lengths: Sequence[int] | _CanonicalLengths, error_mass: float) -> None:
        decoded = selection.full_atoms + (selection.boundary_taken > 0)
        if isinstance(lengths, _CanonicalLengths):
            ok = len(lengths.log_probs) == decoded  # non-decreasing by construction
        else:
            values = list(lengths)
            try:
                lengths = column("q", values)
            except (TypeError, OverflowError):
                lengths = values = None
            ok = values is not None and len(values) == decoded and values == sorted(values)
        if not ok or decoded == 0:
            raise ValidationError("lengths: need one per decoded atom (>= 1), non-decreasing")
        vars(self).update(spectrum=spectrum, selection=selection, _lengths=lengths,
                          error_mass=error_mass)

    @property
    def lengths(self) -> Sequence[int]:
        """The read-only int64 column of codeword lengths, built on first read."""
        if isinstance(self._lengths, _CanonicalLengths):
            self.__dict__["_lengths"] = self._lengths.column()
        return self._lengths

    def _first_longer(self, eta: float) -> int:
        """Index of the first decoded atom whose codeword is longer than ``eta``."""
        lengths = self._lengths
        if isinstance(lengths, _CanonicalLengths):
            return bisect.bisect_right(range(len(lengths.log_probs)), eta, key=lengths)
        return bisect.bisect_right(lengths, eta)

    def __reduce__(self):
        # The lengths column is a memoryview, which neither pickles nor deepcopies.
        return CodeSpec, (self.spectrum, self.selection, self.lengths.tolist(), self.error_mass)

    n = property(lambda self: self.spectrum.n)
    base = property(lambda self: self.spectrum.base)
    decode_set_mass = property(lambda self: self.selection.mass)

    @cached_property
    def assignments(self) -> tuple[Assignment, ...]:
        """One Assignment per decoded atom, built on first read from the columns."""
        sel = self.selection
        counts = self.spectrum.counts[:sel.full_atoms] + (sel.boundary_taken,)
        return tuple(map(Assignment, range(len(self.lengths)), counts, self.lengths.tolist()))


def string_budget(base: int, floor_eta: int) -> int:
    """Exact number of nonempty base-K strings of length <= floor_eta."""
    base = check_int("base", base, 2)
    floor_eta = check_int("floor_eta", floor_eta, -math.inf)
    if floor_eta < 1:
        return 0
    return (base ** (floor_eta + 1) - base) // (base - 1)


def _decode_selection(s: Spectrum, eps: float) -> PrefixSelection:
    """Top-probability decode set of mass >= 1 - eps, never empty.

    For eps within the split guard of 1 the greedy prefix may come back
    empty; the canonical code still decodes the single most likely sequence.
    """
    sel = top_probability_prefix(s, 1.0 - eps)
    if sel.num_sequences > 0:
        return sel
    return PrefixSelection(full_atoms=0, boundary_taken=1,
                           mass=count_mass(1, s.log_probs[0]),
                           num_sequences=1)


def construct_code(s: Spectrum, eps: float) -> CodeSpec:
    """Build the canonical eps-error code for spectrum ``s``.

    The decode set A is the smallest top-probability set with mass >= 1 - eps
    (sequence granular).  Each decoded sequence x gets a codeword of length
    ceil(-log_K(P(x) / P(A))), floored at 1 since the empty string is not a
    codeword; everything else maps to the junk string and is an error.
    """
    check_range("eps", eps, 0, 1)
    sel = _decode_selection(s, eps)
    b = sel.full_atoms
    # Atoms [0, b) are decoded whole, and atom b too when boundary_taken > 0.
    lengths = _CanonicalLengths(s.log_probs[:b + (sel.boundary_taken > 0)],
                                selection_log_mass(s, sel), math.log(s.base))
    err = 0.0
    if b < len(s):
        rest = count_mass(s.counts[b] - sel.boundary_taken, s.log_probs[b])
        err = s.mass_sum(b + 1, extra=(rest,))
    return CodeSpec(spectrum=s, selection=sel, lengths=lengths, error_mass=err)


def code_overflow(c: CodeSpec, eta: float) -> float:
    """Probability that the emitted codeword is longer than ``eta``.

    Lengths are non-decreasing, so the overflowing atoms are the light end
    of the decode set.  Junked sequences emit the length-1 junk string,
    which never overflows for eta >= 1.
    """
    check_range("eta", eta, 1, math.inf)
    first = c._first_longer(eta)
    return selection_mass_from(c.spectrum, c.selection, first)


class CountingReport(NamedTuple):
    """Result of checking the counting condition at every length threshold."""

    ok: bool
    first_violation: tuple[int, int, int] | None  # (threshold, decoded count, budget)


def validate_counting_condition(c: CodeSpec) -> CountingReport:
    """Check that decoded sequences fit the nonempty-string budget at every length.

    For each distinct codeword length t the number of sequences decoded from
    strings of length <= t must not exceed sum_{i=1..t} K^i (exact integers).
    The junk string carries no decoding, so it consumes no budget.
    """
    s, sel, lengths, b = c.spectrum, c.selection, c.lengths, c.selection.full_atoms
    if lengths[0] < 1:
        first_count = s.counts[0] if b else sel.boundary_taken
        return CountingReport(ok=False, first_violation=(lengths[0], first_count, 0))
    # Lengths are non-decreasing, so each distinct length ends a run of atoms
    # and the decoded count up to it is a prefix count.
    # The budget at length t is (K^(t+1) - K) / (K - 1), so cum exceeds it
    # exactly when cum * (K - 1) > K^(t+1) - K; one running power K^(t+1) is
    # carried up from the previous distinct length instead of built afresh.
    boundary_cum = (s.count_through(b - 1) if b else 0) + sel.boundary_taken
    run_ends = [*itertools.compress(itertools.count(), map(operator.ne, lengths, lengths[1:])),
                len(lengths) - 1]
    k, t_prev, power = s.base, 0, s.base
    for i, t in zip(run_ends, map(lengths.__getitem__, run_ends)):
        cum = s.count_through(i) if i < b else boundary_cum
        power *= k ** (t - t_prev)
        t_prev = t
        if cum * (k - 1) > power - k:
            return CountingReport(ok=False, first_violation=(t, cum, string_budget(k, t)))
    return CountingReport(ok=True, first_violation=None)


class TradeoffPoint(NamedTuple):
    """One point of the exact overflow/error tradeoff."""

    n: int
    eta: float
    eps: float
    delta_star: float
    budget: int  # number of decodable strings, sum_{i<=floor(eta)} K^i


# The whole-fit guard as an exact factor: a run of whole atoms may pass the
# budget at its start by SPLIT_GUARD of it, forgiving float noise in an eps
# that was itself summed from masses.
_GUARDED = exact_units(1.0 + SPLIT_GUARD)


def optimal_tradeoff(s: Spectrum, eta: float, eps: float) -> TradeoffPoint:
    """Least overflow probability at length threshold ``eta`` and error budget ``eps``.

    Construction: the M = sum_{i<=floor(eta)} K^i decodable strings go to the
    M most probable sequences (splitting a type class if needed); the error
    budget is then spent junking the heaviest remaining sequences that still
    fit (heaviest first, skipping what no longer fits, splitting at sequence
    granularity).  Junked sequences share the length-1 junk string, so they
    never overflow; delta_star is the mass left over.

    The budget is kept exactly, in units of 2**-1074.  Junking goes in runs:
    the top-M remainder alone, then each stretch of whole atoms after an atom
    that did not fit whole.  A run takes every atom up to the first whose
    exact running total passes the budget at the run's start times
    (1 + SPLIT_GUARD); that atom is split on the log of the exact remainder.
    A budget a run overspends (by at most the guard) is spent.  delta_star is
    the correctly rounded exact sum of every overflowing mass.  It is a step
    function of floor(eta): only the integer part of the threshold buys
    strings.
    """
    check_range("eta", eta, 1, math.inf)
    check_range("eps", eps, 0, 1)
    m_budget = string_budget(s.base, math.floor(eta))
    if m_budget >= s.total_count:
        return TradeoffPoint(n=s.n, eta=eta, eps=eps, delta_star=0.0, budget=m_budget)
    # Top-M split: first atom where the running count reaches the budget.
    b = s.first_reaching(m_budget)
    # Atom i has ``avail`` sequences neither decoded nor junked; ``left`` is the
    # budget and ``over`` the overflow mass of the atoms before i, both in units.
    units = s.mass_units
    left, over = exact_units(eps), 0
    i, avail = b, s.count_through(b) - m_budget
    while True:
        # Atom i (the top-M remainder, or the atom that ended a run): its
        # ``avail`` sequences are junked whole within the guard, or split.
        lp = s.log_probs[i]
        rest = exact_units(count_mass(avail, lp))
        if rest <= left * _GUARDED >> UNIT_BITS:
            left -= rest
        else:
            k = split_count(math.log(left / (1 << UNIT_BITS)), lp, avail, "fit") if left else 0
            left -= exact_units(count_mass(k, lp))
            over += exact_units(count_mass(avail - k, lp))
        i += 1
        if left <= 0 or i == len(s):
            break
        # Atoms whose one sequence outweighs the budget by more than the split
        # guard take no junk, so they overflow whole.  Log probs descend, so
        # they form a run.
        ln_fit = math.log(left / (1 << UNIT_BITS)) + 1e-6
        before = units.through(i - 1)
        if s.log_probs[i] > ln_fit:
            j = bisect.bisect_left(s.log_probs, -ln_fit, lo=i + 1, key=operator.neg)
            if j == len(s):
                break
            over += units.through(j - 1) - before
            i, before = j, units.through(j - 1)
        # The run: every whole atom up to the first that passes the allowance.
        i = units.first_reaching(before + (left * _GUARDED >> UNIT_BITS) + 1)
        left -= units.through(i - 1) - before
        if left <= 0 or i == len(s):
            break
        avail = s.counts[i]
    over += units.total - units.through(i - 1)
    return TradeoffPoint(n=s.n, eta=eta, eps=eps, delta_star=over / (1 << UNIT_BITS),
                         budget=m_budget)


def optimal_threshold(s: Spectrum, eps: float, delta: float) -> int:
    """Least integer eta >= 1 with optimal_tradeoff(s, eta, eps).delta_star <= delta."""
    check_budgets(eps, delta)

    def ok(eta: int) -> bool:
        return optimal_tradeoff(s, eta, eps).delta_star <= delta

    hi = 1
    while string_budget(s.base, hi) < s.total_count and not ok(hi):
        hi *= 2
    lo = max(1, hi // 2)
    if lo == hi:
        return hi
    # ok() is monotone along the doubling path; bisect the last octave.
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


# ---------------------------------------------------------------------------
# Round-trip simulation


def _nearest_atoms(s: Spectrum, lps: Sequence[float]) -> list[int]:
    """Index of the atom nearest each log probability; one that is farther
    than 1e-9 (relative) from every atom, or -inf, matches none and is
    refused."""
    descending, last = s.log_probs, len(s) - 1

    def nearest(lp: float) -> int:
        i = min(bisect.bisect_left(descending, -lp, key=operator.neg), last)
        if i and abs(descending[i - 1] - lp) < abs(descending[i] - lp):
            i -= 1
        if lp == -math.inf or abs(descending[i] - lp) > 1e-9 * max(1.0, abs(lp)):
            raise ValidationError("samples: a sequence does not match any spectrum atom")
        return i

    atom_of = {lp: nearest(lp) for lp in set(lps)}
    return list(map(atom_of.__getitem__, lps))


def _atom_ranks(s: Spectrum, d: Distribution, atom: int, rows) -> list[int]:
    """Rank of each row inside ``atom``: signature-major, then arrangement order.

    A signature is a row's vector of symbol counts.  The atom is a union of
    level types T (per-level totals over the collapsed equal-probability
    levels); its sequences with a smaller signature than the row's, sig, are
    counted per T, walking symbols in alphabet order.  With sig fixed on the
    symbols before j and v < sig[j] on symbol j, level L has r_L of its total
    left for its m_L free symbols, and by the multinomial theorem those
    sequences number n! / (prod fixed k! * v! * prod r_L!) * prod m_L ** r_L.
    ``rows`` is a sequence of rows of integer symbols.
    """
    values, mults, types = level_types(d, s.n)
    kinds = [ks for ks, _ in types]
    logs = list(map(math.log, values))
    atoms = _nearest_atoms(s, [sum(map(operator.mul, ks, logs)) for ks in kinds])
    in_atom = [ks for ks, i in zip(kinds, atoms) if i == atom]
    level = [bisect.bisect_left(values, q) if q > 0.0 else -1 for q in d.probs]
    fact = list(itertools.accumulate(range(1, s.n + 1), operator.mul, initial=1))
    ranks = []
    for row in rows:
        tally = Counter(row)
        sig = [tally[j] for j in range(d.alphabet_size)]
        rank, fixed, free, denom, live = 0, [0] * len(mults), list(mults), 1, in_atom
        for j, top in enumerate(sig):
            lj = level[j]
            if lj < 0:
                continue  # a zero-probability symbol, absent from the row
            free[lj] -= 1
            for t in live:
                # The sum over v factors into the other levels' completions
                # times sum_v C(r, v) * m ** (r - v) on symbol j's level.
                rest = list(map(operator.sub, t, fixed))
                r, rest[lj], m = rest[lj], 0, free[lj]
                others = (fact[s.n] * math.prod(map(pow, free, rest))
                          // (denom * fact[r] * math.prod(fact[x] for x in rest)))
                rank += others * sum(math.comb(r, v) * m ** (r - v)
                                     for v in range(min(top, r + 1)))
            fixed[lj] += top
            denom *= fact[top]
            # A level type the fixed symbols overran, or whose level has no
            # free symbol left for its remainder, counts nothing further.
            live = [t for t in live if t[lj] >= fixed[lj] and (free[lj] or t[lj] == fixed[lj])]
        # Lexicographic rank among the arrangements of sig: at each position,
        # the arrangements left that start with a smaller symbol.
        arrangements, left = fact[s.n] // denom, s.n
        for sym in row:
            rank += arrangements * sum(sig[:sym]) // left
            arrangements = arrangements * sig[sym] // left
            sig[sym] -= 1
            left -= 1
        ranks.append(rank)
    return ranks


def simulate_roundtrip(c: CodeSpec, d: Distribution, samples,
                       eta: float) -> tuple[float, float]:
    """Empirical (error rate, overflow rate at eta) of the code on drawn samples.

    ``samples`` holds ``count`` rows of n integer symbols: the draws of
    ``sample_sequences``, a numpy array of shape (count, n), or a list of
    rows.  The decoded part of a partially covered atom is pinned to the
    first sequences of the atom in signature-major order (type signature
    ascending, then lexicographic arrangement), so two runs on the same
    samples always agree.  Sequences are matched to atoms by their log
    probability.
    """
    check_range("eta", eta, 1, math.inf)
    rows = samples.tolist() if hasattr(samples, "tolist") else samples
    if (not isinstance(rows, (list, tuple)) or not set(map(type, rows)) <= {list, tuple}
            or set(map(len, rows)) - {c.n}):
        raise ValidationError(f"samples: expected shape (count, {c.n})")
    if not rows:
        raise ValidationError("samples: need at least one row")
    refused = ValidationError(f"samples: need integer symbols in [0, {d.alphabet_size})")
    if set(map(type, itertools.chain.from_iterable(rows))) != {int}:
        raise refused
    # Each row's log probability; a zero-probability symbol makes it -inf.
    lnp = {j: math.log(q) if q > 0.0 else -math.inf for j, q in enumerate(d.probs)}
    try:
        lps = [sum(map(lnp.__getitem__, row)) for row in rows]
    except KeyError:  # a symbol outside [0, alphabet_size)
        raise refused from None
    s, sel = c.spectrum, c.selection
    idx = _nearest_atoms(s, lps)

    # Atoms [0, b) are decoded whole; atom b, when decoded, is split unless
    # its slice is the whole atom (a one-sequence atom).
    b, decoded = sel.full_atoms, len(c.lengths)
    whole = b + int(decoded > b and sel.boundary_taken >= s.counts[b])
    hits = Counter(idx)
    errors = sum(k for i, k in hits.items() if i >= decoded)
    overflows = sum(k for i, k in hits.items() if i < whole and c.lengths[i] > eta)
    if whole < decoded and hits[b]:
        ranks = _atom_ranks(s, d, b, [row for row, i in zip(rows, idx) if i == b])
        kept = sum(rank < sel.boundary_taken for rank in ranks)
        errors += hits[b] - kept
        overflows += kept * int(c.lengths[b] > eta)
    return errors / len(rows), overflows / len(rows)
