"""Code construction, the counting condition, exact overflow tradeoffs, and
the round-trip simulator."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import _oracle as orc
import overflowlab.codes as codes_module
from overflowlab import (
    Assignment,
    CodeSpec,
    Distribution,
    PrefixSelection,
    Spectrum,
    ValidationError,
    code_overflow,
    construct_code,
    entropy,
    iid_spectrum,
    make_distribution,
    mixed_spectrum,
    optimal_threshold,
    optimal_tradeoff,
    simulate_roundtrip,
    string_budget,
    validate_counting_condition,
    varentropy,
)
from overflowlab._util import SPLIT_GUARD, RunningTotals, count_mass, split_count

GRID = orc.grid_distributions()
BINARY = [g for g in GRID if len(g) == 2]


def spectrum_of(probs, n):
    return iid_spectrum(make_distribution(list(probs)), n)


# ---------------------------------------------------------------------------
# string_budget
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("base,t,want", [
    (2, 0, 0), (2, 1, 2), (2, 2, 6), (2, 3, 14),
    (3, 1, 3), (3, 2, 12), (3, 3, 39), (5, 1, 5),
])
def test_string_budget_closed_form(base, t, want):
    assert string_budget(base, t) == want


def test_string_budget_matches_direct_sum():
    for base in (2, 3, 4):
        for t in range(1, 12):
            assert string_budget(base, t) == sum(base ** i for i in range(1, t + 1))


# ---------------------------------------------------------------------------
# construct_code
# ---------------------------------------------------------------------------


def test_construct_code_uniform_split():
    c = construct_code(spectrum_of((0.5, 0.5), 2), 0.25)
    assert c.assignments == (Assignment(atom=0, count=3, length=2),)
    assert c.decode_set_mass == pytest.approx(0.75, abs=1e-12)
    assert c.error_mass == pytest.approx(0.25, abs=1e-12)


def test_construct_code_zero_error_uniform():
    c = construct_code(spectrum_of((0.5, 0.5), 2), 0.0)
    assert c.assignments == (Assignment(atom=0, count=4, length=2),)
    assert c.error_mass == 0.0


def test_construct_code_length_profile():
    # With everything decoded, lengths are ceil(-log2 P(x)) per atom.
    c = construct_code(spectrum_of((0.3, 0.7), 2), 0.0)
    assert c.assignments == (
        Assignment(atom=0, count=1, length=2),
        Assignment(atom=1, count=2, length=3),
        Assignment(atom=2, count=1, length=4),
    )


def test_construct_code_lengths_shrink_with_conditioning():
    # Shrinking the decode set scales lengths by -log2 of its mass.
    s = spectrum_of((0.3, 0.7), 4)
    full = {a.atom: a.length for a in construct_code(s, 0.0).assignments}
    trimmed = construct_code(s, 0.2)
    for a in trimmed.assignments:
        assert a.length <= full[a.atom]


def test_construct_code_never_empty_at_extreme_eps():
    # Even with eps within rounding of 1 the code decodes one sequence.
    c = construct_code(spectrum_of((0.3, 0.7), 2), 1.0 - 1e-15)
    assert sum(a.count for a in c.assignments) == 1
    assert c.assignments[0].atom == 0


def test_construct_code_counting_always_holds():
    for probs in ((0.5, 0.5), (0.3, 0.7), (0.2, 0.3, 0.5)):
        for n in (1, 3, 5, 7):
            for eps in (0.0, 0.1, 1 / 3):
                c = construct_code(spectrum_of(probs, n), eps)
                assert validate_counting_condition(c).ok


def _leftover_loop(s, code):
    """Reference: the atom-by-atom error mass the one-fsum version replaced."""
    taken = {a.atom: a.count for a in code.assignments}
    parts = []
    for i, (count, lp, mass) in enumerate(zip(s.counts, s.log_probs.tolist(),
                                              s.masses.tolist())):
        left = count - taken.get(i, 0)
        if left == count:
            parts.append(mass)
        elif left > 0:
            parts.append(count_mass(left, lp))
    return math.fsum(parts)


@given(st.sampled_from(GRID), st.integers(1, 30), st.floats(0.0, 0.999))
def test_construct_code_error_mass_equals_loop(probs, n, eps):
    s = spectrum_of(probs, n)
    code = construct_code(s, eps)
    assert code.error_mass == _leftover_loop(s, code)


def test_construct_code_survives_underflowed_decode_set():
    # At eps within 1e-12 of 1 the most likely sequences (0.9**8000 and on)
    # have masses that underflow a double; the exact decode set still covers
    # 1 - eps, with 618 whole atoms and a slice of the next.
    s = spectrum_of((0.1, 0.9), 8000)
    eps = 1 - 1e-12
    c = construct_code(s, eps)
    assert s.masses[0] == 0.0
    assert c.selection.full_atoms == 618
    assert c.decode_set_mass >= 1 - eps
    assert validate_counting_condition(c).ok


@pytest.mark.parametrize("eps", [-0.1, 1.0, 1.5])
def test_construct_code_rejects_bad_eps(eps):
    with pytest.raises(ValidationError):
        construct_code(spectrum_of((0.3, 0.7), 2), eps)


# ---------------------------------------------------------------------------
# validate_counting_condition
# ---------------------------------------------------------------------------


def _bare_spec(counts, lengths, base=2):
    """A code that decodes every sequence of atoms with these counts at these lengths."""
    total = sum(counts)
    s = Spectrum(n=2, base=base, counts=counts,
                 log_probs=[-math.log(total) - i for i in range(len(counts))])
    sel = PrefixSelection(full_atoms=len(counts), boundary_taken=0, mass=0.0,
                          num_sequences=total)
    return CodeSpec(spectrum=s, selection=sel, lengths=lengths, error_mass=0.0)


def test_counting_rejects_overfull_length_one():
    r = validate_counting_condition(_bare_spec((3,), (1,)))
    assert not r.ok
    assert r.first_violation == (1, 3, 2)


def test_counting_accepts_exactly_full_level():
    r = validate_counting_condition(_bare_spec((2, 4), (1, 2)))
    assert r.ok
    assert r.first_violation is None


def test_counting_is_cumulative_across_lengths():
    # 2 strings of length 1 plus 5 of length <= 2 exceeds the 6-string budget.
    r = validate_counting_condition(_bare_spec((2, 5), (1, 2)))
    assert not r.ok
    assert r.first_violation == (2, 7, 6)


def test_counting_rejects_nonpositive_length():
    r = validate_counting_condition(_bare_spec((1,), (0,)))
    assert not r.ok
    assert r.first_violation == (0, 1, 0)


def test_counting_respects_base():
    r = validate_counting_condition(_bare_spec((3,), (1,), base=3))
    assert r.ok


def _counting_loop(c):
    """Reference: one fresh string_budget per distinct codeword length."""
    s, sel, lengths, b = c.spectrum, c.selection, c.lengths.tolist(), c.selection.full_atoms
    if lengths[0] < 1:
        return (lengths[0], s.counts[0] if b else sel.boundary_taken, 0)
    cum = 0
    for i, t in enumerate(lengths):
        cum += s.counts[i] if i < b else sel.boundary_taken
        if (i + 1 == len(lengths) or lengths[i + 1] != t) and cum > string_budget(s.base, t):
            return (t, cum, string_budget(s.base, t))
    return None


@given(st.lists(st.tuples(st.integers(1, 60), st.integers(0, 3)), min_size=1, max_size=12),
       st.sampled_from([2, 3]))
@example([(3, 1)], 2)             # the overfull length-one code
@example([(2, 1), (4, 1)], 2)     # exactly full at both lengths
@example([(2, 1), (5, 1)], 2)     # cumulative overflow at length two
@example([(3, 1)], 3)             # fits in base 3
@example([(3, 1), (10, 1)], 3)    # 13 > 12 strings of length <= 2 in base 3
def test_counting_equals_per_length_budgets_on_bare_codes(atoms, base):
    counts = [c for c, _ in atoms]
    lengths = list(itertools.accumulate(step for _, step in atoms))
    lengths = [max(t, 1) for t in lengths]
    r = validate_counting_condition(_bare_spec(tuple(counts), tuple(lengths), base=base))
    want = _counting_loop(_bare_spec(tuple(counts), tuple(lengths), base=base))
    assert r.first_violation == want
    assert r.ok == (want is None)


@given(st.sampled_from([(0.11, 0.89), (0.3, 0.7), (0.2, 0.3, 0.5), (0.1, 0.2, 0.3, 0.4)]),
       st.integers(2, 60), st.sampled_from([2, 3]), st.floats(0.0, 0.5), st.integers(0, 4))
def test_counting_equals_per_length_budgets_on_built_codes(probs, n, base, eps, shorten):
    # Shortening every codeword by the same amount keeps the lengths
    # non-decreasing and drives the cumulative counts past the budgets,
    # through the split boundary atom too.
    c = construct_code(iid_spectrum(make_distribution(list(probs), base=base), n), eps)
    c = CodeSpec(spectrum=c.spectrum, selection=c.selection,
                 lengths=np.maximum(np.asarray(c.lengths) - shorten, 1), error_mass=c.error_mass)
    want = _counting_loop(c)
    assert validate_counting_condition(c).first_violation == want


def test_codespec_rejects_malformed_lengths():
    with pytest.raises(ValidationError):
        _bare_spec((2, 4), (1,))  # one length for two decoded atoms
    with pytest.raises(ValidationError):
        _bare_spec((2, 4), (2, 1))  # a heavier atom with a longer codeword
    empty = PrefixSelection(full_atoms=0, boundary_taken=0, mass=0.0, num_sequences=0)
    with pytest.raises(ValidationError):  # no decoded atom at all
        CodeSpec(spectrum=spectrum_of((0.3, 0.7), 2), selection=empty, lengths=(),
                 error_mass=1.0)


def test_codespec_columns_and_view():
    s = spectrum_of((0.3, 0.7), 6)
    c = construct_code(s, 0.2)
    assert c.lengths.readonly
    assert np.all(np.diff(np.asarray(c.lengths)) >= 0)
    assert (c.n, c.base, c.decode_set_mass) == (s.n, s.base, c.selection.mass)
    assert c.assignments is c.assignments
    assert all(type(v) is int for a in c.assignments for v in (a.atom, a.count, a.length))
    assert sum(a.count for a in c.assignments) == c.selection.num_sequences
    assert [a.length for a in c.assignments] == c.lengths.tolist()


# ---------------------------------------------------------------------------
# code_overflow
# ---------------------------------------------------------------------------


def test_code_overflow_steps_through_lengths():
    c = construct_code(spectrum_of((0.3, 0.7), 2), 0.0)
    assert code_overflow(c, 2) == pytest.approx(0.51, abs=1e-12)
    assert code_overflow(c, 3) == pytest.approx(0.09, abs=1e-12)
    assert code_overflow(c, 3.5) == pytest.approx(0.09, abs=1e-12)
    assert code_overflow(c, 4) == 0.0


def test_code_overflow_validation():
    c = construct_code(spectrum_of((0.3, 0.7), 2), 0.0)
    for eta in (0.5, math.nan, math.inf):
        with pytest.raises(ValidationError):
            code_overflow(c, eta)


@pytest.mark.parametrize("probs", [(0.3, 0.7), (0.2, 0.3, 0.5)])
@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("eps", [0.0, 1 / 7, 0.3])
def test_code_overflow_matches_enumeration(probs, n, eps):
    c = construct_code(spectrum_of(probs, n), eps)
    levels = orc.seq_levels(probs, n)
    for eta in (1, 2, 4, 8):
        assert code_overflow(c, eta) == pytest.approx(
            orc.code_overflow(levels, 2, eps, eta), abs=1e-12)


def _overflow_loop(c, eta):
    """Reference: the per-assignment sum the one-searchsorted version replaced."""
    long = [a for a in c.assignments if a.length > eta]
    lps = np.asarray(c.spectrum.log_probs)[[a.atom for a in long]].tolist()
    over = [count_mass(a.count, lp) for a, lp in zip(long, lps)]
    return math.fsum(over)


@given(st.sampled_from(GRID), st.integers(1, 60), st.floats(0.0, 0.999),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_code_overflow_equals_loop(probs, n, eps, fractions):
    c = construct_code(spectrum_of(probs, n), eps)
    top = int(c.lengths[-1]) + 1
    etas = [1 + f * top for f in fractions] + c.lengths.tolist()
    for eta in etas:
        assert code_overflow(c, eta) == _overflow_loop(c, eta)


# ---------------------------------------------------------------------------
# optimal_tradeoff
# ---------------------------------------------------------------------------


def test_tradeoff_pinned_values():
    su = spectrum_of((0.5, 0.5), 2)
    s2 = spectrum_of((0.3, 0.7), 2)
    s3 = spectrum_of((0.3, 0.7), 3)
    assert optimal_tradeoff(su, 1, 0.0).delta_star == pytest.approx(0.5, abs=1e-12)
    assert optimal_tradeoff(su, 1, 0.25).delta_star == pytest.approx(0.25, abs=1e-12)
    assert optimal_tradeoff(s2, 1, 0.0).delta_star == pytest.approx(0.3, abs=1e-12)
    assert optimal_tradeoff(s2, 1, 0.1).delta_star == pytest.approx(0.21, abs=1e-12)
    assert optimal_tradeoff(s3, 1, 0.1).delta_star == pytest.approx(0.42, abs=1e-12)
    assert optimal_tradeoff(s3, 2, 0.0).delta_star == pytest.approx(0.09, abs=1e-12)


def test_tradeoff_reports_string_budget():
    s = spectrum_of((0.3, 0.7), 4)
    for eta in (1, 2.0, 3.7, 6):
        assert optimal_tradeoff(s, eta, 0.1).budget == string_budget(2, math.floor(eta))


def test_tradeoff_is_step_function_of_floor_eta():
    s = spectrum_of((0.3, 0.7), 5)
    a = optimal_tradeoff(s, 2.0, 0.1)
    b = optimal_tradeoff(s, 2.999, 0.1)
    assert a.delta_star == b.delta_star
    assert a.budget == b.budget


def test_tradeoff_zero_beyond_total_count():
    s = spectrum_of((0.3, 0.7), 2)
    p = optimal_tradeoff(s, 2, 0.0)  # 6 strings for 4 sequences
    assert p.delta_star == 0.0


def test_tradeoff_exact_zero_when_tail_junkable():
    # The whole overflow tail fits in the error budget, so the optimum is an
    # exact float zero, not a rounding residue.
    s = spectrum_of((0.3, 0.7), 3)
    p = optimal_tradeoff(s, 2, 0.3)  # tail beyond top-6 is 2 * 0.063 + 0.027
    assert p.delta_star == 0.0


@pytest.mark.parametrize("probs", [(0.3, 0.7), (0.5, 0.5), (0.1, 0.9), (0.2, 0.3, 0.5)])
@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("eta,eps", [(1, 0.0), (1, 2 / 7), (2, 1 / 7), (3, 0.3)])
def test_tradeoff_matches_enumeration(probs, n, eta, eps):
    p = optimal_tradeoff(spectrum_of(probs, n), eta, eps)
    delta, budget = orc.tradeoff(orc.seq_levels(probs, n), 2, eta, eps)
    assert p.delta_star == pytest.approx(delta, abs=1e-12)
    assert p.budget == budget


@given(st.sampled_from(GRID), st.integers(1, 5),
       st.integers(1, 4), st.sampled_from([0.0, 1 / 7, 2 / 7, 0.4]))
def test_tradeoff_monotone_in_both_arguments(probs, n, eta, eps):
    s = spectrum_of(probs, n)
    p = optimal_tradeoff(s, eta, eps)
    assert 0.0 <= p.delta_star <= 1.0
    assert optimal_tradeoff(s, eta + 1, eps).delta_star <= p.delta_star + 1e-12
    assert optimal_tradeoff(s, eta, min(eps + 1 / 7, 0.99)).delta_star <= p.delta_star + 1e-12


def test_tradeoff_sandwiches_subset_optimum():
    """Sequence-greedy junking is within one boundary sequence of the best
    junk subset, and never below it (both searched exhaustively here)."""
    for probs in BINARY:
        for n in (1, 2, 3, 4):
            levels = orc.seq_levels(probs, n)
            for eta in (1, 2, 3):
                budget = orc.string_budget(2, eta)
                cum = 0
                quantum = 0.0
                for lp, count in levels:
                    if cum + count > budget:
                        quantum = math.exp(lp)
                        break
                    cum += count
                for eps in (0.0, 0.1, 0.2, 0.45):
                    greedy = optimal_tradeoff(spectrum_of(probs, n), eta, eps).delta_star
                    best = orc.exhaustive_tradeoff(levels, 2, eta, eps)
                    assert best <= greedy + 1e-12
                    assert greedy <= best + quantum + 1e-12


def test_tradeoff_gap_to_subset_optimum_can_be_strict():
    # At a coarse threshold the greedy walk can strand part of the budget on
    # a heavy boundary atom where a lighter subset choice spends it fully.
    greedy = optimal_tradeoff(spectrum_of((0.4, 0.6), 3), 1, 0.2).delta_star
    best = orc.exhaustive_tradeoff(orc.seq_levels((0.4, 0.6), 3), 2, 1, 0.2)
    assert greedy == pytest.approx(0.496, abs=1e-12)
    assert best == pytest.approx(0.448, abs=1e-12)
    assert greedy > best + 1e-3


_GUARD = Fraction(1.0 + SPLIT_GUARD)


def _walk_fraction_loop(s, eta, eps):
    """Reference: the junk walk atom by atom, with the budget in Fractions;
    returns (delta_star, budget).  Whole atoms join a run while the run's
    exact mass stays within the budget at its start times (1 + SPLIT_GUARD);
    runs start after the top-M remainder and after each atom not junked
    whole, which is split.  A spent budget junks nothing more, and
    delta_star is the correctly rounded sum of what overflows."""
    m_budget = string_budget(s.base, math.floor(eta))
    if m_budget >= s.total_count:
        return 0.0, m_budget
    b = s.first_reaching(m_budget)
    # The budget at the run's start, what the run may take, and what it took.
    start, over = Fraction(eps), []
    cap, run = start * _GUARD, Fraction(0)
    for i in range(b, len(s)):
        lp = s.log_probs[i]
        avail = s.count_through(b) - m_budget if i == b else s.counts[i]
        taken = run + Fraction(count_mass(avail, lp))
        if taken <= cap:
            run = taken
            if i > b:
                continue
        else:
            left = start - run
            k = split_count(math.log(left), lp, avail, "fit") if left > 0 else 0
            run += Fraction(count_mass(k, lp))
            over.append(count_mass(avail - k, lp))
        start -= run
        if start <= 0:
            over.extend(s.masses[i + 1:].tolist())
            break
        cap, run = start * _GUARD, Fraction(0)
    return math.fsum(over), m_budget


def _assert_walk_matches(s, eta, eps):
    p = optimal_tradeoff(s, eta, eps)
    assert (p.delta_star, p.budget) == _walk_fraction_loop(s, eta, eps)


def _log_count(s):
    return math.log(s.total_count) / math.log(s.base)


def _exact_fit_budgets(s, eta, depths=range(40)):
    """Budgets that the boundary remainder plus the next ``depth`` atoms use
    up, summed in floats left to right as a caller would: knife edges for the
    guard.  Maps each depth to its budget."""
    m_budget = string_budget(s.base, math.floor(eta))
    if m_budget >= s.total_count:
        return {}
    b = s.first_reaching(m_budget)
    rest = count_mass(s.count_through(b) - m_budget, s.log_probs[b])
    sums = [rest]
    for mass in s.masses[b + 1:b + 1 + max(depths)].tolist():
        sums.append(sums[-1] + mass)
    return {d: sums[d] for d in depths if d < len(sums) and 0.0 < sums[d] < 1.0}


def _block_edge_depths(s, eta):
    """Depths whose exact-fit run ends on, before and after the edges of the
    running totals' blocks, near the top-M split and far past it, and the
    depth that takes every atom."""
    b = s.first_reaching(string_budget(s.base, math.floor(eta)))
    edges = [(b // RunningTotals.BLOCK + k) * RunningTotals.BLOCK for k in (1, 2, 8, 40)]
    near = [e - b - 1 + d for e in edges for d in (-1, 0, 1)]
    return [depth for depth in near if depth >= 0] + [len(s) - b - 1]


EDGE_EPS = [0.0, 1e-300, 1e-12, 1e-3, 0.5, 0.999, 1 - 1e-12]


@given(st.sampled_from(GRID), st.sampled_from([2, 3]), st.integers(1, 40), st.floats(0.0, 1.2),
       st.floats(0.0, 0.999999), st.integers(0, 39))
def test_tradeoff_equals_walk_loop(probs, base, n, eta_frac, eps, depth):
    s = iid_spectrum(make_distribution(list(probs), base), n)
    eta = max(1.0, eta_frac * _log_count(s))
    for e in [eps, *EDGE_EPS, *_exact_fit_budgets(s, eta, [depth]).values()]:
        _assert_walk_matches(s, eta, e)


@given(st.sampled_from(BINARY), st.sampled_from(BINARY), st.floats(0.05, 0.95),
       st.sampled_from([2, 3]), st.integers(1, 60), st.floats(0.0, 1.2),
       st.floats(0.0, 0.999999), st.integers(0, 39))
def test_tradeoff_equals_walk_loop_on_mixtures(p1, p2, w1, base, n, eta_frac, eps, depth):
    s = mixed_spectrum(make_distribution(p1, base), make_distribution(p2, base), w1, n)
    eta = max(1.0, eta_frac * _log_count(s))
    for e in [eps, *EDGE_EPS, *_exact_fit_budgets(s, eta, [depth]).values()]:
        _assert_walk_matches(s, eta, e)


@pytest.mark.parametrize("probs,n", [((0.3, 0.7), 12), ((0.1, 0.9), 200),
                                     ((0.2, 0.3, 0.5), 9), ((0.1, 0.1, 0.8), 25)])
def test_tradeoff_equals_walk_loop_at_the_edges(probs, n):
    s = spectrum_of(probs, n)
    log_count = _log_count(s)
    etas = [1, 1.5, 2, log_count / 2, log_count - 1, log_count, log_count + 1, 10 * log_count]
    for eta in etas:
        eta = max(1.0, eta)
        for eps in EDGE_EPS + list(_exact_fit_budgets(s, eta).values()):
            _assert_walk_matches(s, eta, eps)


@functools.lru_cache(maxsize=None)
def _binary_20000():
    d = make_distribution([0.11, 0.89])
    nh = 20000 * entropy(d)
    sd = math.sqrt(20000 * varentropy(d))
    return iid_spectrum(d, 20000), nh, sd


@pytest.mark.parametrize("shift", [-2.0, -0.5, 0.5, 3.0])
def test_tradeoff_equals_walk_loop_at_large_n(shift):
    s, nh, sd = _binary_20000()
    eta = nh + shift * sd
    budgets = _exact_fit_budgets(s, eta, _block_edge_depths(s, eta))
    for eps in [0.0, 1e-6, 1e-3, 0.05, 0.3, 0.9, *budgets.values()]:
        _assert_walk_matches(s, eta, eps)


@pytest.mark.parametrize("shift", [-2.0, -0.5, 0.5, 3.0])
def test_tradeoff_guard_at_exact_fit_budgets(shift):
    # A budget summed in floats from the masses it should junk misses their
    # exact sum by a few ulps either way.  The guard junks those atoms whole,
    # and a run may take at most the guard's share of its budget beyond them.
    # One that falls short by more than the guard leaves some of them over.
    s, nh, sd = _binary_20000()
    eta = nh + shift * sd
    b = s.first_reaching(string_budget(s.base, math.floor(eta)))
    budgets = _exact_fit_budgets(s, eta, [0, 1, 2, 40, 300, *_block_edge_depths(s, eta)])
    assert len(budgets) >= 10
    for depth, budget in budgets.items():
        after = s.mass_sum(b + depth + 1)
        for eps in (math.nextafter(budget, 0.0), budget, math.nextafter(budget, 1.0)):
            delta_star = optimal_tradeoff(s, eta, eps).delta_star
            assert after - 2 * SPLIT_GUARD * eps <= delta_star <= after
        assert optimal_tradeoff(s, eta, budget * (1 - 100 * SPLIT_GUARD)).delta_star > after
    # The budget summed from every atom past the top-M split junks them all.
    assert optimal_tradeoff(s, eta, budgets[len(s) - b - 1]).delta_star == 0.0


@pytest.mark.parametrize("probs,eta,eps,want", [
    ((0.2, 0.7, 0.1), 3, 0.5, 0.2694079600000001),
    ((0.3, 0.6, 0.1), 9, 0.1, 0.09034345000000003),
])
def test_tradeoff_budget_does_not_drift(probs, eta, eps, want):
    # Subtracting junked masses from a float budget drifted past the split
    # guard here, so a sequence that fits was left to overflow.  The entries
    # are taken as given (no normalising nudge), so these knife edges stay.
    s = iid_spectrum(Distribution(probs=probs, base=2), 8)
    assert optimal_tradeoff(s, eta, eps).delta_star == want
    assert _walk_fraction_loop(s, eta, eps)[0] == want


def test_tradeoff_work_is_bounded(monkeypatch):
    # Past nH + 3 sd the whole tail fits a 0.1 budget; a walk that touched
    # every atom past the top-M split would price each one (~17,700 calls).
    s, nh, sd = _binary_20000()
    calls = 0

    def counting(k, lp):
        nonlocal calls
        calls += 1
        return count_mass(k, lp)

    monkeypatch.setattr(codes_module, "count_mass", counting)
    assert optimal_tradeoff(s, nh + 3 * sd, 0.1).delta_star == 0.0
    assert calls < 100


def test_tradeoff_validation():
    s = spectrum_of((0.3, 0.7), 2)
    with pytest.raises(ValidationError):
        optimal_tradeoff(s, 0.5, 0.1)
    with pytest.raises(ValidationError):
        optimal_tradeoff(s, 1, 1.0)
    with pytest.raises(ValidationError):
        optimal_tradeoff(s, 1, -0.1)
    for eta in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            optimal_tradeoff(s, eta, 0.1)


# ---------------------------------------------------------------------------
# optimal_threshold
# ---------------------------------------------------------------------------


def test_threshold_pinned_values():
    d = make_distribution([0.3, 0.7])
    assert optimal_threshold(iid_spectrum(d, 10), 0.1, 0.1) == 8
    assert optimal_threshold(iid_spectrum(d, 6), 0.1, 0.1) == 4
    assert optimal_threshold(iid_spectrum(d, 10), 0.0, 0.3) == 7
    assert optimal_threshold(iid_spectrum(d, 4), 0.2, 0.0) == 3


def test_threshold_matches_linear_scan():
    for probs in ((0.3, 0.7), (0.2, 0.3, 0.5)):
        levels_cache = {}
        for n in (2, 4, 6):
            levels = levels_cache.setdefault(n, orc.seq_levels(probs, n))
            s = spectrum_of(probs, n)
            for eps, delta in ((0.0, 1 / 7), (1 / 7, 1 / 7), (2 / 7, 0.0)):
                assert optimal_threshold(s, eps, delta) == orc.threshold(levels, 2, eps, delta)


def test_threshold_is_minimal():
    s = spectrum_of((0.3, 0.7), 8)
    for eps, delta in ((0.1, 0.1), (0.0, 0.25), (1 / 3, 1 / 7)):
        eta = optimal_threshold(s, eps, delta)
        assert optimal_tradeoff(s, eta, eps).delta_star <= delta
        if eta > 1:
            assert optimal_tradeoff(s, eta - 1, eps).delta_star > delta


def test_threshold_split_invariance_is_exact():
    s = spectrum_of((0.3, 0.7), 50)
    a = optimal_threshold(s, 0.1, 0.1)
    b = optimal_threshold(s, 0.2, 0.0)
    c = optimal_threshold(s, 0.0, 0.2)
    assert a == b == c == 44


def test_threshold_validation():
    s = spectrum_of((0.3, 0.7), 2)
    with pytest.raises(ValidationError):
        optimal_threshold(s, 0.6, 0.4)
    with pytest.raises(ValidationError):
        optimal_threshold(s, 0.1, -0.1)
    with pytest.raises(ValidationError):
        optimal_threshold(s, 1.2, 0.0)
    for eps, delta in ((0.1, math.nan), (math.nan, 0.1)):
        with pytest.raises(ValidationError):
            optimal_threshold(s, eps, delta)


# ---------------------------------------------------------------------------
# simulate_roundtrip
# ---------------------------------------------------------------------------


def test_simulate_pins_decoded_part_of_split_atom():
    # eps = 0.1 decodes two of the three weight-2 sequences; signature-major
    # order makes them (0,0,1) and (0,1,0), leaving (1,0,0) as the error.
    d = make_distribution([0.3, 0.7])
    c = construct_code(iid_spectrum(d, 3), 0.1)
    decoded = np.array([[0, 0, 1], [0, 1, 0]])
    err, over = simulate_roundtrip(c, d, decoded, 10)
    assert (err, over) == (0.0, 0.0)
    err, over = simulate_roundtrip(c, d, np.array([[1, 0, 0]]), 10)
    assert err == 1.0


def test_simulate_uniform_split_order():
    # All four sequences tie in probability; the decoded three are pinned by
    # signature order, which places (0,0) last.
    d = make_distribution([0.5, 0.5])
    c = construct_code(iid_spectrum(d, 2), 0.25)
    err, _ = simulate_roundtrip(c, d, np.array([[1, 1], [0, 1], [1, 0]]), 2)
    assert err == 0.0
    err, over = simulate_roundtrip(c, d, np.array([[0, 0], [1, 1]]), 1)
    assert err == 0.5
    assert over == 0.5  # the decoded row wears a length-2 codeword


def test_simulate_tracks_exact_masses():
    from overflowlab import sample_sequences
    d = make_distribution([0.3, 0.7])
    s = iid_spectrum(d, 4)
    c = construct_code(s, 0.15)
    samples = sample_sequences(d, 4, 20000, seed=7)
    err, over = simulate_roundtrip(c, d, samples, 4)
    exact_err = c.error_mass
    exact_over = code_overflow(c, 4)
    sd_err = math.sqrt(exact_err * (1 - exact_err) / 20000)
    sd_over = math.sqrt(max(exact_over * (1 - exact_over), 1e-12) / 20000)
    assert abs(err - exact_err) < 5 * sd_err
    assert abs(over - exact_over) < 5 * sd_over + 1e-9


def test_simulate_is_deterministic():
    from overflowlab import sample_sequences
    d = make_distribution([0.2, 0.3, 0.5])
    c = construct_code(iid_spectrum(d, 3), 0.2)
    samples = sample_sequences(d, 3, 500, seed=11)
    assert simulate_roundtrip(c, d, samples, 3) == simulate_roundtrip(c, d, samples, 3)


@pytest.mark.parametrize("probs, n, eps", [((0.3, 0.7), 6, 0.1), ((0.2, 0.3, 0.5), 5, 0.2),
                                           ((0.1, 0.0, 0.4, 0.5), 4, 0.3)])
def test_simulate_reads_draws_arrays_and_lists_alike(probs, n, eps):
    from overflowlab import sample_sequences
    d = make_distribution(list(probs))
    c = construct_code(iid_spectrum(d, n), eps)
    draws = sample_sequences(d, n, 300, seed=5)
    for eta in c.lengths.tolist():
        expected = simulate_roundtrip(c, d, draws, eta)
        assert simulate_roundtrip(c, d, np.asarray(draws), eta) == expected
        assert simulate_roundtrip(c, d, draws.tolist(), eta) == expected


def test_simulate_validation():
    d = make_distribution([0.3, 0.7])
    c = construct_code(iid_spectrum(d, 2), 0.1)
    with pytest.raises(ValidationError):
        simulate_roundtrip(c, d, np.array([0, 1]), 2)  # 1-D
    with pytest.raises(ValidationError):
        simulate_roundtrip(c, d, np.zeros((0, 2), dtype=int), 2)
    with pytest.raises(ValidationError):
        simulate_roundtrip(c, d, np.array([[0, 1, 1]]), 2)  # wrong n
    u = make_distribution([0.5, 0.5])
    with pytest.raises(ValidationError):
        # Samples scored under a different source do not match any atom.
        simulate_roundtrip(c, u, np.array([[0, 0]]), 2)
    with pytest.raises(ValidationError):
        simulate_roundtrip(c, d, np.array([[0, 1]]), math.nan)
    c3 = construct_code(iid_spectrum(d, 3), 0.1)
    for row in ([-1, 1, 1], [0, 1, 5], [0.5, 1, 1]):
        with pytest.raises(ValidationError, match=r"integer symbols in \[0, 2\)"):
            simulate_roundtrip(c3, d, np.array([row]), 10)
    z = make_distribution([0.1, 0.0, 0.4, 0.5])
    with pytest.raises(ValidationError, match="does not match"):
        # A zero-probability symbol makes the sequence unreachable: no atom.
        simulate_roundtrip(construct_code(iid_spectrum(z, 3), 0.3), z, np.array([[1, 1, 1]]), 10)


@pytest.mark.parametrize("samples, match", [
    ([[0, 1], [0]], "expected shape"),                  # ragged
    ([0, 1], "expected shape"),                         # one flat row
    (5, "expected shape"),
    ("ab", "expected shape"),
    ([["a", "b"]], "integer symbols"),
    ([[0, 1.0]], "integer symbols"),
    ([[True, False]], "integer symbols"),
    ([[0, [1]]], "integer symbols"),
    ([[0, -1]], "integer symbols"),
    (np.array([[1.0, 0.0]]), "integer symbols"),
    (np.array([[True, False]]), "integer symbols"),
], ids=["ragged", "flat", "scalar", "string", "strings", "float", "bool", "nested",
        "negative", "float-array", "bool-array"])
def test_simulate_refuses_malformed_rows(samples, match):
    d = make_distribution([0.3, 0.7])
    c = construct_code(iid_spectrum(d, 2), 0.1)
    with pytest.raises(ValidationError, match=match):
        simulate_roundtrip(c, d, samples, 2)


def _simulate_loop(c, d, samples, eta):
    """Reference: the per-assignment mask loop the column version replaced."""
    s = c.spectrum
    samples = np.asarray(samples)
    with np.errstate(divide="ignore"):
        lnp = np.log(np.asarray(d.probs))
    lp = lnp[samples].sum(axis=1)
    descending = np.asarray(s.log_probs)
    idx = np.searchsorted(-descending, -lp, side="left")
    idx = np.clip(idx, 0, len(descending) - 1)
    alt = np.clip(idx - 1, 0, len(descending) - 1)
    take_alt = np.abs(descending[alt] - lp) < np.abs(descending[idx] - lp)
    idx = np.where(take_alt, alt, idx)

    assigned = {a.atom: a.count for a in c.assignments}
    full = np.zeros(len(s), dtype=bool)
    none = np.ones(len(s), dtype=bool)
    length_over = np.zeros(len(s), dtype=bool)
    for a in c.assignments:
        full[a.atom] = a.count >= s.counts[a.atom]
        none[a.atom] = a.count == 0
        length_over[a.atom] = a.length > eta

    is_full = full[idx]
    is_none = none[idx]
    errors = int(np.count_nonzero(is_none))
    overflows = int(np.count_nonzero(is_full & length_over[idx]))

    split_rows = np.nonzero(~(is_full | is_none))[0]
    group_cache = {}
    for r in split_rows:
        atom = int(idx[r])
        groups = group_cache.get(atom)
        if groups is None:
            groups = orc.atom_type_groups(s.log_probs.tolist(), list(d.probs), s.n, atom)
            group_cache[atom] = groups
        if orc.rank_within_atom(samples[r].tolist(), groups) < assigned[atom]:
            if length_over[atom]:
                overflows += 1
        else:
            errors += 1
    n_samples = len(samples)
    return errors / n_samples, overflows / n_samples


@given(st.sampled_from(GRID), st.integers(1, 7), st.floats(0.0, 0.999),
       st.floats(0.0, 1.0), st.integers(0, 10 ** 6))
def test_simulate_equals_loop(probs, n, eps, fraction, seed):
    from overflowlab import sample_sequences
    d = make_distribution(list(probs))
    c = construct_code(iid_spectrum(d, n), eps)
    samples = sample_sequences(d, n, 200, seed)
    for eta in (1 + fraction * (int(c.lengths[-1]) + 1), *c.lengths.tolist()):
        assert simulate_roundtrip(c, d, samples, eta) == _simulate_loop(c, d, samples, eta)


def test_simulate_ranks_the_extremes_of_uniform_4ary_n400():
    # Uniform 4-ary at n = 400 is one atom of 4 ** 400 sequences, split in
    # half at eps = 0.5; its support has C(403, 3), about 1.1e7, compositions,
    # more than the type ceiling.  Signature-major order puts the all-3 row
    # first and the all-0 row last.
    d = make_distribution([0.25] * 4)
    c = construct_code(iid_spectrum(d, 400), 0.5)
    rows = np.array([[3] * 400, [0] * 400])
    assert codes_module._atom_ranks(c.spectrum, d, 0, rows) == [0, 4 ** 400 - 1]
    assert simulate_roundtrip(c, d, rows[:1], 800) == (0.0, 0.0)
    assert simulate_roundtrip(c, d, rows[1:], 800) == (1.0, 0.0)


BRUTE_ALPHABETS = [
    (0.3, 0.7), (0.2, 0.3, 0.5), (0.25, 0.25, 0.25, 0.25),
    (0.1, 0.0, 0.4, 0.5),        # a zero-probability symbol
    (0.2, 0.2, 0.3, 0.3),        # two levels of equal-probability symbols
    (0.1, 0.15, 0.3, 0.45),      # p0 * p3 = p1 * p2: distinct types merge
]


@pytest.mark.parametrize("probs", BRUTE_ALPHABETS, ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
def test_atom_ranks_equal_sorted_enumeration(probs, n):
    # Every sequence of every atom, sorted by (signature, sequence): the
    # library's rank of each must be its position.
    import itertools
    d = make_distribution(list(probs))
    s = iid_spectrum(d, n)
    lnp = np.log(np.where(np.asarray(d.probs) > 0.0, d.probs, 1.0))
    seqs = [q for q in itertools.product(range(len(probs)), repeat=n)
            if all(probs[sym] > 0.0 for sym in q)]
    lps = np.array([math.fsum(lnp[list(q)]) for q in seqs])
    atom_of = np.abs(np.asarray(s.log_probs)[None, :] - lps[:, None]).argmin(axis=1)
    for atom in range(len(s)):
        members = sorted((tuple(q.count(sym) for sym in range(len(probs))), q)
                         for q, a in zip(seqs, atom_of.tolist()) if a == atom)
        assert len(members) == s.counts[atom]
        rows = np.array([q for _, q in members])
        assert codes_module._atom_ranks(s, d, atom, rows) == list(range(len(members)))


def test_code_queries_build_no_assignments(monkeypatch):
    # Assignment is a NamedTuple: every construction goes through __new__.
    built = []
    new = Assignment.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Assignment, "__new__", counting_new)
    c = construct_code(spectrum_of((0.11, 0.89), 20000), 0.05)
    for eta in (c.lengths[0], c.lengths[len(c.lengths) // 2], c.lengths[-1]):
        code_overflow(c, float(eta))
    assert validate_counting_condition(c).ok
    assert built == []
    # The view is still there for outside readers, built on first read.
    assert len(c.assignments) == len(c.lengths) == len(built)


def test_package_reads_no_per_atom_views():
    # Spectrum.atoms, Spectrum.cumulative_counts, Spectrum.prefix_mass,
    # Spectrum.suffix_mass and CodeSpec.assignments are views for outside
    # readers; every module of the package reads the columns and the exact
    # running totals instead.
    import ast
    import pathlib

    import overflowlab
    offenders = []
    for path in sorted(pathlib.Path(overflowlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("atoms", "assignments",
                                                                 "cumulative_counts",
                                                                 "prefix_mass",
                                                                 "suffix_mass"):
                offenders.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert offenders == []


def test_one_type_enumerator():
    # Types are enumerated in sources alone; every other module asks
    # sources.level_types for them.
    import ast
    import pathlib

    import overflowlab
    offenders = []
    for path in sorted(pathlib.Path(overflowlab.__file__).parent.glob("*.py")):
        if path.name == "sources.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # A call, an import or a definition: names, attributes, aliases.
            if "_type_classes" in {getattr(node, key, None) for key in ("id", "attr", "name")}:
                offenders.append(f"{path.name}: {ast.dump(node)[:60]}")
    assert offenders == []
