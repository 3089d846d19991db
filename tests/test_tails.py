"""Tail functionals: raw tails, greedy prefixes, smooth max entropy,
constrained tail minimization, and the finite-n quantile thresholds."""

import itertools
import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import _oracle as orc
from overflowlab import (
    Comparator,
    PrefixSelection,
    Spectrum,
    ValidationError,
    finite_n_first_order,
    finite_n_second_order,
    iid_spectrum,
    make_distribution,
    restricted_tail_inf,
    selection_log_mass,
    smooth_max_entropy,
    tail_mass,
    top_probability_prefix,
)
from overflowlab._util import RunningTotals, count_mass, exact_units, split_count
from overflowlab.tails import _greedy_prefix

GRID = orc.grid_distributions()

# A representative slice of the grid; the acceptance suite sweeps all of it.
SLICE = [(0.3, 0.7), (0.5, 0.5), (0.1, 0.9),
         (0.2, 0.3, 0.5), (0.1, 0.1, 0.8), (0.3, 0.3, 0.4)]

# Rate probes built from sevenths so they cannot coincide with an atom rate
# (those would need a per-sequence probability equal to 2**(-qn/7), which no
# product of 0.1-grid symbol probabilities hits; checked to 2e-3 slack).
RATE_PROBES = (2 / 7, 5 / 7, 9 / 7)


def spectrum_of(probs, n):
    return iid_spectrum(make_distribution(list(probs)), n)


# ---------------------------------------------------------------------------
# tail_mass
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("probs", SLICE)
@pytest.mark.parametrize("n", [1, 3, 5])
def test_tail_mass_matches_enumeration(probs, n):
    s = spectrum_of(probs, n)
    levels = orc.seq_levels(probs, n)
    mid = -s.atoms[len(s.atoms) // 2].log_prob_per_seq / (n * math.log(2))
    for rate in (*RATE_PROBES, mid):
        for cmp, strict in ((Comparator.STRICT, True), (Comparator.NON_STRICT, False)):
            got = tail_mass(s, rate, cmp)
            want = orc.tail_mass(levels, n, 2, rate, strict)
            assert got == pytest.approx(want, abs=1e-12)


def test_tail_comparators_split_at_exact_atom_rate():
    # Uniform blocks put every sequence exactly at rate 1, so the comparator
    # alone decides whether the whole mass is in the tail.
    s = spectrum_of((0.5, 0.5), 4)
    assert tail_mass(s, 1.0, Comparator.STRICT) == 0.0
    assert tail_mass(s, 1.0, Comparator.NON_STRICT) == 1.0


def test_tail_mass_defaults_to_strict():
    s = spectrum_of((0.3, 0.7), 2)
    assert tail_mass(s, 1.0) == tail_mass(s, 1.0, Comparator.STRICT)


def test_tail_mass_extremes():
    s = spectrum_of((0.3, 0.7), 3)
    assert tail_mass(s, -1.0, Comparator.NON_STRICT) == pytest.approx(1.0, abs=1e-12)
    assert tail_mass(s, 50.0, Comparator.NON_STRICT) == 0.0


@given(st.sampled_from(GRID), st.integers(1, 5),
       st.floats(0.0, 2.0, allow_nan=False))
def test_tail_mass_monotone_and_comparator_ordered(probs, n, rate):
    s = spectrum_of(probs, n)
    strict = tail_mass(s, rate, Comparator.STRICT)
    loose = tail_mass(s, rate, Comparator.NON_STRICT)
    assert 0.0 <= strict <= loose <= 1.0 + 1e-12
    assert tail_mass(s, rate + 0.25, Comparator.STRICT) <= strict + 1e-15


@given(st.sampled_from(GRID), st.integers(1, 40), st.floats(0.0, 2.0), st.floats(0.0, 0.999),
       st.sampled_from(list(Comparator)))
def test_tails_equal_fsum_of_admitted_atoms(probs, n, rate, eps, cmp):
    s = spectrum_of(probs, n)
    admitted = [m for r, m in zip(s.rates.tolist(), s.masses.tolist())
                if (r > rate if cmp is Comparator.STRICT else r >= rate)]
    tail = math.fsum(admitted)
    assert tail_mass(s, rate, cmp) == tail
    # Every sequence off the tail is kept (mass 1 - tail); the value is the
    # tail mass added on top, and 0 when the tail fits in eps.
    res = restricted_tail_inf(s, eps, rate, cmp)
    assert res.set_mass == (1.0 - tail) + res.value
    if tail <= eps:
        assert res.value == 0.0


@pytest.mark.parametrize("query", [
    lambda s, rate: tail_mass(s, rate),
    lambda s, rate: tail_mass(s, rate, Comparator.NON_STRICT),
    lambda s, rate: restricted_tail_inf(s, 0.1, rate),
], ids=["tail-strict", "tail-non-strict", "restricted"])
def test_tail_queries_reject_nan_rate(query):
    with pytest.raises(ValidationError):
        query(spectrum_of((0.3, 0.7), 8), math.nan)


# ---------------------------------------------------------------------------
# top_probability_prefix / selection_log_mass
# ---------------------------------------------------------------------------


def test_prefix_splits_uniform_boundary():
    sel = top_probability_prefix(spectrum_of((0.5, 0.5), 2), 0.75)
    assert (sel.full_atoms, sel.boundary_taken, sel.num_sequences) == (0, 3, 3)
    assert sel.mass == pytest.approx(0.75, abs=1e-15)


def test_prefix_promotes_exactly_covered_atom():
    # Covering 0.7 out of Bernoulli(0.3) needs the whole heaviest atom; the
    # selection reports it as a full atom, not a split of size count.
    sel = top_probability_prefix(spectrum_of((0.3, 0.7), 1), 0.7)
    assert sel.full_atoms == 1
    assert sel.boundary_taken == 0
    assert sel.num_sequences == 1
    assert sel.mass == pytest.approx(0.7, abs=1e-15)


def test_prefix_zero_target_is_empty():
    sel = top_probability_prefix(spectrum_of((0.3, 0.7), 2), 0.0)
    assert sel.num_sequences == 0
    assert sel.mass == 0.0


def test_prefix_covers_everything_at_target_one():
    s = spectrum_of((0.3, 0.7), 3)
    sel = top_probability_prefix(s, 1.0)
    assert sel.num_sequences == 8
    assert sel.mass == pytest.approx(1.0, abs=1e-12)


def test_prefix_takes_all_when_target_unreachable():
    s = spectrum_of((0.3, 0.7), 2)
    sel = top_probability_prefix(s, 1.5)
    assert sel.full_atoms == len(s.atoms)
    assert sel.num_sequences == 4


@pytest.mark.parametrize("n", [200, 2000])
def test_prefix_at_target_one_takes_the_support(n):
    # The exact total of the float masses passes 1 here (by about 1e-14);
    # a target of 1 still takes every sequence.
    s = spectrum_of((0.11, 0.89), n)
    assert s.mass_units.total > exact_units(1.0)
    assert top_probability_prefix(s, 1.0).num_sequences == 2 ** n
    assert smooth_max_entropy(s, 0.0) == pytest.approx(n, rel=1e-15)


def test_prefix_covers_a_target_below_1e_12():
    # 3e-13 is about 5.5e6 sequences of the most likely 2**-64: no handful of
    # sequences covers it.
    s = spectrum_of((0.5, 0.25, 0.25), 64)
    sel = top_probability_prefix(s, 3e-13)
    assert sel.mass >= 3e-13
    assert sel.num_sequences == 165_864_393
    assert smooth_max_entropy(s, 1 - 3e-13) >= 22.4


def test_prefix_rejects_nan_target():
    with pytest.raises(ValidationError):
        top_probability_prefix(spectrum_of((0.3, 0.7), 8), math.nan)


def _prefix_fraction_loop(s, start, target):
    """Reference: the first atom from ``start`` whose running mass, summed in
    Fractions, reaches ``target``; taken whole on a tie, else split on the
    exact remainder.  A target of 1 or more takes every atom."""
    if target <= 0.0:
        return (start, 0, 0.0, 0)
    goal, cum, seqs = Fraction(target), Fraction(0), 0
    for i in range(start, len(s)):
        lp, count, mass = s.log_probs[i], s.counts[i], Fraction(s.masses[i])
        if target >= 1.0 or cum + mass < goal:
            cum += mass
            seqs += count
            continue
        k = count
        if cum + mass > goal:
            k = split_count(math.log(goal - cum), lp, count, "cover")
        if k == count:
            return (i + 1, 0, float(cum + mass), seqs + count)
        return (i, k, float(cum + Fraction(count_mass(k, lp))), seqs + k)
    return (len(s), 0, float(cum), seqs)


def _prefix(s, start, target):
    sel = _greedy_prefix(s, start, target)
    return (sel.full_atoms, sel.boundary_taken, sel.mass, sel.num_sequences)


def _targets_around(s, start, stop):
    """Targets on, one ulp either side of, and 5e-13 and 1e-3 past the exact
    mass of atoms [start, stop)."""
    run = float(sum(map(Fraction, s.masses[start:stop].tolist()), Fraction(0)))
    return {run, math.nextafter(run, 0.0), math.nextafter(run, 2.0),
            run - 5e-13, run + 5e-13, run + 1e-3}


def test_prefix_searches_in_two_threads_equal_the_loop():
    # Searches fill the running totals' block cache as they go; threads
    # filling it at once must each read consistent blocks.
    targets = [k / 97 for k in range(1, 97)] + [1 - 1e-9, 1.5]
    ref = spectrum_of((0.3, 0.7), 3000)
    want = {t: _prefix_fraction_loop(ref, 0, t) for t in targets}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            s = spectrum_of((0.3, 0.7), 3000)
            got = {}

            def search(order):
                for t in order:
                    got.setdefault(t, set()).add(_prefix(s, 0, t))
            threads = [threading.Thread(target=search, args=(order,))
                       for order in (targets, targets[::-1], targets[::2])]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            assert got == {t: {want[t]} for t in targets}
    finally:
        sys.setswitchinterval(interval)


@given(st.sampled_from(GRID), st.integers(1, 30), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-12), st.floats(1 - 1e-12, 1.5)))
def test_prefix_equals_fraction_loop(probs, n, start_frac, stop_frac, far):
    s = spectrum_of(probs, n)
    start = int(start_frac * len(s))
    stop = start + int(stop_frac * (len(s) - start))
    for target in _targets_around(s, start, stop) | {far}:
        assert _prefix(s, start, target) == _prefix_fraction_loop(s, start, target)


@pytest.mark.parametrize("probs,n", [((0.3, 0.7), 2000), ((0.2, 0.3, 0.5), 45)])
@pytest.mark.parametrize("start", [0, 5])
def test_prefix_equals_fraction_loop_across_blocks(probs, n, start):
    # Running totals are kept at the edges of blocks; put the boundary on,
    # before and after block edges near and far, and past the end.
    s = spectrum_of(probs, n)
    b = RunningTotals.BLOCK
    for depth in (1, b - 1, b, b + 1, 7 * b, 40 * b - start, len(s) - start):
        for target in _targets_around(s, start, start + depth) | {1.5}:
            assert _prefix(s, start, target) == _prefix_fraction_loop(s, start, target)


@pytest.mark.parametrize("probs", SLICE)
@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("target", [1 / 7, 0.5, 6 / 7])
def test_prefix_matches_enumeration(probs, n, target):
    sel = top_probability_prefix(spectrum_of(probs, n), target)
    _, mass, seqs = orc.top_prefix(orc.seq_levels(probs, n), target)
    assert sel.num_sequences == seqs
    assert sel.mass == pytest.approx(mass, abs=1e-12)


def test_selection_log_mass_plain():
    s = spectrum_of((0.5, 0.5), 2)
    sel = top_probability_prefix(s, 0.75)
    assert selection_log_mass(s, sel) == pytest.approx(math.log(0.75), abs=1e-15)


def test_selection_log_mass_survives_underflow():
    # A single sequence at n = 3000 has log prob ~ -1070, far below where a
    # double can represent its mass; the log-domain path must still answer.
    s = spectrum_of((0.3, 0.7), 3000)
    sel = PrefixSelection(full_atoms=0, boundary_taken=1, mass=0.0, num_sequences=1)
    assert selection_log_mass(s, sel) == pytest.approx(3000 * math.log(0.7), rel=1e-15)


def test_selection_log_mass_of_underflowed_whole_atoms():
    # The most likely sequences at n = 8000 (0.9**8000 and on) have masses
    # that underflow to 0.0; covering 1e-12 exactly takes 618 whole atoms and
    # a slice of the next.  The log-sum-exp path, taken when a selection's
    # mass underflowed, agrees with the log of that mass.
    s = spectrum_of((0.1, 0.9), 8000)
    sel = top_probability_prefix(s, 1e-12)
    assert _prefix(s, 0, 1e-12) == _prefix_fraction_loop(s, 0, 1e-12)
    assert sel.full_atoms == 618 and sel.mass >= 1e-12
    assert s.masses[0] == 0.0
    underflowed = PrefixSelection(sel.full_atoms, sel.boundary_taken, 0.0, sel.num_sequences)
    assert selection_log_mass(s, underflowed) == pytest.approx(math.log(sel.mass), rel=1e-13)


def test_selection_log_mass_sums_whole_atoms_and_slice_in_logs():
    s = spectrum_of((0.1, 0.9), 8000)
    sel = PrefixSelection(full_atoms=2, boundary_taken=3, mass=0.0, num_sequences=8004)
    lp0, lp1, lp2 = s.log_probs[:3].tolist()
    want = lp0 + math.log1p(8000 * math.exp(lp1 - lp0) + 3 * math.exp(lp2 - lp0))
    assert s.counts[:2] == (1, 8000)
    assert selection_log_mass(s, sel) == pytest.approx(want, rel=1e-15)


def test_selection_log_mass_rejects_empty():
    s = spectrum_of((0.3, 0.7), 2)
    empty = top_probability_prefix(s, 0.0)
    with pytest.raises(ValidationError):
        selection_log_mass(s, empty)


# ---------------------------------------------------------------------------
# smooth_max_entropy
# ---------------------------------------------------------------------------


def test_smooth_max_counts_all_sequences_at_zero():
    assert smooth_max_entropy(spectrum_of((0.5, 0.5), 10), 0.0) == pytest.approx(10.0)
    assert smooth_max_entropy(spectrum_of((0.3, 0.7), 2), 0.0) == pytest.approx(2.0)


def test_smooth_max_pinned_steps():
    s = spectrum_of((0.3, 0.7), 2)
    # Masses 0.49 / 0.42 / 0.09: covering 0.7 takes two sequences, covering
    # 0.49 takes only the heaviest one.
    assert smooth_max_entropy(s, 0.3) == pytest.approx(1.0, abs=1e-15)
    assert smooth_max_entropy(s, 0.51) == 0.0


def test_smooth_max_degenerate_source_is_zero():
    s = spectrum_of((1.0,), 5)
    for gamma in (0.0, 0.3, 0.9):
        assert smooth_max_entropy(s, gamma) == 0.0


def test_smooth_max_respects_base_units():
    d = make_distribution([0.25] * 4, base=4)
    assert smooth_max_entropy(iid_spectrum(d, 3), 0.0) == pytest.approx(3.0)


@pytest.mark.parametrize("probs", SLICE)
@pytest.mark.parametrize("n", [1, 3, 5])
def test_smooth_max_matches_enumeration(probs, n):
    s = spectrum_of(probs, n)
    levels = orc.seq_levels(probs, n)
    for gamma in (0.0, 1 / 7, 2 / 7, 0.45):
        assert smooth_max_entropy(s, gamma) == pytest.approx(
            orc.smooth_max(levels, 2, gamma), abs=1e-12)


@given(st.sampled_from(GRID), st.integers(1, 5))
def test_smooth_max_nonincreasing_in_gamma(probs, n):
    s = spectrum_of(probs, n)
    values = [smooth_max_entropy(s, k / 7) for k in range(7)]
    assert all(a >= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("gamma", [-0.1, 1.0, 1.3, float("nan")])
def test_smooth_max_rejects_bad_gamma(gamma):
    s = spectrum_of((0.3, 0.7), 2)
    with pytest.raises(ValidationError):
        smooth_max_entropy(s, gamma)


# ---------------------------------------------------------------------------
# restricted_tail_inf
# ---------------------------------------------------------------------------


def test_restricted_tail_zero_inside_budget():
    # Tail beyond rate 1.5 is the all-heads atom, mass 0.09 <= eps.
    r = restricted_tail_inf(spectrum_of((0.3, 0.7), 2), 0.1, 1.5)
    assert r.value == 0.0
    assert r.set_mass == pytest.approx(0.91, abs=1e-12)
    assert r.boundary_split is None


def test_restricted_tail_splits_boundary_atom():
    # Tail beyond 0.6 has mass 0.51; a 0.3 budget leaves 0.21 to cover, one
    # sequence out of the two in the middle atom.
    r = restricted_tail_inf(spectrum_of((0.3, 0.7), 2), 0.3, 0.6)
    assert r.value == pytest.approx(0.21, abs=1e-12)
    assert r.set_mass == pytest.approx(0.70, abs=1e-12)
    assert r.boundary_split == (1, 1)


def test_restricted_tail_zero_budget_takes_whole_tail():
    r = restricted_tail_inf(spectrum_of((0.3, 0.7), 2), 0.0, 0.6)
    assert r.value == pytest.approx(0.51, abs=1e-12)
    assert r.set_mass == pytest.approx(1.0, abs=1e-12)
    assert r.boundary_split is None


def test_restricted_tail_comparator_matters_on_atom_rate():
    s = spectrum_of((0.5, 0.5), 2)
    loose = restricted_tail_inf(s, 0.3, 1.0)
    assert loose.value == pytest.approx(0.75, abs=1e-15)
    assert loose.boundary_split == (0, 3)
    strict = restricted_tail_inf(s, 0.3, 1.0, Comparator.STRICT)
    assert strict.value == 0.0
    assert strict.set_mass == pytest.approx(1.0)


@pytest.mark.parametrize("probs", SLICE)
@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("eps,rate", [(0.0, 0.8), (1 / 7, 0.8), (0.3, 1.2), (2 / 7, 0.5)])
def test_restricted_tail_matches_enumeration(probs, n, eps, rate):
    got = restricted_tail_inf(spectrum_of(probs, n), eps, rate)
    value, set_mass, split = orc.restricted_tail(orc.seq_levels(probs, n), n, 2, eps, rate)
    assert got.value == pytest.approx(value, abs=1e-12)
    assert got.set_mass == pytest.approx(set_mass, abs=1e-12)
    assert got.boundary_split == split


@given(st.sampled_from(GRID), st.integers(1, 5),
       st.sampled_from([0.0, 1 / 7, 2 / 7, 0.45]),
       st.sampled_from([0.3, 0.75, 1.1, 1.6]))
def test_restricted_tail_is_sandwiched(probs, n, eps, rate):
    """The constrained minimum sits between tail - eps and the raw tail, and
    the constructed set never gives up more than eps of total mass (both up
    to the documented 1e-9 rounding guard)."""
    s = spectrum_of(probs, n)
    tail = tail_mass(s, rate, Comparator.NON_STRICT)
    r = restricted_tail_inf(s, eps, rate)
    assert r.value <= tail + 1e-12
    assert r.value >= max(tail - eps, 0.0) - 1e-9
    assert r.set_mass >= 1.0 - eps - 1e-9
    assert r.set_mass <= 1.0 + 1e-12


def test_restricted_tail_covers_a_deficit_below_1e_12():
    # At rate 0 every atom is in the tail, and the heaviest, 0.9**300 = 1.9e-14,
    # is far short of the 5e-13 deficit: the cover goes on past it.
    s = spectrum_of((0.1, 0.9), 300)
    eps = 1 - 5e-13
    deficit = s.mass_sum(0) - eps
    r = restricted_tail_inf(s, eps, 0.0)
    assert s.masses[0] < deficit < 1e-12
    assert r.value >= deficit
    assert r.value == _prefix_fraction_loop(s, 0, deficit)[2]


@pytest.mark.parametrize("eps", [-0.2, 1.0, 1.5])
def test_restricted_tail_rejects_bad_eps(eps):
    with pytest.raises(ValidationError):
        restricted_tail_inf(spectrum_of((0.3, 0.7), 2), eps, 0.5)


# ---------------------------------------------------------------------------
# finite_n_first_order / finite_n_second_order
# ---------------------------------------------------------------------------


def test_first_order_pinned_quantiles():
    s = spectrum_of((0.3, 0.7), 2)
    r0 = -math.log(0.49) / (2 * math.log(2))
    r1 = -math.log(0.21) / (2 * math.log(2))
    r2 = -math.log(0.09) / (2 * math.log(2))
    assert finite_n_first_order(s, 0.3, 0.3) == pytest.approx(r0, rel=1e-15)
    assert finite_n_first_order(s, 0.05, 0.05) == pytest.approx(r1, rel=1e-15)
    assert finite_n_first_order(s, 0.05, 0.0) == pytest.approx(r2, rel=1e-15)


def test_first_order_depends_only_on_budget_sum():
    s = spectrum_of((0.3, 0.7), 5)
    a = finite_n_first_order(s, 0.07, 0.06)
    b = finite_n_first_order(s, 0.13, 0.0)
    c = finite_n_first_order(s, 0.0, 0.13)
    assert a == b == c


@pytest.mark.parametrize("probs", SLICE)
@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("eps,delta", [(1 / 7, 0.0), (1 / 7, 1 / 7), (1 / 3, 2 / 7)])
def test_first_order_matches_enumeration(probs, n, eps, delta):
    got = finite_n_first_order(spectrum_of(probs, n), eps, delta)
    want = orc.finite_first_order(orc.seq_levels(probs, n), n, 2, eps + delta)
    assert got == pytest.approx(want, abs=1e-12)


def _first_order_loop(s, budget):
    """Reference: the rate of the first atom whose exact mass after it is at
    most ``budget``, summed in Fractions."""
    after = [Fraction(0)]
    for m in reversed(s.masses.tolist()[1:]):
        after.append(after[-1] + Fraction(m))
    after.reverse()  # after[j] = exact mass of atoms j + 1 on
    return float(s.rates[next(j for j, a in enumerate(after) if a <= Fraction(budget))])


@given(st.sampled_from(GRID), st.integers(1, 30), st.floats(0.0, 0.499), st.floats(0.0, 0.499))
def test_first_order_equals_fraction_loop(probs, n, eps, delta):
    s = spectrum_of(probs, n)
    assert finite_n_first_order(s, eps, delta) == _first_order_loop(s, eps + delta)


# Masses 1/2, 1/4, 1/16, 1/32, 1/512 (exp(log 2**-k) is exact for these k),
# so every running sum of them is a double.
_DYADIC = Spectrum(n=1, base=2, log_probs=[math.log(2.0 ** -k) for k in (1, 2, 4, 5, 9)],
                   counts=(1, 1, 1, 1, 1))


@pytest.mark.parametrize("s", [_DYADIC, spectrum_of((0.3, 0.7), 120),
                               spectrum_of((0.2, 0.3, 0.5), 12)],
                         ids=["dyadic", "binary-120", "ternary-12"])
def test_first_order_at_budgets_on_running_sums(s):
    # Budgets at every exact tail, rounded, and one ulp either side: a tail
    # that rounds down to the budget must still count as over it.
    budgets = set()
    for tail in itertools.accumulate(map(Fraction, reversed(s.masses.tolist()))):
        x = float(tail)
        budgets |= {x, math.nextafter(x, 0.0), math.nextafter(x, 1.0)}
    budgets.add(0.0)
    for budget in sorted(b for b in budgets if b < 1.0):
        want = _first_order_loop(s, budget)
        assert finite_n_first_order(s, budget, 0.0) == want
        assert finite_n_first_order(s, 0.0, budget) == want


@given(st.sampled_from(GRID), st.integers(1, 5))
def test_first_order_nonincreasing_in_budget(probs, n):
    s = spectrum_of(probs, n)
    vals = [finite_n_first_order(s, k / 7, 0.0) for k in range(7)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_first_order_lands_on_atom_rate_grid():
    s = spectrum_of((0.2, 0.3, 0.5), 4)
    value = finite_n_first_order(s, 0.1, 0.1)
    assert any(value == float(r) for r in s.rates)


@pytest.mark.parametrize("eps,delta", [(-0.1, 0.0), (0.0, -0.1), (0.6, 0.4), (0.9, 0.3),
                                       (0.1, math.nan), (math.nan, 0.1)])
def test_first_order_rejects_bad_budgets(eps, delta):
    with pytest.raises(ValidationError):
        finite_n_first_order(spectrum_of((0.3, 0.7), 2), eps, delta)


def test_second_order_is_scaled_gap():
    s = spectrum_of((0.3, 0.7), 9)
    rate = 0.88
    fo = finite_n_first_order(s, 0.1, 0.05)
    assert finite_n_second_order(s, 0.1, 0.05, rate) == 3.0 * (fo - rate)


def test_second_order_sign_tracks_side_of_rate():
    s = spectrum_of((0.3, 0.7), 16)
    fo = finite_n_first_order(s, 0.1, 0.1)
    assert finite_n_second_order(s, 0.1, 0.1, fo - 0.25) > 0
    assert finite_n_second_order(s, 0.1, 0.1, fo + 0.25) < 0
