"""Source models and spectra against explicit sequence enumeration."""

import bisect
import itertools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import _oracle as orc
from overflowlab import (
    CeilingExceeded,
    Distribution,
    NumericError,
    Spectrum,
    SpectrumAtom,
    SwitchingSchedule,
    ValidationError,
    ceil_log2_parity,
    construct_code,
    convergence_study,
    finite_n_first_order,
    iid_spectrum,
    make_distribution,
    mixed_spectrum,
    optimal_threshold,
    optimal_tradeoff,
    optimistic_study,
    restricted_tail_inf,
    sample_sequences,
    smooth_max_entropy,
    string_budget,
    switching_spectrum,
    tail_mass,
    validate_counting_condition,
)
from overflowlab import sources
from overflowlab._util import RunningTotals, column, column_units, exact_units


GRID = orc.grid_distributions()


def test_grid_has_45_distributions():
    assert len(GRID) == 45


# ---------------------------------------------------------------------------
# Distribution construction


def test_make_distribution_basic():
    d = make_distribution([0.3, 0.7])
    assert d.base == 2
    assert d.alphabet_size == 2
    assert d.support_size == 2
    np.testing.assert_allclose(d.probs, [0.3, 0.7])


def test_make_distribution_normalizes_small_drift():
    d = make_distribution([0.3, 0.7 + 4e-10])
    assert abs(float(np.sum(d.probs)) - 1.0) <= 1e-12


def test_make_distribution_clamps_dust():
    d = make_distribution([1.0, -1e-13])
    assert d.probs[1] == 0.0
    assert d.support_size == 1


@pytest.mark.parametrize("bad, message", [
    ([], "probs: need a non-empty 1-d probability vector"),
    ([0.5, 0.6], "probs: entries sum to 1.1, off by more than 1e-9"),
    ([0.5, -0.1, 0.6], "probs: negative entry -0.1"),
    ([0.0, 0.0], "probs: entries sum to 0.0, off by more than 1e-9"),
    ([math.nan, 0.5], "probs: non-finite entry"),
    ([0.5, math.nan, 0.5], "probs: non-finite entry"),
], ids=[f"bad{i}" for i in range(6)])
def test_make_distribution_rejects(bad, message):
    with pytest.raises(ValidationError) as info:
        make_distribution(bad)
    assert str(info.value) == message


@pytest.mark.parametrize("probs", [np.array([[0.5], [0.5]]), [[0.5, 0.5]], ["0.5", "0.5"], 0.5])
def test_probs_must_be_a_flat_vector_of_numbers(probs):
    for build in (make_distribution, lambda p: Distribution(p, 2)):
        with pytest.raises(ValidationError, match="non-empty 1-d probability vector"):
            build(probs)


def test_distribution_rejects_unnormalized_probs():
    with pytest.raises(ValidationError) as info:
        Distribution(np.array([0.5, 0.6]), 2)
    assert str(info.value) == "probs: sum 1.1 is not 1 (normalize first)"


def test_make_distribution_rejects_bad_base():
    with pytest.raises(ValidationError):
        make_distribution([0.5, 0.5], base=1)


_D = make_distribution([0.3, 0.7])


@pytest.mark.parametrize("call", [
    lambda: Distribution([0.3, 0.7], base=2.0),
    lambda: Distribution([0.3, 0.7], base=2.5),
    lambda: Distribution([0.3, 0.7], base=True),
    lambda: make_distribution([0.3, 0.7], base=2.5),
    lambda: make_distribution([0.3, 0.7], base=math.inf),
    lambda: iid_spectrum(_D, 2.5),
    lambda: iid_spectrum(_D, True),
    lambda: iid_spectrum(_D, 0),
    lambda: mixed_spectrum(_D, make_distribution([0.6, 0.4]), 0.5, 2.5),
    lambda: switching_spectrum(SwitchingSchedule((_D, make_distribution([0.6, 0.4]))), 2.5),
    lambda: ceil_log2_parity(2.5),
    lambda: sample_sequences(_D, 3, 2.5, 1),
    lambda: sample_sequences(_D, 2.5, 3, 1),
    lambda: sample_sequences(_D, 3, 3, 2.5),
    lambda: sample_sequences(_D, 3, 3, -1),
    lambda: convergence_study(_D, 0.1, 0.1, [8, 16.5]),
    lambda: convergence_study(_D, 0.1, 0.1, [8, True]),
    lambda: convergence_study(_D, 0.1, 0.1, []),
    lambda: optimistic_study(SwitchingSchedule((_D, make_distribution([0.6, 0.4]))),
                             0.1, 0.1, [8, 16.5]),
    lambda: string_budget(2, 2.5),
    lambda: string_budget(2.5, 3),
    lambda: string_budget(2, 3.0),
    lambda: string_budget(1, 3),
    lambda: Spectrum(n=True, base=2, log_probs=[0.0], counts=[1]),
], ids=["dist-base-2.0", "dist-base-2.5", "dist-base-bool", "make-base-2.5", "make-base-inf",
        "iid-n-2.5", "iid-n-bool", "iid-n-0", "mixture-n-2.5", "switching-n-2.5",
        "parity-n-2.5", "sample-count-2.5", "sample-n-2.5", "sample-seed-2.5",
        "sample-seed-negative", "converge-grid-16.5", "converge-grid-bool", "converge-grid-empty",
        "optimistic-grid-16.5", "budget-eta-2.5", "budget-base-2.5", "budget-eta-3.0",
        "budget-base-1", "spectrum-n-bool"])
def test_integer_parameters_get_a_named_error(call):
    # Blocklengths, bases, sample counts, seeds, grid entries and string
    # budget arguments are integers: a float (even 2.0) or a bool is a
    # ValidationError, which the CLI turns into exit code 2, never a
    # TypeError, OverflowError or a silently truncated value.
    with pytest.raises(ValidationError):
        call()


def test_integer_parameters_accept_numpy_ints():
    s = iid_spectrum(make_distribution([0.3, 0.7], base=np.int64(3)), np.int64(5))
    assert (type(s.n), type(s.base), s.n, s.base) == (int, int, 5, 3)
    assert string_budget(np.int64(2), np.int32(3)) == 14
    assert sample_sequences(_D, np.int64(3), np.int64(2), np.uint8(1)).shape == (2, 3)


def test_distribution_probs_are_frozen():
    d = make_distribution([0.5, 0.5])
    with pytest.raises(TypeError):
        d.probs[0] = 0.9


# ---------------------------------------------------------------------------
# iid spectra vs brute force


@pytest.mark.parametrize("probs", GRID, ids=lambda p: "-".join(f"{x:.1f}" for x in p))
def test_iid_spectrum_matches_enumeration(probs):
    d = make_distribution(probs)
    for n in (1, 2, 4, 6):
        s = iid_spectrum(d, n)
        lev = orc.seq_levels(probs, n)
        assert len(s.atoms) == len(lev)
        for atom, (lp, count) in zip(s.atoms, lev):
            assert atom.count == count
            assert abs(atom.log_prob_per_seq - lp) <= 1e-12 * max(1.0, abs(lp))
            assert abs(atom.mass - orc.level_mass(lp, count)) <= 1e-12
        assert s.total_count == d.support_size ** n


def test_spectrum_mass_sums_to_one():
    for probs in GRID:
        s = iid_spectrum(make_distribution(probs), 8)
        assert abs(math.fsum(a.mass for a in s.atoms) - 1.0) <= 1e-9


def test_spectrum_atoms_strictly_ordered():
    s = iid_spectrum(make_distribution([0.2, 0.3, 0.5]), 7)
    lps = [a.log_prob_per_seq for a in s.atoms]
    assert all(x > y for x, y in zip(lps, lps[1:]))
    assert np.all(np.diff(s.rates) > 0)


def test_zero_probability_symbols_drop_out():
    s3 = iid_spectrum(make_distribution([0.3, 0.7, 0.0]), 5)
    s2 = iid_spectrum(make_distribution([0.3, 0.7]), 5)
    assert len(s3.atoms) == len(s2.atoms)
    assert s3.total_count == 2 ** 5
    for a, b in zip(s3.atoms, s2.atoms):
        assert a.count == b.count
        assert a.log_prob_per_seq == b.log_prob_per_seq


def test_equal_probability_symbols_share_levels():
    # Three symbols at 0.2 collapse to one level per count, so the whole
    # spectrum has as many atoms as compositions of n over {0.2-level, 0.4}.
    s = iid_spectrum(make_distribution([0.2, 0.2, 0.2, 0.4]), 3)
    assert len(s.atoms) == 4
    assert s.total_count == 4 ** 3
    lev = orc.seq_levels([0.2, 0.2, 0.2, 0.4], 3)
    assert [a.count for a in s.atoms] == [c for _, c in lev]


def test_uniform_spectrum_is_one_atom():
    for n in (1, 4, 8):
        s = iid_spectrum(make_distribution([0.5, 0.5]), n)
        assert len(s.atoms) == 1
        assert s.atoms[0].count == 2 ** n
        assert abs(s.atoms[0].mass - 1.0) <= 1e-12
        assert abs(float(s.rates[0]) - 1.0) <= 1e-12


@pytest.mark.parametrize("k", [6, 7])
def test_uniform_source_is_one_level(k):
    # Renormalizing [1/k] * k leaves a sum an ulp off 1; moving one entry to
    # fix it would split the uniform source into two probability levels.
    values, mults, types = sources.level_types(make_distribution([1 / k] * k), 30)
    assert mults == (k,)
    assert [count for _, count in types] == [k ** 30]


def test_large_n_binary_spectrum_is_exact():
    d = make_distribution([0.3, 0.7])
    n = 2000
    s = iid_spectrum(d, n)
    assert len(s.atoms) == n + 1
    assert s.total_count == 2 ** n
    assert s.atoms[0].count == 1
    assert abs(math.fsum(a.mass for a in s.atoms) - 1.0) <= 1e-9
    # Per-sequence probabilities underflow doubles here, masses must not.
    assert math.exp(s.log_probs[n // 2]) == 0.0
    assert s.masses[np.argmax(s.masses)] > 0.01


def test_type_ceiling_raises():
    d = make_distribution([0.2, 0.3, 0.5])
    with pytest.raises(CeilingExceeded):
        iid_spectrum(d, 100, type_ceiling=1000)


def test_spectrum_validation_rejects_disorder():
    good = iid_spectrum(make_distribution([0.3, 0.7]), 2)
    with pytest.raises(NumericError):
        Spectrum(n=2, base=2, log_probs=good.log_probs[::-1], counts=good.counts[::-1])
    with pytest.raises(NumericError):
        Spectrum(n=2, base=2, log_probs=[-1.0], counts=(0,))
    with pytest.raises(NumericError):
        Spectrum(n=2, base=2, log_probs=[], counts=())
    with pytest.raises(NumericError):
        Spectrum(n=2, base=2, log_probs=good.log_probs, counts=good.counts[:-1])
    # A count far past the probability: the capped exponent keeps exp finite.
    with pytest.raises(NumericError, match="atom mass"):
        Spectrum(n=2, base=2, log_probs=[-1.0], counts=(10 ** 400,))


def test_atoms_view_reads_the_columns_once():
    s = iid_spectrum(make_distribution([0.2, 0.3, 0.5]), 6)
    assert s.atoms is s.atoms
    assert s.atoms == tuple(SpectrumAtom(lp, c, m) for lp, c, m in
                            zip(s.log_probs.tolist(), s.counts, s.masses.tolist()))
    assert all(type(a.log_prob_per_seq) is float and type(a.mass) is float for a in s.atoms)
    assert all(type(a) is SpectrumAtom for a in s.atoms)
    lp, count, mass = s.log_probs.tolist()[0], s.counts[0], s.masses.tolist()[0]
    assert repr(s.atoms[0]) == (f"SpectrumAtom(log_prob_per_seq={lp!r}, count={count!r}, "
                                f"mass={mass!r})")


def test_prefix_and_suffix_masses_are_complementary():
    s = iid_spectrum(make_distribution([0.1, 0.4, 0.5]), 6)
    masses = s.masses.tolist()
    assert len(s.prefix_mass) == len(s) and len(s.suffix_mass) == len(s) + 1
    for i in range(len(s)):
        assert abs(float(s.prefix_mass[i]) + float(s.suffix_mass[i + 1]) - 1.0) <= 1e-12
        # The views are correctly rounded.
        assert s.prefix_mass[i] == math.fsum(masses[:i + 1])
        assert s.suffix_mass[i] == math.fsum(masses[i:])
    assert s.suffix_mass[len(s)] == 0.0


# Masses 1.0, of mixed magnitude, subnormal (exp(-740), exp(-744)) and
# underflowed to zero (exp(-800)).
_SPECIAL = Spectrum(n=1, base=2, log_probs=[0.0, -0.7, -3.0, -40.0, -700.0, -740.0,
                                            -744.0, -800.0, -900.0],
                    counts=(1, 1, 1, 1, 1, 1, 1, 1, 1))
_EXTRAS = [(), (0.0,), (5e-324,), (1.0,), (0.3, 1e-300), (2.2250738585072014e-308, 0.1, 0.2)]


def test_special_masses_cover_zero_subnormal_and_one():
    masses = _SPECIAL.masses.tolist()
    assert masses[0] == 1.0 and masses[-1] == 0.0
    assert 0.0 < masses[5] < 2.2250738585072014e-308


def test_mass_sum_equals_fsum():
    s = _SPECIAL
    masses = s.masses.tolist()
    for start in range(len(s) + 1):
        for stop in range(start, len(s) + 1):
            for extra in _EXTRAS:
                want = math.fsum([*extra, *masses[start:stop]])
                assert s.mass_sum(start, stop, extra) == want
        assert s.mass_sum(start) == math.fsum(masses[start:])


@given(st.sampled_from(GRID), st.integers(1, 40), st.data())
def test_mass_sum_equals_fsum_on_spectra(probs, n, data):
    s = iid_spectrum(make_distribution(probs), n)
    start = data.draw(st.integers(0, len(s)))
    stop = data.draw(st.integers(start, len(s)))
    extra = data.draw(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324])),
                               max_size=4))
    assert s.mass_sum(start, stop, extra) == math.fsum([*extra, *s.masses[start:stop].tolist()])


def _block_edges(size):
    """Every index within one of a RunningTotals block edge."""
    block = RunningTotals.BLOCK
    return sorted({i for j in range(0, size + block, block)
                   for i in (j - 1, j, j + 1) if 0 <= i < size})


def test_exact_units_and_column_units_are_exact():
    values = [*_SPECIAL.masses.tolist(), 0.0, 5e-324, 2.2250738585072014e-308,
              2.225073858507201e-308, 1.5e-310, 0.1, 0.3, 1e-300, 1.7976931348623157e308]
    assert [exact_units(v) for v in values] == [Fraction(v) * 2 ** 1074 for v in values]
    col = column("d", values)
    for lo in range(len(values)):
        assert column_units(col[lo:]) == [exact_units(v) for v in values[lo:]]


def test_mass_totals_are_exact_over_narrow_zero_wide_and_subnormal_blocks():
    # Blocks of values within a few binades, of zeros, of values 1000 binades
    # apart, and a tail of subnormals, all summed from their bit patterns.
    block = RunningTotals.BLOCK
    narrow = [0.1 * (1 + k / 7) for k in range(block)]
    wide = [(1e-300 if k % 2 else 0.3) * (1 + k / 5) for k in range(block)]
    values = narrow + [0.0] * block + wide + narrow + [5e-324, 1.5e-310, 0.2]
    col = column("d", values)
    totals = RunningTotals(lambda lo, hi: column_units(col[lo:hi]), len(values))
    cum = list(itertools.accumulate(Fraction(v) * 2 ** 1074 for v in values))
    assert [totals.through(i) for i in range(len(values))] == cum
    assert totals.total == cum[-1] and list(totals)[1:] == cum
    assert [totals.first_reaching(c) for c in cum[::7]] == [
        cum.index(c) for c in cum[::7]]


def test_mass_units_are_exact_at_block_edges():
    for s in (_SPECIAL, iid_spectrum(make_distribution([0.2, 0.3, 0.5]), 7),
              iid_spectrum(make_distribution([0.3, 0.7]), 300)):
        cum = list(itertools.accumulate(Fraction(m) for m in s.masses.tolist()))
        units = s.mass_units
        assert Fraction(units.total, 2 ** 1074) == cum[-1]
        for i in _block_edges(len(s)):
            assert Fraction(units.through(i), 2 ** 1074) == cum[i]
            assert s.mass_sum(i) == float(cum[-1] - (cum[i - 1] if i else 0))
        with pytest.raises(IndexError):
            units.through(len(s))


def test_running_totals_are_built_with_the_spectrum():
    # The first query on a spectrum must not pay for a whole-column pass.
    s = iid_spectrum(make_distribution([0.3, 0.7]), 300)
    assert {"mass_units", "_count_totals"} <= vars(s).keys()
    assert "mass_units" in vars(Spectrum(1, 2, [math.log(0.7), math.log(0.3)], [1, 1]))


@given(st.sampled_from(GRID), st.integers(min_value=1, max_value=6))
def test_counts_always_exact(probs, n):
    s = iid_spectrum(make_distribution(probs), n)
    assert s.total_count == len(probs) ** n
    assert all(a.count >= 1 for a in s.atoms)


# ---------------------------------------------------------------------------
# Mixtures


def test_mixture_matches_enumeration():
    p1, p2, w1 = [0.3, 0.7], [0.8, 0.2], 0.25
    d1, d2 = make_distribution(p1), make_distribution(p2)
    for n in (1, 3, 5):
        s = mixed_spectrum(d1, d2, w1, n)
        lev = orc.mixture_levels(p1, p2, w1, n)
        assert len(s.atoms) == len(lev)
        for atom, (lp, count) in zip(s.atoms, lev):
            assert atom.count == count
            assert abs(atom.log_prob_per_seq - lp) <= 1e-12 * max(1.0, abs(lp))


def test_mixture_merges_symmetric_types():
    # Mixing a distribution with its own permutation makes types k and n-k
    # carry identical block probabilities; they must fuse into one atom.
    d1 = make_distribution([0.3, 0.7])
    d2 = make_distribution([0.7, 0.3])
    for n in (2, 3, 6):
        s = mixed_spectrum(d1, d2, 0.5, n)
        assert len(s.atoms) == n // 2 + 1
        assert s.total_count == 2 ** n


def test_mixture_handles_disjoint_supports():
    d1 = make_distribution([1.0, 0.0])
    d2 = make_distribution([0.0, 1.0])
    s = mixed_spectrum(d1, d2, 0.5, 4)
    # Only the two constant sequences are reachable, each with mass 1/2.
    assert len(s.atoms) == 1
    assert s.atoms[0].count == 2
    assert abs(s.atoms[0].mass - 1.0) <= 1e-12


@pytest.mark.parametrize("w1", [0.0, 1.0, -0.2, 1.7])
def test_mixture_rejects_degenerate_weight(w1):
    d = make_distribution([0.5, 0.5])
    with pytest.raises(ValidationError):
        mixed_spectrum(d, d, w1, 3)


def test_mixture_rejects_mismatched_components():
    with pytest.raises(ValidationError):
        mixed_spectrum(make_distribution([0.5, 0.5]),
                       make_distribution([0.2, 0.3, 0.5]), 0.5, 3)
    with pytest.raises(ValidationError):
        mixed_spectrum(make_distribution([0.5, 0.5], base=2),
                       make_distribution([0.5, 0.5], base=3), 0.5, 3)


@pytest.mark.parametrize("p1, p2", [
    ([0.5, 0.5, 0.0], [0.0, 0.4, 0.6]),          # a zero entry in each component
    ([0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.3, 0.7]),  # disjoint supports
    ([0.2, 0.8, 0.0], [0.6, 0.0, 0.4]),
    ([0.1, 0.2, 0.7], [0.7, 0.2, 0.1]),
])
def test_mixture_total_count_is_reachable_sequences(p1, p2):
    s1 = sum(a > 0 for a in p1)
    s2 = sum(b > 0 for b in p2)
    both = sum(a > 0 and b > 0 for a, b in zip(p1, p2))
    for n in (1, 2, 5, 9):
        s = mixed_spectrum(make_distribution(p1), make_distribution(p2), 0.3, n)
        assert s.total_count == s1 ** n + s2 ** n - both ** n
        assert s.total_count == sum(c for _, c in orc.mixture_levels(p1, p2, 0.3, n))


@pytest.mark.parametrize("build", [
    lambda: iid_spectrum(make_distribution([0.3, 0.7]), 80),
    lambda: mixed_spectrum(make_distribution([0.3, 0.7, 0.0]),
                           make_distribution([0.0, 0.4, 0.6]), 0.5, 80),
], ids=["iid", "mixture-with-zero-entries"])
def test_build_checks_the_exact_total_count(build, monkeypatch):
    # One sequence too many in the first type class (all n symbols on the
    # last level, reachable here) moves the mass by under 1e-12, far inside
    # the mass tolerance: only the exact total count can catch it.  Builds
    # read the types in runs along the last two levels; the first type
    # heads the first run.
    real = sources._type_runs

    def one_too_many(*args):
        runs = list(real(*args))
        prefix, counts, *sums = runs[0]
        runs[0] = (prefix, [counts[0] + 1, *counts[1:]], *sums)
        return iter(runs)

    monkeypatch.setattr(sources, "_type_runs", one_too_many)
    with pytest.raises(NumericError, match="type counts"):
        build()


# ---------------------------------------------------------------------------
# Type enumeration and merging


def _reference_types(n, mults):
    """Every composition of n over len(mults) levels in lexicographic order,
    sized n! / prod(k!) * prod(m ** k) with math.factorial."""
    def compositions(rem, parts):
        if parts == 1:
            yield (rem,)
            return
        for k in range(rem + 1):
            for tail in compositions(rem - k, parts - 1):
                yield (k,) + tail
    out = []
    for ks in compositions(n, len(mults)):
        count = math.factorial(n)
        for k, m in zip(ks, mults):
            count = count // math.factorial(k) * m ** k
        out.append((ks, count))
    return out


@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.booleans(), st.integers(1, 40))
@example([1, 1, 1], True, 1)   # the last two levels see rem = 0 and rem = 1
@example([3, 2, 2], True, 2)
@example([1, 1, 1, 1], True, 3)
@example([2, 1], False, 1)
def test_type_classes_equal_multinomial_reference(mults, mirror, n):
    # Equal last multiplicities take the mirrored path, unequal ones the
    # plain recurrence; walks over three or more levels reach the last two
    # with rem = 0 and rem = 1.
    if mirror and len(mults) >= 2:
        mults[-1] = mults[-2]
    assert list(sources._type_classes(n, mults)) == _reference_types(n, mults)


def test_mirrored_counts_share_objects():
    counts = [c for _, c in sources._type_classes(400, [1, 1])]
    assert all(counts[k] is counts[400 - k] for k in range(201))


def _merge_loop(lps, counts):
    """Reference: stable sort by descending log probability, then merge each
    candidate into the previous group when it lies within the merge
    tolerance of that group's first log probability."""
    raw = sorted(zip(lps, counts), key=lambda t: t[0], reverse=True)
    out_lps, out_counts = [], []
    for lp, count in raw:
        if out_lps and abs(out_lps[-1] - lp) <= 1e-12 * max(1.0, abs(lp)):
            out_counts[-1] += count
        else:
            out_lps.append(lp)
            out_counts.append(count)
    return out_lps, out_counts


# Log probabilities in clusters whose members sit 0.3, 0.6 or 1.1 merge
# tolerances apart, so chains drift past a group's first entry while every
# neighbour stays close; clusters in (-1, 0) test the absolute tolerance,
# and exact repeats test the sort's stability.
_cluster = st.tuples(st.one_of(st.floats(-60.0, -8.0), st.floats(-1.0, -0.7)),
                     st.sampled_from([0.0, 0.3, 0.6, 1.1, 1e6]), st.integers(1, 6))


@given(st.lists(_cluster, min_size=1, max_size=8), st.randoms(use_true_random=False))
def test_finish_spectrum_merges_like_the_loop(clusters, rng):
    lps = []
    for centre, step, size in clusters:
        tol = 1e-12 * max(1.0, abs(centre))
        lps += [centre - j * step * tol for j in range(size)]
    # At most two candidates above -2, so no merged atom outweighs 1.
    lps = [x for x in lps if x < -2.0] + [x for x in lps if x >= -2.0][:2]
    rng.shuffle(lps)
    counts = [rng.randrange(1, 2 ** 70) if x < -55.0 else 1 for x in lps]
    want_lps, want_counts = _merge_loop(lps, counts)
    got = sources._finish_spectrum(5, 2, np.array(lps), counts, math.inf, sum(counts))
    assert got.log_probs.tolist() == want_lps
    assert list(got.counts) == want_counts


@given(st.floats(0.01, 0.99), st.integers(1, 300))
def test_binary_log_probs_equal_scalar_expression(p, n):
    d = make_distribution([p, 1.0 - p])
    values = sorted({float(x) for x in d.probs})
    if len(values) < 2:
        return
    l0, l1 = math.log(values[0]), math.log(values[1])
    want = sorted((k * l0 + (n - k) * l1 for k in range(n + 1)), reverse=True)
    assert iid_spectrum(d, n).log_probs.tolist() == want


# ---------------------------------------------------------------------------
# Exact log probabilities over one or three and more levels, and of mixtures


def _exact_log_probs(types, probs):
    """float(sum_j k_j * log q_j) for each ks in ``types``, with the sum exact:
    the doubles math.log gives, summed as Fractions, or -inf where a k_j > 0
    has q_j = 0."""
    logs = [Fraction(math.log(q)) if q > 0.0 else None for q in probs]
    return [-math.inf if any(k and x is None for k, x in zip(ks, logs))
            else float(sum(k * x for k, x in zip(ks, logs) if k)) for ks in types]


def _candidates(build):
    """The candidate log probabilities and counts a build hands to
    _finish_spectrum, in enumeration order, and the finished spectrum."""
    seen = {}
    real = sources._finish_spectrum

    def capture(n, base, lps, counts, mass_tol, total):
        seen["lps"], seen["counts"] = np.array(lps).tolist(), list(counts)
        return real(n, base, lps, counts, mass_tol, total)

    sources._finish_spectrum = capture
    try:
        s = build()
    finally:
        sources._finish_spectrum = real
    return seen["lps"], seen["counts"], s


def _level_probs(draw_weights):
    raw = [float(x) for x in draw_weights]
    return [x / sum(raw) for x in raw]


_MERGING = [r / (1 + 1.4 + 2.3 + 1.4 * 2.3) for r in (1.0, 1.4, 2.3, 1.4 * 2.3)]
_probs_3_to_5 = st.lists(st.floats(0.01, 10.0), min_size=3, max_size=5).map(_level_probs)


@given(st.one_of(_probs_3_to_5,
                 st.sampled_from([[0.2, 0.3, 0.5], [0.1, 0.0, 0.4, 0.5], [0.3, 0.0, 0.3, 0.4],
                                  [1e-6, 2e-6, 1 - 3e-6], [1e-12, 0.25, 0.25, 0.5 - 1e-12],
                                  _MERGING])),
       st.integers(1, 25))
@example([0.2, 0.3, 0.5], 190)
def test_iid_log_probs_are_correctly_rounded_exact_sums(probs, n):
    d = make_distribution(probs)
    values, mults, _ = sources.level_types(d, n)
    if len(values) == 2:
        return  # the binary rule, tested against its scalar expression
    lps, counts, _ = _candidates(lambda: iid_spectrum(d, n))
    want = _reference_types(n, list(mults))
    assert counts == [c for _, c in want]
    assert lps == _exact_log_probs([ks for ks, _ in want], values)


def test_uniform_log_prob_is_the_rounded_product():
    # One level: the exact sum n * log q rounded once is the float product.
    for k, n in ((3, 50), (6, 31), (7, 1000)):
        d = make_distribution([1 / k] * k)
        s = iid_spectrum(d, n)
        q = math.log(d.probs[0])
        assert s.log_probs.tolist() == [n * q] == _exact_log_probs([(n,)], [d.probs[0]])


_zero_or_level = st.one_of(st.just(0.0), st.floats(0.01, 10.0))


@given(st.lists(st.tuples(_zero_or_level, _zero_or_level), min_size=2, max_size=4)
       .filter(lambda rows: all(any(r[c] for r in rows) for c in (0, 1))),
       st.floats(0.05, 0.95), st.integers(1, 25))
@example([(0.5, 0.0), (0.5, 0.4), (0.0, 0.6)], 0.5, 20)   # a zero in each component
@example([(1.0, 0.0), (0.0, 1.0)], 0.3, 9)               # disjoint supports
@example([(1e-6, 0.2), (2e-6, 0.3), (1 - 3e-6, 0.5)], 0.4, 12)
def test_mixture_components_are_correctly_rounded_exact_sums(rows, w1, n):
    p1 = _level_probs(r[0] for r in rows)
    p2 = _level_probs(r[1] for r in rows)
    d1, d2 = make_distribution(p1), make_distribution(p2)
    lps, counts, s = _candidates(lambda: mixed_spectrum(d1, d2, w1, n))
    pairs = {}
    for a, b in zip(d1.probs, d2.probs):
        if a > 0.0 or b > 0.0:
            pairs[(a, b)] = pairs.get((a, b), 0) + 1
    types = _reference_types(n, list(pairs.values()))
    kinds = [ks for ks, _ in types]
    t1s = _exact_log_probs(kinds, [a for a, _ in pairs])
    t2s = _exact_log_probs(kinds, [b for _, b in pairs])
    want_lps, want_counts = [], []
    for (_, count), t1, t2 in zip(types, t1s, t2s):
        lp = float(np.logaddexp(math.log(w1) + t1, math.log1p(-w1) + t2))
        if lp != -math.inf:
            want_lps.append(lp)
            want_counts.append(count)
    assert lps == want_lps
    assert counts == want_counts
    s1, s2 = (sum(x > 0.0 for x in d.probs) for d in (d1, d2))
    both = sum(a > 0.0 and b > 0.0 for a, b in zip(d1.probs, d2.probs))
    assert s.total_count == s1 ** n + s2 ** n - both ** n


def test_log_units_weigh_zero_probabilities_below_every_live_sum():
    n = 50
    probs = [0.0, 1e-300, 0.5, 0.0, 1 - 1e-16]
    units, scale, floor = sources._log_units(probs, n)
    assert Fraction(scale).numerator == 1 and Fraction(scale).denominator.bit_count() == 1
    for j, q in enumerate(probs):
        if q > 0.0:
            assert units[j] * Fraction(scale) == Fraction(math.log(q))
        else:
            assert units[j] == floor
    assert n * min(u for u in units if u != floor) > floor
    # The lightest live type sums above the floor, the heaviest dead one at it;
    # a live sum times the scale is its correctly rounded log probability.
    assert n * units[1] > floor >= floor + units[4]
    assert [n * units[1] * scale] == _exact_log_probs([(0, n)], [0.0, 1e-300])


@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(1, 30),
       st.lists(st.integers(-(1 << 120), 1 << 120), min_size=8, max_size=8))
@example([1, 1, 1], 1, [5, -7, 0, 0, 0, 0, 0, 0])   # rem = 0 and rem = 1 on the last two
@example([2, 2], 4, [3, 3, 1, 1, 0, 0, 0, 0])       # equal weights on the last two levels
def test_type_runs_carry_exact_weighted_sums(mults, n, pool):
    rows = [pool[:len(mults)], pool[4:4 + len(mults)]]
    plain = list(sources._type_classes(n, mults))
    for r in (1, 2):
        got = [((n,) if len(mults) == 1 else prefix + (k, len(counts) - 1 - k), *row)
               for prefix, counts, *sums in sources._type_runs(n, mults, rows[:r])
               for k, row in enumerate(zip(counts, *sums))]
        assert [t[:2] for t in got] == plain
        assert [t[2:] for t in got] == [tuple(sum(map(operator.mul, ks, w)) for w in rows[:r])
                                        for ks, _ in plain]


def _masses_loop(counts, lps):
    """The per-atom expression the mass column is defined by."""
    return [math.exp(min(math.log(c) + lp, 1.0)) for c, lp in zip(counts, lps)]


@pytest.mark.parametrize("build", [
    lambda: iid_spectrum(make_distribution([0.11, 0.89]), 20000),
    lambda: iid_spectrum(make_distribution([0.2, 0.3, 0.5]), 190),
    lambda: iid_spectrum(make_distribution(_MERGING), 60),
    lambda: mixed_spectrum(make_distribution([0.2, 0.3, 0.5]),
                           make_distribution([0.5, 0.0, 0.5]), 0.4, 60),
    lambda: Spectrum(n=3, base=2, log_probs=[-1e-300, -745.0, -800.0],
                     counts=[1, 2, 10 ** 300]),
], ids=["binary-20000", "ternary-190", "merging-60", "mixture-60", "tiny-and-subnormal"])
def test_masses_equal_the_per_atom_expression(build):
    s = build()
    assert s.masses.tolist() == _masses_loop(s.counts, s.log_probs.tolist())


# ---------------------------------------------------------------------------
# Checkpointed cumulative counts


def _accessor_spectra():
    x, y = 1.4, 2.3
    merging = [r / (1 + x + y + x * y) for r in (1.0, x, y, x * y)]
    return [
        iid_spectrum(make_distribution([0.3, 0.7]), 3),
        iid_spectrum(make_distribution([0.3, 0.7]), 150),
        iid_spectrum(make_distribution([0.2, 0.3, 0.5]), 20),
        iid_spectrum(make_distribution([0.2, 0.2, 0.2, 0.4]), 90),
        iid_spectrum(make_distribution(merging), 30),
        mixed_spectrum(make_distribution([0.3, 0.7]), make_distribution([0.7, 0.3]), 0.5, 101),
        mixed_spectrum(make_distribution([0.2, 0.3, 0.5]),
                       make_distribution([0.5, 0.0, 0.5]), 0.4, 15),
    ]


def test_count_accessors_equal_accumulate_and_bisect():
    for s in _accessor_spectra():
        cum = list(itertools.accumulate(s.counts))
        assert s.total_count == cum[-1]
        # Touch blocks back to front, so no block is built from a neighbour.
        for i in reversed(range(len(s))):
            assert s.count_through(i) == cum[i]
        totals = {0, 1, cum[-1], cum[-1] + 1, *cum, *(c - 1 for c in cum), *(c + 1 for c in cum)}
        for total in sorted(totals):
            assert s.first_reaching(total) == bisect.bisect_left(cum, total)
        with pytest.raises(IndexError):
            s.count_through(len(s))
        with pytest.raises(IndexError):
            s.count_through(-1)


def test_count_accessors_at_block_edges():
    s = iid_spectrum(make_distribution([0.3, 0.7]), 2000)
    cum = list(itertools.accumulate(s.counts))
    edges = _block_edges(len(s))
    for i in edges:
        assert s.count_through(i) == cum[i]
    for total in [1, cum[-1], *(cum[i] + d for i in edges for d in (-1, 0, 1))]:
        assert s.first_reaching(total) == bisect.bisect_left(cum, total)
    assert s.cumulative_counts == tuple(cum)


def test_spectrum_is_freed_without_the_cycle_collector():
    # The running totals' terms must not refer back to the spectrum: a cycle
    # would keep every queried spectrum alive until the collector ran.
    import gc
    import weakref
    s = iid_spectrum(make_distribution([0.2, 0.3, 0.5]), 40)
    tail_mass(s, 1.0)
    finite_n_first_order(s, 0.1, 0.1)
    s.count_through(len(s) - 1)
    ref = weakref.ref(s)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del s
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_queries_never_build_the_cumulative_column():
    s = iid_spectrum(make_distribution([0.11, 0.89]), 20000)
    h = float(np.dot(s.masses, s.rates))
    optimal_tradeoff(s, 20000 * h, 0.05)
    optimal_threshold(s, 0.05, 0.1)
    c = construct_code(s, 0.05)
    assert validate_counting_condition(c).ok
    tail_mass(s, h)
    smooth_max_entropy(s, 0.1)
    restricted_tail_inf(s, 0.05, h)
    finite_n_first_order(s, 0.05, 0.1)
    assert "cumulative_counts" not in vars(s)


# ---------------------------------------------------------------------------
# Switching schedules


def test_parity_rule_matches_direct_computation():
    for n in range(1, 4100):
        t = 0
        while 2 ** t < n:
            t += 1
        assert ceil_log2_parity(n) == (0 if t % 2 == 0 else 1)


def test_parity_rule_alternates_on_doubling_grid():
    picks = [ceil_log2_parity(2 ** j) for j in range(13)]
    assert picks == [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0]


def test_switching_spectrum_uses_active_component():
    sched = SwitchingSchedule((make_distribution([0.2, 0.8]),
                               make_distribution([0.4, 0.6])))
    for n in (7, 8, 15, 16, 64):
        s = switching_spectrum(sched, n)
        expected = iid_spectrum(sched.components[sched.active_component(n)], n)
        assert [a.count for a in s.atoms] == [a.count for a in expected.atoms]


def test_switching_rejects_bad_rule_output():
    sched = SwitchingSchedule((make_distribution([0.5, 0.5]),
                               make_distribution([0.4, 0.6])),
                              rule=lambda n: 2)
    with pytest.raises(ValidationError):
        sched.active_component(4)


@pytest.mark.parametrize("args, message", [
    (((_D, _D), 5), "rule: need a callable"),
    (((_D,),), "components: need a pair"),
    (((_D, [0.5, 0.5]),), "components: need a pair"),
    (((_D, _D, _D),), "components: need a pair"),
    ((_D,), "components: need a pair"),
], ids=["rule-not-callable", "one-component", "list-component", "three-components",
        "bare-distribution"])
def test_switching_schedule_rejects_bad_input_by_name(args, message):
    with pytest.raises(ValidationError, match=message):
        SwitchingSchedule(*args)


# ---------------------------------------------------------------------------
# Sampling


def test_sample_sequences_shape_and_range():
    d = make_distribution([0.3, 0.7, 0.0])
    draws = np.asarray(sample_sequences(d, 11, 500, seed=3))
    assert draws.shape == (500, 11)
    assert draws.min() >= 0
    assert draws.max() <= 1  # the zero-probability symbol never appears


def test_sample_sequences_deterministic_per_seed():
    d = make_distribution([0.25, 0.75])
    a = np.asarray(sample_sequences(d, 6, 100, seed=9))
    b = np.asarray(sample_sequences(d, 6, 100, seed=9))
    c = np.asarray(sample_sequences(d, 6, 100, seed=10))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_sequences_frequency_sane():
    d = make_distribution([0.3, 0.7])
    draws = np.asarray(sample_sequences(d, 4, 50000, seed=0))
    freq = float(np.mean(draws == 0))
    assert abs(freq - 0.3) < 0.01
