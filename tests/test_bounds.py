"""Achievability and converse bounds and the sandwich sweep around the
exact overflow curve."""

import math

import pytest

import _oracle as orc
import overflowlab.bounds as bounds_mod
from overflowlab import (
    BoundReport,
    TheoremViolation,
    ValidationError,
    achievability_bound,
    converse_bound,
    first_order_slack,
    iid_spectrum,
    make_distribution,
    sandwich_sweep,
    second_order_slack,
    top_probability_prefix,
)
from overflowlab._util import count_mass


def spectrum_of(probs, n):
    return iid_spectrum(make_distribution(list(probs)), n)


# ---------------------------------------------------------------------------
# closed-form pins
# ---------------------------------------------------------------------------


def test_achievability_uniform_closed_form():
    # Full decode set, threshold so loose every sequence qualifies: the bound
    # is exactly 1 + a_n * K.
    s = spectrum_of((0.5, 0.5), 2)
    assert achievability_bound(s, 0.0, 2 ** -4, 2) == pytest.approx(1.125, abs=1e-15)


def test_converse_uniform_closed_form():
    # No sequence is light enough, so only the slack term survives.
    s = spectrum_of((0.5, 0.5), 2)
    assert converse_bound(s, 1.0, 2 ** -4, 1) == pytest.approx(-0.125, abs=1e-15)


@pytest.mark.parametrize("probs", [(0.3, 0.7), (0.2, 0.3, 0.5)])
@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("eps,a_n,eta", [(0.0, 2 ** -4, 1), (2 / 7, 1 / 3, 3)])
def test_bounds_match_enumeration(probs, n, eps, a_n, eta):
    s = spectrum_of(probs, n)
    levels = orc.seq_levels(probs, n)
    got = achievability_bound(s, eps, a_n, eta)
    assert got == pytest.approx(orc.achievability(levels, 2, eps, a_n, eta), abs=1e-12)
    from overflowlab import top_probability_prefix
    sel = top_probability_prefix(s, 1 - eps)
    target = sel.mass if sel.num_sequences else 1.0
    got = converse_bound(s, target, a_n, eta)
    assert got == pytest.approx(orc.converse(levels, 2, target, a_n, eta), abs=1e-12)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a_n", [0.0, -0.5, 1.5, float("nan"), float("inf")])
def test_bounds_reject_bad_slack(a_n):
    s = spectrum_of((0.3, 0.7), 2)
    with pytest.raises(ValidationError):
        achievability_bound(s, 0.1, a_n, 2)
    with pytest.raises(ValidationError):
        converse_bound(s, 0.9, a_n, 2)


def test_bounds_reject_bad_eta():
    s = spectrum_of((0.3, 0.7), 2)
    with pytest.raises(ValidationError):
        achievability_bound(s, 0.1, 0.5, 0.5)
    with pytest.raises(ValidationError):
        converse_bound(s, 0.9, 0.5, 0.0)
    for eta in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            achievability_bound(s, 0.1, 0.5, eta)
        with pytest.raises(ValidationError):
            converse_bound(s, 0.9, 0.5, eta)


def test_achievability_rejects_bad_eps():
    s = spectrum_of((0.3, 0.7), 2)
    for eps in (-0.1, 1.0):
        with pytest.raises(ValidationError):
            achievability_bound(s, eps, 0.5, 2)


def test_converse_target_edges():
    s = spectrum_of((0.3, 0.7), 2)
    assert converse_bound(s, 0.0, 0.5, 2) == 0.0
    assert converse_bound(s, -0.3, 0.5, 2) == 0.0
    # A hair over 1 is tolerated (rounding dust from upstream masses)...
    converse_bound(s, 1.0 + 5e-13, 0.5, 2)
    # ...but a real excess is refused.
    with pytest.raises(ValidationError):
        converse_bound(s, 1.001, 0.5, 2)


def test_converse_rejects_nan_target():
    with pytest.raises(ValidationError):
        converse_bound(spectrum_of((0.3, 0.7), 8), math.nan, 0.5, 2)


def _mass_below_loop(s, sel, ln_thresh):
    """Reference: the atom-by-atom sum the vectorised selection mass replaced."""
    parts = []
    for i in range(min(sel.full_atoms + 1, len(s))):
        lp = float(s.log_probs[i])
        count = s.counts[i] if i < sel.full_atoms else sel.boundary_taken
        if lp <= ln_thresh and count:
            parts.append(count_mass(count, lp))
    return math.fsum(parts)


@pytest.mark.parametrize("probs", [(0.3, 0.7), (0.1, 0.9), (0.2, 0.3, 0.5)])
@pytest.mark.parametrize("n", [1, 6, 40])
@pytest.mark.parametrize("target", [0.3, 0.9, 1.0])
def test_selection_mass_below_equals_loop(probs, n, target):
    s = spectrum_of(probs, n)
    sel = top_probability_prefix(s, target)
    lps = s.log_probs.tolist()
    # Thresholds on every atom's level, between levels and past both ends.
    for t in lps + [(a + b) / 2 for a, b in zip(lps, lps[1:])] + [1.0, lps[-1] - 1.0]:
        assert bounds_mod._selection_mass_below(s, sel, t) == _mass_below_loop(s, sel, t)


# ---------------------------------------------------------------------------
# slack schedules
# ---------------------------------------------------------------------------


def test_first_order_slack_is_exponential():
    rule = first_order_slack(0.05, 2)
    assert rule(10) == pytest.approx(2 ** -0.5, rel=1e-15)
    assert rule(40) == pytest.approx(2 ** -2.0, rel=1e-15)


def test_second_order_slack_is_root_exponential():
    rule = second_order_slack(0.5, 2)
    assert rule(16) == pytest.approx(2 ** -2.0, rel=1e-15)
    assert rule(64) == pytest.approx(2 ** -4.0, rel=1e-15)


@pytest.mark.parametrize("gamma", [0.0, -0.1, math.nan])
def test_slack_schedules_reject_bad_exponent(gamma):
    with pytest.raises(ValidationError):
        first_order_slack(gamma, 2)
    with pytest.raises(ValidationError):
        second_order_slack(gamma, 2)


# ---------------------------------------------------------------------------
# BoundReport
# ---------------------------------------------------------------------------


def _report(lower, exact, upper):
    return BoundReport(n=4, eta=3.0, eps=0.1, a_n=0.25, upper=upper, lower=lower,
                       exact_code_overflow=exact, exact_optimal=exact)


def test_report_clamps_for_display_only():
    r = _report(-0.3, 0.4, 1.7)
    assert r.lower == -0.3 and r.upper == 1.7
    assert r.lower_clamped == 0.0
    assert r.upper_clamped == 1.0


def test_sandwich_ok_uses_raw_values():
    assert _report(-0.3, 0.4, 1.7).sandwich_ok
    assert not _report(0.5, 0.4, 1.7).sandwich_ok
    assert not _report(-0.3, 0.4, 0.39).sandwich_ok


# ---------------------------------------------------------------------------
# sandwich_sweep
# ---------------------------------------------------------------------------


def test_sweep_brackets_exact_overflow():
    s = spectrum_of((0.3, 0.7), 20)
    reports = sandwich_sweep(s, 0.1, range(10, 25), first_order_slack(0.02, 2))
    assert len(reports) == 15
    for r in reports:
        assert r.sandwich_ok
        assert r.lower <= r.exact_code_overflow <= r.upper
        assert r.exact_optimal <= r.exact_code_overflow + 1e-12
        # Observed on every grid swept here: the optimum also sits under the
        # upper bound, though only the code overflow is guaranteed to.
        assert r.exact_optimal <= r.upper
        assert r.a_n == pytest.approx(2 ** (-20 * 0.02), rel=1e-15)


def test_sweep_accepts_dispersion_scale_slack():
    s = spectrum_of((0.3, 0.7), 500)
    reports = sandwich_sweep(s, 0.05, [420, 441, 460], second_order_slack(0.05, 2))
    assert all(r.sandwich_ok for r in reports)
    # The bracket actually moves: overflow falls from near 1 to near 0.
    assert reports[0].exact_code_overflow > 0.8
    assert reports[-1].exact_code_overflow < 0.1


def test_sweep_empty_grid_returns_empty():
    s = spectrum_of((0.3, 0.7), 4)
    assert sandwich_sweep(s, 0.1, [], first_order_slack(0.05, 2)) == []


def test_sweep_orders_reports_like_grid():
    s = spectrum_of((0.3, 0.7), 8)
    grid = [7.0, 3.0, 5.0]
    reports = sandwich_sweep(s, 0.1, grid, first_order_slack(0.05, 2))
    assert [r.eta for r in reports] == grid


def test_sweep_check_raises_on_violation(monkeypatch):
    # Force a broken upper bound to confirm the check path trips; the real
    # bounds never violate the sandwich.
    s = spectrum_of((0.3, 0.7), 4)
    monkeypatch.setattr(bounds_mod, "achievability_bound", lambda *a: -1.0)
    with pytest.raises(TheoremViolation):
        bounds_mod.sandwich_sweep(s, 0.1, [2], first_order_slack(0.05, 2))
    reports = bounds_mod.sandwich_sweep(s, 0.1, [2], first_order_slack(0.05, 2),
                                        check=False)
    assert len(reports) == 1 and not reports[0].sandwich_ok


def test_sweep_rejects_bad_slack_rule():
    s = spectrum_of((0.3, 0.7), 4)
    with pytest.raises(ValidationError):
        sandwich_sweep(s, 0.1, [2], lambda n: 0.0)
