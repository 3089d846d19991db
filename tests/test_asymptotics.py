"""Gaussian-limit quantities and the exact-vs-limit study drivers.

The scalar pins were computed independently with mpmath at 30 significant
digits and are frozen here as literals.
"""

import math

import pytest

from overflowlab import (
    SwitchingSchedule,
    ValidationError,
    ceil_log2_parity,
    convergence_study,
    entropy,
    iid_spectrum,
    make_distribution,
    mean_length_constants,
    optimal_threshold,
    optimistic_study,
    q_upper,
    q_upper_inv,
    second_order_at_mean_length,
    second_order_threshold,
    varentropy,
)

# mpmath, dps=30
H_03 = 0.88129089923069261822
V_03 = 0.31379107866556464645
H_02 = 0.72192809488736234787
H_045 = 0.99277445398780829365
V_045 = 0.020743985146421671864
QINV_02 = 0.84162123357291420518
QINV_01 = 1.281551565544600467
CRIT_03 = 0.47145145452683704335  # sqrt(V_03) * QINV_02
ML_03_01 = (0.7931618093076233564, -0.098309002382645368891)
ML_03_05 = (0.44064544961534630911, -0.2234757285876083544)


def bern(p):
    return make_distribution([p, 1 - p])


# ---------------------------------------------------------------------------
# entropy / varentropy
# ---------------------------------------------------------------------------


def test_entropy_pins():
    assert entropy(bern(0.3)) == pytest.approx(H_03, rel=1e-13)
    assert entropy(bern(0.2)) == pytest.approx(H_02, rel=1e-13)
    assert entropy(bern(0.45)) == pytest.approx(H_045, rel=1e-13)


def test_varentropy_pins():
    assert varentropy(bern(0.3)) == pytest.approx(V_03, rel=1e-13)
    assert varentropy(bern(0.45)) == pytest.approx(V_045, rel=1e-13)
    # Bernoulli(0.2) has log2(0.8/0.2) = 2 exactly, so V = 0.16 * 4 = 0.64.
    assert varentropy(bern(0.2)) == pytest.approx(0.64, abs=1e-14)


def test_uniform_source_has_zero_varentropy():
    d = make_distribution([0.25] * 4)
    assert entropy(d) == pytest.approx(2.0, abs=1e-14)
    assert varentropy(d) == 0.0
    padded = make_distribution([0.5, 0.5, 0.0])
    assert entropy(padded) == pytest.approx(1.0, abs=1e-14)
    assert varentropy(padded) == 0.0


def test_point_mass_is_degenerate():
    d = make_distribution([1.0])
    assert entropy(d) == 0.0
    assert varentropy(d) == 0.0


def test_entropy_units_follow_code_base():
    d2 = make_distribution([0.3, 0.7], base=2)
    d4 = make_distribution([0.3, 0.7], base=4)
    assert entropy(d4) == pytest.approx(entropy(d2) / 2, rel=1e-14)
    assert varentropy(d4) == pytest.approx(varentropy(d2) / 4, rel=1e-14)


# ---------------------------------------------------------------------------
# q_upper / q_upper_inv
# ---------------------------------------------------------------------------


def test_q_upper_center_and_symmetry():
    assert q_upper(0.0) == 0.5
    for x in (0.3, 1.0, 2.5):
        assert q_upper(-x) == pytest.approx(1.0 - q_upper(x), abs=1e-15)
    assert q_upper(1.0) < q_upper(0.5) < q_upper(0.0)


def test_q_upper_frozen_point():
    # Truncated argument on purpose: the reference value reflects it.
    assert q_upper(1.2815515655) == pytest.approx(0.10000000000782731, rel=1e-12)


def test_q_upper_inv_pins():
    assert q_upper_inv(0.2) == pytest.approx(QINV_02, rel=1e-13)
    assert q_upper_inv(0.1) == pytest.approx(QINV_01, rel=1e-13)
    assert q_upper_inv(0.5) == 0.0


def test_q_upper_inv_endpoints():
    assert q_upper_inv(0.0) == math.inf
    assert q_upper_inv(1.0) == -math.inf


def test_q_upper_round_trip():
    for gamma in (1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 1 - 1e-6):
        assert q_upper(q_upper_inv(gamma)) == pytest.approx(gamma, abs=1e-10)


@pytest.mark.parametrize("gamma", [-0.1, 1.1, math.nan])
def test_q_upper_inv_rejects_outside_unit(gamma):
    with pytest.raises(ValidationError):
        q_upper_inv(gamma)


# ---------------------------------------------------------------------------
# second_order_threshold
# ---------------------------------------------------------------------------


def test_second_order_threshold_critical_pin():
    assert second_order_threshold(bern(0.3), H_03, 0.1, 0.1) == pytest.approx(
        CRIT_03, rel=1e-12)


def test_second_order_threshold_trichotomy():
    d = bern(0.3)
    assert second_order_threshold(d, 0.5, 0.1, 0.1) == math.inf
    assert second_order_threshold(d, 0.95, 0.1, 0.1) == -math.inf


def test_second_order_threshold_window():
    d = bern(0.3)
    h = entropy(d)
    assert math.isfinite(second_order_threshold(d, h + 1e-13, 0.1, 0.1))
    assert second_order_threshold(d, h + 1e-9, 0.1, 0.1) == -math.inf
    assert second_order_threshold(d, h - 1e-9, 0.1, 0.1) == math.inf


def test_second_order_threshold_zero_varentropy():
    d = make_distribution([0.5, 0.5])
    assert second_order_threshold(d, 1.0, 0.1, 0.1) == 0.0


def test_second_order_threshold_rejects_nan_rate():
    with pytest.raises(ValidationError):
        second_order_threshold(bern(0.3), math.nan, 0.1, 0.1)


@pytest.mark.parametrize("eps,delta", [(0.6, 0.4), (-0.1, 0.1), (0.1, -0.1),
                                       (0.1, math.nan), (math.nan, 0.1)])
def test_second_order_threshold_rejects_bad_budgets(eps, delta):
    with pytest.raises(ValidationError):
        second_order_threshold(bern(0.3), 0.9, eps, delta)


# ---------------------------------------------------------------------------
# mean_length_constants
# ---------------------------------------------------------------------------


def test_mean_length_pins():
    first, second = mean_length_constants(bern(0.3), 0.1)
    assert first == pytest.approx(ML_03_01[0], rel=1e-13)
    assert second == pytest.approx(ML_03_01[1], rel=1e-12)
    first, second = mean_length_constants(bern(0.3), 0.5)
    assert first == pytest.approx(ML_03_05[0], rel=1e-13)
    assert second == pytest.approx(ML_03_05[1], rel=1e-12)


def test_mean_length_no_budget_no_savings():
    first, second = mean_length_constants(bern(0.3), 0.0)
    assert first == pytest.approx(H_03, rel=1e-13)
    assert second == 0.0


def test_mean_length_uniform_has_no_dispersion_term():
    first, second = mean_length_constants(make_distribution([0.5, 0.5]), 0.3)
    assert first == pytest.approx(0.7, rel=1e-14)
    assert second == 0.0


def test_mean_length_half_budget_closed_form():
    d = bern(0.3)
    _, second = mean_length_constants(d, 0.5)
    assert second == pytest.approx(-math.sqrt(varentropy(d) / (2 * math.pi)), rel=1e-14)


def test_mean_length_second_constant_negative_and_symmetric():
    d = bern(0.3)
    for k in range(1, 10):
        eps = k / 10
        _, second = mean_length_constants(d, eps)
        assert second < 0
        _, mirror = mean_length_constants(d, 1 - eps)
        assert second == pytest.approx(mirror, rel=1e-12)


@pytest.mark.parametrize("eps", [-0.1, 1.0])
def test_mean_length_rejects_bad_eps(eps):
    with pytest.raises(ValidationError):
        mean_length_constants(bern(0.3), eps)


# ---------------------------------------------------------------------------
# second_order_at_mean_length
# ---------------------------------------------------------------------------


def test_mean_length_centering_zero_eps_pin():
    assert second_order_at_mean_length(bern(0.3), 0.0, 0.2) == pytest.approx(
        CRIT_03, rel=1e-12)


def test_mean_length_centering_diverges_with_budget():
    assert second_order_at_mean_length(bern(0.3), 0.01, 0.1) == math.inf


def test_mean_length_centering_degenerate_cases():
    assert second_order_at_mean_length(make_distribution([0.5, 0.5]), 0.0, 0.1) == 0.0
    assert second_order_at_mean_length(make_distribution([1.0]), 0.3, 0.1) == 0.0


def test_mean_length_centering_rejects_bad_budgets():
    with pytest.raises(ValidationError):
        second_order_at_mean_length(bern(0.3), 0.5, 0.5)


# ---------------------------------------------------------------------------
# convergence_study
# ---------------------------------------------------------------------------


def test_convergence_study_fields_are_consistent():
    d = bern(0.3)
    rep = convergence_study(d, 0.1, 0.1, [400, 9, 100])
    assert [x.n for x in rep.samples] == [9, 100, 400]
    assert rep.entropy == pytest.approx(H_03, rel=1e-13)
    assert rep.varentropy == pytest.approx(V_03, rel=1e-13)
    assert rep.limit == pytest.approx(CRIT_03, rel=1e-12)
    assert rep.first_order_rate == rep.entropy
    assert rep.final_gap == rep.samples[-1].second_order_gap
    first, second = mean_length_constants(d, 0.1)
    assert rep.mean_length_rate == first
    assert rep.mean_length_const == second
    for x in rep.samples:
        s = iid_spectrum(d, x.n)
        assert x.threshold == optimal_threshold(s, 0.1, 0.1)
        assert x.rate == x.threshold / x.n
        assert x.centered == pytest.approx(
            (x.threshold - x.n * rep.entropy) / math.sqrt(x.n), rel=1e-12)
        assert x.first_order_gap == abs(x.rate - rep.entropy)
        assert x.second_order_gap == abs(x.centered - rep.limit)


def test_convergence_study_approaches_entropy_rate():
    rep = convergence_study(bern(0.3), 0.1, 0.1, [25, 100, 400])
    assert rep.samples[-1].first_order_gap < 0.05
    assert rep.samples[-1].first_order_gap < rep.samples[0].first_order_gap


def test_convergence_study_accepts_single_sided_budgets():
    rep = convergence_study(bern(0.3), 0.0, 0.2, [50])
    assert rep.limit == pytest.approx(CRIT_03, rel=1e-12)
    rep = convergence_study(bern(0.3), 0.2, 0.0, [50])
    assert rep.limit == pytest.approx(CRIT_03, rel=1e-12)


def test_convergence_study_validation():
    d = bern(0.3)
    with pytest.raises(ValidationError):
        convergence_study(d, 0.1, 0.1, [])
    with pytest.raises(ValidationError):
        convergence_study(d, 0.1, 0.1, [10, 0])
    with pytest.raises(ValidationError):
        convergence_study(d, 0.7, 0.3, [10])
    with pytest.raises(ValidationError):
        convergence_study(d, 0.1, math.nan, [10])


# ---------------------------------------------------------------------------
# optimistic_study
# ---------------------------------------------------------------------------


def test_optimistic_study_splits_on_real_switching():
    sched = SwitchingSchedule((make_distribution([0.2, 0.8]),
                               make_distribution([0.4, 0.6])))
    rep = optimistic_study(sched, 0.05, 0.05, [2 ** j for j in range(6, 11)])
    assert rep.component_entropies[0] == pytest.approx(H_02, rel=1e-13)
    assert abs(rep.limsup_rate - 0.9709505944546686) < 0.05
    assert abs(rep.liminf_rate - 0.7219280948873623) < 0.05
    assert rep.limsup_rate - rep.liminf_rate > 0.15
    for x in rep.samples:
        assert x.active_component == ceil_log2_parity(x.n)
        assert x.rate == x.threshold / x.n
    assert [x.n for x in rep.samples] == sorted(x.n for x in rep.samples)


def test_optimistic_study_degenerate_schedule_collapses():
    d = bern(0.3)
    rep = optimistic_study(SwitchingSchedule((d, d)), 0.05, 0.05, [32, 64, 128, 256])
    assert rep.limsup_rate - rep.liminf_rate <= 0.05
    assert abs(rep.limsup_rate - H_03) < 0.05
    assert rep.component_entropies[0] == rep.component_entropies[1]


def test_optimistic_study_tail_fraction_controls_window():
    sched = SwitchingSchedule((make_distribution([0.2, 0.8]),
                               make_distribution([0.4, 0.6])))
    rep = optimistic_study(sched, 0.05, 0.05, [64, 128, 256], tail_fraction=0.01)
    assert rep.limsup_rate == rep.liminf_rate == rep.samples[-1].rate
    full = optimistic_study(sched, 0.05, 0.05, [64, 128, 256], tail_fraction=1.0)
    rates = [x.rate for x in full.samples]
    assert full.limsup_rate == max(rates)
    assert full.liminf_rate == min(rates)


def test_optimistic_study_validation():
    sched = SwitchingSchedule((bern(0.3), bern(0.3)))
    with pytest.raises(ValidationError):
        optimistic_study(sched, 0.05, 0.05, [])
    with pytest.raises(ValidationError):
        optimistic_study(sched, 0.05, 0.05, [4, -1])
    with pytest.raises(ValidationError):
        optimistic_study(sched, 0.05, 0.05, [4], tail_fraction=0.0)
    with pytest.raises(ValidationError):
        optimistic_study(sched, 0.05, 0.05, [4], tail_fraction=1.2)
    with pytest.raises(ValidationError):
        optimistic_study(sched, 0.6, 0.4, [4])
