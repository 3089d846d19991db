"""Gaussian asymptotics for the overflow threshold, and exact-vs-limit studies.

Rates and entropies are in base-K units per source symbol throughout (K is
the code alphabet size carried by the distribution).  The studies recompute
exact thresholds through the type spectrum at every blocklength in a grid,
so they stay honest to the finite-n machinery rather than sampling it.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple, Sequence

from ._util import ABOVE_ONE, ABOVE_ZERO, check_budgets, check_int, check_range
from .codes import optimal_threshold
from .errors import ValidationError
from .sources import Distribution, Spectrum, SwitchingSchedule, iid_spectrum, switching_spectrum

__all__ = [
    "entropy", "varentropy", "q_upper", "q_upper_inv",
    "second_order_threshold", "mean_length_constants",
    "second_order_at_mean_length",
    "ConvergenceSample", "AsymptoticReport", "convergence_study",
    "OptimisticSample", "OptimisticReport", "optimistic_study",
]


def entropy(d: Distribution) -> float:
    """Shannon entropy of one symbol, in base-K units."""
    nats = -math.fsum(p * math.log(p) for p in d.probs if p > 0.0)
    return nats / math.log(d.base)


def varentropy(d: Distribution) -> float:
    """Variance of the self-information of one symbol, in base-K units squared."""
    h_nats = -math.fsum(p * math.log(p) for p in d.probs if p > 0.0)
    central = math.fsum(p * (math.log(p) + h_nats) ** 2 for p in d.probs if p > 0.0)
    return central / math.log(d.base) ** 2


def q_upper(x: float) -> float:
    """Standard normal upper tail P[Z > x]."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def q_upper_inv(gamma: float) -> float:
    """Inverse of ``q_upper`` on [0, 1]; the endpoints map to +inf and -inf.

    The interior uses the standard library's normal quantile (Wichura's
    AS241), which agrees with a 30-digit reference to about 1e-15 relative.
    """
    check_range("gamma", gamma, 0, ABOVE_ONE, "[0, 1]")
    if gamma == 0.0:
        return math.inf
    if gamma == 1.0:
        return -math.inf
    from statistics import NormalDist  # imported here: it loads fractions and decimal
    return -NormalDist().inv_cdf(gamma)


def second_order_threshold(d: Distribution, rate: float, eps: float,
                           delta: float) -> float:
    """Limit of (threshold(n) - n*rate) / sqrt(n) for the iid source.

    At rate equal to the entropy the limit is sqrt(V) * q_upper_inv(eps+delta);
    above it the centered threshold runs to -inf, below it to +inf.  The
    comparison window around the entropy is 1e-12: rates closer than that are
    treated as exactly critical, since double precision cannot tell them
    apart through the spectrum anyway.
    """
    check_budgets(eps, delta)
    check_range("rate", rate, -math.inf, math.inf)
    h = entropy(d)
    if abs(rate - h) <= 1e-12:
        v = varentropy(d)
        if v == 0.0:
            return 0.0
        return math.sqrt(v) * q_upper_inv(eps + delta)
    return -math.inf if rate > h else math.inf


def mean_length_constants(d: Distribution, eps: float) -> tuple[float, float]:
    """First and second order constants of the minimal mean codeword length.

    The mean length of the best eps-error code grows like
    first * n + second * sqrt(n), with first = (1 - eps) * H and
    second = -sqrt(V / (2*pi)) * exp(-q_upper_inv(eps)^2 / 2).  The second
    constant is strictly negative for eps in (0, 1) whenever V > 0 and tends
    to 0 as eps -> 0 (no error budget, no square-root savings).
    """
    check_range("eps", eps, 0, 1)
    h = entropy(d)
    v = varentropy(d)
    first = (1.0 - eps) * h
    if eps == 0.0 or v == 0.0:
        return first, 0.0
    z = q_upper_inv(eps)
    second = -math.sqrt(v / (2.0 * math.pi)) * math.exp(-z * z / 2.0)
    return first, second


def second_order_at_mean_length(d: Distribution, eps: float, delta: float) -> float:
    """Limit of (threshold(n) - n*(1-eps)*H) / sqrt(n).

    With eps = 0 the mean-length rate coincides with the entropy and the
    limit is the usual sqrt(V) * q_upper_inv(delta).  With any positive eps
    the mean-length rate sits strictly below the entropy, so the centered
    threshold diverges: overflow thresholds track H*n, not the mean.
    """
    check_budgets(eps, delta)
    if eps == 0.0:
        return second_order_threshold(d, entropy(d), eps, delta)
    if entropy(d) == 0.0:
        return 0.0
    return math.inf


class ConvergenceSample(NamedTuple):
    """Exact threshold at one blocklength, with its centered second-order term."""

    n: int
    threshold: int
    rate: float
    centered: float  # (threshold - n * H) / sqrt(n)
    first_order_gap: float  # |rate - H|
    second_order_gap: float  # |centered - limit|, inf when the limit is infinite


class AsymptoticReport(NamedTuple):
    """Exact thresholds along a blocklength grid against the Gaussian limit.

    ``limit`` is the predicted value of the centered threshold at the entropy
    rate; ``mean_length_rate`` and ``mean_length_const`` are the growth
    constants of the minimal mean codeword length under the same error budget.
    """

    eps: float
    delta: float
    entropy: float
    varentropy: float
    limit: float  # sqrt(V) * q_upper_inv(eps + delta)
    mean_length_rate: float  # (1 - eps) * entropy
    mean_length_const: float
    samples: tuple[ConvergenceSample, ...]

    @property
    def first_order_rate(self) -> float:
        """The rate the thresholds converge to per symbol (the entropy)."""
        return self.entropy

    @property
    def final_gap(self) -> float:
        """|centered - limit| at the largest blocklength in the grid."""
        return self.samples[-1].second_order_gap


def _blocklengths(n_grid: Sequence[int]) -> list[int]:
    """The grid's blocklengths in ascending order: integers >= 1, at least one."""
    grid = sorted(check_int("n_grid entry", n, 1) for n in n_grid)
    if not grid:
        raise ValidationError("n_grid: need at least one blocklength")
    return grid


def _thresholds(build: Callable[[int], Spectrum], eps: float, delta: float,
                n_grid: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(n, exact optimal threshold of ``build(n)``) for each blocklength of a
    checked grid, one spectrum at a time."""
    for n in n_grid:
        yield n, optimal_threshold(build(n), eps, delta)


def convergence_study(d: Distribution, eps: float, delta: float,
                      n_grid: Sequence[int]) -> AsymptoticReport:
    """Exact optimal thresholds over ``n_grid`` with their Gaussian comparison."""
    check_budgets(eps, delta)
    n_grid = _blocklengths(n_grid)
    h = entropy(d)
    v = varentropy(d)
    limit = second_order_threshold(d, h, eps, delta)
    ml_rate, ml_const = mean_length_constants(d, eps)
    samples = []
    for n, t in _thresholds(lambda n: iid_spectrum(d, n), eps, delta, n_grid):
        rate = t / n
        centered = (t - n * h) / math.sqrt(n)
        samples.append(ConvergenceSample(
            n=n, threshold=t, rate=rate, centered=centered,
            first_order_gap=abs(rate - h),
            second_order_gap=abs(centered - limit)))
    return AsymptoticReport(eps=eps, delta=delta, entropy=h, varentropy=v,
                            limit=limit, mean_length_rate=ml_rate,
                            mean_length_const=ml_const, samples=tuple(samples))


class OptimisticSample(NamedTuple):
    """Exact threshold at one blocklength of a switching source."""

    n: int
    active_component: int
    threshold: int
    rate: float


class OptimisticReport(NamedTuple):
    """Threshold rates of a switching source along a grid.

    ``limsup_rate`` and ``liminf_rate`` are estimated over the tail of the
    grid; for a genuinely switching source they straddle the two component
    entropies instead of meeting at a single limit.
    """

    eps: float
    delta: float
    component_entropies: tuple[float, float]
    limsup_rate: float
    liminf_rate: float
    samples: tuple[OptimisticSample, ...]


def optimistic_study(schedule: SwitchingSchedule, eps: float, delta: float,
                     n_grid: Sequence[int],
                     tail_fraction: float = 0.5) -> OptimisticReport:
    """Exact thresholds of a switching source, with tail sup/inf rate estimates.

    The grid should contain blocklengths from both phases of the schedule
    (and its tail decides the estimates), otherwise the sup and inf collapse
    onto whichever component the grid happens to sample.
    """
    check_budgets(eps, delta)
    n_grid = _blocklengths(n_grid)
    check_range("tail_fraction", tail_fraction, ABOVE_ZERO, ABOVE_ONE, "(0, 1]")
    samples = [OptimisticSample(n=n, active_component=schedule.active_component(n),
                                threshold=t, rate=t / n)
               for n, t in _thresholds(lambda n: switching_spectrum(schedule, n),
                                       eps, delta, n_grid)]
    tail_start = len(samples) - max(1, math.ceil(len(samples) * tail_fraction))
    tail = samples[tail_start:]
    rates = [x.rate for x in tail]
    return OptimisticReport(
        eps=eps, delta=delta,
        component_entropies=(entropy(schedule.components[0]),
                             entropy(schedule.components[1])),
        limsup_rate=max(rates), liminf_rate=min(rates),
        samples=tuple(samples))
