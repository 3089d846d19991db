"""Finite-blocklength upper and lower bounds on the overflow probability.

Both bounds carry a slack parameter a_n in (0, 1].  The upper bound holds
for the canonical code built by ``construct_code``; the lower bound holds
for every code whose decode set has at least the given mass, so in
particular for the exact optimum.  Evaluation is at sequence granularity
with all probability comparisons done in the log domain.
"""

from __future__ import annotations

import bisect
import math
import operator
from typing import Callable, NamedTuple, Sequence

from ._util import ABOVE_ONE, ABOVE_ZERO, check_range
from .codes import _decode_selection, code_overflow, construct_code, optimal_tradeoff
from .errors import TheoremViolation
from .sources import Spectrum
from .tails import (PrefixSelection, selection_log_mass, selection_mass_from,
                    top_probability_prefix)

__all__ = [
    "BoundReport", "achievability_bound", "converse_bound",
    "first_order_slack", "second_order_slack", "sandwich_sweep",
]


def _selection_mass_below(s: Spectrum, sel: PrefixSelection, ln_thresh: float) -> float:
    """Mass of the selected sequences whose per-sequence log prob is <= ln_thresh:
    the light end of the selection, from the first atom at or below it."""
    first = bisect.bisect_left(s.log_probs, -ln_thresh, key=operator.neg)
    return selection_mass_from(s, sel, first)


def achievability_bound(s: Spectrum, eps: float, a_n: float, eta: float) -> float:
    """Upper bound on the overflow of the canonical eps-error code at eta.

    Value: P[a_n * P(X) / P(A) <= K^(-eta), X in A] + a_n * K, with A the
    smallest top-probability set of mass >= 1 - eps.  May exceed 1; callers
    clamp for display only.
    """
    check_range("eps", eps, 0, 1)
    check_range("a_n", a_n, ABOVE_ZERO, ABOVE_ONE, "(0, 1]")
    check_range("eta", eta, 1, math.inf)
    sel = _decode_selection(s, eps)
    ln_thresh = selection_log_mass(s, sel) - eta * math.log(s.base) - math.log(a_n)
    return _selection_mass_below(s, sel, ln_thresh) + a_n * s.base


def converse_bound(s: Spectrum, decode_mass_target: float, a_n: float,
                   eta: float) -> float:
    """Lower bound on the overflow at eta of any code whose decode set D
    has mass >= decode_mass_target.

    Value: P[P(X) / P(D) <= a_n * K^(-eta), X in D] - a_n * K * P(D), taking
    D as the smallest top-probability set reaching the target mass (the
    least favorable choice).  A nonpositive target leaves D empty and the
    bound trivial at 0.  May be negative; callers clamp for display only.
    """
    check_range("a_n", a_n, ABOVE_ZERO, ABOVE_ONE, "(0, 1]")
    check_range("eta", eta, 1, math.inf)
    # Up to 1e-12 over 1 is rounding dust from upstream masses, not an error.
    check_range("decode_mass_target", decode_mass_target, -math.inf,
                math.nextafter(1.0 + 1e-12, 2.0), "[-inf, 1]")
    if decode_mass_target <= 0.0:
        return 0.0
    sel = top_probability_prefix(s, min(decode_mass_target, 1.0))
    if sel.num_sequences == 0:
        return 0.0
    ln_thresh = selection_log_mass(s, sel) - eta * math.log(s.base) + math.log(a_n)
    return _selection_mass_below(s, sel, ln_thresh) - a_n * s.base * sel.mass


def first_order_slack(gamma: float, base: int) -> Callable[[int], float]:
    """Slack schedule a_n = K^(-n*gamma): exponentially small, for rate-scale sweeps."""
    check_range("gamma", gamma, ABOVE_ZERO, math.inf, "(0, inf)")
    return lambda n: base ** (-n * gamma)


def second_order_slack(gamma: float, base: int) -> Callable[[int], float]:
    """Slack schedule a_n = K^(-sqrt(n)*gamma), for dispersion-scale sweeps."""
    check_range("gamma", gamma, ABOVE_ZERO, math.inf, "(0, inf)")
    return lambda n: base ** (-math.sqrt(n) * gamma)


class BoundReport(NamedTuple):
    """Bounds and exact values for one (eta, eps) pair.

    ``upper`` and ``lower`` are raw bound values (the upper may exceed 1 and
    the lower may go negative when the slack term dominates); the clamped
    properties fold them back into [0, 1] for display.
    """

    n: int
    eta: float
    eps: float
    a_n: float
    upper: float
    lower: float
    exact_code_overflow: float
    exact_optimal: float

    @property
    def upper_clamped(self) -> float:
        return min(1.0, max(0.0, self.upper))

    @property
    def lower_clamped(self) -> float:
        return min(1.0, max(0.0, self.lower))

    @property
    def sandwich_ok(self) -> bool:
        """Raw inequality lower <= code overflow <= upper, no tolerance."""
        return self.lower <= self.exact_code_overflow <= self.upper


def sandwich_sweep(s: Spectrum, eps: float, eta_grid: Sequence[float],
                   a_n_rule: Callable[[int], float],
                   check: bool = True) -> list[BoundReport]:
    """Evaluate both bounds and both exact quantities across ``eta_grid``.

    The canonical code is built once; the converse decode-set target is tied
    to that code's decode mass so both bounds bracket the same object.  With
    ``check`` set, a broken sandwich raises TheoremViolation; with it clear,
    the reports are returned for the caller to inspect.
    """
    code = construct_code(s, eps)
    a_n = a_n_rule(s.n)
    check_range("a_n", a_n, ABOVE_ZERO, ABOVE_ONE, "(0, 1]")
    reports = []
    for eta in eta_grid:
        upper = achievability_bound(s, eps, a_n, eta)
        lower = converse_bound(s, code.decode_set_mass, a_n, eta)
        exact_code = code_overflow(code, eta)
        exact_opt = optimal_tradeoff(s, eta, eps).delta_star
        report = BoundReport(n=s.n, eta=float(eta), eps=eps, a_n=a_n,
                             upper=upper, lower=lower,
                             exact_code_overflow=exact_code,
                             exact_optimal=exact_opt)
        if check and not report.sandwich_ok:
            raise TheoremViolation(
                f"bound sandwich broken at eta={eta}: "
                f"lower={lower!r} exact={exact_code!r} upper={upper!r}")
        reports.append(report)
    return reports
