"""Anatomy of a canonical variable-length code and its overflow tradeoff.

Builds the code that spends an error budget on the lightest sequences,
prints its length table, and walks the exact overflow-vs-threshold curve.
"""

import math

from overflowlab import (
    code_overflow,
    construct_code,
    entropy,
    iid_spectrum,
    make_distribution,
    optimal_threshold,
    optimal_tradeoff,
    string_budget,
    validate_counting_condition,
)

d = make_distribution([0.3, 0.7])
n = 10
s = iid_spectrum(d, n)
eps = 0.1

code = construct_code(s, eps)
print(f"Bernoulli(0.3), n = {n}, error budget {eps}")
print(f"  decoded mass {code.decode_set_mass:.6f}, error mass {code.error_mass:.6f}")
print(f"  {'length':>6}  {'count':>6}  {'per-seq prob':>12}")
for a in code.assignments:
    lp = code.spectrum.log_probs[a.atom]
    print(f"  {a.length:6d}  {a.count:6d}  {math.exp(lp):12.3e}")

report = validate_counting_condition(code)
print(f"  counting condition holds: {report.ok}")
print()

# Overflow probability is a step function of the length threshold. Around
# n*H it drops from near one to near zero within a few strings.
print("exact overflow P[length > eta]:")
for eta in range(4, 13):
    print(f"  eta = {eta:2d}  budget {string_budget(2, eta):5d} strings"
          f"  overflow {code_overflow(code, eta):.6f}")
print()

# The same curve seen from the other side: for each eta, the smallest
# overflow any code with error <= eps can reach.
print("optimal overflow delta*(eta) at eps = 0.1:")
for eta in (6, 7, 8, 9, 10):
    point = optimal_tradeoff(s, eta, eps)
    print(f"  eta = {eta:2d}  delta* = {point.delta_star:.6f}"
          f"  (top {point.budget} sequences kept short)")
print()

t = optimal_threshold(s, 0.1, 0.1)
print(f"smallest eta with delta* <= 0.1: {t}  "
      f"(rate {t / n:.4f} vs entropy {entropy(d):.4f})")
