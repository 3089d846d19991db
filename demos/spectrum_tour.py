"""Tour of probability spectra: how sequence probabilities clump into atoms."""

import numpy as np

from overflowlab import (
    entropy,
    iid_spectrum,
    make_distribution,
    mixed_spectrum,
    tail_mass,
)

d = make_distribution([0.3, 0.7])
s = iid_spectrum(d, 8)

print("Bernoulli(0.3), n = 8")
print(f"  atoms: {len(s)}   sequences: {s.total_count}")
print(f"  {'rate':>8}  {'count':>6}  {'mass':>10}")
for rate, count, mass in zip(s.rates, s.counts, s.masses):
    print(f"  {rate:8.4f}  {count:6d}  {mass:10.6f}")
print(f"  total mass {sum(s.masses):.12f}")
print()

# A uniform source has a single atom no matter the blocklength: every
# sequence is equally likely, so the whole spectrum collapses.
u = make_distribution([0.25, 0.25, 0.25, 0.25])
su = iid_spectrum(u, 12)
print(f"uniform 4-ary, n = 12: {len(su)} atom, "
      f"count {su.counts[0]}, rate {su.rates[0]:.4f} bits/symbol")
print()

# Tail masses at a few rates. The strict and loose tails only differ when
# the rate lands exactly on an atom.
print("tail masses for Bernoulli(0.3), n = 8")
h = entropy(d)
for rate in (0.6, h, 1.0, 1.4):
    print(f"  P[rate > {rate:.4f}] = {tail_mass(s, rate):.6f}")
print()

# Mixing two sources produces the union of their atom sets, each weighted.
m = mixed_spectrum(make_distribution([0.2, 0.8]),
                   make_distribution([0.4, 0.6]), 0.5, 6)
print(f"equal mixture of Bernoulli(0.2) and Bernoulli(0.4), n = 6: "
      f"{len(m)} atoms")
print("  rates:", np.array2string(np.asarray(m.rates), precision=3))
