"""Draw data, encode it, decode it, and compare the empirical rates to the
exact ones the spectrum predicts."""

import math

from overflowlab import (
    code_overflow,
    construct_code,
    iid_spectrum,
    make_distribution,
    sample_sequences,
    simulate_roundtrip,
)

d = make_distribution([0.3, 0.7])
n = 12
eps = 0.1
eta = 11
samples = 200_000

s = iid_spectrum(d, n)
code = construct_code(s, eps)
seqs = sample_sequences(d, n, samples, seed=20240817)
err_rate, over_rate = simulate_roundtrip(code, d, seqs, eta)

exact_err = code.error_mass
exact_over = code_overflow(code, eta)

def band(p):
    return 3 * math.sqrt(max(p * (1 - p), 1e-12) / samples)

print(f"Bernoulli(0.3), n = {n}, eps = {eps}, eta = {eta}, "
      f"{samples} drawn sequences")
print()
print(f"{'':12}  {'empirical':>10}  {'exact':>10}  {'3 sigma':>9}")
print(f"{'error':12}  {err_rate:10.6f}  {exact_err:10.6f}  {band(exact_err):9.6f}")
print(f"{'overflow':12}  {over_rate:10.6f}  {exact_over:10.6f}  {band(exact_over):9.6f}")
print()
ok_err = abs(err_rate - exact_err) <= band(exact_err)
ok_over = abs(over_rate - exact_over) <= band(exact_over)
print(f"within 3 sigma: error {ok_err}, overflow {ok_over}")

# The decoder is exact: every sequence that was assigned a codeword comes
# back unchanged, so the only losses are the deliberately junked ones.
print()
print("junked sequences are the lightest ones; everything else round-trips.")
