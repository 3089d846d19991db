"""Sequence-level reference implementations used to pin the library.

Everything here enumerates explicit sequences with itertools and plain
Python floats (the greedy cover sums in Fractions), so it is small-n only.
The guarded rounding rules (the 1e-9 split guard, the whole-group junk
guard) mirror the library's documented conventions so that decimal knife
edges resolve to the same integer splits on both sides; all of the mass
arithmetic, however, runs through independent code paths (per-sequence
products summed with fsum instead of atom-level log-domain terms).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

GUARD = 1e-9
MERGE_RTOL = 1e-12


def grid_distributions():
    """Every distribution on <= 3 symbols with entries from the 0.1 grid."""
    out = []
    for a in range(1, 10):
        b = 10 - a
        if 1 <= b <= 9:
            out.append((a / 10, b / 10))
    for a in range(1, 9):
        for b in range(1, 9):
            c = 10 - a - b
            if c >= 1:
                out.append((a / 10, b / 10, c / 10))
    return out


def g_ceil(x: float) -> int:
    return max(math.ceil(x - GUARD), 0)


def g_floor(x: float) -> int:
    return max(math.floor(x + GUARD), 0)


def merge_levels(pairs):
    """Merge adjacent (descending) log-prob levels within the relative band."""
    out = []
    for lp, c in pairs:
        if out and abs(out[-1][0] - lp) <= MERGE_RTOL * max(1.0, abs(lp)):
            out[-1] = (out[-1][0], out[-1][1] + c)
        else:
            out.append((lp, c))
    return out


def seq_levels(probs, n):
    """(log prob, count) levels of all length-n sequences, descending."""
    logs = [math.log(p) if p > 0.0 else None for p in probs]
    counts = {}
    for seq in itertools.product(range(len(probs)), repeat=n):
        terms = [logs[s] for s in seq]
        if None in terms:
            continue
        lp = math.fsum(terms)
        counts[lp] = counts.get(lp, 0) + 1
    return merge_levels(sorted(counts.items(), key=lambda t: -t[0]))


def mixture_levels(p1, p2, w1, n):
    """Levels of the two-component mixture source, by direct summation."""
    counts = {}
    for seq in itertools.product(range(len(p1)), repeat=n):
        m1 = 1.0
        m2 = 1.0
        for s in seq:
            m1 *= p1[s]
            m2 *= p2[s]
        total = w1 * m1 + (1.0 - w1) * m2
        if total == 0.0:
            continue
        lp = math.log(total)
        counts[lp] = counts.get(lp, 0) + 1
    return merge_levels(sorted(counts.items(), key=lambda t: -t[0]))


def level_mass(lp: float, count: int) -> float:
    return count * math.exp(lp)


def rate_of(lp: float, n: int, base: int) -> float:
    return -lp / (n * math.log(base))


def _admits(rate: float, threshold: float, strict: bool) -> bool:
    """Rate comparison with an equality band for exact-threshold probes."""
    if abs(rate - threshold) <= 1e-12 * max(1.0, abs(threshold)):
        return not strict
    return rate > threshold


def tail_mass(levels, n, base, threshold, strict):
    """Mass of sequences whose per-symbol rate compares past ``threshold``."""
    return math.fsum(level_mass(lp, c) for lp, c in levels
                     if _admits(rate_of(lp, n, base), threshold, strict))


def top_prefix(levels, target):
    """Greedy cover mirroring the library's exact top-probability prefix.

    Level masses are summed as Fractions, with no band: the first level
    whose exact running mass reaches the target is the boundary, taken whole
    when the target equals that running mass and otherwise split with the
    guarded ceiling.  A target of 1 or more takes every level.

    Returns (per-level taken counts, mass, number of sequences).
    """
    taken = [0] * len(levels)
    if target <= 0.0:
        return taken, 0.0, 0
    goal = Fraction(target)
    cum = Fraction(0)
    seqs = 0
    for i, (lp, c) in enumerate(levels):
        m = Fraction(level_mass(lp, c))
        taken[i] = c
        if target >= 1.0 or cum + m < goal:
            cum += m
            seqs += c
            continue
        if cum + m > goal:
            taken[i] = min(g_ceil(float(goal - cum) / math.exp(lp)), c)
        if taken[i] == c:
            return taken, float(cum + m), seqs + c
        return taken, float(cum + Fraction(taken[i] * math.exp(lp))), seqs + taken[i]
    return taken, float(cum), seqs


def smooth_max(levels, base, gamma):
    _, _, seqs = top_prefix(levels, 1.0 - gamma)
    return math.log(max(seqs, 1)) / math.log(base)


def restricted_tail(levels, n, base, eps, threshold, strict=False):
    """Least tail mass of a set with mass >= 1 - eps; mirrors the greedy cover.

    Returns (value, set mass, boundary split or None) where the split is
    (level index, sequences taken) when a level was partially used.
    """
    tail_idx = [i for i, (lp, c) in enumerate(levels)
                if _admits(rate_of(lp, n, base), threshold, strict)]
    tail = math.fsum(level_mass(*levels[i]) for i in tail_idx)
    free = 1.0 - tail
    if tail <= eps:
        return 0.0, free, None
    sub = [levels[i] for i in tail_idx]
    taken, mass, _ = top_prefix(sub, tail - eps)
    split = None
    for j, k in enumerate(taken):
        if 0 < k < sub[j][1]:
            split = (tail_idx[j], k)
    return mass, free + mass, split


def finite_first_order(levels, n, base, budget):
    """Smallest level rate whose strict upper tail fits the budget."""
    suffixes = []
    acc = 0.0
    for lp, c in reversed(levels):
        suffixes.append(acc)
        acc += level_mass(lp, c)
    suffixes.reverse()  # suffixes[j] = mass strictly after level j
    for j, s in enumerate(suffixes):
        if s <= budget:
            return rate_of(levels[j][0], n, base)
    raise AssertionError("unreachable: the last suffix is 0")


def string_budget(base, floor_eta):
    if floor_eta < 1:
        return 0
    return (base ** (floor_eta + 1) - base) // (base - 1)


def tradeoff(levels, base, eta, eps):
    """Greedy overflow/error tradeoff mirroring the library's construction.

    Returns (delta_star, decodable string budget).
    """
    m_budget = string_budget(base, math.floor(eta))
    total = sum(c for _, c in levels)
    if m_budget >= total:
        return 0.0, m_budget
    taken = [0] * len(levels)
    left_m = m_budget
    b = 0
    for i, (lp, c) in enumerate(levels):
        if left_m >= c:
            taken[i] = c
            left_m -= c
        else:
            taken[i] = left_m
            b = i
            break
    left = eps
    for i in range(b, len(levels)):
        if left <= 0.0:
            break
        lp, c = levels[i]
        avail = c - taken[i]
        if avail <= 0:
            continue
        per = math.exp(lp)
        avail_mass = avail * per
        if avail_mass <= left * (1.0 + GUARD):
            taken[i] += avail
            left = max(left - avail_mass, 0.0)
            continue
        k = min(g_floor(left / per), avail)
        if k > 0:
            taken[i] += k
            left = max(left - k * per, 0.0)
    delta = math.fsum((c - taken[i]) * math.exp(lp)
                      for i, (lp, c) in enumerate(levels) if taken[i] < c)
    return max(delta, 0.0), m_budget


def threshold(levels, base, eps, delta):
    """Least eta >= 1 meeting the overflow budget, by linear scan."""
    eta = 1
    while True:
        d, budget = tradeoff(levels, base, eta, eps)
        if d <= delta:
            return eta
        if budget >= sum(c for _, c in levels):
            raise AssertionError("unreachable: full budget junks nothing")
        eta += 1


def exhaustive_tradeoff(levels, base, eta, eps):
    """True minimum overflow over every junk choice at level granularity.

    Exponential in the number of levels; meant for tiny spectra only.
    """
    m_budget = string_budget(base, math.floor(eta))
    counts = [c for _, c in levels]
    pers = [math.exp(lp) for lp, _ in levels]
    best = math.inf
    for junk in itertools.product(*(range(c + 1) for c in counts)):
        junked = math.fsum(k * p for k, p in zip(junk, pers))
        if junked > eps * (1.0 + GUARD):
            continue
        left_m = m_budget
        decoded = 0.0
        for c, k, p in zip(counts, junk, pers):
            take = min(c - k, left_m)
            decoded += take * p
            left_m -= take
        best = min(best, 1.0 - junked - decoded)
    return max(best, 0.0)


def decode_selection(levels, eps):
    """Decode cover of mass >= 1 - eps, never empty (mirrors the library)."""
    taken, mass, seqs = top_prefix(levels, 1.0 - eps)
    if seqs == 0:
        taken = [0] * len(levels)
        taken[0] = 1
        mass = math.exp(levels[0][0])
    return taken, mass


def achievability(levels, base, eps, a_n, eta):
    """Upper bound: decode-set mass below the ratio threshold plus slack."""
    taken, pa = decode_selection(levels, eps)
    ln_thr = math.log(pa) - eta * math.log(base) - math.log(a_n)
    body = math.fsum(taken[i] * math.exp(lp)
                     for i, (lp, c) in enumerate(levels)
                     if taken[i] and lp <= ln_thr)
    return body + a_n * base


def converse(levels, base, target, a_n, eta):
    """Lower bound evaluated on the top-probability set of mass >= target."""
    if target <= 0.0:
        return 0.0
    taken, mass, _ = top_prefix(levels, target)
    ln_thr = math.log(mass) + math.log(a_n) - eta * math.log(base)
    body = math.fsum(taken[i] * math.exp(lp)
                     for i, (lp, c) in enumerate(levels)
                     if taken[i] and lp <= ln_thr)
    return body - a_n * base * mass


def code_lengths(levels, base, eps):
    """Per-level (taken, codeword length) of the canonical eps-error code."""
    taken, pa = decode_selection(levels, eps)
    ln_pa = math.log(pa)
    ln_base = math.log(base)
    out = []
    for i, (lp, c) in enumerate(levels):
        if taken[i]:
            out.append((i, taken[i], max(1, g_ceil((ln_pa - lp) / ln_base))))
    return out, pa


def code_overflow(levels, base, eps, eta):
    """Overflow mass of the canonical code at threshold eta (junk length 1)."""
    assigns, _ = code_lengths(levels, base, eps)
    over = math.fsum(k * math.exp(levels[i][0])
                     for i, k, length in assigns if length > eta)
    err = 1.0 - math.fsum(k * math.exp(levels[i][0]) for i, k, _ in assigns)
    if 1 > eta:
        over += err
    return over


def _multiset_count(counts, span):
    """Arrangements of a multiset with ``span`` remaining positions."""
    out = math.factorial(span)
    for c in counts:
        if c > 1:
            out //= math.factorial(c)
    return out


def _rank_within_type(seq, counts):
    """Lexicographic rank of ``seq`` among arrangements of its own multiset."""
    remaining = list(counts)
    total = len(seq)
    rank = 0
    for pos, sym in enumerate(seq):
        span = total - pos - 1
        for smaller in range(sym):
            if remaining[smaller] > 0:
                remaining[smaller] -= 1
                rank += _multiset_count(remaining, span)
                remaining[smaller] += 1
        remaining[sym] -= 1
    return rank


def atom_type_groups(log_probs, probs, n, atom):
    """Type signatures whose sequences land in ``atom``, lexicographically sorted.

    Walks every composition of n over the uncollapsed support, sums its log
    probability with fsum and matches it to the nearest atom of the
    descending ``log_probs``.  Returned counts are exact.
    """
    support = [i for i, p in enumerate(probs) if p > 0.0]
    lnp = {i: math.log(probs[i]) for i in support}
    groups = []
    for comp in itertools.product(range(n + 1), repeat=len(support)):
        if sum(comp) != n:
            continue
        lp = math.fsum(k * lnp[sym] for k, sym in zip(comp, support) if k)
        j = min(range(len(log_probs)), key=lambda i: abs(log_probs[i] - lp))
        if j != atom or abs(log_probs[j] - lp) > 1e-9 * max(1.0, abs(lp)):
            continue
        sig = [0] * len(probs)
        for k, sym in zip(comp, support):
            sig[sym] = k
        count = math.factorial(n)
        for k in comp:
            count //= math.factorial(k)
        groups.append((tuple(sig), count))
    groups.sort(key=lambda g: g[0])
    return groups


def rank_within_atom(row, groups):
    """Rank of a sequence inside its atom: signature-major, then arrangement order."""
    sig = tuple(row.count(sym) for sym in range(len(groups[0][0])))
    base = 0
    for g_sig, g_count in groups:
        if g_sig == sig:
            return base + _rank_within_type(row, list(sig))
        base += g_count
    raise ValueError("sample signature not found in its matched atom")
