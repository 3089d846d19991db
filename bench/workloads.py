"""The benchmark's three workloads, built from a seed, and the output checks.

A workload is one round of operations, repeated until the run's time is up.
The seed draws the values (probabilities, budgets, thresholds, eta grids
and the order of operations); the structure that sets the cost (alphabet
sizes, probability levels, the n schedule and the count of each kind of
operation) is fixed, so a new seed changes the answers but not the work.

Every operation returns a result that ``check`` verifies and ``record``
turns into text for the run's digest.  The checks need no frozen reference
values, so they hold for any seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import overflowlab as ol
import overflowlab.cli  # noqa: F401  (the cli module is not imported by the package)

# The known CLI defect: str() of a count or budget past 4300 decimal digits.
KNOWN_DEFECT = "Exceeds the limit (4300 digits) for integer string conversion"


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]               # the timed call
    check: Callable[[Any], list[str]]    # problems with the result; empty when correct
    record: Callable[[Any], str]         # canonical text of the result, for the digest


@dataclass
class CliResult:
    code: int
    stdout: bytes
    last_err: str    # last line of stderr, or the exception an in-process call raised


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _int_digest(x: int) -> str:
    # Never str() a huge int: that is the 4300-digit limit the CLI trips on.
    return _sha(x.to_bytes((x.bit_length() + 7) // 8 or 1, "little"))


def _mass_tol(n: int, alphabet_size: int) -> float:
    """The tolerance the package documents for |sum of masses - 1|."""
    large = n > 1000 and alphabet_size > 2
    return ol.sources.MASS_TOL_LARGE if large else ol.sources.MASS_TOL


def _non_increasing(values: list[float]) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Checks shared by library and CLI operations


def _spectrum_problems(n: int, counts, masses, support: int, alphabet_size: int) -> list[str]:
    """Total count is |support|^n and the masses sum to 1 within tolerance."""
    problems = []
    if sum(counts) != support ** n:
        problems.append("type counts do not add up to |support|^n")
    dev = abs(math.fsum(masses) - 1.0)
    if dev > _mass_tol(n, alphabet_size):
        problems.append(f"|sum mass - 1| = {dev!r}")
    return problems


def check_spectrum(s, support: int, alphabet_size: int) -> list[str]:
    """Reads the atoms directly so no cached column is filled outside the timed call."""
    return _spectrum_problems(s.n, (a.count for a in s.atoms), (a.mass for a in s.atoms),
                              support, alphabet_size)


def check_threshold(s, t: int, eps: float, delta: float) -> list[str]:
    """t is feasible, delta*(t) <= delta, and minimal, delta*(t-1) > delta."""
    problems = []
    if t < 1:
        return [f"threshold {t} < 1"]
    if ol.optimal_tradeoff(s, t, eps).delta_star > delta:
        problems.append(f"threshold {t} infeasible")
    if t > 1 and ol.optimal_tradeoff(s, t - 1, eps).delta_star <= delta:
        problems.append(f"threshold {t} not minimal")
    return problems


def check_code(code, eps: float, alphabet: int, overflows: list[float]) -> list[str]:
    """Counting condition, error mass within eps, overflow monotone in eta.

    The error mass is a sum of atom masses, each exp(log count + log p);
    at n in the tens of thousands that sum carries rounding of order 1e-12,
    so it is held to eps within the tolerance the package applies to sums
    of atom masses.
    """
    problems = []
    if not ol.validate_counting_condition(code).ok:
        problems.append("counting condition violated")
    if code.error_mass > eps + _mass_tol(code.n, alphabet):
        problems.append(f"error mass {code.error_mass!r} > eps {eps!r}")
    if not _non_increasing(overflows):
        problems.append("code overflow increases along the eta grid")
    return problems


def check_sweep(reports) -> list[str]:
    problems = [f"sandwich broken at eta={r.eta}" for r in reports if not r.sandwich_ok]
    if not _non_increasing([r.exact_optimal for r in reports]):
        problems.append("delta* increases along the eta grid")
    return problems


# ---------------------------------------------------------------------------
# CLI calls


def cli_subprocess(argv: list[str], env: dict) -> CliResult:
    """One fresh ``python -m overflowlab.cli`` process."""
    proc = subprocess.run([sys.executable, "-m", "overflowlab.cli", *argv],
                          env=env, capture_output=True)
    err = proc.stderr.decode("utf-8", "replace")
    code = proc.returncode
    if code == 0 and "Traceback" in err:
        code = 1
    lines = err.strip().splitlines()
    return CliResult(code, proc.stdout, lines[-1] if lines else "")


def cli_in_process(argv: list[str]) -> CliResult:
    """``overflowlab.cli.main(argv)`` in this process, output captured.

    The module attribute is looked up at call time so a traced run sees
    its wrapper.  An escaping exception is what a fresh process would print
    as the last line of its traceback, with exit code 1.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = ol.cli.main(argv)
        except Exception as e:  # noqa: BLE001  (the process boundary a real call has)
            code, last = 1, f"{type(e).__name__}: {e}"
        else:
            lines = err.getvalue().strip().splitlines()
            last = lines[-1] if lines else ""
    return CliResult(code, out.getvalue().encode("utf-8"), last)


def _csv(text: str) -> list[dict[str, str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


@contextmanager
def _no_int_str_limit():
    """Lift Python's limit on int/str conversion while a check parses CLI output.

    The CLI writes counts and budgets as decimal text; once it can write
    ones past 4300 digits, the check must be able to read them back.  The
    limit is restored afterwards, so the calls being measured still run
    under it.
    """
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class CliCheck:
    """Parses one successful command's output and checks the invariants it must show."""

    def __init__(self, command: str, probs: list[float], **kw) -> None:
        self.command = command
        self.probs = probs
        self.kw = kw

    def __call__(self, res: CliResult) -> list[str]:
        try:
            with _no_int_str_limit():
                return getattr(self, "_" + self.command)(res.stdout.decode("utf-8"))
        except (ValueError, KeyError, IndexError) as e:
            return [f"{self.command} output does not parse: {e!r}"]

    def _dist(self):
        return ol.make_distribution(self.probs)

    def _spectrum(self, text):
        rows = _csv(text)
        problems = _spectrum_problems(self.kw["n"], (int(r["count"]) for r in rows),
                                      (float(r["mass"]) for r in rows),
                                      sum(1 for p in self.probs if p > 0), len(self.probs))
        if not _non_increasing([-float(r["rate"]) for r in rows]):
            problems.append("rates not ascending")
        return problems

    def _tradeoff(self, text):
        rows = _csv(text)
        rows.sort(key=lambda r: float(r["eta"]))
        problems = []
        if not _non_increasing([float(r["delta_star"]) for r in rows]):
            problems.append("delta* increases along the eta grid")
        for r in rows:
            if int(r["budget"]) != ol.string_budget(2, math.floor(float(r["eta"]))):
                problems.append(f"budget wrong at eta={r['eta']}")
        return problems

    def _threshold(self, text):
        out = json.loads(text)
        s = ol.iid_spectrum(self._dist(), self.kw["n"])
        return check_threshold(s, out["threshold"], self.kw["eps"], self.kw["delta"])

    def _bounds(self, text):
        rows = _csv(text)
        problems = [f"sandwich broken at eta={r['eta']}" for r in rows
                    if r["sandwich_ok"] != "true"]
        if not _non_increasing([float(r["exact_optimal"]) for r in rows]):
            problems.append("delta* increases along the eta grid")
        return problems

    def _converge(self, text):
        rows = _csv(text)
        problems = []
        if [int(r["n"]) for r in rows] != sorted(self.kw["grid"]):
            problems.append("converge rows do not match the n grid")
        if any(int(r["threshold"]) < 1 for r in rows):
            problems.append("threshold < 1")
        return problems

    def _optimistic(self, text):
        rows = _csv(text)
        problems = []
        if [int(r["n"]) for r in rows] != sorted(self.kw["grid"]):
            problems.append("optimistic rows do not match the n grid")
        if any(r["active_component"] not in ("0", "1") for r in rows):
            problems.append("active component not 0 or 1")
        return problems

    def _asymptotics(self, text):
        out = json.loads(text)
        d = self._dist()
        if out["entropy"] != ol.entropy(d) or out["varentropy"] != ol.varentropy(d):
            return ["entropy or varentropy differs from the library's"]
        return []

    def _simulate(self, text):
        out = json.loads(text)
        problems = []
        if not (0.0 <= out["empirical_error"] <= 1.0 and 0.0 <= out["empirical_overflow"] <= 1.0):
            problems.append("empirical rate outside [0, 1]")
        if out["error_mass"] > self.kw["eps"] + _mass_tol(self.kw["n"], len(self.probs)):
            problems.append(f"error mass {out['error_mass']!r} > eps")
        return problems


def cli_record(res: CliResult) -> str:
    """Record of a call that exited 0; a failed call is recorded by its error."""
    return f"exit 0 {_sha(res.stdout)}"


class Workdir:
    """Config files for CLI calls, under the run's own work directory."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.count = 0

    def config(self, probs: list[float], **extra) -> str:
        lines = [f"probs = {', '.join(repr(p) for p in probs)}"]
        lines += [f"{k} = {v}" for k, v in extra.items()]
        self.count += 1
        path = os.path.join(self.path, f"src{self.count}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return path


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of k equal slices of [lo, hi], shuffled.

    Values that set an operation's cost are drawn this way, so a new seed
    moves each value but keeps their spread, and with it the work.
    """
    width = (hi - lo) / k
    out = [lo + (i + rng.random()) * width for i in range(k)]
    rng.shuffle(out)
    return out


def _binary(rng: random.Random, lo: float, hi: float) -> list[float]:
    p = round(rng.uniform(lo, hi), 4)
    return [p, round(1.0 - p, 4)]


def _cli_op(kind: str, argv: list[str], call, check: CliCheck) -> Op:
    return Op(kind, lambda: call(argv), check, cli_record)


def small_cli_ops(rng: random.Random, work: Workdir, call) -> dict[str, Op]:
    """All eight commands at the sizes of the package's determinism test."""
    probs = _binary(rng, 0.2, 0.4)
    src = work.config(probs)
    sw_a, sw_b = _binary(rng, 0.1, 0.25), _binary(rng, 0.35, 0.45)
    switch = work.config(sw_a, model="switching",
                         probs2=", ".join(repr(p) for p in sw_b))
    eps = round(rng.uniform(0.05, 0.15), 3)
    delta = round(rng.uniform(0.05, 0.15), 3)
    t_grid = sorted(rng.sample(range(3, 11), 4))
    b_grid = sorted(rng.sample(range(12, 21), 3))
    ops = {
        "spectrum": (["--n", "12"], CliCheck("spectrum", probs, n=12)),
        "tradeoff": (["--n", "10", "--eps", str(eps),
                      "--eta-grid", ",".join(map(str, t_grid))],
                     CliCheck("tradeoff", probs)),
        "threshold": (["--n", "50", "--eps", str(eps), "--delta", str(delta)],
                      CliCheck("threshold", probs, n=50, eps=eps, delta=delta)),
        "bounds": (["--n", "20", "--eps", str(eps), "--gamma", "0.02",
                    "--eta-grid", ",".join(map(str, b_grid))],
                   CliCheck("bounds", probs)),
        "converge": (["--eps", str(eps), "--delta", str(delta), "--n-grid", "8,16,32"],
                     CliCheck("converge", probs, grid=[8, 16, 32])),
        "optimistic": (["--eps", str(eps), "--delta", str(delta), "--n-grid", "8,16,32,64"],
                       CliCheck("optimistic", sw_a, grid=[8, 16, 32, 64])),
        "asymptotics": (["--eps", str(eps), "--delta", str(delta), "--rate", "H"],
                        CliCheck("asymptotics", probs)),
        "simulate": (["--n", "8", "--eps", str(eps), "--eta", "8", "--samples", "20000",
                      "--seed", str(rng.randrange(10 ** 6))],
                     CliCheck("simulate", probs, n=8, eps=eps)),
    }
    return {cmd: _cli_op(f"cli.{cmd}",
                         [cmd, "--source", switch if cmd == "optimistic" else src, *args],
                         call, check)
            for cmd, (args, check) in ops.items()}


# ---------------------------------------------------------------------------
# query-binary: shared binary spectra at n in the tens of thousands

QB_N = (10_000, 16_000, 22_000, 28_000)
QB_TRADEOFFS = 8      # optimal_tradeoff points per source
# 37 query groups per source make a round of 198 operations.  The median then
# falls among the n = 22000 queries and the 90th percentile among the
# tradeoffs of about 70 ms, not on the jump between two kinds of operation.
QB_QUERIES = 37
# Scans over the spectrum run to about n*p atoms, so p is kept in a narrow band.
QB_P = (0.108, 0.112)


def query_binary(rng: random.Random) -> list[Op]:
    spectra: dict[int, Any] = {}
    builds, stream = [], []
    for j, n in enumerate(QB_N):
        d = ol.make_distribution(_binary(rng, *QB_P))
        h, v = ol.entropy(d), ol.varentropy(d)
        sd = math.sqrt(n * v)
        eps = rng.uniform(0.01, 0.1)

        def build(d=d, n=n, j=j):
            spectra[j] = ol.iid_spectrum(d, n)
            return spectra[j]
        # The record reads atoms, not cached columns: later operations in the
        # round must still pay for the columns they fill.
        builds.append(Op("build", build, lambda s: check_spectrum(s, 2, 2),
                         lambda s: f"{len(s)} {s.atoms[0].log_prob_per_seq!r} "
                                   f"{math.fsum(a.mass for a in s.atoms)!r}"))

        grid: dict[float, float] = {}

        def check_point(p, grid=grid):
            grid[p.eta] = p.delta_star
            problems = [] if 0.0 <= p.delta_star <= 1.0 else ["delta* outside [0, 1]"]
            if p.budget != ol.string_budget(2, math.floor(p.eta)):
                problems.append("budget is not the string count")
            if not _non_increasing([grid[e] for e in sorted(grid)]):
                problems.append("delta* increases along the eta grid")
            return problems
        for z in _strata(rng, QB_TRADEOFFS, -3, 3):
            eta = n * h + z * sd
            stream.append(Op("tradeoff", lambda j=j, eta=eta, eps=eps:
                             ol.optimal_tradeoff(spectra[j], eta, eps),
                             check_point, lambda p: f"{p.delta_star!r} {_int_digest(p.budget)}"))

        t_eps, t_delta = rng.uniform(0.01, 0.1), rng.uniform(0.01, 0.2)
        stream.append(Op("threshold", lambda j=j, e=t_eps, dl=t_delta:
                         ol.optimal_threshold(spectra[j], e, dl),
                         lambda t, j=j, e=t_eps, dl=t_delta:
                         check_threshold(spectra[j], t, e, dl), str))

        c_etas = sorted(n * h + z * sd for z in _strata(rng, 3, -2, 2))

        def code(j=j, eps=eps, etas=c_etas):
            c = ol.construct_code(spectra[j], eps)
            return c, [ol.code_overflow(c, e) for e in etas]
        stream.append(Op("code", code, lambda r, eps=eps: check_code(r[0], eps, 2, r[1]),
                         lambda r: f"{r[0].error_mass!r} {len(r[0].assignments)} {r[1]!r}"))

        s_etas = sorted(n * h + z * sd for z in _strata(rng, 3, -2, 2))
        gamma = rng.uniform(0.03, 0.06)
        stream.append(Op("sweep", lambda j=j, eps=eps, etas=s_etas, g=gamma:
                         ol.sandwich_sweep(spectra[j], eps, etas,
                                           ol.second_order_slack(g, 2), check=False),
                         check_sweep,
                         lambda rs: repr([(r.lower, r.upper, r.exact_code_overflow,
                                           r.exact_optimal) for r in rs])))

        queries = zip(_strata(rng, QB_QUERIES, -3, 3), _strata(rng, QB_QUERIES, -3, 3),
                      _strata(rng, QB_QUERIES, 0.01, 0.3), _strata(rng, QB_QUERIES, 0.01, 0.1),
                      _strata(rng, QB_QUERIES, 0.01, 0.2))
        for z1, z2, q_gamma, q_eps, q_delta in queries:
            r1 = h + z1 * math.sqrt(v / n)
            r2 = h + z2 * math.sqrt(v / n)

            def query(j=j, r1=r1, r2=r2, g=q_gamma, e=q_eps, dl=q_delta):
                s = spectra[j]
                return (ol.tail_mass(s, r1), ol.smooth_max_entropy(s, g),
                        ol.restricted_tail_inf(s, e, r2), ol.finite_n_first_order(s, e, dl))

            def check_query(r, j=j, n=n, e=q_eps, dl=q_delta):
                tail, hmax, rti, fo = r
                problems = []
                if not 0.0 <= tail <= 1.0:
                    problems.append("tail mass outside [0, 1]")
                if not 0.0 <= hmax <= n * (1 + 1e-12):
                    problems.append("smooth max entropy outside [0, n]")
                if not 0.0 <= rti.value <= 1.0:
                    problems.append("restricted tail infimum outside [0, 1]")
                if ol.tail_mass(spectra[j], fo) > e + dl:
                    problems.append("first-order threshold misses its budget")
                return problems
            stream.append(Op("query", query, check_query, lambda r: repr(
                (r[0], r[1], r[2].value, r[2].set_mass, r[3])) + " " + repr(
                r[2].boundary_split and (r[2].boundary_split[0],
                                         _int_digest(r[2].boundary_split[1])))))

    d = ol.make_distribution(_binary(rng, *QB_P))
    schedule = ol.SwitchingSchedule((ol.make_distribution(_binary(rng, *QB_P)),
                                     ol.make_distribution(_binary(rng, 0.29, 0.31))))
    s_eps, s_delta = rng.uniform(0.02, 0.1), rng.uniform(0.02, 0.1)
    n_grid = [2 ** k for k in range(6, 14)]
    stream.append(Op("study", lambda: ol.convergence_study(d, s_eps, s_delta, n_grid),
                     check_study, record_study))
    stream.append(Op("study", lambda: ol.optimistic_study(schedule, s_eps, s_delta, n_grid),
                     check_study, record_study))
    rng.shuffle(stream)
    return builds + stream


def check_study(report) -> list[str]:
    problems = [f"threshold {x.threshold} < 1 at n={x.n}" for x in report.samples
                if x.threshold < 1]
    if any(x.rate != x.threshold / x.n for x in report.samples):
        problems.append("rate is not threshold / n")
    return problems


def record_study(report) -> str:
    return repr([(x.n, x.threshold) for x in report.samples])


# ---------------------------------------------------------------------------
# enumerate-multi: a fresh multi-symbol spectrum per operation

# A round of 20 operations in tiers of build time (on a 2-vCPU virtual
# machine; all scale together with its speed): seven under 100 ms; five
# copies of one ternary n = 190 build near 230 ms; four between 300 and
# 700 ms; three copies of one mixture at n = 330 near 950 ms; one ternary
# n = 400 build (80,601 type classes) near 1.5 s.  The median (rank 10 of
# 20) falls in the middle of the five copies of one build, and the 90th
# percentile (rank 18) in the middle of the three mixtures, each well away
# from the jump to another kind of operation.
EM_TERNARY_N = (45, 100, 190, 190, 190, 190, 190, 400)
EM_QUATERNARY_N = (30, 35, 55, 60)
EM_MERGING_N = (40, 80)
EM_MIXTURE_N = (220, 330, 330, 330)
EM_SIMULATE_N = (20, 40)
EM_SAMPLES = 2000


def _levels(rng: random.Random, k: int) -> list[float]:
    """k distinct probabilities, none below 0.05."""
    while True:
        raw = [rng.uniform(1.0, 4.0) for _ in range(k)]
        probs = [x / sum(raw) for x in raw]
        if min(probs) > 0.05 and min(abs(a - b) for i, a in enumerate(probs)
                                     for b in probs[i + 1:]) > 0.01:
            return probs


def _merging(rng: random.Random) -> list[float]:
    """4-ary probabilities proportional to (1, x, y, xy): p0 * p3 = p1 * p2,
    so distinct types share a sequence probability and the build merges them."""
    x, y = rng.uniform(1.3, 1.6), rng.uniform(2.0, 2.6)
    raw = [1.0, x, y, x * y]
    return [r / sum(raw) for r in raw]


def enumerate_multi(rng: random.Random) -> list[Op]:
    ops = []

    def build_op(make, support: int, alphabet: int, rate: float) -> Op:
        def run():
            s = make()
            return s, ol.tail_mass(s, rate)
        def check(r):
            problems = check_spectrum(r[0], support, alphabet)
            if not 0.0 <= r[1] <= 1.0 + _mass_tol(r[0].n, alphabet):
                problems.append(f"tail mass {r[1]!r} outside [0, 1]")
            return problems
        return Op("build", run, check,
                  lambda r: f"{len(r[0])} {_sha(r[0].log_probs.tobytes())} "
                            f"{_sha(r[0].masses.tobytes())} {r[1]!r}")

    def iid(probs, n):
        d = ol.make_distribution(probs)
        rate = ol.entropy(d) * rng.uniform(0.9, 1.1)
        return build_op(lambda: ol.iid_spectrum(d, n), len(probs), len(probs), rate)

    for n in EM_TERNARY_N:
        ops.append(iid(_levels(rng, 3), n))
    for n in EM_QUATERNARY_N:
        ops.append(iid(_levels(rng, 4), n))
    for n in EM_MERGING_N:
        ops.append(iid(_merging(rng), n))
    for n in EM_MIXTURE_N:
        d1 = ol.make_distribution(_levels(rng, 3))
        d2 = ol.make_distribution(_levels(rng, 3))
        w1 = rng.uniform(0.2, 0.8)
        rate = ol.entropy(d1) * rng.uniform(0.9, 1.1)
        ops.append(build_op(lambda d1=d1, d2=d2, w1=w1, n=n: ol.mixed_spectrum(d1, d2, w1, n),
                            3, 3, rate))
    for n in EM_SIMULATE_N:
        d = ol.make_distribution(_levels(rng, 3))
        eps = rng.uniform(0.05, 0.2)
        eta = ol.entropy(d) * n * rng.uniform(0.9, 1.1)
        seed = rng.randrange(10 ** 6)

        def simulate(d=d, n=n, eps=eps, eta=eta, seed=seed):
            code = ol.construct_code(ol.iid_spectrum(d, n), eps)
            draws = ol.sample_sequences(d, n, EM_SAMPLES, seed)
            return code, ol.simulate_roundtrip(code, d, draws, eta)

        def check_sim(r, eps=eps):
            problems = check_code(r[0], eps, 3, [])
            if not all(0.0 <= x <= 1.0 for x in r[1]):
                problems.append("empirical rate outside [0, 1]")
            return problems
        ops.append(Op("simulate", simulate, check_sim,
                      lambda r: f"{r[0].error_mass!r} {r[1]!r}"))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli-mix: one fresh CLI process per operation

CLI_SMALL_COPIES = 2      # copies of the eight small commands per round
# Four large thresholds, so the 90th percentile is a middle one of them rather
# than the edge between two kinds of call.
CLI_LARGE_THRESHOLDS = 4
CLI_LARGE_THRESHOLD_N = 12_000
CLI_LARGE_BOUNDS_N = 16_000
CLI_LARGE_TRADEOFF_N = 20_000


def cli_mix(rng: random.Random, work: Workdir, call) -> list[Op]:
    ops = []
    for _ in range(CLI_SMALL_COPIES):
        ops += small_cli_ops(rng, work, call).values()
    # The large-n minority, at the blocklengths the package advertises.
    budgets = zip(_strata(rng, CLI_LARGE_THRESHOLDS, 0.01, 0.1),
                  _strata(rng, CLI_LARGE_THRESHOLDS, 0.01, 0.2))
    for eps, delta in budgets:
        probs = _binary(rng, *QB_P)
        eps, delta = round(eps, 3), round(delta, 3)
        n = CLI_LARGE_THRESHOLD_N
        ops.append(_cli_op("cli.threshold", ["threshold", "--source", work.config(probs),
                                             "--n", str(n), "--eps", str(eps),
                                             "--delta", str(delta)],
                           call, CliCheck("threshold", probs, n=n, eps=eps, delta=delta)))
    probs = _binary(rng, *QB_P)
    d = ol.make_distribution(probs)
    n = CLI_LARGE_BOUNDS_N
    sd = math.sqrt(n * ol.varentropy(d))
    etas = sorted(round(n * ol.entropy(d) + z * sd) for z in _strata(rng, 3, -2, 2))
    ops.append(_cli_op("cli.bounds", ["bounds", "--source", work.config(probs), "--n", str(n),
                                      "--eps", str(round(rng.uniform(0.01, 0.1), 3)),
                                      "--gamma", "0.0005",
                                      "--eta-grid", ",".join(map(str, etas))],
                       call, CliCheck("bounds", probs)))
    # Budgets past 4300 decimal digits (eta > 14284 bits): this call hits the
    # known defect until the CLI writes big integers some other way.  It fails
    # on its first, lower eta, which the slices keep below nH, so its memory
    # does not depend on the seed.
    probs = _binary(rng, 0.29, 0.31)
    d = ol.make_distribution(probs)
    n = CLI_LARGE_TRADEOFF_N
    sd = math.sqrt(n * ol.varentropy(d))
    etas = sorted(round(n * ol.entropy(d) + z * sd) for z in _strata(rng, 2, -2, 2))
    ops.append(_cli_op("cli.tradeoff", ["tradeoff", "--source", work.config(probs),
                                        "--n", str(n),
                                        "--eps", str(round(rng.uniform(0.01, 0.1), 3)),
                                        "--eta-grid", ",".join(map(str, etas))],
                       call, CliCheck("tradeoff", probs)))
    rng.shuffle(ops)
    return ops
