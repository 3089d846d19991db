"""Seeded benchmark for overflowlab.

    python3 bench/run.py --workload query-binary --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One process runs one workload as a closed loop: each
operation starts when the previous one has finished, and ``cli-mix`` runs one
CLI process at a time.  Whole rounds of operations repeat until about
``--seconds`` of operation time has been measured; output checks run between
operations, outside the timed calls.

The host this is run on is shared, and its speed drifts by up to 2x over
tens of seconds.  So the run pins itself and its CLI children to one CPU,
and between operations it times a fixed pure-Python reference loop that
does not touch overflowlab.  Every operation and set-up time that enters an
end-to-end metric is scaled by ``REF_NOMINAL_S`` over the reference time
measured around it: the metrics read as on a host where the reference loop
takes ``REF_NOMINAL_S``.  The unscaled wall-time figures are printed beside
them.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced rounds with rounds that record spans around the
package's public functions, and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Workload ``all`` runs the three workloads one after another
and prints a table of each.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 7      # fresh interpreters timed for setup_s
IMPORTTIME_PROBES = 3

REF_NOMINAL_S = 0.010  # reference loop time the scaled metrics are expressed at
REF_EVERY_S = 0.2      # operation time between two reference samples

WORKLOADS = ("query-binary", "enumerate-multi", "cli-mix")

E2E_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "pass_ratio": "1", "peak_rss_mb": "MiB"}


def _reference_loop() -> int:
    """Fixed interpreter work: int, float and big-int arithmetic.

    It allocates no containers, so it never triggers the garbage collector
    and its time does not depend on the heap the workload has built.
    """
    x, f, b = 0, 1.0, 1
    for i in range(50_000):
        x = (x + i * i) % 1_000_003
        f = f * 0.999999 + 0.5
        if not i & 63:
            b = (b * 0x9E3779B97F4A7C15F39CC0605CEDC835) % (1 << 1024)
    return x + int(f) + (b & 1)


class HostReference:
    """Samples of the reference loop's time, taken between operations."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        _reference_loop()
        self.times.append(time.perf_counter() - t0)

    def scale(self, k: int) -> float:
        """Factor for work done between samples k and k + 1: the nominal
        time over the median of samples k - 1 to k + 2, two on each side."""
        return REF_NOMINAL_S / statistics.median(self.times[max(0, k - 1):k + 3])


@dataclass
class Measured:
    """What one measured stretch of rounds produced."""

    latencies: list[float] = field(default_factory=list)   # seconds, inf when failed
    durations: list[float] = field(default_factory=list)   # seconds, failed or not
    ref: HostReference = field(default_factory=HostReference)
    ref_at: list[int] = field(default_factory=list)        # last reference sample before each op
    times: list[list[float]] = field(default_factory=list)  # per operation, untraced rounds
    traced_times: list[list[float]] = field(default_factory=list)  # same, traced rounds
    timed_s: float = 0.0
    rounds: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)      # make the run incorrect
    defect_failures: int = 0
    bytes_out: int = 0                                      # CLI standard output
    digest: str = ""

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def passed(self) -> int:
        return sum(1 for x in self.latencies if x != math.inf)

    @property
    def ops_per_s(self) -> float:
        """Passing operations over the wall time of the timed calls."""
        return self.passed / self.timed_s

    @property
    def scaled(self) -> list[float]:
        """Every operation's time at the nominal host speed."""
        return [dt * self.ref.scale(k) for dt, k in zip(self.durations, self.ref_at)]

    @property
    def scaled_latencies(self) -> list[float]:
        return [s if x != math.inf else x for s, x in zip(self.scaled, self.latencies)]

    @property
    def scaled_ops_per_s(self) -> float:
        """Passing operations over the scaled time of all timed calls."""
        return self.passed / sum(self.scaled)


def measure(ops, seconds: float, workloads, tracer=None) -> Measured:
    """Run whole rounds of ``ops`` until about ``seconds`` of operation time.

    A round starts only while the run, finished with one more round of
    average length, would end nearer ``seconds`` than it does now.  Each
    result is checked after its timed call; from the second round on it
    must also equal the first round's result.

    With a tracer, rounds run untraced, traced, traced, untraced and so on,
    so neither side always runs first; there are at least two rounds, and
    only the traced ones record spans.

    The reference loop is sampled before the first operation, after each
    ``REF_EVERY_S`` of operation time, and after the last operation, each
    time outside the timed calls; ``m.scaled`` holds every operation's
    time scaled by the samples around it.
    """
    m = Measured(times=[[] for _ in ops], traced_times=[[] for _ in ops])
    first: list[str] = []
    m.ref.sample()
    since_ref = 0.0
    while True:
        traced = tracer is not None and m.rounds % 4 in (1, 2)
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                res = (tracer.op(m.rounds * len(ops) + i, op.kind, op.run) if traced
                       else op.run())
                err = None
            except Exception as e:  # noqa: BLE001  (an operation's failure is recorded, not fatal)
                err = f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
            m.timed_s += dt
            m.durations.append(dt)
            m.ref_at.append(len(m.ref.times) - 1)
            (m.traced_times if traced else m.times)[i].append(dt)
            if err is None and isinstance(res, workloads.CliResult):
                m.bytes_out += len(res.stdout)
                if res.code != 0:
                    err = f"exit {res.code}: {res.last_err}"
            if err is not None:
                rec, found = f"error {err}", []
            else:
                rec, found = op.record(res), op.check(res)
            res = None    # free the result before the next operation runs
            if m.rounds == 0:
                first.append(rec)
            elif rec != first[i]:
                found.append(f"result differs from round 1: {rec[:80]!r}")
            failed = err is not None or bool(found)
            m.latencies.append(math.inf if failed else dt)
            since_ref += dt
            if since_ref >= REF_EVERY_S:
                m.ref.sample()
                since_ref = 0.0
            if not failed:
                continue
            m.failed += 1
            if err is not None and workloads.KNOWN_DEFECT in err and not found:
                m.defect_failures += 1
            else:
                m.problems.append(f"{op.kind}: {err or '; '.join(found)}")
        m.rounds += 1
        if (m.timed_s * (1 + 0.5 / m.rounds) >= seconds
                and (tracer is None or m.rounds >= 2)):
            break
    m.ref.sample()
    m.digest = hashlib.sha256("\n".join(first).encode()).hexdigest()[:16]
    return m


def pin_to_one_cpu() -> None:
    """Keep this process and the processes it starts on one CPU.

    The CPUs of a shared host change speed independently of each other, so
    the reference samples only describe the operations run on the same CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_times(env: dict, probes: int) -> tuple[list[float], list[float]]:
    """Fresh interpreter start until ``import overflowlab`` returns, per probe:
    the wall times, and the same scaled by reference samples taken between
    the probes.

    The probe reports the monotonic clock right after the import; the clock
    is system-wide, so it compares with the moment before the spawn here.
    """
    code = "import time, overflowlab; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    ref = HostReference()
    ref.sample()
    out = []
    for _ in range(probes):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        out.append(float(proc.stdout) - t0)
        ref.sample()
    return out, [dt * ref.scale(k) for k, dt in enumerate(out)]


def build_ops(workloads, name: str, seed: int, work, in_process: bool, env: dict):
    rng = random.Random(seed)
    if name == "query-binary":
        return workloads.query_binary(rng)
    if name == "enumerate-multi":
        return workloads.enumerate_multi(rng)
    call = workloads.cli_in_process if in_process else (
        lambda argv: workloads.cli_subprocess(argv, env))
    return workloads.cli_mix(rng, work, call)


def show(name: str, value: float, unit: str, note: str) -> None:
    print(f"  {name:<30} {value:>14.6g} {unit:<6} {note}")


def report_run(m: Measured) -> None:
    print(f"  rounds {m.rounds}, operations {m.attempted}, failed {m.failed} "
          f"(known 4300-digit defect: {m.defect_failures}), digest {m.digest}")
    for p in m.problems[:10]:
        print(f"  problem: {p}")


def plain_run(workloads, args, env, work) -> tuple[dict, Measured]:
    ops = build_ops(workloads, args.workload, args.seed, work, False, env)
    m = measure(ops, args.seconds, workloads)
    setup, setup_scaled = setup_times(env, SETUP_PROBES)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-mix" else resource.RUSAGE_SELF
    lat = m.scaled_latencies
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "ops_per_s": m.scaled_ops_per_s,
        "op_p50_ms": percentile(lat, 0.5) * 1e3,
        "op_p90_ms": percentile(lat, 0.9) * 1e3,
        "pass_ratio": (m.attempted - m.failed) / m.attempted,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    beyond = sum(1 for x in lat if x > percentile(lat, 0.9))
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters; wall "
                   f"{statistics.median(setup):.4g} s",
        "ops_per_s": f"{m.passed} passing ops, {m.rounds} rounds; wall {m.timed_s:.2f} s, "
                     f"{m.ops_per_s:.4g} ops/s; scaled {sum(m.scaled):.2f} s, "
                     f"{m.scaled_ops_per_s:.4g} ops/s",
        "op_p50_ms": f"{m.attempted} samples; wall {percentile(m.latencies, 0.5) * 1e3:.4g} ms, "
                     f"scaled {percentile(m.scaled_latencies, 0.5) * 1e3:.4g} ms",
        "op_p90_ms": f"{m.attempted} samples, {beyond} beyond; wall "
                     f"{percentile(m.latencies, 0.9) * 1e3:.4g} ms, scaled "
                     f"{percentile(m.scaled_latencies, 0.9) * 1e3:.4g} ms",
        "pass_ratio": f"fail_ratio {m.failed / m.attempted:.4g} = {m.failed}/{m.attempted}",
        "peak_rss_mb": "largest CLI child" if args.workload == "cli-mix" else "this process",
    }
    print(f"workload {args.workload}  seed {args.seed}  end-to-end; times scaled to a "
          f"reference loop of {REF_NOMINAL_S * 1e3:g} ms "
          f"(here {statistics.median(m.ref.times) * 1e3:.3g} ms in the median)")
    report_run(m)
    for k, v in metrics.items():
        show(k, v, E2E_UNITS[k], notes[k])
    return metrics, m


def traced_run(workloads, tracing, args, env, work) -> tuple[dict, Measured]:
    """Alternating untraced and traced rounds; ``cli-mix`` first runs one
    round of CLI processes, to split a real call's latency, and then calls
    ``overflowlab.cli.main`` in process."""
    seconds, plain = args.seconds, None
    if args.workload == "cli-mix":
        plain = measure(build_ops(workloads, args.workload, args.seed, work, False, env),
                        0, workloads)
        seconds -= plain.timed_s
    tracer = tracing.Tracer()
    tracer.install()
    m = measure(build_ops(workloads, args.workload, args.seed, work, True, env),
                seconds, workloads, tracer)
    tracer.write(ROOT / ".bench_spans" / f"{args.workload}-seed{args.seed}.jsonl")
    metrics, layer_s = tracing.layer_metrics(tracer, m.bytes_out)
    metrics.update(tracing.import_times(env, IMPORTTIME_PROBES))

    def op_time(times):
        return sum(statistics.median(t) for t in times)
    metrics["trace.overhead_ratio"] = op_time(m.times) / op_time(m.traced_times)
    metrics = {k: metrics[k] for k in tracing.PER_LAYER_UNITS}

    print(f"workload {args.workload}  seed {args.seed}  traced")
    report_run(m)
    op_s = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    print(f"  self time by layer, share of {op_s:.3f} s of traced operations:")
    for layer, t in sorted(layer_s.items(), key=lambda kv: -kv[1]):
        print(f"    {layer + '.*':<16} {t:9.3f} s  {t / op_s:6.1%}")
    if plain is not None:
        print("  one round of CLI processes, untraced:")
        report_run(plain)
        if plain.digest != m.digest:
            m.problems.append("in-process CLI results differ from the CLI processes'")
        per_call = plain.timed_s / plain.attempted
        calls = max(1, metrics["cli.calls"])
        parts = {"import": metrics["import.total_s"],
                 "cli self": metrics["cli.self_s"] / calls,
                 "library": sum(t for k, t in layer_s.items()
                                if k in tracing.LAYERS and k != "cli") / calls}
        parts["interpreter and rest"] = per_call - sum(parts.values())
        print(f"  untraced CLI call, mean {per_call:.3f} s: " + ", ".join(
            f"{k} {t:.4f} s ({t / per_call:.1%})" for k, t in parts.items()))
        m.failed += plain.failed
        m.latencies += plain.latencies
        m.problems += plain.problems
    for k, v in metrics.items():
        show(k, v, tracing.PER_LAYER_UNITS[k], "")
    return metrics, m


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "overflowlab" / "__init__.py").is_file():
        print(f"error: no overflowlab package under {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    import tracing
    import workloads
    if Path(workloads.ol.__file__).resolve().parent != SRC / "overflowlab":
        print(f"error: imported overflowlab from {workloads.ol.__file__}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, m = traced_run(workloads, tracing, args, env, workloads.Workdir(str(work)))
            units = tracing.PER_LAYER_UNITS
        else:
            metrics, m = plain_run(workloads, args, env, workloads.Workdir(str(work)))
            units = E2E_UNITS
    finally:
        shutil.rmtree(work)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    print(json.dumps({
        "correct": not m.problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
