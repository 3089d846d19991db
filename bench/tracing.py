"""Spans around overflowlab's public functions, and the per-layer metrics.

The package uses ``from .x import y`` throughout, so a function is reachable
under several module namespaces.  ``Tracer.install`` rebinds every one of
them to a wrapper that records a span, which is how, for example, the
``optimal_tradeoff`` evaluations inside ``optimal_threshold`` are counted.
Spans are kept in memory; layer metrics are computed from them at the end.
Nothing in the package's source is edited.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

LAYERS = ("sources", "tails", "codes", "bounds", "asymptotics", "cli")

# Spectrum columns the traced run computes right after each build, so their
# cost is measured in one place instead of inside whichever query comes first.
COLUMNS = ("log_probs", "rates", "masses", "prefix_mass", "suffix_mass",
           "cumulative_counts")

BUILDERS = ("sources.iid_spectrum", "sources.mixed_spectrum")

# Per-layer metric names and units, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "import.overflowlab_self_s": "s",
    "sources.build_calls": "count",
    "sources.build_s": "s",
    "sources.types": "count",
    "sources.atoms": "count",
    "sources.merge_ratio": "1",
    "sources.types_per_s": "1/s",
    "sources.columns_s": "s",
    "tails.calls": "count",
    "tails.self_s": "s",
    "codes.tradeoff_calls": "count",
    "codes.tradeoff_self_s": "s",
    "codes.threshold_calls": "count",
    "codes.threshold_self_s": "s",
    "codes.tradeoff_per_threshold": "count",
    "codes.construct_self_s": "s",
    "codes.simulate_self_s": "s",
    "bounds.sweep_calls": "count",
    "bounds.points": "count",
    "bounds.self_s": "s",
    "asymptotics.study_calls": "count",
    "asymptotics.grid_points": "count",
    "asymptotics.self_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "trace.overhead_ratio": "1",
}


@dataclass
class Span:
    name: str           # "<layer>.<function>", or "op.<kind>" for a whole operation
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    op_id: int
    size: int = 0       # points, grid length or atoms, where the function has one


def _type_classes(args) -> int:
    """C(n+g-1, g-1) for a build call, g the number of distinct probability levels."""
    if len(args) == 2:                      # iid_spectrum(d, n)
        d, n = args
        g = len({float(p) for p in d.probs if p > 0.0})
    else:                                   # mixed_spectrum(d1, d2, w1, n)
        d1, d2, _, n = args
        g = len({(float(a), float(b)) for a, b in zip(d1.probs, d2.probs)
                 if a > 0.0 or b > 0.0})
    return math.comb(n + g - 1, g - 1)


class Tracer:
    """Records one span per call of a wrapped function, single-threaded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.types = 0          # type classes the traced builds enumerated
        self._stack: list[int] = []
        self._op_id = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx].end = time.perf_counter()

    def op(self, op_id: int, kind: str, fn):
        """Run ``fn`` as operation ``op_id``, under a root span."""
        self._op_id = op_id
        idx = self._open(f"op.{kind}")
        try:
            return fn()
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:     # untraced round, set-up or an output check
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name in BUILDERS:
                self.spans[idx].size = len(out)
                self.types += _type_classes(args)
                col = self._open("sources.columns")
                for attr in COLUMNS:
                    getattr(out, attr)
                self._close(col)
            elif name == "bounds.sandwich_sweep":
                self.spans[idx].size = len(out)
            elif name in ("asymptotics.convergence_study", "asymptotics.optimistic_study"):
                self.spans[idx].size = len(out.samples)
            return out
        return traced

    def install(self) -> None:
        """Rebind each public function of the six layers wherever the package holds it."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"overflowlab.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "overflowlab" or name.startswith("overflowlab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def write(self, path) -> None:
        """All spans as JSON lines: name, start, end, parent span index, operation id."""
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op_id}) + "\n")

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out


def layer_metrics(tracer: Tracer, bytes_out: int) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics from the recorded spans, and the self time of each layer."""
    spans = tracer.spans
    own = tracer.self_times()
    count: dict[str, int] = {}
    self_s: dict[str, float] = {}
    size: dict[str, int] = {}
    layer_s: dict[str, float] = {}
    for s, t in zip(spans, own):
        count[s.name] = count.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + t
        size[s.name] = size.get(s.name, 0) + s.size
        layer = s.name.split(".", 1)[0]
        layer_s[layer] = layer_s.get(layer, 0.0) + t

    def n(name):
        return count.get(name, 0)

    def t(*names):
        return sum(self_s.get(x, 0.0) for x in names)

    in_threshold = sum(1 for s in spans if s.name == "codes.optimal_tradeoff"
                       and s.parent is not None
                       and spans[s.parent].name == "codes.optimal_threshold")
    build_s = t(*BUILDERS, "sources.switching_spectrum")
    types = tracer.types
    atoms = size.get("sources.iid_spectrum", 0) + size.get("sources.mixed_spectrum", 0)
    studies = ("asymptotics.convergence_study", "asymptotics.optimistic_study")
    return {
        "sources.build_calls": n("sources.iid_spectrum") + n("sources.mixed_spectrum"),
        "sources.build_s": build_s,
        "sources.types": types,
        "sources.atoms": atoms,
        "sources.merge_ratio": atoms / types if types else 0.0,
        "sources.types_per_s": types / build_s if build_s else 0.0,
        "sources.columns_s": t("sources.columns"),
        "tails.calls": sum(v for k, v in count.items() if k.startswith("tails.")),
        "tails.self_s": layer_s.get("tails", 0.0),
        "codes.tradeoff_calls": n("codes.optimal_tradeoff"),
        "codes.tradeoff_self_s": t("codes.optimal_tradeoff"),
        "codes.threshold_calls": n("codes.optimal_threshold"),
        "codes.threshold_self_s": t("codes.optimal_threshold"),
        "codes.tradeoff_per_threshold": (in_threshold / n("codes.optimal_threshold")
                                         if n("codes.optimal_threshold") else 0.0),
        "codes.construct_self_s": t("codes.construct_code"),
        "codes.simulate_self_s": t("codes.simulate_roundtrip"),
        "bounds.sweep_calls": n("bounds.sandwich_sweep"),
        "bounds.points": size.get("bounds.sandwich_sweep", 0),
        "bounds.self_s": layer_s.get("bounds", 0.0),
        "asymptotics.study_calls": sum(n(x) for x in studies),
        "asymptotics.grid_points": sum(size.get(x, 0) for x in studies),
        "asymptotics.self_s": layer_s.get("asymptotics", 0.0),
        "cli.calls": n("cli.main"),
        "cli.self_s": layer_s.get("cli", 0.0),
        "cli.bytes_out": bytes_out,
    }, layer_s


def import_times(env: dict, probes: int) -> dict[str, float]:
    """Medians over fresh ``python -X importtime -c 'import overflowlab'`` runs."""
    samples: dict[str, list[float]] = {"import.total_s": [], "import.scipy_s": [],
                                       "import.numpy_s": [], "import.overflowlab_self_s": []}
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import overflowlab"],
                              env=env, capture_output=True, text=True, check=True)
        total = 0.0
        own = {"scipy": 0.0, "numpy": 0.0, "overflowlab": 0.0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            top = name.strip().split(".", 1)[0]
            if top in own:
                own[top] += int(self_us) / 1e6
            if name.strip() == "overflowlab":
                total = int(cum_us) / 1e6
        samples["import.total_s"].append(total)
        samples["import.scipy_s"].append(own["scipy"])
        samples["import.numpy_s"].append(own["numpy"])
        samples["import.overflowlab_self_s"].append(own["overflowlab"])
    return {k: statistics.median(v) for k, v in samples.items()}
