"""Command line front end.

Sources come from plain-text config files (``key = value`` lines, ``#``
comments).  Grid-shaped results default to CSV with a leading unit comment,
scalar results default to JSON; both formats are available everywhere via
--format.  Output is deterministic byte for byte: floats are written with
repr(), JSON keys are sorted, counts are decimal strings, and file writes
go through a temp file and an atomic replace.

Exit codes: 0 success, 2 invalid input, 3 a bound or numeric check failed,
4 a type ceiling was exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import NamedTuple

from ._util import check_range
from .asymptotics import (AsymptoticReport, OptimisticReport, convergence_study,
                          entropy, mean_length_constants, optimistic_study,
                          second_order_at_mean_length, second_order_threshold,
                          varentropy)
from .bounds import first_order_slack, sandwich_sweep
from .codes import construct_code, code_overflow, optimal_threshold, optimal_tradeoff, simulate_roundtrip
from .errors import CeilingExceeded, NumericError, TheoremViolation, ValidationError
from .sources import (Distribution, SwitchingSchedule, iid_spectrum,
                      make_distribution, mixed_spectrum, sample_sequences,
                      switching_spectrum)

__all__ = ["main", "parse_source_config", "SourceConfig"]


# ---------------------------------------------------------------------------
# Source config files


class SourceConfig(NamedTuple):
    """Parsed source description: a model tag plus its distributions."""

    model: str  # "iid" | "mixture" | "switching"
    primary: Distribution
    secondary: Distribution | None
    w1: float | None


_KNOWN_KEYS = {"model", "probs", "probs2", "K", "w1"}


def _parse_prob_list(text: str, key: str) -> list[float]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            raise ValidationError(f"config key '{key}': empty entry in list")
        try:
            out.append(float(piece))
        except ValueError:
            raise ValidationError(f"config key '{key}': cannot parse '{piece}' as a number")
    return out


def parse_source_config(path: str) -> SourceConfig:
    """Read a source description from a key = value text file.

    Keys: ``model`` (iid, mixture, switching; default iid), ``probs``
    (comma separated, required), ``probs2`` (second component, required for
    mixture and switching), ``K`` (code alphabet size, default 2), ``w1``
    (first component weight, required for mixture).  Unknown keys fail fast
    by name.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ValidationError(f"config: cannot read '{path}': {e}")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(f"config line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if key not in _KNOWN_KEYS:
            raise ValidationError(f"config line {lineno}: unknown key '{key}'")
        if key in raw:
            raise ValidationError(f"config line {lineno}: duplicate key '{key}'")
        raw[key] = value

    model = raw.get("model", "iid")
    if model not in ("iid", "mixture", "switching"):
        raise ValidationError(f"config key 'model': expected iid, mixture or switching, got '{model}'")
    if "probs" not in raw:
        raise ValidationError("config: missing required key 'probs'")
    try:
        base = int(raw.get("K", "2"))
    except ValueError:
        raise ValidationError(f"config key 'K': cannot parse '{raw['K']}' as an integer")
    primary = make_distribution(_parse_prob_list(raw["probs"], "probs"), base=base)

    secondary = None
    if model in ("mixture", "switching"):
        if "probs2" not in raw:
            raise ValidationError(f"config: model {model} requires key 'probs2'")
        secondary = make_distribution(_parse_prob_list(raw["probs2"], "probs2"), base=base)
    elif "probs2" in raw:
        raise ValidationError("config key 'probs2': only meaningful for mixture or switching")

    w1 = None
    if model == "mixture":
        if "w1" not in raw:
            raise ValidationError("config: model mixture requires key 'w1'")
        try:
            w1 = float(raw["w1"])
        except ValueError:
            raise ValidationError(f"config key 'w1': cannot parse '{raw['w1']}' as a number")
    elif "w1" in raw:
        raise ValidationError("config key 'w1': only meaningful for mixture")

    return SourceConfig(model=model, primary=primary, secondary=secondary, w1=w1)


def _spectrum_for(cfg: SourceConfig, n: int):
    if cfg.model == "iid":
        return iid_spectrum(cfg.primary, n)
    if cfg.model == "mixture":
        return mixed_spectrum(cfg.primary, cfg.secondary, cfg.w1, n)
    return switching_spectrum(SwitchingSchedule((cfg.primary, cfg.secondary)), n)


# ---------------------------------------------------------------------------
# Deterministic writers


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _jsonable(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return float(value)
    if isinstance(value, int) and abs(value) >= 2 ** 53:
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except OSError as e:
        raise ValidationError(f"out: cannot write '{out}': {e.strerror or e}")
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _write_csv(comments: list[str], columns: list[str], rows: list[list],
               out: str | None) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    _emit("\n".join(lines) + "\n", out)


def _write_json(payload, out: str | None) -> None:
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False)
    _emit(text + "\n", out)


def _write_rows(args, comment: str, columns: list[str], rows: list[list],
                aggregates: dict | None = None) -> None:
    """Grid output: CSV rows by default, JSON rows (plus aggregates) on request.

    Aggregates become extra leading comment lines in CSV and a wrapping
    object in JSON, so both formats carry the whole result.
    """
    if args.format == "json":
        payload = [dict(zip(columns, row)) for row in rows]
        if aggregates is not None:
            payload = dict(aggregates, samples=payload)
        _write_json(payload, args.out)
    else:
        comments = [comment]
        if aggregates is not None:
            comments.extend(f"{k}={_fmt_cell(v)}" for k, v in aggregates.items())
        _write_csv(comments, columns, rows, args.out)


def _write_scalar(args, comment: str, payload: dict) -> None:
    """Scalar output: a JSON object, or on request one CSV row of sorted columns."""
    if args.format == "csv":
        columns = sorted(payload)
        _write_csv([comment], columns, [[_jsonable(payload[k]) for k in columns]], args.out)
    else:
        _write_json(payload, args.out)


# ---------------------------------------------------------------------------
# Commands


def _cmd_spectrum(args) -> int:
    cfg = parse_source_config(args.source)
    s = _spectrum_for(cfg, args.n)
    columns = zip(s.rates.tolist(), s.log_probs.tolist(), s.counts, s.masses.tolist())
    rows = [[i, rate, lp, str(count), mass] for i, (rate, lp, count, mass) in enumerate(columns)]
    comment = (f"n={s.n} base={s.base}; rate: base-{s.base} units per symbol; "
               f"log_prob_per_seq: nats; count: sequences; mass: probability")
    _write_rows(args, comment, ["atom", "rate", "log_prob_per_seq", "count", "mass"], rows)
    return 0


def _cmd_tradeoff(args) -> int:
    cfg = parse_source_config(args.source)
    s = _spectrum_for(cfg, args.n)
    rows = []
    for eta in args.eta_grid:
        p = optimal_tradeoff(s, eta, args.eps)
        rows.append([eta, args.eps, p.delta_star, str(p.budget)])
    comment = (f"n={s.n} base={s.base}; eta: string length; "
               f"delta_star: probability; budget: decodable strings")
    _write_rows(args, comment, ["eta", "eps", "delta_star", "budget"], rows)
    return 0


def _cmd_threshold(args) -> int:
    cfg = parse_source_config(args.source)
    s = _spectrum_for(cfg, args.n)
    t = optimal_threshold(s, args.eps, args.delta)
    payload = {"n": args.n, "eps": args.eps, "delta": args.delta,
               "threshold": t, "rate": t / args.n}
    _write_scalar(args, f"base={s.base}; threshold: string length; "
                        f"rate: base-{s.base} units per symbol", payload)
    return 0


def _cmd_bounds(args) -> int:
    cfg = parse_source_config(args.source)
    s = _spectrum_for(cfg, args.n)
    rule = first_order_slack(args.gamma, s.base)
    reports = sandwich_sweep(s, args.eps, args.eta_grid, rule, check=False)
    rows = [[r.eta, r.a_n, r.lower, r.upper, r.exact_code_overflow,
             r.exact_optimal, r.sandwich_ok] for r in reports]
    comment = (f"n={s.n} base={s.base} eps={args.eps!r} gamma={args.gamma!r}; "
               f"bounds and overflows: probability")
    _write_rows(args, comment,
                ["eta", "a_n", "lower", "upper", "exact_code_overflow",
                 "exact_optimal", "sandwich_ok"], rows)
    broken = [r for r in reports if not r.sandwich_ok]
    if broken:
        raise TheoremViolation(
            f"bound sandwich broken at {len(broken)} of {len(reports)} grid points "
            f"(first at eta={broken[0].eta})")
    return 0


def _cmd_converge(args) -> int:
    cfg = parse_source_config(args.source)
    if cfg.model != "iid":
        raise ValidationError("converge: only iid sources have a single limit; "
                              "use the optimistic command for switching sources")
    report = convergence_study(cfg.primary, args.eps, args.delta, args.n_grid)
    rows = [[x.n, x.threshold, x.rate, x.first_order_gap, x.centered,
             report.limit, x.second_order_gap]
            for x in report.samples]
    comment = (f"base={cfg.primary.base} eps={args.eps!r} delta={args.delta!r}; "
               f"rate: base-{cfg.primary.base} units per symbol; "
               f"centered, limit: same units per sqrt(symbol)")
    aggregates = {"entropy": report.entropy, "varentropy": report.varentropy,
                  "limit": report.limit,
                  "mean_length_rate": report.mean_length_rate,
                  "mean_length_const": report.mean_length_const}
    _write_rows(args, comment,
                ["n", "threshold", "rate", "first_order_gap", "centered",
                 "limit", "second_order_gap"],
                rows, aggregates=aggregates)
    return 0


def _cmd_optimistic(args) -> int:
    cfg = parse_source_config(args.source)
    if cfg.model != "switching":
        raise ValidationError("optimistic: requires a switching source "
                              "(config 'model = switching' with 'probs2')")
    schedule = SwitchingSchedule((cfg.primary, cfg.secondary))
    report = optimistic_study(schedule, args.eps, args.delta, args.n_grid)
    rows = [[x.n, x.active_component, x.threshold, x.rate] for x in report.samples]
    comment = (f"base={cfg.primary.base} eps={args.eps!r} delta={args.delta!r}; "
               f"rate: base-{cfg.primary.base} units per symbol")
    aggregates = {"component_entropies": list(report.component_entropies),
                  "limsup_rate": report.limsup_rate,
                  "liminf_rate": report.liminf_rate}
    _write_rows(args, comment, ["n", "active_component", "threshold", "rate"],
                rows, aggregates=aggregates)
    return 0


def _cmd_asymptotics(args) -> int:
    cfg = parse_source_config(args.source)
    if cfg.model != "iid":
        raise ValidationError("asymptotics: single-letter constants are defined "
                              "for iid sources")
    d = cfg.primary
    h = entropy(d)
    first, second = mean_length_constants(d, args.eps)
    payload = {"entropy": h, "varentropy": varentropy(d), "eps": args.eps,
               "first_order_rate": h,
               "mean_length_rate": first, "mean_length_const": second}
    if args.delta is not None:
        payload["delta"] = args.delta
        payload["second_order_at_mean_length"] = second_order_at_mean_length(
            d, args.eps, args.delta)
        if args.rate is not None:
            if args.rate == "H":
                rate = h
            else:
                rate = args.rate
                gap = abs(rate - h)
                if 1e-12 < gap < 1e-9:
                    raise ValidationError(
                        "rate: within 1e-9 of the entropy but not within 1e-12; "
                        "pass --rate H to evaluate exactly at the critical rate")
            payload["rate"] = rate
            payload["second_order_threshold"] = second_order_threshold(
                d, rate, args.eps, args.delta)
    elif args.rate is not None:
        raise ValidationError("asymptotics: --rate requires --delta")
    _write_scalar(args, "entropy, rates: base-K units per symbol; varentropy: squared units",
                  payload)
    return 0


def _cmd_simulate(args) -> int:
    cfg = parse_source_config(args.source)
    if cfg.model != "iid":
        raise ValidationError("simulate: sampling is implemented for iid sources")
    check_range("samples", args.samples, 1, math.inf)
    d = cfg.primary
    s = iid_spectrum(d, args.n)
    code = construct_code(s, args.eps)
    draws = sample_sequences(d, args.n, args.samples, args.seed)
    emp_err, emp_over = simulate_roundtrip(code, d, draws, args.eta)
    payload = {"n": args.n, "eps": args.eps, "eta": args.eta,
               "samples": args.samples, "seed": args.seed,
               "empirical_error": emp_err, "empirical_overflow": emp_over,
               "error_mass": code.error_mass,
               "exact_overflow": code_overflow(code, args.eta)}
    _write_scalar(args, "error and overflow: probability", payload)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _int_grid(text: str) -> list[int]:
    """Comma separated integers; an empty string is an empty grid."""
    try:
        return [int(p.strip()) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse '{text}' as integers")


def _float_grid(text: str) -> list[float]:
    """Comma separated numbers; an empty string is an empty grid."""
    try:
        return [float(p.strip()) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse '{text}' as numbers")


def _rate(text: str) -> float | str:
    """A number, or the literal H for the entropy."""
    if text == "H":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse '{text}' as a number or H")


def _add_common(sub, *, n=False, eps=False, delta=False, eta_grid=False,
                n_grid=False, default_format="csv"):
    sub.add_argument("--source", required=True, help="path to a source config file")
    if n:
        sub.add_argument("--n", type=int, required=True, help="blocklength (source symbols)")
    if eps:
        sub.add_argument("--eps", type=float, required=True, help="error budget in [0, 1)")
    if delta:
        sub.add_argument("--delta", type=float, required=True, help="overflow budget in [0, 1)")
    if eta_grid:
        sub.add_argument("--eta-grid", type=_float_grid, required=True,
                         help="comma separated length thresholds")
    if n_grid:
        sub.add_argument("--n-grid", type=_int_grid, required=True,
                         help="comma separated blocklengths")
    sub.add_argument("--format", choices=("csv", "json"), default=default_format,
                     help=f"output format (default {default_format})")
    sub.add_argument("--out", default=None, help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overflowlab",
        description="Exact overflow analysis of variable-length codes with an error budget.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("spectrum", help="type spectrum of a source at blocklength n")
    _add_common(p, n=True)
    p.set_defaults(func=_cmd_spectrum)

    p = subs.add_parser("tradeoff", help="exact optimal overflow across a threshold grid")
    _add_common(p, n=True, eps=True, eta_grid=True)
    p.set_defaults(func=_cmd_tradeoff)

    p = subs.add_parser("threshold", help="least threshold meeting an overflow budget")
    _add_common(p, n=True, eps=True, delta=True, default_format="json")
    p.set_defaults(func=_cmd_threshold)

    p = subs.add_parser("bounds", help="bound sandwich around the exact overflow")
    _add_common(p, n=True, eps=True, eta_grid=True)
    p.add_argument("--gamma", type=float, default=0.05,
                   help="slack exponent, a_n = K^(-n*gamma) (default 0.05)")
    p.set_defaults(func=_cmd_bounds)

    p = subs.add_parser("converge", help="exact thresholds against the Gaussian limit")
    _add_common(p, eps=True, delta=True, n_grid=True)
    p.set_defaults(func=_cmd_converge)

    p = subs.add_parser("optimistic", help="threshold rates of a switching source")
    _add_common(p, eps=True, delta=True, n_grid=True)
    p.set_defaults(func=_cmd_optimistic)

    p = subs.add_parser("asymptotics", help="entropy, varentropy and expansion constants")
    _add_common(p, eps=True, default_format="json")
    p.add_argument("--delta", type=float, default=None, help="overflow budget in [0, 1)")
    p.add_argument("--rate", type=_rate, default=None,
                   help="rate for the second order threshold; the literal H "
                        "evaluates at the entropy")
    p.set_defaults(func=_cmd_asymptotics)

    p = subs.add_parser("simulate", help="empirical round trip of the canonical code")
    _add_common(p, n=True, eps=True, default_format="json")
    p.add_argument("--eta", type=float, required=True, help="length threshold, >= 1")
    p.add_argument("--samples", type=int, default=100000,
                   help="number of sampled sequences (default 100000)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact counts and string budgets at n in the tens of thousands have more
    # decimal digits than Python's default int-to-str limit allows.
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TheoremViolation as e:
        print(f"bound violation: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric check failed: {e}", file=sys.stderr)
        return 3
    except CeilingExceeded as e:
        print(f"ceiling exceeded: {e}", file=sys.stderr)
        return 4
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
