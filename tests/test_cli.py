"""Command line behavior: config parsing, output schemas, exit codes, and
byte-level determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import event, example, given, settings, strategies as st

import overflowlab.cli as cli
from overflowlab import (
    BoundReport,
    NumericError,
    ValidationError,
    convergence_study,
    entropy,
    iid_spectrum,
    make_distribution,
    optimal_threshold,
    optimal_tradeoff,
    string_budget,
)
from overflowlab.cli import main, parse_source_config


@pytest.fixture
def write_config(tmp_path):
    def _write(text, name="source.s"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return _write


@pytest.fixture
def bern03(write_config):
    return write_config("probs = 0.3, 0.7\n")


@pytest.fixture
def switching(write_config):
    return write_config(
        "model = switching\nprobs = 0.2, 0.8\nprobs2 = 0.4, 0.6\n", "switch.s")


def read_csv(path):
    comments, columns, rows = [], None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line[1:].strip())
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, columns, rows


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_config_minimal_iid(bern03):
    cfg = parse_source_config(bern03)
    assert cfg.model == "iid"
    assert cfg.primary.base == 2
    assert list(cfg.primary.probs) == [0.3, 0.7]
    assert cfg.secondary is None and cfg.w1 is None


def test_config_full_mixture(write_config):
    path = write_config(
        "# a two component source\n"
        "model = mixture\n"
        "\n"
        "probs = 0.3, 0.7   # first component\n"
        "probs2 = 0.8, 0.2\n"
        "w1 = 0.25\n"
        "K = 3\n")
    cfg = parse_source_config(path)
    assert cfg.model == "mixture"
    assert cfg.w1 == 0.25
    assert cfg.primary.base == 3
    assert list(cfg.secondary.probs) == [0.8, 0.2]


def test_config_switching(switching):
    cfg = parse_source_config(switching)
    assert cfg.model == "switching"
    assert list(cfg.secondary.probs) == [0.4, 0.6]


def test_config_unknown_key_names_line(write_config):
    path = write_config("probs = 0.3, 0.7\nmodle = iid\n")
    with pytest.raises(ValidationError, match="line 2.*'modle'"):
        parse_source_config(path)


def test_config_duplicate_key_names_line(write_config):
    path = write_config("probs = 0.5, 0.5\n\nprobs = 0.3, 0.7\n")
    with pytest.raises(ValidationError, match="line 3.*duplicate"):
        parse_source_config(path)


def test_config_requires_probs(write_config):
    with pytest.raises(ValidationError, match="probs"):
        parse_source_config(write_config("model = iid\n"))


def test_config_rejects_missing_assignment(write_config):
    with pytest.raises(ValidationError, match="line 1"):
        parse_source_config(write_config("just some words\n"))


def test_config_model_conditional_keys(write_config):
    with pytest.raises(ValidationError, match="probs2"):
        parse_source_config(write_config("probs = 0.3, 0.7\nprobs2 = 0.5, 0.5\n"))
    with pytest.raises(ValidationError, match="w1"):
        parse_source_config(write_config(
            "model = switching\nprobs = 0.3, 0.7\nprobs2 = 0.5, 0.5\nw1 = 0.5\n"))
    with pytest.raises(ValidationError, match="probs2"):
        parse_source_config(write_config("model = mixture\nprobs = 0.3, 0.7\nw1 = 0.5\n"))
    with pytest.raises(ValidationError, match="w1"):
        parse_source_config(write_config(
            "model = mixture\nprobs = 0.3, 0.7\nprobs2 = 0.5, 0.5\n"))


def test_config_value_parse_failures(write_config):
    with pytest.raises(ValidationError, match="'K'"):
        parse_source_config(write_config("probs = 0.5, 0.5\nK = two\n"))
    with pytest.raises(ValidationError, match="cannot parse"):
        parse_source_config(write_config("probs = 0.5, abc\n"))
    with pytest.raises(ValidationError, match="empty entry"):
        parse_source_config(write_config("probs = 0.5,, 0.5\n"))
    with pytest.raises(ValidationError, match="model"):
        parse_source_config(write_config("model = markov\nprobs = 0.5, 0.5\n"))


def test_config_missing_file_is_validation_error(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        parse_source_config(str(tmp_path / "nope.s"))


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_csv_schema(bern03, tmp_path):
    out = str(tmp_path / "atoms.csv")
    assert main(["spectrum", "--source", bern03, "--n", "2", "--out", out]) == 0
    comments, columns, rows = read_csv(out)
    assert columns == ["atom", "rate", "log_prob_per_seq", "count", "mass"]
    assert comments and "n=2" in comments[0]
    assert len(rows) == 3
    s = iid_spectrum(make_distribution([0.3, 0.7]), 2)
    for row, atom in zip(rows, s.atoms):
        assert float(row[1]) == float(s.rates[int(row[0])])
        assert float(row[2]) == atom.log_prob_per_seq
        assert int(row[3]) == atom.count
        assert float(row[4]) == atom.mass


def test_spectrum_json_counts_are_decimal_strings(write_config, tmp_path):
    path = write_config("probs = 0.5, 0.5\n", "uniform.s")
    out = str(tmp_path / "atoms.json")
    assert main(["spectrum", "--source", path, "--n", "60",
                 "--format", "json", "--out", out]) == 0
    payload = json.loads(open(out, encoding="utf-8").read())
    assert len(payload) == 1
    assert payload[0]["count"] == str(2 ** 60)
    assert payload[0]["rate"] == 1.0


# ---------------------------------------------------------------------------
# tradeoff
# ---------------------------------------------------------------------------


def test_tradeoff_csv_round_trips_exactly(bern03, tmp_path):
    out = str(tmp_path / "t.csv")
    assert main(["tradeoff", "--source", bern03, "--n", "4", "--eps", "0.1",
                 "--eta-grid", "1,2,3,4", "--out", out]) == 0
    _, columns, rows = read_csv(out)
    assert columns == ["eta", "eps", "delta_star", "budget"]
    s = iid_spectrum(make_distribution([0.3, 0.7]), 4)
    for row in rows:
        p = optimal_tradeoff(s, float(row[0]), 0.1)
        assert float(row[2]) == p.delta_star  # repr round trip is exact
        assert int(row[3]) == p.budget
        assert float(row[1]) == 0.1


def test_tradeoff_prints_budgets_past_the_int_digit_limit(bern03, tmp_path):
    # 2^15001 - 2 has 4516 decimal digits, past Python's default limit of 4300.
    limit = sys.get_int_max_str_digits()
    out = str(tmp_path / "t.csv")
    assert main(["tradeoff", "--source", bern03, "--n", "20000", "--eps", "0.1",
                 "--eta-grid", "15000", "--out", out]) == 0
    assert sys.get_int_max_str_digits() == limit
    _, _, rows = read_csv(out)
    budget = rows[0][3]
    assert len(budget) == 4516
    sys.set_int_max_str_digits(0)
    try:
        assert int(budget) == string_budget(2, 15000)
    finally:
        sys.set_int_max_str_digits(limit)


def test_tradeoff_empty_grid_writes_header_only(bern03, tmp_path):
    out = str(tmp_path / "t.csv")
    assert main(["tradeoff", "--source", bern03, "--n", "4", "--eps", "0.1",
                 "--eta-grid", "", "--out", out]) == 0
    comments, columns, rows = read_csv(out)
    assert columns == ["eta", "eps", "delta_star", "budget"]
    assert rows == []


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------


def test_threshold_json_payload(bern03, tmp_path):
    out = str(tmp_path / "th.json")
    assert main(["threshold", "--source", bern03, "--n", "10", "--eps", "0.1",
                 "--delta", "0.1", "--out", out]) == 0
    payload = json.loads(open(out, encoding="utf-8").read())
    t = optimal_threshold(iid_spectrum(make_distribution([0.3, 0.7]), 10), 0.1, 0.1)
    assert payload == {"n": 10, "eps": 0.1, "delta": 0.1,
                       "threshold": t, "rate": t / 10}


def test_threshold_csv_variant(bern03, tmp_path):
    out = str(tmp_path / "th.csv")
    assert main(["threshold", "--source", bern03, "--n", "10", "--eps", "0.1",
                 "--delta", "0.1", "--format", "csv", "--out", out]) == 0
    _, columns, rows = read_csv(out)
    assert columns == sorted(["n", "eps", "delta", "threshold", "rate"])
    assert len(rows) == 1


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_csv_schema_and_health(bern03, tmp_path):
    out = str(tmp_path / "b.csv")
    assert main(["bounds", "--source", bern03, "--n", "20", "--eps", "0.1",
                 "--eta-grid", "14,17,20", "--gamma", "0.02", "--out", out]) == 0
    _, columns, rows = read_csv(out)
    assert columns == ["eta", "a_n", "lower", "upper", "exact_code_overflow",
                       "exact_optimal", "sandwich_ok"]
    assert [r[6] for r in rows] == ["true"] * 3
    for r in rows:
        assert float(r[2]) <= float(r[4]) <= float(r[3])


def test_bounds_empty_grid_is_success(bern03, tmp_path):
    out = str(tmp_path / "b.csv")
    assert main(["bounds", "--source", bern03, "--n", "8", "--eps", "0.1",
                 "--eta-grid", "", "--out", out]) == 0
    _, columns, rows = read_csv(out)
    assert rows == []


def test_bounds_violation_exits_3_after_writing(bern03, tmp_path, monkeypatch):
    broken = BoundReport(n=8, eta=3.0, eps=0.1, a_n=0.5, upper=0.1, lower=0.4,
                         exact_code_overflow=0.3, exact_optimal=0.3)
    monkeypatch.setattr(cli, "sandwich_sweep", lambda *a, **k: [broken])
    out = str(tmp_path / "b.csv")
    assert main(["bounds", "--source", bern03, "--n", "8", "--eps", "0.1",
                 "--eta-grid", "3", "--out", out]) == 3
    _, _, rows = read_csv(out)
    assert rows[0][6] == "false"


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def test_converge_csv_carries_aggregates(bern03, tmp_path):
    out = str(tmp_path / "c.csv")
    assert main(["converge", "--source", bern03, "--eps", "0.1", "--delta", "0.1",
                 "--n-grid", "16,64", "--out", out]) == 0
    comments, columns, rows = read_csv(out)
    assert columns == ["n", "threshold", "rate", "first_order_gap", "centered",
                       "limit", "second_order_gap"]
    tagged = dict(c.split("=", 1) for c in comments[1:])
    assert set(tagged) == {"entropy", "varentropy", "limit",
                           "mean_length_rate", "mean_length_const"}
    rep = convergence_study(make_distribution([0.3, 0.7]), 0.1, 0.1, [16, 64])
    assert float(tagged["entropy"]) == rep.entropy
    assert float(tagged["mean_length_const"]) == rep.mean_length_const
    for row, x in zip(rows, rep.samples):
        assert int(row[0]) == x.n
        assert int(row[1]) == x.threshold
        assert float(row[2]) == x.rate
        assert float(row[6]) == x.second_order_gap


def test_converge_json_wraps_samples(bern03, tmp_path):
    out = str(tmp_path / "c.json")
    assert main(["converge", "--source", bern03, "--eps", "0.1", "--delta", "0.1",
                 "--n-grid", "16,32", "--format", "json", "--out", out]) == 0
    payload = json.loads(open(out, encoding="utf-8").read())
    assert set(payload) == {"entropy", "varentropy", "limit", "mean_length_rate",
                            "mean_length_const", "samples"}
    assert [x["n"] for x in payload["samples"]] == [16, 32]


def test_converge_empty_grid_is_invalid(bern03, tmp_path):
    out = str(tmp_path / "c.csv")
    assert main(["converge", "--source", bern03, "--eps", "0.1", "--delta", "0.1",
                 "--n-grid", "", "--out", out]) == 2
    assert not os.path.exists(out)


def test_converge_rejects_non_iid(write_config, switching, tmp_path):
    out = str(tmp_path / "c.csv")
    assert main(["converge", "--source", switching, "--eps", "0.1",
                 "--delta", "0.1", "--n-grid", "8", "--out", out]) == 2
    mix = write_config("model = mixture\nprobs = 0.3, 0.7\nprobs2 = 0.5, 0.5\nw1 = 0.5\n",
                       "mix.s")
    assert main(["converge", "--source", mix, "--eps", "0.1",
                 "--delta", "0.1", "--n-grid", "8", "--out", out]) == 2


# ---------------------------------------------------------------------------
# optimistic
# ---------------------------------------------------------------------------


def test_optimistic_csv_schema(switching, tmp_path):
    out = str(tmp_path / "o.csv")
    assert main(["optimistic", "--source", switching, "--eps", "0.05",
                 "--delta", "0.05", "--n-grid", "16,32,64,128", "--out", out]) == 0
    comments, columns, rows = read_csv(out)
    assert columns == ["n", "active_component", "threshold", "rate"]
    tagged = dict(c.split("=", 1) for c in comments[1:])
    assert set(tagged) == {"component_entropies", "limsup_rate", "liminf_rate"}
    assert float(tagged["limsup_rate"]) >= float(tagged["liminf_rate"])
    assert {r[1] for r in rows} == {"0", "1"}


def test_optimistic_requires_switching(bern03, tmp_path):
    out = str(tmp_path / "o.csv")
    assert main(["optimistic", "--source", bern03, "--eps", "0.05",
                 "--delta", "0.05", "--n-grid", "16", "--out", out]) == 2


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def test_asymptotics_basic_payload(bern03, tmp_path):
    out = str(tmp_path / "a.json")
    assert main(["asymptotics", "--source", bern03, "--eps", "0.1",
                 "--out", out]) == 0
    payload = json.loads(open(out, encoding="utf-8").read())
    assert set(payload) == {"entropy", "varentropy", "eps", "first_order_rate",
                            "mean_length_rate", "mean_length_const"}
    d = make_distribution([0.3, 0.7])
    assert payload["entropy"] == entropy(d)
    assert payload["first_order_rate"] == payload["entropy"]
    assert payload["mean_length_const"] < 0


def test_asymptotics_delta_adds_divergent_centering(bern03, tmp_path):
    out = str(tmp_path / "a.json")
    assert main(["asymptotics", "--source", bern03, "--eps", "0.1",
                 "--delta", "0.1", "--out", out]) == 0
    payload = json.loads(open(out, encoding="utf-8").read())
    # Positive error budget: the mean-length-centered threshold diverges,
    # and infinities serialize as strings.
    assert payload["second_order_at_mean_length"] == "inf"


def test_asymptotics_rate_handling(bern03, tmp_path):
    out = str(tmp_path / "a.json")
    assert main(["asymptotics", "--source", bern03, "--eps", "0.0",
                 "--delta", "0.2", "--rate", "H", "--out", out]) == 0
    payload = json.loads(open(out, encoding="utf-8").read())
    assert payload["rate"] == payload["entropy"]
    assert payload["second_order_threshold"] == pytest.approx(0.4714514545268370,
                                                              rel=1e-12)
    assert main(["asymptotics", "--source", bern03, "--eps", "0.0",
                 "--delta", "0.2", "--rate", "0.5", "--out", out]) == 0
    payload = json.loads(open(out, encoding="utf-8").read())
    assert payload["second_order_threshold"] == "inf"


def test_asymptotics_rate_refusal_band(bern03, tmp_path):
    h = entropy(make_distribution([0.3, 0.7]))
    out = str(tmp_path / "a.json")
    assert main(["asymptotics", "--source", bern03, "--eps", "0.0",
                 "--delta", "0.2", "--rate", repr(h + 1e-10), "--out", out]) == 2


def test_asymptotics_rate_requires_delta(bern03, tmp_path):
    assert main(["asymptotics", "--source", bern03, "--eps", "0.1",
                 "--rate", "H", "--out", str(tmp_path / "a.json")]) == 2


def test_asymptotics_csv_variant(bern03, tmp_path):
    out = str(tmp_path / "a.csv")
    assert main(["asymptotics", "--source", bern03, "--eps", "0.1",
                 "--delta", "0.1", "--format", "csv", "--out", out]) == 0
    _, columns, rows = read_csv(out)
    assert columns == sorted(columns)
    assert rows[0][columns.index("second_order_at_mean_length")] == "inf"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_payload_and_determinism(bern03, tmp_path):
    out1 = str(tmp_path / "s1.json")
    out2 = str(tmp_path / "s2.json")
    argv = ["simulate", "--source", bern03, "--n", "6", "--eps", "0.1",
            "--eta", "6", "--samples", "2000", "--seed", "3"]
    assert main(argv + ["--out", out1]) == 0
    assert main(argv + ["--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    payload = json.loads(open(out1, encoding="utf-8").read())
    assert set(payload) == {"n", "eps", "eta", "samples", "seed",
                            "empirical_error", "empirical_overflow",
                            "error_mass", "exact_overflow"}
    assert 0.0 <= payload["empirical_error"] <= 1.0
    assert abs(payload["empirical_error"] - payload["error_mass"]) < 0.1


def test_simulate_rejects_non_iid(switching, tmp_path):
    assert main(["simulate", "--source", switching, "--n", "4", "--eps", "0.1",
                 "--eta", "4", "--out", str(tmp_path / "s.json")]) == 2


def test_simulate_rejects_empty_sample_budget(bern03, tmp_path):
    assert main(["simulate", "--source", bern03, "--n", "4", "--eps", "0.1",
                 "--eta", "4", "--samples", "0",
                 "--out", str(tmp_path / "s.json")]) == 2


# ---------------------------------------------------------------------------
# shared behavior
# ---------------------------------------------------------------------------


def test_missing_config_exits_2(tmp_path):
    assert main(["spectrum", "--source", str(tmp_path / "missing.s"),
                 "--n", "2", "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("argv", [
    ["threshold", "--n", "50", "--eps", "0.1", "--delta", "nan"],
    ["tradeoff", "--n", "10", "--eps", "0.1", "--eta-grid", "nan"],
    ["tradeoff", "--n", "10", "--eps", "0.1", "--eta-grid", "inf"],
    ["bounds", "--n", "10", "--eps", "0.1", "--eta-grid", "nan"],
    ["bounds", "--n", "10", "--eps", "0.1", "--eta-grid", "inf"],
    ["simulate", "--n", "8", "--eps", "0.1", "--eta", "nan", "--samples", "100"],
    ["simulate", "--n", "8", "--eps", "0.1", "--eta", "inf", "--samples", "100"],
    ["asymptotics", "--eps", "0.1", "--delta", "0.1", "--rate", "nan"],
], ids=["threshold-delta-nan", "tradeoff-eta-nan", "tradeoff-eta-inf", "bounds-eta-nan",
        "bounds-eta-inf", "simulate-eta-nan", "simulate-eta-inf", "asymptotics-rate-nan"])
def test_non_finite_budget_or_threshold_exits_2(argv, bern03, tmp_path, capsys):
    out = tmp_path / "x.out"
    assert main(argv + ["--source", bern03, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_nan_probability_exits_2(write_config, tmp_path, capsys):
    # A NaN entry used to survive make_distribution and fail later as a
    # numeric error (exit 3) in a mixture build.
    path = write_config("model = mixture\nprobs = nan, 0.5\nprobs2 = 0.5, 0.5\nw1 = 0.5\n")
    assert main(["spectrum", "--source", path, "--n", "3",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "error: probs: non-finite entry\n"


def test_negative_seed_exits_2(bern03, tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["simulate", "--source", bern03, "--n", "6", "--eps", "0.1", "--eta", "6",
                 "--samples", "10", "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: seed: must lie in [0, inf), got -1\n"
    assert not out.exists()


def test_out_in_missing_directory_exits_2(bern03, tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["spectrum", "--source", bern03, "--n", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: out: cannot write '{out}': No such file or directory\n"
    assert not out.parent.exists()


def test_out_onto_a_directory_exits_2_and_removes_the_temp_file(bern03, tmp_path):
    out = tmp_path / "taken"
    out.mkdir()
    assert main(["spectrum", "--source", bern03, "--n", "3", "--out", str(out)]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["source.s", "taken"]


def test_numeric_error_exits_3(bern03, tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise NumericError("spectrum mass 0.5 deviates from 1")
    monkeypatch.setattr(cli, "iid_spectrum", broken)
    assert main(["spectrum", "--source", bern03, "--n", "4",
                 "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric check failed: spectrum mass")
    assert "Traceback" not in err


def test_import_does_not_load_scipy():
    probe = ("import sys, overflowlab, overflowlab.cli; "
             "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_type_ceiling_exits_4(write_config, tmp_path):
    path = write_config("probs = 0.2, 0.3, 0.5\n", "ternary.s")
    assert main(["spectrum", "--source", path, "--n", "4000",
                 "--out", str(tmp_path / "x.csv")]) == 4


def test_writes_are_atomic_and_newline_terminated(bern03, tmp_path):
    out = tmp_path / "atoms.csv"
    assert main(["spectrum", "--source", bern03, "--n", "3",
                 "--out", str(out)]) == 0
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    assert leftovers == []
    assert out.read_bytes().endswith(b"\n")


def test_stdout_default_sink(bern03, capsys):
    assert main(["spectrum", "--source", bern03, "--n", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1] == "atom,rate,log_prob_per_seq,count,mass"


def test_repeat_runs_are_byte_identical(bern03, tmp_path):
    pairs = []
    for tag in ("x", "y"):
        out = str(tmp_path / f"atoms-{tag}.csv")
        assert main(["spectrum", "--source", bern03, "--n", "12", "--out", out]) == 0
        pairs.append(open(out, "rb").read())
    assert pairs[0] == pairs[1]


# ---------------------------------------------------------------------------
# fuzzing
# ---------------------------------------------------------------------------

# Values are mostly valid and small, sometimes malformed: blocklengths up to
# 12, thresholds up to 64 and at most four symbols keep every case cheap,
# while NaN, inf, signs, empty lists and text probe the validation.
# True one time in sixteen; hypothesis favours the ends of a range, so the
# rare case sits in the middle.
_RARELY = st.integers(0, 15).map(lambda i: i == 9)


def _mostly(valid, bad):
    """``valid`` fifteen times in sixteen, else ``bad``."""
    return _RARELY.flatmap(lambda rare: bad if rare else valid)


_BAD = st.sampled_from(["nan", "inf", "-inf", "-0.1", "1", "x", ""])
_BUDGET = _mostly(st.floats(0.0, 0.45).map(repr), _BAD)
_ETA = _mostly(st.floats(1.0, 64.0).map(repr), st.sampled_from(["0.5", "nan", "inf", "x"]))


def _grid(values):
    return st.lists(values, max_size=4).map(",".join)


_VALUES = {
    "--n": _mostly(st.integers(1, 12).map(str), st.sampled_from(["0", "-1", "x"])),
    "--eps": _BUDGET,
    "--delta": _BUDGET,
    "--eta": _ETA,
    "--eta-grid": _grid(_ETA),
    "--n-grid": _grid(_mostly(st.integers(1, 16).map(str), st.sampled_from(["0", "x"]))),
    "--gamma": _mostly(st.floats(0.0, 0.5).map(repr), _BAD),
    "--rate": _mostly(st.one_of(st.floats(0.0, 2.0).map(repr), st.just("H")),
                      st.sampled_from(["nan", "x"])),
    "--samples": _mostly(st.integers(1, 40).map(str), st.sampled_from(["0", "-1", "x"])),
    "--seed": _mostly(st.integers(0, 5).map(str), st.just("x")),
    "--format": _mostly(st.sampled_from(["csv", "json"]), st.just("xml")),
}
_COMMANDS = {
    "spectrum": ["--n"],
    "tradeoff": ["--n", "--eps", "--eta-grid"],
    "threshold": ["--n", "--eps", "--delta"],
    "bounds": ["--n", "--eps", "--eta-grid", "--gamma"],
    "converge": ["--eps", "--delta", "--n-grid"],
    "optimistic": ["--eps", "--delta", "--n-grid"],
    "asymptotics": ["--eps", "--delta", "--rate"],
    "simulate": ["--n", "--eps", "--eta", "--samples", "--seed"],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    # Mostly the command's own options, now and then a missing or foreign one.
    for name in _COMMANDS[command] + ["--format"]:
        if not draw(_RARELY):
            argv += [name, draw(_VALUES[name])]
    if draw(_RARELY):
        name = draw(st.sampled_from(sorted(_VALUES)))
        argv += [name, draw(_VALUES[name])]
    return argv


@st.composite
def _probs(draw):
    weights = draw(st.lists(st.sampled_from([1.0, 2.0, 0.5, 0.0, 1.5, 3.0]),
                            min_size=1, max_size=4))
    if sum(weights) == 0.0 or draw(_RARELY):
        return ", ".join(draw(st.sampled_from(["0.5", "nan", "-0.2", "x", ""]))
                         for _ in weights)
    return ", ".join(repr(w / sum(weights)) for w in weights)


@st.composite
def _config_text(draw):
    model = draw(_mostly(st.sampled_from(["iid", "mixture", "switching"]), st.just("other")))
    lines = [f"model = {model}", f"probs = {draw(_probs())}"]
    if model in ("mixture", "switching") or draw(_RARELY):
        lines.append(f"probs2 = {draw(_probs())}")
    if model == "mixture" or draw(_RARELY):
        lines.append(f"w1 = {draw(_mostly(st.floats(0.0, 1.0).map(repr), _BAD))}")
    if draw(st.booleans()):
        lines.append(f"K = {draw(_mostly(st.sampled_from(['2', '3', '4']), st.sampled_from(['1', '0', 'x'])))}")
    if draw(_RARELY):
        lines.append(draw(st.sampled_from(["junk = 1", "no assignment", "probs = 0.5, 0.5"])))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=300, deadline=None)
@given(_argv(), _config_text())
# Found by this test: an unparsable --rate was a ValueError traceback.
@example(["asymptotics", "--eps", "0.1", "--delta", "0.1", "--rate", "x"], "probs = 1.0\n")
def test_cli_fuzz_exits_with_a_named_code(tmp_path_factory, argv, text):
    source = tmp_path_factory.mktemp("fuzz") / "source.s"
    source.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--source", str(source)])
        except SystemExit as e:  # argparse rejects the command line
            code = e.code
    event(f"exit {code}")
    assert code in (0, 2, 3, 4), (argv, text, err.getvalue())
    assert "Traceback" not in err.getvalue()
