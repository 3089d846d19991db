"""Read-only stdlib columns, immutable classes and tuple records, and a package
that never imports numpy, dataclasses or statistics at import time."""

import ast
import copy
import os
import pathlib
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import overflowlab
from overflowlab import (Distribution, SwitchingSchedule, code_overflow, construct_code,
                         convergence_study, first_order_slack, iid_spectrum, make_distribution,
                         mixed_spectrum, optimal_tradeoff, optimistic_study,
                         restricted_tail_inf, sample_sequences, sandwich_sweep,
                         top_probability_prefix, validate_counting_condition)
from overflowlab.cli import SourceConfig

SRC = pathlib.Path(overflowlab.__file__).resolve().parent


def _columns_spectra():
    return (iid_spectrum(make_distribution([0.2, 0.3, 0.5]), 12),
            mixed_spectrum(make_distribution([0.2, 0.8]), make_distribution([0.4, 0.6]), 0.3, 9))


def _columns():
    s, m = _columns_spectra()
    c = construct_code(s, 0.1)
    return {"log_probs": s.log_probs, "masses": s.masses, "rates": s.rates,
            "prefix_mass": s.prefix_mass, "suffix_mass": s.suffix_mass,
            "mixture log_probs": m.log_probs, "mixture masses": m.masses,
            "lengths": c.lengths}


@pytest.mark.parametrize("name", list(_columns()))
def test_columns_are_read_only_eight_byte_views(name):
    col = _columns()[name]
    assert isinstance(col, memoryview) and col.readonly and col.itemsize == 8
    with pytest.raises(TypeError):
        col[0] = col[0]
    with pytest.raises(TypeError):
        col[0:1] = col[0:1]
    arr = np.asarray(col)
    assert arr.dtype == (np.int64 if name == "lengths" else np.float64)
    assert not arr.flags.writeable
    assert col.tobytes() == arr.tobytes()
    assert col.tolist() == arr.tolist()
    assert np.shares_memory(arr, np.frombuffer(col, dtype=arr.dtype))
    assert col[1:3].tolist() == arr[1:3].tolist()


def test_distribution_probs_are_a_float_tuple():
    d = make_distribution(np.array([0.25, 0.75], dtype=np.float32))
    assert type(d.probs) is tuple and all(type(p) is float for p in d.probs)
    with pytest.raises(TypeError):
        d.probs[0] = 0.5


def _fresh_python(code, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_loads_no_numpy(tmp_path):
    assert _fresh_python("""
        import sys
        import overflowlab, overflowlab.cli
        print("numpy" in sys.modules)
    """, tmp_path) == ["False"]


def _write_sources(tmp_path):
    (tmp_path / "iid.cfg").write_text("probs = 0.3, 0.7\n")
    (tmp_path / "switch.cfg").write_text("model = switching\nprobs = 0.2, 0.8\nprobs2 = 0.4, 0.6\n")


def test_cli_commands_load_no_numpy(tmp_path):
    # All eight commands run in process through cli.main, simulate included;
    # numpy is still unloaded after the last.
    _write_sources(tmp_path)
    out = _fresh_python("""
        import contextlib, io, sys
        from overflowlab.cli import main
        runs = [
            ["spectrum", "--source", "iid.cfg", "--n", "12"],
            ["threshold", "--source", "iid.cfg", "--n", "50", "--eps", "0.1", "--delta", "0.1"],
            ["tradeoff", "--source", "iid.cfg", "--n", "10", "--eps", "0.1", "--eta-grid", "3,5,8"],
            ["bounds", "--source", "iid.cfg", "--n", "20", "--eps", "0.1", "--gamma", "0.02",
             "--eta-grid", "12,15,18"],
            ["converge", "--source", "iid.cfg", "--eps", "0.1", "--delta", "0.1",
             "--n-grid", "8,16,32"],
            ["optimistic", "--source", "switch.cfg", "--eps", "0.1", "--delta", "0.1",
             "--n-grid", "8,16,32,64"],
            ["asymptotics", "--source", "iid.cfg", "--eps", "0.1", "--delta", "0.1",
             "--rate", "H"],
            ["simulate", "--source", "iid.cfg", "--n", "8", "--eps", "0.1", "--eta", "8",
             "--samples", "100"],
        ]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
        print(len(runs), "numpy" in sys.modules)
    """, tmp_path)
    assert out == ["8", "False"]


def test_sampling_and_simulate_run_with_numpy_unimportable(tmp_path):
    _write_sources(tmp_path)
    out = _fresh_python("""
        import contextlib, io, sys
        sys.modules["numpy"] = None  # any import of numpy now raises ImportError
        from overflowlab import make_distribution, sample_sequences
        from overflowlab.cli import main
        draws = sample_sequences(make_distribution([0.2, 0.3, 0.5]), 5, 7, seed=1)
        print(draws.shape == (7, 5))
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["simulate", "--source", "iid.cfg", "--n", "8", "--eps", "0.1",
                         "--eta", "8", "--samples", "100"])
        print(code)
    """, tmp_path)
    assert out == ["True", "0"]


def test_draws_for_a_seed_are_the_same_in_a_fresh_interpreter(tmp_path):
    d = make_distribution([0.2, 0.0, 0.3, 0.5])
    draws = sample_sequences(d, 9, 40, seed=12345)
    assert draws.readonly and draws.format == "q" and draws.shape == (40, 9)
    out = _fresh_python("""
        from overflowlab import make_distribution, sample_sequences
        draws = sample_sequences(make_distribution([0.2, 0.0, 0.3, 0.5]), 9, 40, seed=12345)
        print(draws.tobytes().hex())
    """, tmp_path)
    assert out == [draws.tobytes().hex()]
    assert 1 not in draws.cast("B").cast("q").tolist()


def test_no_module_imports_numpy():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize("probs, n, eps", [((0.3, 0.7), 200, 0.1), ((0.2, 0.3, 0.5), 30, 0.05),
                                           ((0.11, 0.89), 2000, 0.3), ((0.5, 0.5), 9, 0.0)])
def test_canonical_overflow_searches_the_length_rule_like_the_column(probs, n, eps):
    # A fresh canonical code answers overflow queries from its length rule;
    # once its column is built, from the column: the two agree everywhere.
    s = iid_spectrum(make_distribution(list(probs)), n)
    lazy, built = construct_code(s, eps), construct_code(s, eps)
    lengths = built.lengths.tolist()
    etas = sorted({1.0, *map(float, lengths), *(x + 0.5 for x in lengths), lengths[-1] + 7.0})
    assert [code_overflow(lazy, eta) for eta in etas] == [code_overflow(built, eta) for eta in etas]
    assert lazy.lengths.tolist() == lengths


@pytest.mark.parametrize("copy_of", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy,
                                     copy.copy], ids=["pickle", "deepcopy", "copy"])
def test_spectra_and_codes_survive_pickle_and_copy(copy_of):
    for s in _columns_spectra():
        c = construct_code(s, 0.1)
        s2, c2 = copy_of(s), copy_of(c)
        assert (s2.n, s2.base, s2.counts) == (s.n, s.base, s.counts)
        for name in ("log_probs", "masses", "rates"):
            assert getattr(s2, name).tobytes() == getattr(s, name).tobytes()
        assert c2.lengths.readonly and c2.lengths.tobytes() == c.lengths.tobytes()
        assert (c2.selection, c2.error_mass) == (c.selection, c.error_mass)
        assert c2.spectrum.masses.tobytes() == s.masses.tobytes()
        etas = [1.0, *(x + 0.5 for x in c.lengths.tolist())]
        assert [code_overflow(c2, e) for e in etas] == [code_overflow(c, e) for e in etas]


def test_import_loads_no_dataclasses_statistics_or_inspect(tmp_path):
    # The records are NamedTuples and the validated classes plain classes, so
    # the import path needs neither dataclasses (which loads inspect) nor
    # statistics (which loads fractions and decimal); q_upper_inv imports
    # statistics on its first call and still gives the same quantile.
    out = _fresh_python("""
        import sys
        before = set(sys.modules)
        import overflowlab, overflowlab.cli
        loaded = {"dataclasses", "statistics", "inspect"} & (set(sys.modules) - before)
        print(",".join(sorted(loaded)) or "none", repr(overflowlab.q_upper_inv(0.1)))
    """, tmp_path)
    assert out == ["none", "1.2815515655446008"]


def _imports(tree):
    """(module name, inside a function body) of every import in a module."""
    nested = {id(node) for func in ast.walk(tree)
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(func)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        for name in names:
            yield name.split(".")[0], id(node) in nested


def test_no_module_imports_dataclasses_and_statistics_only_in_a_function():
    found = {(path.name, name, nested) for path in sorted(SRC.glob("*.py"))
             for name, nested in _imports(ast.parse(path.read_text(encoding="utf-8")))
             if name in ("dataclasses", "statistics")}
    assert found == {("asymptotics.py", "statistics", True)}


def _frozen_instances():
    d = make_distribution([0.3, 0.7])
    s = iid_spectrum(d, 10)
    return {"distribution": d, "schedule": SwitchingSchedule((d, d)), "spectrum": s,
            "code": construct_code(s, 0.1)}


@pytest.mark.parametrize("name", list(_frozen_instances()))
def test_validated_classes_refuse_setting_and_deleting(name):
    obj = _frozen_instances()[name]
    for attr in ("base", "n", "probs", "lengths", "spectrum", "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(obj, attr, 3)
        with pytest.raises(AttributeError):
            delattr(obj, attr)


def test_distributions_and_schedules_compare_and_hash_by_value():
    d, e = make_distribution([0.3, 0.7]), Distribution((0.3, 0.7), 2)
    assert d == e and hash(d) == hash(e) and len({d, e}) == 1
    assert d != Distribution((0.3, 0.7), 3) and d != make_distribution([0.7, 0.3])
    assert d != ((0.3, 0.7), 2)
    assert repr(d) == "Distribution(probs=(0.3, 0.7), base=2)"
    f = make_distribution([0.4, 0.6])
    a, b = SwitchingSchedule((d, f)), SwitchingSchedule([e, f])
    assert a == b and hash(a) == hash(b) and b.components == (d, f)
    assert a != SwitchingSchedule((f, d)) and a != SwitchingSchedule((d, f), rule=lambda n: 0)
    assert repr(a).startswith(f"SwitchingSchedule(components={(d, f)!r}, rule=<function")
    for x in (d, a):
        assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x


def test_spectra_and_codes_compare_by_identity():
    d = make_distribution([0.3, 0.7])
    s, t = iid_spectrum(d, 10), iid_spectrum(d, 10)
    c = construct_code(s, 0.1)
    assert s == s and s != t and hash(s) == object.__hash__(s)
    assert c == c and c != construct_code(s, 0.1) and hash(c) == object.__hash__(c)
    assert copy.deepcopy(s) != s and copy.deepcopy(c) != c


def _records():
    d = make_distribution([0.3, 0.7])
    s = iid_spectrum(d, 10)
    code = construct_code(s, 0.1)
    study = convergence_study(d, 0.1, 0.1, [8, 16])
    switching = optimistic_study(SwitchingSchedule((d, d)), 0.1, 0.1, [8, 16])
    return [study, study.samples[0], switching, switching.samples[0],
            sandwich_sweep(s, 0.1, [6.0], first_order_slack(0.05, 2))[0],
            SourceConfig("iid", d, None, None), code.assignments[0],
            validate_counting_condition(code), optimal_tradeoff(s, 5, 0.1),
            top_probability_prefix(s, 0.5), restricted_tail_inf(s, 0.1, 0.9)]


def test_records_are_tuples_that_pickle_and_copy():
    records = _records()
    assert len({type(r) for r in records}) == 11
    for r in records:
        assert isinstance(r, tuple) and r == tuple(r)
        for back in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
            assert type(back) is type(r) and back == r
        with pytest.raises(AttributeError):
            setattr(r, r._fields[0], None)
