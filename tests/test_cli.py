"""Config parsing, CSV plumbing, and end-to-end runs of the experiment driver."""

import contextlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import csv_cell, sample_linear_banded
import qfiwb.cli as cli
from qfiwb.cli import (
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_PASS,
    EXIT_VIOLATION,
    EXPERIMENTS,
    THREADS_ENV,
    ConfigError,
    ExperimentResult,
    _coerce,
    _interval,
    _state_qfis,
    build_config,
    describe_domain,
    in_domain,
    main,
    parse_config_text,
    write_csv,
)
from qfiwb.hamiltonians import LinearHamiltonian, SingleSiteOperator, from_spec_text
from qfiwb.numerics import Rng, random_hermitian
from qfiwb.qfi import qfi
from qfiwb.states import dicke_basis, sample_haar, sample_symmetric


def cfg_file(tmp_path: Path, text: str, name: str = "run.cfg") -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- config parsing -----------------------------------------------------------

def test_parse_config_text():
    raw = parse_config_text(
        "# full-line comment\n"
        "\n"
        "n = 4   # trailing comment\n"
        "family = linear\n"
    )
    assert raw == {"n": "4", "family": "linear"}


def test_parse_config_text_rejects_malformed_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text("n = 1\nn = 2\n")
    with pytest.raises(ConfigError, match="empty key or value"):
        parse_config_text("n =\n")


def test_build_config_defaults_and_unknown_keys():
    fields = {"n": ("int", 3, "[1, inf)"), "tol": ("float", 1e-9, "[0, 1]")}
    cfg = build_config("demo", fields, {"n": "5"})
    assert cfg == {"n": 5, "tol": 1e-9}
    with pytest.raises(ConfigError, match="known keys: n, tol"):
        build_config("demo", fields, {"m": "5"})
    with pytest.raises(ConfigError, match=r"config key 'tol': -1.0 is outside \[0, 1\]"):
        build_config("demo", fields, {"tol": "-1"})


def test_coerce_typed_values():
    assert _coerce("int", "12", "k") == 12
    assert _coerce("float", "1e3", "k") == 1000.0
    assert _coerce("str", "ring", "k") == "ring"
    with pytest.raises(ConfigError):
        _coerce("int", "12.5", "k")
    with pytest.raises(ConfigError):
        _coerce("float", "nan", "k")
    with pytest.raises(ConfigError):
        _coerce("float", "inf", "k")


# --- CSV plumbing -------------------------------------------------------------

def test_cell_formats():
    # the per-cell reference that the columnar writer is checked against
    assert csv_cell(True) == "true"
    assert csv_cell(np.bool_(False)) == "false"
    assert csv_cell(7) == "7"
    assert csv_cell(np.int64(-3)) == "-3"
    assert csv_cell(0.1) == format(0.1, ".17g")
    assert csv_cell(np.float64(2.0)) == "2"
    assert csv_cell("ring") == "ring"
    with pytest.raises(ArithmeticError):
        csv_cell(math.nan)
    with pytest.raises(ArithmeticError):
        csv_cell(math.inf)
    with pytest.raises(ValueError):
        csv_cell("a,b")
    with pytest.raises(ValueError):
        csv_cell("a\nb")
    with pytest.raises(TypeError):
        csv_cell([1])


def test_write_csv(tmp_path: Path):
    path = tmp_path / "out.csv"
    assert write_csv(path, {"a": np.array([1, 2]), "b": np.array([True, False]), "c": "x"}) == 2
    assert path.read_text() == "a,b,c\n1,true,x\n2,false,x\n"
    # all scalars make one row; a Python int of any size is written whole
    assert write_csv(path, {"a": 1.5, "seed": 2**70}) == 1
    assert path.read_text() == "a,seed\n1.5,1180591620717411303424\n"
    assert write_csv(path, {"a": np.array([], dtype=np.int64), "b": 1.0}) == 0
    assert path.read_text() == "a,b\n"


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072e-308, 1e308, -1e308, 0.1]),
)
_STRS = st.text(st.characters(blacklist_characters=",\n", blacklist_categories=("Cs",)))
# dtype of an array column -> its values
_ARRAY_VALUES = {
    np.float64: _FLOATS,
    np.int64: st.integers(min_value=-(2**63), max_value=2**63 - 1),
    np.bool_: st.booleans(),
    str: _STRS,
}
_SCALARS = st.one_of(
    _FLOATS, _FLOATS.map(np.float64),
    st.integers(min_value=-(2**70), max_value=2**70), st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(), st.booleans().map(np.bool_),
    _STRS,
)


@st.composite
def _csv_columns(draw):
    """One to four float, int, bool or str columns: arrays of one length from 0 to 6, or scalars."""
    count = draw(st.integers(min_value=0, max_value=6))
    columns = {}
    for j in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            dtype = draw(st.sampled_from(list(_ARRAY_VALUES)))
            values = draw(st.lists(_ARRAY_VALUES[dtype], min_size=count, max_size=count))
            columns[f"c{j}"] = np.array(values, dtype=dtype)
        else:
            columns[f"c{j}"] = draw(_SCALARS)
    return columns


def _reference_csv(columns: dict) -> bytes:
    """The CSV bytes of `columns`, cell by cell through the per-cell reference."""
    arrays = [c for c in columns.values() if isinstance(c, np.ndarray)]
    rows = len(arrays[0]) if arrays else 1
    lines = [",".join(columns)] + [
        ",".join(csv_cell(c[i] if isinstance(c, np.ndarray) else c) for c in columns.values())
        for i in range(rows)
    ]
    return ("\n".join(lines) + "\n").encode()


@settings(max_examples=200, deadline=None)
@given(columns=_csv_columns())
def test_write_csv_matches_per_cell_reference(tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(path, columns)
    assert path.read_bytes() == _reference_csv(columns)


@pytest.mark.parametrize(
    "rows, error",
    [
        ([(1.0, 1), (math.nan, 2)], ArithmeticError),
        ([(np.float64(math.inf), 1)], ArithmeticError),
        ([(1, -math.inf)], ArithmeticError),
        ([(1.0, "a,b")], ValueError),
        ([("ok", 1), ("a\nb", 2)], ValueError),
        ([(1, None)], TypeError),
        # the first bad column wins, not the first bad cell in row order
        ([(1.0, "a,b"), (math.nan, "x")], ArithmeticError),
    ],
)
def test_write_csv_rejects_bad_cells(tmp_path: Path, rows, error):
    # each case is written row by row and passed as one array column per position
    path = tmp_path / "out.csv"
    with pytest.raises(error):
        write_csv(path, {f"c{j}": np.array(column) for j, column in enumerate(zip(*rows))})
    assert not path.exists()


@pytest.mark.parametrize(
    "columns, error",
    [
        ({"a": np.arange(3), "b": np.arange(2.0)}, ValueError),
        ({"a": np.arange(3), "b": math.nan}, ArithmeticError),
        ({"a": np.arange(3), "b": "a,b"}, ValueError),
        ({"a": np.arange(3), "b": None}, TypeError),
        ({"a": np.arange(3), "b": np.arange(3, dtype=np.complex128)}, TypeError),
        # the first bad column wins, a scalar one too
        ({"a": -math.inf, "b": np.array(["a,b"] * 3)}, ArithmeticError),
    ],
)
def test_write_csv_rejects_bad_columns(tmp_path: Path, columns, error):
    path = tmp_path / "out.csv"
    with pytest.raises(error):
        write_csv(path, columns)
    assert not path.exists()


def test_write_csv_formats_each_distinct_label_once(tmp_path: Path):
    t = np.arange(10_000)
    columns = {
        "family": np.where(t % 2 == 0, "linear", "product"),
        "flag": t % 3 == 0,
        "np_flag": t % 5 == 0,
        "x": t.astype(np.float64),
    }
    path = tmp_path / "out.csv"
    write_csv(path, columns)
    assert path.read_bytes() == _reference_csv(columns)
    columns["family"][5000] = "a,b"
    columns["family"][7000] = "c,d"
    with pytest.raises(ValueError, match=r"string cell 'a,b' would break the CSV"):
        write_csv(tmp_path / "bad.csv", columns)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.sampled_from([0.0, -0.0, 1.0, 0.1, 5e-324, -1e300]), max_size=12))
def test_write_csv_formats_a_run_of_equal_floats_as_its_cells(tmp_path_factory, values):
    # a run of one value is formatted once; 0.0 and -0.0 are different bits
    columns = {"x": np.array(values, dtype=np.float64), "t": np.arange(len(values))}
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(path, columns)
    assert path.read_bytes() == _reference_csv(columns)


def test_main_non_finite_cell_is_internal_error(tmp_path: Path, capsys, monkeypatch):
    def non_finite(cfg, rng):
        return ExperimentResult({"x": np.array([1.0, math.nan])}, {}, True)

    fields, _ = EXPERIMENTS["ghz-baseline"]
    monkeypatch.setitem(EXPERIMENTS, "ghz-baseline", (fields, non_finite))
    rc = main(["ghz-baseline", "--config", cfg_file(tmp_path, ""), "--out", str(tmp_path)])
    assert rc == EXIT_INTERNAL
    assert capsys.readouterr().err == (
        "qfiwb: internal error: ArithmeticError: non-finite value nan in CSV output\n"
    )


def test_state_qfis_blocks_match_rowwise_qfi(monkeypatch):
    # Three dimension-1024 rows per block: eight trials take three blocks.
    monkeypatch.setattr(importlib.import_module("qfiwb.numerics"), "BLOCK_BYTES", 3 * 16 * 2**10)
    batch = cli.qfi_batch
    calls = []

    def counted(h, amplitudes):
        calls.append(len(amplitudes))
        return batch(h, amplitudes)

    monkeypatch.setattr(cli, "qfi_batch", counted)
    n = 10
    hms = [random_hermitian(2**n, Rng(7).substream(k)) for k in range(2)]
    trials = range(4, 12)
    got = _state_qfis(Rng(9), trials, hms)
    assert got.shape == (2, 8)
    assert calls == [3, 3, 3, 3, 2, 2]
    streams = Rng(9).substream(1)
    for k, hm in enumerate(hms):
        for col, t in enumerate(trials):
            want = qfi(sample_haar(n, 2, streams.substream(t)), hm)
            assert got[k, col] == pytest.approx(want, rel=1e-12)


def test_state_qfis_symmetric_blocks_match_rowwise_sample_symmetric(monkeypatch):
    # Dimension-64 rows, 5 to a block; Gaussians drawn in the 7-dim Dicke frame.
    monkeypatch.setattr(importlib.import_module("qfiwb.numerics"), "BLOCK_BYTES", 5 * 16 * 2**6)
    n = 6
    basis = dicke_basis(n, 2)
    hms = [random_hermitian(2**n, Rng(3).substream(k)) for k in range(2)]
    trials = range(2, 14)
    got = _state_qfis(Rng(9), trials, hms, basis)
    assert got.shape == (2, 12)
    streams = Rng(9).substream(1)
    for k, hm in enumerate(hms):
        for col, t in enumerate(trials):
            want = qfi(sample_symmetric(n, 2, streams.substream(t), basis), hm)
            assert got[k, col] == pytest.approx(want, rel=1e-12)


# --- end-to-end runs ----------------------------------------------------------

@pytest.mark.parametrize("experiment, text", [
    ("lemma1-montecarlo", "n = 3\ntrials = 50\nfamily = linear\n"),
    ("lemma1-montecarlo", "n = 3\ntrials = 50\nfamily = product\n"),
    ("lemma3-montecarlo", "n = 3\nd = 3\ntrials = 50\n"),
    ("result1-demo", "n = 3\nhamiltonians = 3\nstates = 20\n"),
    ("result3-demo", "n = 3\nhamiltonians = 3\nstates = 20\n"),
])
def test_state_sampling_drivers_build_no_dense_operator(tmp_path: Path, monkeypatch, experiment, text):
    def forbidden(*args, **kwargs):
        raise AssertionError("a dense operator was built or validated")

    # Every Hamiltonian's dense() goes through kron_all; the package imports by name.
    for module in ("qfiwb.numerics", "qfiwb.hamiltonians"):
        monkeypatch.setattr(sys.modules[module], "kron_all", forbidden)
    monkeypatch.setattr(sys.modules["qfiwb.qfi"], "ensure_hermitian", forbidden)
    rc = main([experiment, "--config", cfg_file(tmp_path, text), "--out", str(tmp_path / "o")])
    assert rc == EXIT_PASS


def test_main_ghz_baseline(tmp_path: Path, capsys):
    cfg = cfg_file(tmp_path, "n_min = 3\nn_max = 4\n")
    rc = main(["ghz-baseline", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == EXIT_PASS
    out = capsys.readouterr().out
    assert "ghz-baseline: pass (4 rows)" in out

    csv_lines = (tmp_path / "o" / "ghz-baseline.csv").read_text().splitlines()
    assert csv_lines[0] == "n,family,lam0,lam1,qfi,closed_form,abs_dev,pass"
    assert len(csv_lines) == 5
    assert csv_lines[1].startswith("3,computational,")
    assert csv_lines[2].startswith("3,plus_minus,")
    assert all(line.endswith(",true") for line in csv_lines[1:])

    summary = json.loads((tmp_path / "o" / "ghz-baseline.summary.json").read_text())
    assert summary["experiment"] == "ghz-baseline"
    assert summary["seed"] == 0
    assert summary["rows"] == 4
    assert summary["passed"] is True
    assert summary["config"]["n_max"] == 4
    assert set(summary) == {
        "experiment", "seed", "config", "rows", "passed",
        "worst_abs_dev", "tolerance",
    }


def test_main_unknown_experiment(tmp_path: Path, capsys):
    cfg = cfg_file(tmp_path, "n_min = 3\n")
    rc = main(["no-such-thing", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert "unknown experiment" in capsys.readouterr().err


def test_main_unknown_config_key(tmp_path: Path, capsys):
    cfg = cfg_file(tmp_path, "bogus = 1\n")
    rc = main(["ghz-baseline", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert "unknown config key" in capsys.readouterr().err


def test_main_missing_config_file(tmp_path: Path, capsys):
    rc = main(["ghz-baseline", "--config", str(tmp_path / "absent.cfg"),
               "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err


def test_main_domain_error_maps_to_config_exit(tmp_path: Path, capsys):
    # The growth exponent fails the threshold's hypothesis at (n=4, c=1.2):
    # c lies in its declared domain (1, 2), and the library's DomainError
    # must surface as a clean config failure.
    cfg = cfg_file(tmp_path, "n = 4\nc = 1.2\n")
    rc = main(["result2-verify", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("qfiwb: config error: n^(c-1) = ")


def _unbuilt(n, k=2):
    raise AssertionError("the complete graph was built")


@pytest.mark.parametrize("experiment, text, s, k", [
    # star is undefined at k = 10 and skipped; chain and ring would fit.
    pytest.param("table-census", "n = 200\nk = 10\n", math.comb(200, 10), 10, id="table-census"),
])
def test_main_census_cap_exits_before_building(tmp_path: Path, capsys, monkeypatch, experiment, text, s, k):
    # The complete graph's edge count is closed form, so a preset past both
    # census routes (s^2 pairs, s * 2^k keys) exits 2 without a single edge built.
    monkeypatch.setattr(importlib.import_module("qfiwb.graphs"), "complete_graph", _unbuilt)
    rc = main([experiment, "--config", cfg_file(tmp_path, text), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"qfiwb: config error: {s} edges of arity {k} (past the pair cap) as s * 2^k co-degree keys: "
        "more than the 256 MiB allowed for one array\n"
    )


def test_main_scaling_report_takes_presets_past_both_census_routes(tmp_path: Path, monkeypatch):
    # scaling-report reads closed-form degrees and runs no census, so the
    # complete graph on 4097 vertices, past both census routes, is a row.
    monkeypatch.setattr(importlib.import_module("qfiwb.graphs"), "complete_graph", _unbuilt)
    text = "shapes = complete\nn_min = 4097\nn_max = 4097\n"
    rc = main(["scaling-report", "--config", cfg_file(tmp_path, text), "--out", str(tmp_path)])
    assert rc == EXIT_PASS
    assert _csv_column(tmp_path / "scaling-report.csv", "s") == [str(math.comb(4097, 2))] == ["8390656"]


def test_main_table_census_sizes_every_preset_before_any_census(tmp_path: Path, capsys, monkeypatch):
    # At n = 10000, k = 14 the chain and ring fit the pair scan, but the
    # complete graph fits no route: the run exits 2 before any census.
    def unreached(*args, **kwargs):
        raise AssertionError("a preset was built or censused")

    graphs = importlib.import_module("qfiwb.graphs")
    for module, name in ((graphs, "census_bruteforce"), (graphs, "census"), (cli, "census"), (cli, "preset_graph")):
        monkeypatch.setattr(module, name, unreached)
    rc = main(["table-census", "--config", cfg_file(tmp_path, "n = 10000\nk = 14\n"), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"qfiwb: config error: {math.comb(10000, 14)} edges of arity 14 ")


@pytest.mark.parametrize("text", [
    # 658008 complete-graph edges: past the pair cap, inside the key cap.
    pytest.param("n = 40\nk = 5\n", id="co-degree"),
    # 26 edges of arity 25: past the key cap, so the pair scan counts them.
    pytest.param("n = 26\nk = 25\n", id="pair-scan"),
])
def test_main_table_census_matches_closed_forms_on_either_route(tmp_path: Path, text):
    rc = main(["table-census", "--config", cfg_file(tmp_path, text), "--out", str(tmp_path)])
    assert rc == EXIT_PASS
    summary = json.loads((tmp_path / "table-census.summary.json").read_text())
    assert summary["route_mismatches"] == []
    assert summary["skipped_shapes"] == ["star"]
    rows = (tmp_path / "table-census.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["chain", "ring", "complete"]


def test_main_table_census_keeps_a_ring_without_closed_form(tmp_path: Path):
    # At n = 4, k = 3 the ring lies below n = 2k - 1, where every window
    # meets every other; it is listed and checked against its closed form.
    rc = main(["table-census", "--config", cfg_file(tmp_path, "n = 4\nk = 3\n"), "--out", str(tmp_path)])
    assert rc == EXIT_PASS
    summary = json.loads((tmp_path / "table-census.summary.json").read_text())
    assert summary["skipped_shapes"] == ["star"]
    assert summary["route_mismatches"] == []
    header, *lines = (tmp_path / "table-census.csv").read_text().splitlines()
    rows = {line.split(",")[0]: dict(zip(header.split(","), line.split(","))) for line in lines}
    assert list(rows) == ["chain", "ring", "complete"]
    assert (rows["ring"]["s"], rows["ring"]["disjoint"], rows["ring"]["connected"]) == ("4", "0", "12")


def test_main_concentration_with_zero_hamiltonian(tmp_path: Path):
    # H = 0 has a zero Lipschitz constant: both tails are exactly 0, no crash.
    cfg = cfg_file(tmp_path, "n = 3\ntrials = 20\nlam0 = 0\nlam1 = 0\n")
    rc = main(["concentration", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_PASS
    summary = json.loads((tmp_path / "concentration.summary.json").read_text())
    assert summary["bound_two_sided"] == 0.0


def _csv_column(path: Path, name: str) -> list[str]:
    header, *lines = path.read_text().splitlines()
    col = header.split(",").index(name)
    return [line.split(",")[col] for line in lines]


@pytest.mark.parametrize("n, lam0, lam1, seed", [
    (12, 0.0, 1.0, 1), (8, -0.3, 1.7, 7), (4, 1e6, 1e6 + 3.0, 0),
])
def test_concentration_matches_an_exact_reference(tmp_path: Path, n, lam0, lam1, seed):
    # f is the variance of D under weights log(1 - u) / sum log(1 - u);
    # the reference takes the same float logs and D, and is exact.  The
    # per-row dots on the uncentred D were up to 8e-15 off at n = 12.
    trials = 12
    cfg = cfg_file(tmp_path, f"n = {n}\ntrials = {trials}\nlam0 = {lam0!r}\nlam1 = {lam1!r}\n")
    assert main(["concentration", "--config", cfg, "--seed", str(seed), "--out", str(tmp_path)]) == EXIT_PASS
    got = [float(c) for c in _csv_column(tmp_path / "concentration.csv", "f_value")]
    site = SingleSiteOperator.computational(tuple(np.linspace(lam0, lam1, 2)))
    diag = [Fraction(x) for x in LinearHamiltonian.from_site(n, site).diagonal()]
    logs = np.log(1.0 - Rng(seed).substream(1).substream_uniforms(range(trials), 2**n))
    for t in range(trials):
        w = [Fraction(x) for x in logs[t]]
        s = sum(w)
        m1 = sum(x * dx for x, dx in zip(w, diag)) / s
        m2 = sum(x * dx * dx for x, dx in zip(w, diag)) / s
        want = float(m2 - m1 * m1)
        assert abs(got[t] - want) <= 2e-15 * want


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 4),
    scale=st.floats(1e-3, 1e6),
    sign=st.sampled_from([1.0, -1.0]),
    gap=st.sampled_from([0, 0, 1, 2**20]),
    seed=st.integers(0, 2**32 - 1),
)
def test_concentration_of_a_constant_spectrum_is_exactly_zero(tmp_path_factory, n, scale, sign, gap, seed):
    # lam1 is lam0 or up to 2^20 ulps from it: f never goes below 0, and
    # is exactly 0 when the spectrum is constant
    lam0 = sign * scale
    lam1 = float(lam0 + gap * np.spacing(lam0))
    out = tmp_path_factory.mktemp("conc")
    cfg = cfg_file(out, f"n = {n}\ntrials = 5\nlam0 = {lam0!r}\nlam1 = {lam1!r}\n")
    assert main(["concentration", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == EXIT_PASS
    f = np.array([float(c) for c in _csv_column(out / "concentration.csv", "f_value")])
    assert np.all(f >= 0.0)
    if lam1 == lam0:
        assert _csv_column(out / "concentration.csv", "f_value") == ["0"] * 5


@pytest.mark.parametrize("experiment, text", [
    ("concentration", "n = 10\ntrials = 150\n"),
    ("thm11-check", "n = 5\ntrials = 40\n"),
])
def test_block_kernels_write_the_same_bytes_at_any_blas_thread_count(tmp_path: Path, experiment, text):
    cfg = cfg_file(tmp_path, text)
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = tmp_path / f"blas{threads}"
        subprocess.run([sys.executable, "-m", "qfiwb.cli", experiment, "--config", cfg, "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        outputs.append((out / f"{experiment}.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_main_large_hamiltonian_scale_is_not_a_config_error(tmp_path: Path):
    # Entries near 1e7 carry round-off asymmetry far above the absolute
    # tolerance; the Hermitian check scales with the matrix and accepts them.
    cfg = cfg_file(tmp_path, "low = -1e7\nhigh = 1e7\ntrials = 50\n")
    rc = main(["lemma1-montecarlo", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_PASS


def test_main_internal_error_exit(tmp_path: Path, capsys, monkeypatch):
    # Only ConfigError and DomainError mean a bad config; a bare ValueError
    # (numpy's own, or a failed internal check) is a crash.
    fields, _ = EXPERIMENTS["ghz-baseline"]
    cfg = cfg_file(tmp_path, "")
    for error in (ArithmeticError, ValueError):
        def crash(cfg, rng):
            raise error("boom")

        monkeypatch.setitem(EXPERIMENTS, "ghz-baseline", (fields, crash))
        rc = main(["ghz-baseline", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_INTERNAL == 3
        err = capsys.readouterr().err
        assert err == f"qfiwb: internal error: {error.__name__}: boom\n"


def test_main_violation_exit(tmp_path: Path):
    # A flat growth budget never turns the symmetric-subspace bound over
    # inside the sweep window, which the runner reports as a failure.
    cfg = cfg_file(tmp_path, "which = thm7\nc = 2.0\n")
    rc = main(["bound-sweep", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_VIOLATION
    summary = json.loads((tmp_path / "bound-sweep.summary.json").read_text())
    assert summary["passed"] is False
    assert summary["turned_over"] is False


# Small configs for every experiment that runs independent trials.
TRIAL_CONFIGS = {
    "lemma1-montecarlo": "trials = 2000\n",
    "lemma3-montecarlo": "trials = 300\n",
    "concentration": "n = 4\ntrials = 100\n",
    "prop4-audit": "trials = 20\n",
    "prop5-audit": "n = 3\ntrials = 10\n",
    "result1-demo": "hamiltonians = 3\nstates = 20\n",
    "result3-demo": "hamiltonians = 3\nstates = 30\n",
    "thm11-check": "trials = 10\n",
}


@pytest.mark.parametrize("experiment", TRIAL_CONFIGS)
def test_main_threads_do_not_change_output(tmp_path: Path, monkeypatch, experiment):
    cfg = cfg_file(tmp_path, TRIAL_CONFIGS[experiment])
    monkeypatch.delenv(THREADS_ENV, raising=False)
    for args, sub in (
        (["--threads", "1"], "t1"),
        (["--threads", "3"], "t3"),
        ([], "env"),
    ):
        if sub == "env":
            monkeypatch.setenv(THREADS_ENV, "3")
        rc = main([experiment, "--config", cfg,
                   "--out", str(tmp_path / sub), *args])
        assert rc == EXIT_PASS
    body = (tmp_path / "t1" / f"{experiment}.csv").read_bytes()
    assert (tmp_path / "t3" / f"{experiment}.csv").read_bytes() == body
    assert (tmp_path / "env" / f"{experiment}.csv").read_bytes() == body


@pytest.mark.parametrize("experiment, config", [
    ("lemma1-montecarlo", "low = 0\nhigh = 0\ntrials = 20\n"),
    ("lemma3-montecarlo", "lam0 = 0\nlam1 = 0\ntrials = 20\n"),
])
def test_main_montecarlo_with_zero_spread(tmp_path: Path, experiment, config):
    # H = 0: every QFI and the closed form are exactly 0, so the standard
    # error is 0 and the verdict is exact equality, written as valid JSON.
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    rc = main([experiment, "--config", cfg_file(tmp_path, config), "--out", str(tmp_path)])
    assert rc == EXIT_PASS
    text = (tmp_path / f"{experiment}.summary.json").read_text()
    summary = json.loads(text, parse_constant=reject)
    assert summary["standard_error"] == 0.0
    assert summary["z_score"] == 0.0
    assert summary["passed"] is True


def test_main_seed_override(tmp_path: Path):
    cfg = cfg_file(tmp_path, "trials = 500\n")
    for seed in (None, 1):
        args = ["lemma1-montecarlo", "--config", cfg, "--out",
                str(tmp_path / f"s{seed}")]
        if seed is not None:
            args += ["--seed", str(seed)]
        assert main(args) == EXIT_PASS
    base = (tmp_path / "sNone" / "lemma1-montecarlo.csv").read_text()
    moved = (tmp_path / "s1" / "lemma1-montecarlo.csv").read_text()
    assert base != moved
    summary = json.loads(
        (tmp_path / "s1" / "lemma1-montecarlo.summary.json").read_text()
    )
    assert summary["seed"] == 1


def test_main_invalid_thread_settings(tmp_path: Path, monkeypatch, capsys):
    cfg = cfg_file(tmp_path, "n_min = 3\nn_max = 3\n")
    monkeypatch.setenv(THREADS_ENV, "soup")
    assert main(["ghz-baseline", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    monkeypatch.setenv(THREADS_ENV, "0")
    assert main(["ghz-baseline", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    capsys.readouterr()


def test_main_net_audit_header_quirk(tmp_path: Path):
    # Deviation audits reuse the cover audit's CSV schema; the second column
    # keeps its name even though it then holds a functional deviation.
    cfg = cfg_file(tmp_path, "audit = prop8\ntrials = 20\neps = 1.0\n")
    rc = main(["net-audit", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_PASS
    lines = (tmp_path / "net-audit.csv").read_text().splitlines()
    assert lines[0] == "trial,distance_to_net,eps,pass"
    assert len(lines) == 21


def test_main_net_audit_negative_control(tmp_path: Path, capsys):
    # A net built with a tiny proof constant is coarse: prop8 fails some
    # trials, exits 1 and lists one parsable counterexample per violation.
    cfg = cfg_file(tmp_path, "audit = prop8\nprop6_c = 0.001\n")
    assert main(["net-audit", "--config", cfg, "--out", str(tmp_path)]) == EXIT_VIOLATION
    summary = json.loads((tmp_path / "net-audit.summary.json").read_text())
    assert summary["violations"] == len(summary["counterexamples"]) == 50
    rows = (tmp_path / "net-audit.csv").read_text().splitlines()[1:]
    failing = [int(row.split(",")[0]) for row in rows if row.endswith(",false")]
    assert len(failing) == 50
    for t, text in zip(failing, summary["counterexamples"]):
        h = from_spec_text(text)
        drawn = sample_linear_banded(2, 2, Rng(0).substream(1).substream(t), 1.0, 2.0)
        assert np.array_equal(h.table, drawn.table) and np.array_equal(h.basis, drawn.basis)
    capsys.readouterr()


def test_readme_experiment_table_matches_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Experiments", 1)[1].split("\n\n")[1]
    names = re.findall(r"^\| `([^`]+)` \|", table, flags=re.MULTILINE)
    assert len(names) == len(set(names))
    assert set(names) == set(EXPERIMENTS)


def test_registry_fields_are_well_formed():
    kinds = {"int", "float", "str", "list"}
    for name, (fields, runner) in EXPERIMENTS.items():
        assert "seed" in fields
        for key, (kind, default, domain) in fields.items():
            assert kind in kinds, f"{name}.{key}"
            assert default is not None
            # strings take a tuple of choices, numbers an interval, floats with finite ends
            assert isinstance(domain, tuple) == (kind in ("str", "list")), f"{name}.{key}"
            if kind == "float":
                assert "inf" not in domain, f"{name}.{key}"
            assert in_domain(kind, domain, default), f"{name}.{key}"
        assert callable(runner)


# Counts that keep every drawn config to milliseconds; the key under test
# overrides its own entry.
_SMALL_COUNTS = {"trials": 3, "hamiltonians": 2, "states": 3, "restarts": 2}
# Integer keys with no cap are drawn from [low, low + _INT_SPAN].
_INT_SPAN = 5


def _inside(kind: str, domain):
    """Values of a key inside its domain, its edges and float caps included."""
    if kind == "str":
        return st.sampled_from(domain)
    if kind == "list":
        return st.lists(st.sampled_from(domain), min_size=1, unique=True).map(",".join)
    low, open_low, high, open_high = _interval(domain)
    if kind == "int":
        low, high = int(low) + open_low, high - open_high
        span = st.integers(low, int(min(high, low + _INT_SPAN)))
        return span if math.isinf(high) else st.one_of(st.just(int(high)), span)
    edges = [np.nextafter(low, math.inf) if open_low else low,
             np.nextafter(high, -math.inf) if open_high else high]
    return st.one_of(
        st.sampled_from([float(e) for e in edges]),
        st.floats(low, high, exclude_min=open_low, exclude_max=open_high),
    )


def _outside(kind: str, domain) -> list:
    """The values one step outside a domain: past each finite end, or an unknown choice."""
    if kind == "str":
        return ["no-such-choice"]
    if kind == "list":
        return [domain[0] + ",no-such-choice", ","]
    low, open_low, high, open_high = _interval(domain)
    if kind == "int":
        return [int(low) - (not open_low)] + ([] if math.isinf(high) else [int(high) + (not open_high)])
    return [
        low if open_low else float(np.nextafter(low, -math.inf)),
        high if open_high else float(np.nextafter(high, math.inf)),
    ]


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_declared_domains_decide_the_config_exit(tmp_path_factory, experiment, data):
    # One key set at a time: inside its domain the run ends in a verdict
    # (0 or 1) or a cross-key or library DomainError (2), never a crash;
    # one step outside, the config is rejected before the driver runs.
    fields, _ = EXPERIMENTS[experiment]
    key = data.draw(st.sampled_from(sorted(fields)), label="key")
    kind, _, domain = fields[key]
    inside = data.draw(st.booleans(), label="inside")
    values = _inside(kind, domain) if inside else st.sampled_from(_outside(kind, domain))
    value = data.draw(values, label="value")
    config = {k: v for k, v in _SMALL_COUNTS.items() if k in fields}
    config[key] = repr(value) if isinstance(value, float) else value
    tmp = tmp_path_factory.mktemp("domain")
    text = "".join(f"{k} = {v}\n" for k, v in config.items())
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([experiment, "--config", cfg_file(tmp, text), "--out", str(tmp)])
    if inside:
        assert rc in (EXIT_PASS, EXIT_VIOLATION, EXIT_CONFIG), err.getvalue()
    else:
        assert rc == EXIT_CONFIG
        assert err.getvalue().startswith(f"qfiwb: config error: config key {key!r}: "), err.getvalue()


def test_readme_domain_table_matches_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Config keys", 1)[1].split("\n\n")[2]
    row = r"^\| `([^`]+)` \| `([^`]+)` \| (\w+) \| `([^`]+)` \| (.+) \|$"
    rows = re.findall(row, table, flags=re.MULTILINE)
    want = [
        (name, key, kind, str(default), describe_domain(kind, domain))
        for name, (fields, _) in EXPERIMENTS.items()
        for key, (kind, default, domain) in fields.items()
        if key != "seed"
    ]
    assert rows == want


def test_perfbench_tracer_finds_every_traced_name(monkeypatch):
    # Tracer.install raises KeyError once a wrapped name leaves its owner.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracing").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert cli.main is main
