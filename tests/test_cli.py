"""Config parsing, CSV plumbing, and end-to-end runs of the experiment driver."""

import importlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    _cell,
    _coerce,
    _state_qfis,
    _trials,
    build_config,
    main,
    parse_config_text,
    write_csv,
)
from qfiwb.hamiltonians import from_spec_text
from qfiwb.nets import sample_linear_banded
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
    fields = {"n": ("int", 3), "tol": ("float", 1e-9)}
    cfg = build_config("demo", fields, {"n": "5"})
    assert cfg == {"n": 5, "tol": 1e-9}
    with pytest.raises(ConfigError, match="known keys: n, tol"):
        build_config("demo", fields, {"m": "5"})


def test_coerce_typed_values():
    assert _coerce("int", "12", "k") == 12
    assert _coerce("float", "1e3", "k") == 1000.0
    assert _coerce("bool", "true", "k") is True
    assert _coerce("bool", "0", "k") is False
    assert _coerce("str", "ring", "k") == "ring"
    with pytest.raises(ConfigError):
        _coerce("int", "12.5", "k")
    with pytest.raises(ConfigError):
        _coerce("float", "nan", "k")
    with pytest.raises(ConfigError):
        _coerce("float", "inf", "k")
    with pytest.raises(ConfigError):
        _coerce("bool", "yes", "k")


# --- CSV plumbing -------------------------------------------------------------

def test_cell_formats():
    assert _cell(True) == "true"
    assert _cell(np.bool_(False)) == "false"
    assert _cell(7) == "7"
    assert _cell(np.int64(-3)) == "-3"
    assert _cell(0.1) == format(0.1, ".17g")
    assert _cell(np.float64(2.0)) == "2"
    assert _cell("ring") == "ring"
    with pytest.raises(ArithmeticError):
        _cell(math.nan)
    with pytest.raises(ArithmeticError):
        _cell(math.inf)
    with pytest.raises(ValueError):
        _cell("a,b")
    with pytest.raises(ValueError):
        _cell("a\nb")
    with pytest.raises(TypeError):
        _cell([1])


def test_write_csv(tmp_path: Path):
    path = tmp_path / "out.csv"
    write_csv(path, ("a", "b"), [(1, True), (2, False)])
    assert path.read_text() == "a,b\n1,true\n2,false\n"
    with pytest.raises(ValueError, match="row width"):
        write_csv(path, ("a", "b"), [(1,)])


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072e-308, 1e308, -1e308, 0.1]),
)
_FLOAT_CELLS = st.one_of(_FLOATS, _FLOATS.map(np.float64))
_INT_CELLS = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
)
_BOOL_CELLS = st.one_of(st.booleans(), st.booleans().map(np.bool_))
_STR_CELLS = st.text(st.characters(blacklist_characters=",\n", blacklist_categories=("Cs",)))
_CELLS = st.one_of(_BOOL_CELLS, _INT_CELLS, _FLOAT_CELLS, _STR_CELLS)


@st.composite
def _csv_rows(draw):
    """Rows whose columns are all-float, all-int, all-bool, all-str or mixed cells."""
    count = draw(st.integers(min_value=0, max_value=6))
    cells = st.sampled_from([_FLOAT_CELLS, _INT_CELLS, _BOOL_CELLS, _STR_CELLS, _CELLS])
    columns = [
        draw(st.lists(draw(cells), min_size=count, max_size=count))
        for _ in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    return list(zip(*columns))


@settings(max_examples=200, deadline=None)
@given(rows=_csv_rows())
def test_write_csv_matches_per_cell_reference(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    header = tuple(f"c{j}" for j in range(len(rows[0]))) if rows else ("c0",)
    write_csv(path, header, rows)
    lines = [",".join(header)] + [",".join(_cell(v) for v in row) for row in rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "rows, error",
    [
        ([(1.0, 1), (math.nan, 2)], ArithmeticError),
        ([(np.float64(math.inf), 1)], ArithmeticError),
        ([(1, -math.inf)], ArithmeticError),
        ([(1.0, "a,b")], ValueError),
        ([("ok", 1), ("a\nb", 2)], ValueError),
        ([(1, [1])], TypeError),
        # the first bad column wins, not the first bad cell in row order
        ([(1.0, "a,b"), (math.nan, "x")], ArithmeticError),
    ],
)
def test_write_csv_rejects_bad_cells(tmp_path: Path, rows, error):
    path = tmp_path / "out.csv"
    with pytest.raises(error):
        write_csv(path, ("a", "b"), rows)
    assert not path.exists()


def test_write_csv_formats_each_distinct_label_once(tmp_path: Path, monkeypatch):
    rows = [
        (("linear", "product")[t % 2], t % 3 == 0, np.bool_(t % 5 == 0), float(t))
        for t in range(10_000)
    ]
    header = ("family", "flag", "np_flag", "x")
    path = tmp_path / "out.csv"
    calls = []
    monkeypatch.setattr(cli, "_cell", lambda v: calls.append(v) or _cell(v))
    write_csv(path, header, rows)
    lines = [",".join(header)] + [",".join(_cell(v) for v in row) for row in rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert len(calls) == 6
    rows[5000] = ("a,b",) + rows[5000][1:]
    rows[7000] = ("c,d",) + rows[7000][1:]
    with pytest.raises(ValueError, match=r"string cell 'a,b' would break the CSV"):
        write_csv(tmp_path / "bad.csv", header, rows)


def test_main_non_finite_cell_is_internal_error(tmp_path: Path, capsys, monkeypatch):
    def non_finite(cfg, rng):
        return ExperimentResult(("x",), [(1.0,), (math.nan,)], {}, True)

    fields, _ = EXPERIMENTS["ghz-baseline"]
    monkeypatch.setitem(EXPERIMENTS, "ghz-baseline", (fields, non_finite))
    rc = main(["ghz-baseline", "--config", cfg_file(tmp_path, ""), "--out", str(tmp_path)])
    assert rc == EXIT_INTERNAL
    assert capsys.readouterr().err == (
        "qfiwb: internal error: ArithmeticError: non-finite value nan in CSV output\n"
    )


def test_map_trials_preserves_order():
    def draw(t: int, r: Rng) -> tuple:
        return (t, t * t, r.seed, r.path)

    expected = [(t, t * t, 5, (1, t)) for t in range(20)]
    assert _trials(Rng(5), range(20), draw) == expected


def test_state_qfis_blocks_match_rowwise_qfi(monkeypatch):
    # Three dimension-1024 rows per block: eight trials take three blocks.
    monkeypatch.setattr(cli, "_BLOCK_AMPLITUDES", 3 * 2**10)
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
    monkeypatch.setattr(cli, "_BLOCK_AMPLITUDES", 5 * 2**6)
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
    # The growth exponent fails the threshold's hypothesis at (n=4, c=1.2);
    # the library's ValueError must surface as a clean config failure.
    cfg = cfg_file(tmp_path, "n = 4\nc = 1.2\n")
    rc = main(["result2-verify", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_main_concentration_with_zero_hamiltonian(tmp_path: Path):
    # H = 0 has a zero Lipschitz constant: both tails are exactly 0, no crash.
    cfg = cfg_file(tmp_path, "n = 3\ntrials = 20\nlam0 = 0\nlam1 = 0\n")
    rc = main(["concentration", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_PASS
    summary = json.loads((tmp_path / "concentration.summary.json").read_text())
    assert summary["bound_two_sided"] == 0.0


def test_main_large_hamiltonian_scale_is_not_a_config_error(tmp_path: Path):
    # Entries near 1e7 carry round-off asymmetry far above the absolute
    # tolerance; the Hermitian check scales with the matrix and accepts them.
    cfg = cfg_file(tmp_path, "low = -1e7\nhigh = 1e7\ntrials = 50\n")
    rc = main(["lemma1-montecarlo", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_PASS


def test_main_internal_error_exit(tmp_path: Path, capsys, monkeypatch):
    def crash(cfg, rng):
        raise ArithmeticError("boom")

    fields, _ = EXPERIMENTS["ghz-baseline"]
    monkeypatch.setitem(EXPERIMENTS, "ghz-baseline", (fields, crash))
    cfg = cfg_file(tmp_path, "")
    rc = main(["ghz-baseline", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_INTERNAL == 3
    err = capsys.readouterr().err
    assert err == "qfiwb: internal error: ArithmeticError: boom\n"


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
    kinds = {"int", "float", "bool", "str"}
    for name, (fields, runner) in EXPERIMENTS.items():
        assert "seed" in fields
        for key, (kind, default) in fields.items():
            assert kind in kinds, f"{name}.{key}"
            assert default is not None
        assert callable(runner)


def test_perfbench_tracer_finds_every_traced_name(monkeypatch):
    # Tracer.install raises KeyError once a wrapped name leaves its owner.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracing").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert cli.main is main
