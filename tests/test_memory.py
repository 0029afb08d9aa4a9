"""The byte budget: statevectors past the dense cap run in 2 GiB, oversized configs exit 2."""

import contextlib
import io
from pathlib import Path

import pytest

pytest.importorskip("resource")

from limited import run_cli  # noqa: E402
from qfiwb.cli import EXIT_CONFIG, EXIT_PASS, EXIT_VIOLATION, main  # noqa: E402
from qfiwb.hamiltonians import GraphHamiltonian, LinearHamiltonian, ProductDiagonalHamiltonian  # noqa: E402
from qfiwb.numerics import DimensionError  # noqa: E402

BUDGET = "more than the 256 MiB allowed for one array"


@pytest.mark.parametrize("experiment, text, exits", [
    pytest.param("lemma1-montecarlo", "n = 20\ntrials = 2\nfamily = linear\n", {EXIT_PASS}, id="lemma1-linear"),
    pytest.param("lemma1-montecarlo", "n = 20\ntrials = 2\nfamily = product\n", {EXIT_PASS}, id="lemma1-product"),
    pytest.param("concentration", "n = 20\ntrials = 2\n", {EXIT_PASS}, id="concentration"),
    pytest.param("net-audit", "audit = prop8\nn = 20\ntrials = 2\n", {EXIT_PASS}, id="net-audit-prop8"),
    # Dicke frames of 2^21 strings: two trials may fail the 3-sigma verdict,
    # but the run must reach one, not exit 2 or 3.
    pytest.param("lemma3-montecarlo", "n = 21\ntrials = 2\n", {EXIT_PASS, EXIT_VIOLATION}, id="lemma3-n21"),
    pytest.param("result1-demo", "n = 21\nhamiltonians = 1\nstates = 2\n", {EXIT_PASS, EXIT_VIOLATION},
                 id="result1-n21"),
])
def test_statevectors_past_the_dense_cap_run_in_2_gib(tmp_path: Path, experiment, text, exits):
    # 2^20 amplitudes: 256 times the 4096 dense cap, 16 MiB a statevector.
    proc = run_cli(experiment, text, tmp_path)
    assert proc.returncode in exits, proc.stderr


@pytest.mark.parametrize("experiment, text, quantity", [
    pytest.param("lemma1-montecarlo", "trials = 1000000000000\n",
                 "QFI values of 1 operators x 1000000000000 trials", id="lemma1-montecarlo"),
    pytest.param("lemma3-montecarlo", "trials = 100000000000\n",
                 "QFI values of 1 operators x 100000000000 trials", id="lemma3-montecarlo"),
    pytest.param("prop4-audit", "trials = 1000000000000\n",
                 "uniforms of 1000000000000 trials x 48 words", id="prop4-audit"),
    pytest.param("net-audit", "trials = 1000000000000\n",
                 "uniforms of 1000000000000 trials x 16 words", id="net-audit"),
    pytest.param("gme-scan", "restarts = 1000000000000\n",
                 "uniforms of 999999999999 trials x 32 words", id="gme-scan"),
    pytest.param("result3-demo", "states = 1000000000000\n",
                 "QFI values of 20 operators x 1000000000000 trials", id="result3-demo"),
    pytest.param("scaling-report", "shapes = star\nn_min = 1000000000\nn_max = 1000000000\n",
                 "degree vector of 1000000000 vertices", id="scaling-report"),
    pytest.param("lemma1-montecarlo", "n = 1\nd = 16777216\nfamily = linear\n",
                 "site basis of 16777216**2 entries", id="lemma1-linear-d"),
    pytest.param("lemma1-montecarlo", "n = 1\nd = 16777216\nfamily = product\n",
                 "site basis of 16777216**2 entries", id="lemma1-product-d"),
    # the Dicke frame is checked before the site basis, and its count table is the larger
    pytest.param("lemma3-montecarlo", "n = 1\nd = 16777216\n",
                 "Dicke count table of 16777216 x 16777216 entries", id="lemma3-montecarlo-d"),
    pytest.param("concentration", "n = 1\nd = 16777216\n",
                 "site basis of 16777216**2 entries", id="concentration-d"),
])
def test_oversized_configs_exit_2_naming_the_quantity(tmp_path: Path, experiment, text, quantity):
    # Each allocated terabytes, and exited 3 with a MemoryError, before the budget.
    proc = run_cli(experiment, text, tmp_path)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr == f"qfiwb: config error: {quantity}: {BUDGET}\n"


@pytest.mark.parametrize("n", [13, 25])
def test_the_dense_cap_still_guards_dense_operators(tmp_path: Path, n):
    # d^n = 8192 is a small statevector but past MAX_DIM as a dense operator;
    # at 2^25 the dense cap, not the statevector budget, is the one named.
    message = f"dense dimension 2**{n} exceeds the supported maximum 4096"
    for h in (LinearHamiltonian([[0.0, 1.0]] * n, [[1.0, 0.0], [0.0, 1.0]]),
              GraphHamiltonian.shared(n, [(1, 2)], (0.5, 1.5))):
        with pytest.raises(DimensionError, match=message.replace("*", "\\*")):
            h.dense()
    with pytest.raises(DimensionError, match="dense dimension 8192 exceeds the supported maximum 4096"):
        ProductDiagonalHamiltonian.computational(13, 2, [0.0] * 8192).dense()
    cfg = tmp_path / "thm11.cfg"
    cfg.write_text(f"n = {n}\ntrials = 1\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["thm11-check", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert err.getvalue() == f"qfiwb: config error: {message}\n"
