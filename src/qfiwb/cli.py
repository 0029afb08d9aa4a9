"""Seeded experiment runner with CSV and JSON artifacts.

Every experiment is a named driver over the library modules.  A run is
pinned by (experiment, config, seed): trial t always draws from the seed's
stream (1, t), and trials run serially in trial order.  The four
state-sampling experiments (lemma1-montecarlo, lemma3-montecarlo,
result1-demo, result3-demo) draw each block of trial states in one
vectorised pass, bit for bit the per-trial streams.  The audits
(prop4-audit, prop5-audit, net-audit) draw every trial in one pass too:
`Rng.substream_uniforms` gives each trial's uniform words, the array
samplers read its Hamiltonian (and net-audit's state) at fixed offsets,
exactly the words the per-trial samplers read, and every trial is scored
as one array.  concentration and thm11-check stay per trial, on
`Rng.substreams`, which hashes every trial's key in one pass and rekeys
one generator per trial: a concentration trial reads 2^n words (4096 by
default), which numpy's own Philox draws several times faster than the
array Philox, and a thm11-check trial is bound by one LAPACK eigh of a
2^n x 2^n matrix, which a stacked eigh does not speed up.  `--threads` and
QFIWB_THREADS are accepted and validated but have no effect.

The CSV writer checks each column once and formats every row with one
printf string: floats as %.17g (the same bytes as format(v, ".17g")),
ints as %d, and bool, str and mixed columns cell by cell.

Exit codes: 0 all asserted invariants held, 1 an invariant was violated,
2 the invocation or config was invalid, 3 an internal error (an unexpected
exception from an experiment or while writing outputs).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .gme import Result2Report, cap_state, verify_result2
from .graphs import (
    GRAPH_SHAPES,
    census_bruteforce,
    census_by_degrees,
    degree_norms,
    degree_vector,
    preset_census,
    preset_graph,
    scaling_report,
)
from .hamiltonians import (
    LinearHamiltonian,
    SingleSiteOperator,
    linear_words,
    product_diagonal_words,
    sample_linear,
    sample_linear_arrays,
    sample_product_diagonal,
    sample_product_diagonal_arrays,
)
from .nets import (
    BoundParams,
    build_linear_net,
    property_audit,
    sample_linear_banded,
    sample_product_banded,
    theorem_bound,
)
from .numerics import Rng, random_hermitian
from .qfi import (
    expected_qfi_haar,
    expected_qfi_haar_diagonals,
    expected_qfi_symmetric_levels,
    expected_qfi_symmetric_linear,
    expected_qfi_symmetric_tables,
    global_unitary_transport,
    levy_bound,
    optimal_separable_reference,
    qfi_batch,
    separable_reference_diagonals,
)
from .states import (
    DickeBasis,
    dicke_basis,
    ghz,
    plus_vector,
    product_state,
    sample_haar,
    superposition_state,
)

THREADS_ENV = "QFIWB_THREADS"

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


class ConfigError(Exception):
    pass


# --- config parsing -----------------------------------------------------------

def parse_config_text(text: str) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _coerce(kind: str, raw: str, key: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            v = float(raw)
            if not math.isfinite(v):
                raise ValueError("not finite")
            return v
        if kind == "bool":
            if raw.lower() in ("true", "1"):
                return True
            if raw.lower() in ("false", "0"):
                return False
            raise ValueError("expected true/false")
        return raw
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {kind} ({exc})")


def build_config(
    name: str, fields: dict[str, tuple[str, object]], raw: dict[str, str]
) -> dict[str, object]:
    cfg = {key: default for key, (_, default) in fields.items()}
    for key, value in raw.items():
        if key not in fields:
            known = ", ".join(sorted(fields))
            raise ConfigError(f"unknown config key {key!r} for {name}; known keys: {known}")
        cfg[key] = _coerce(fields[key][0], value, key)
    return cfg


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


# --- output plumbing ----------------------------------------------------------

@dataclass
class ExperimentResult:
    header: tuple[str, ...]
    rows: list[tuple]
    summary: dict
    passed: bool


# Floats are written with 17 significant digits, which round-trip every
# double; "%.17g" % v and format(v, ".17g") give the same bytes.
_FLOAT_SPEC = ".17g"
_FLOAT_TYPES = frozenset((float, np.float64))
_INT_TYPES = frozenset((int, np.int64))
_BOOL_TYPES = frozenset((bool, np.bool_))
_STR_TYPES = frozenset((str,))


def _non_finite(value: float) -> ArithmeticError:
    return ArithmeticError(f"non-finite value {value!r} in CSV output")


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            raise _non_finite(v)
        return format(v, _FLOAT_SPEC)
    if isinstance(value, str):
        if "," in value or "\n" in value:
            raise ValueError(f"string cell {value!r} would break the CSV")
        return value
    raise TypeError(f"unsupported CSV cell type {type(value).__name__}")


def _column_spec(column: tuple) -> tuple[str, tuple]:
    """One printf spec for a whole column, and the values it formats.

    All-float columns are checked for finiteness in one pass, all-int
    columns need no check, all-bool and all-str columns go through `_cell`
    once per distinct value, in first-seen order so the first bad value is
    the one reported, and mixed columns cell by cell (1, 1.0 and True hash
    alike, so their values cannot be shared).
    """
    types = set(map(type, column))
    if types <= _FLOAT_TYPES:
        finite = np.isfinite(np.array(column, dtype=np.float64))
        if not finite.all():
            raise _non_finite(float(column[int(np.argmin(finite))]))
        return "%" + _FLOAT_SPEC, column
    if types <= _INT_TYPES:
        return "%d", column
    if types <= _BOOL_TYPES or types <= _STR_TYPES:
        cells = {v: _cell(v) for v in dict.fromkeys(column)}
        return "%s", tuple(map(cells.__getitem__, column))
    return "%s", tuple(map(_cell, column))


def write_csv(path: Path, header: tuple[str, ...], rows: list[tuple]) -> None:
    """Header line, then one line per row; every column is checked before writing.

    Raises ArithmeticError for a non-finite float, ValueError for a row of
    the wrong width or a string that would break the CSV, and TypeError for
    any other cell type; with several bad cells, the first bad column wins.
    """
    if any(len(row) != len(header) for row in rows):
        raise ValueError("row width does not match header")
    lines = [",".join(header)]
    if rows:
        specs, columns = zip(*map(_column_spec, zip(*rows)))
        line = ",".join(specs)
        lines += [line % row for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n")


# State rows per qfi_batch block are capped at this many amplitudes (16 MiB).
_BLOCK_AMPLITUDES = 2**20


def _trials(rng: Rng, trials: range, draw: Callable[[int, Rng], object]) -> list:
    """draw(t, stream) for every trial t, in trial order.

    Trial t always draws from the seed's stream (1, t), so its draw does not
    depend on which other trials run.
    """
    return [draw(t, r) for t, r in rng.substream(1).substreams(trials)]


def _state_qfis(rng: Rng, trials: range, hs: list, basis: DickeBasis | None = None) -> np.ndarray:
    """QFI of each trial's random state under every operator in `hs`.

    The operators are typed Hamiltonians, evaluated in their product
    eigenframes, or bare arrays. Trial t's state is the normalised complex
    Gaussian of the seed's stream (1, t): the state sample_haar draws, or
    with `basis` the state sample_symmetric draws in that Dicke frame.
    Blocks of at most _BLOCK_AMPLITUDES amplitudes are drawn in one
    vectorised pass, and each block is one qfi_batch call per operator.
    Returns shape (len(hs), len(trials)).
    """
    streams = rng.substream(1)
    first = hs[0]
    dim = first.shape[0] if isinstance(first, np.ndarray) else first.d**first.n
    step = max(1, _BLOCK_AMPLITUDES // dim)
    out = np.empty((len(hs), len(trials)))
    for start in range(0, len(trials), step):
        block = trials[start:start + step]
        if basis is None:
            amplitudes = streams.substream_normals(block, dim)
        else:
            # each frame row has one nonzero entry, so the lift is exact
            amplitudes = streams.substream_normals(block, basis.size) @ basis.matrix.T
        amplitudes /= np.linalg.norm(amplitudes, axis=1)[:, None]
        for k, h in enumerate(hs):
            out[k, start:start + len(block)] = qfi_batch(h, amplitudes)
    return out


def _mean_se(values: list[float]) -> tuple[float, float]:
    count = len(values)
    mean = math.fsum(values) / count
    if count < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (count - 1)
    return mean, math.sqrt(var / count)


# --- experiment drivers -------------------------------------------------------

def run_ghz_baseline(cfg, rng: Rng) -> ExperimentResult:
    n_min, n_max = cfg["n_min"], cfg["n_max"]
    _require(3 <= n_min <= n_max, "need 3 <= n_min <= n_max (the shifted-basis formula starts at n=3)")
    lam0, lam1, tol = cfg["lam0"], cfg["lam1"], cfg["tol"]
    gap2 = (lam1 - lam0) ** 2
    rows = []
    worst = 0.0
    for n in range(n_min, n_max + 1):
        probe = ghz(n).amplitudes[None, :]
        for family, site, closed in (
            ("computational", SingleSiteOperator.computational((lam0, lam1)), n * n * gap2),
            ("plus_minus", SingleSiteOperator.plus_minus((lam0, lam1)), n * gap2),
        ):
            h = LinearHamiltonian.from_site(n, site)
            value = float(qfi_batch(h, probe)[0])
            dev = abs(value - closed)
            worst = max(worst, dev)
            rows.append((n, family, lam0, lam1, value, closed, dev, dev <= tol))
    passed = worst <= tol
    return ExperimentResult(
        ("n", "family", "lam0", "lam1", "qfi", "closed_form", "abs_dev", "pass"),
        rows,
        {"worst_abs_dev": worst, "tolerance": tol},
        passed,
    )


def _montecarlo_result(
    cfg, family: str, values: np.ndarray, closed: float
) -> ExperimentResult:
    """Rows and the 3-sigma verdict of a Monte Carlo mean against its closed form.

    With zero spread the verdict is exact equality, and z_score is 0.0 when
    it holds and None (JSON null) when it does not.
    """
    n, d, seed = cfg["n"], cfg["d"], cfg["seed"]
    values = values.tolist()
    rows = [
        (seed, t, n, d, family, value, closed, abs(value - closed))
        for t, value in enumerate(values)
    ]
    mean, se = _mean_se(values)
    if se > 0.0:
        z = abs(mean - closed) / se
        passed = z <= 3.0
    else:
        passed = mean == closed
        z = 0.0 if passed else None
    return ExperimentResult(
        ("seed", "trial", "n", "d", "family", "qfi", "closed_form", "abs_dev"),
        rows,
        {
            "closed_form": closed,
            "empirical_mean": mean,
            "standard_error": se,
            "z_score": z,
            "trials": cfg["trials"],
        },
        passed,
    )


def run_lemma1_montecarlo(cfg, rng: Rng) -> ExperimentResult:
    n, d, trials = cfg["n"], cfg["d"], cfg["trials"]
    _require(n >= 1 and d >= 2 and trials >= 2, "need n >= 1, d >= 2, trials >= 2")
    family = cfg["family"]
    h_rng = rng.substream(0)
    if family == "linear":
        h = sample_linear(n, d, h_rng, cfg["low"], cfg["high"], basis="haar")
    elif family == "product":
        h = sample_product_diagonal(n, d, h_rng, cfg["low"], cfg["high"])
    else:
        raise ConfigError(f"family must be linear or product, got {family!r}")
    closed = expected_qfi_haar(h)
    values = _state_qfis(rng, range(trials), [h])[0]
    return _montecarlo_result(cfg, family, values, closed)


def run_lemma3_montecarlo(cfg, rng: Rng) -> ExperimentResult:
    n, d, trials = cfg["n"], cfg["d"], cfg["trials"]
    _require(n >= 1 and d >= 2 and trials >= 2, "need n >= 1, d >= 2, trials >= 2")
    levels = np.linspace(cfg["lam0"], cfg["lam1"], d)
    site = SingleSiteOperator.computational(tuple(levels))
    h = LinearHamiltonian.from_site(n, site)
    closed = expected_qfi_symmetric_linear(site, n)
    values = _state_qfis(rng, range(trials), [h], dicke_basis(n, d))[0]
    return _montecarlo_result(cfg, "equal-row", values, closed)


def run_concentration(cfg, rng: Rng) -> ExperimentResult:
    n, d, trials, eps = cfg["n"], cfg["d"], cfg["trials"], cfg["epsilon"]
    _require(n >= 1 and d >= 2 and trials >= 1, "need n >= 1, d >= 2, trials >= 1")
    _require(eps > 0.0, "epsilon must be positive")
    levels = np.linspace(cfg["lam0"], cfg["lam1"], d)
    # The equal-row Hamiltonian is computational, so its eigenframe diagonal
    # is its spectrum and each trial needs only |z_k|^2.
    h = LinearHamiltonian.from_site(n, SingleSiteOperator.computational(tuple(levels)))
    diag = h.diagonal()
    dim = diag.size
    diag_sq = diag**2
    f_mean = expected_qfi_haar(h) / 4.0
    bound = levy_bound(h, dim, eps)

    def draw(t: int, r: Rng) -> tuple:
        # |z_k|^2 of the state complex_normal(dim) would draw: Box-Muller
        # reads the first dim words as u1 and |z_k|^2 = r_k^2 / 2 =
        # -log(1 - u1_k), so the angles (the next dim words) never matter.
        w = -np.log(1.0 - r.random(dim))
        w = w / w.sum()
        m1 = float(w @ diag)
        m2 = float(w @ diag_sq)
        f = m2 - m1 * m1
        dev = f - f_mean
        return (t, f, f_mean, dev, abs(dev) > eps, dev < -eps)

    rows = _trials(rng, range(trials), draw)
    freq_two = sum(1 for r in rows if r[4]) / trials
    freq_one = sum(1 for r in rows if r[5]) / trials
    checks = []
    if not bound.vacuous_two_sided:
        checks.append(freq_two <= bound.two_sided)
    if not bound.vacuous_one_sided:
        checks.append(freq_one <= bound.one_sided)
    return ExperimentResult(
        ("trial", "f_value", "f_mean", "deviation", "exceed_two", "exceed_one"),
        rows,
        {
            "dim": dim,
            "epsilon": eps,
            "lipschitz": bound.lipschitz,
            "freq_two_sided": freq_two,
            "bound_two_sided": bound.two_sided,
            "vacuous_two_sided": bound.vacuous_two_sided,
            "freq_one_sided": freq_one,
            "bound_one_sided": bound.one_sided,
            "vacuous_one_sided": bound.vacuous_one_sided,
        },
        all(checks) if checks else True,
    )


def _audit_result(
    header: tuple[str, ...], n: int, d: int, values: tuple[np.ndarray, ...], margin: np.ndarray, tol: float
) -> ExperimentResult:
    """Rows (trial, n, d, *values, margin, pass) of a margin audit; pass is margin >= -tol."""
    passed = margin >= -tol
    trials = len(margin)
    rows = list(zip(range(trials), [n] * trials, [d] * trials,
                    *(v.tolist() for v in values), margin.tolist(), passed.tolist()))
    violations = trials - int(passed.sum())
    return ExperimentResult(
        header, rows, {"violations": violations, "min_margin": float(margin.min())}, violations == 0,
    )


def run_prop4_audit(cfg, rng: Rng) -> ExperimentResult:
    n, d, trials, tol = cfg["n"], cfg["d"], cfg["trials"], cfg["tol"]
    _require(n >= 1 and d >= 2 and trials >= 1, "need n >= 1, d >= 2, trials >= 1")
    # trial t reads the words sample_product_diagonal would from stream (1, t)
    u = rng.substream(1).substream_uniforms(range(trials), product_diagonal_words(n, d))
    coeffs, _ = sample_product_diagonal_arrays(u, n, d, cfg["low"], cfg["high"])
    haar_mean = expected_qfi_haar_diagonals(coeffs)
    reference = separable_reference_diagonals(coeffs)
    return _audit_result(
        ("trial", "n", "d", "haar_mean", "separable_reference", "margin", "pass"),
        n, d, (haar_mean, reference), reference - haar_mean, tol,
    )


def run_prop5_audit(cfg, rng: Rng) -> ExperimentResult:
    n, d, trials, tol = cfg["n"], cfg["d"], cfg["trials"], cfg["tol"]
    _require(n >= 1 and d >= 2 and trials >= 1, "need n >= 1, d >= 2, trials >= 1")
    # trial t reads the words sample_linear would from stream (1, t)
    u = rng.substream(1).substream_uniforms(range(trials), linear_words(n, d, "haar"))
    tables, _ = sample_linear_arrays(u, n, d, cfg["low"], cfg["high"], "haar")
    e_linear = expected_qfi_symmetric_tables(tables)
    # the permutation average of a linear H has every row at the column means
    e_averaged = expected_qfi_symmetric_levels(tables.mean(axis=-2), n)
    return _audit_result(
        ("trial", "n", "d", "e_sym_linear", "e_sym_averaged", "margin", "pass"),
        n, d, (e_linear, e_averaged), e_linear - e_averaged, tol,
    )


def run_result1_demo(cfg, rng: Rng) -> ExperimentResult:
    n, d = cfg["n"], cfg["d"]
    n_h, n_s = cfg["hamiltonians"], cfg["states"]
    c, eps, a_lo, a_hi = cfg["c"], cfg["eps"], cfg["A"], cfg["B"]
    _require(n >= 1 and d >= 2 and n_h >= 1 and n_s >= 1, "counts must be positive")
    h_rng = rng.substream(0)
    hams = [sample_linear_banded(n, d, r, a_lo, a_hi) for _, r in h_rng.substreams(range(n_h))]
    sym_means = [
        expected_qfi_symmetric_linear(h.symmetrized().site_operator(0), n) for h in hams
    ]
    basis = dicke_basis(n, d)
    rows = []
    for i in range(n_h):
        trials = range(i * n_s, (i + 1) * n_s)
        values = _state_qfis(rng, trials, [hams[i]], basis)[0].tolist()
        threshold = sym_means[i] - c
        rows += [
            (t, i, j, value, sym_means[i], threshold, value < threshold)
            for j, (t, value) in enumerate(zip(trials, values))
        ]
    below = sum(1 for r in rows if r[6])
    fraction = below / len(rows)
    params = BoundParams(
        n=n, d=d, s_coff=float(d * n), s_basis=1.0, A=a_lo, B=a_hi,
        a=1.0, norm_A0=0.0, c=c, eps=eps,
    )
    bound = theorem_bound(params, "thm7")
    passed = True if bound.vacuous else fraction <= math.exp(min(bound.log_total, 700.0))
    return ExperimentResult(
        ("trial", "h_index", "state_index", "qfi", "sym_mean", "threshold", "below"),
        rows,
        {
            "fraction_below": fraction,
            "pairs": len(rows),
            "bound_log_prefactor": bound.log_prefactor,
            "bound_log_exponential": bound.log_exponential,
            "bound_log_total": bound.log_total,
            "bound_vacuous": bound.vacuous,
        },
        passed,
    )


def run_result3_demo(cfg, rng: Rng) -> ExperimentResult:
    n, d = cfg["n"], cfg["d"]
    n_h, n_s = cfg["hamiltonians"], cfg["states"]
    c, eps, a_lo, a_hi = cfg["c"], cfg["eps"], cfg["A"], cfg["B"]
    _require(n >= 1 and d >= 2 and n_h >= 1 and n_s >= 1, "counts must be positive")
    h_rng = rng.substream(0)
    hams = [sample_product_banded(n, d, r, a_lo, a_hi) for _, r in h_rng.substreams(range(n_h))]
    refs = np.array([optimal_separable_reference(h) for h in hams])
    qfis = _state_qfis(rng, range(n_s), hams)
    gaps = (qfis - refs[:, None]).max(axis=0).tolist()
    rows = [(t, gap, c, gap > c) for t, gap in enumerate(gaps)]
    exceed = sum(1 for r in rows if r[3])
    rate = exceed / n_s
    params = BoundParams(
        n=n, d=d, s_coff=float(d**n), s_basis=float(n), A=a_lo, B=a_hi,
        a=1.0, norm_A0=0.0, c=c, eps=eps,
    )
    bound = theorem_bound(params, "thm9")
    passed = True if bound.vacuous else rate <= math.exp(min(bound.log_total, 700.0))
    return ExperimentResult(
        ("trial", "max_gap", "c", "exceed"),
        rows,
        {
            "exceedances": exceed,
            "rate": rate,
            "bound_log_prefactor": bound.log_prefactor,
            "bound_log_exponential": bound.log_exponential,
            "bound_log_total": bound.log_total,
            "bound_vacuous": bound.vacuous,
        },
        passed,
    )


def run_thm11_check(cfg, rng: Rng) -> ExperimentResult:
    n, d, trials, tol = cfg["n"], cfg["d"], cfg["trials"], cfg["tol"]
    _require(n >= 1 and d >= 2 and trials >= 1, "need n >= 1, d >= 2, trials >= 1")
    dim = d**n

    def draw(t: int, r: Rng) -> tuple:
        h = random_hermitian(dim, r)
        psi = sample_haar(n, d, r)
        res = global_unitary_transport(psi, h)
        dev = abs(res.check - res.target)
        return (t, n, d, res.target, res.check, dev, res.degenerate, dev <= tol)

    rows = _trials(rng, range(trials), draw)
    violations = sum(1 for r in rows if not r[7])
    return ExperimentResult(
        ("trial", "n", "d", "target", "achieved", "abs_dev", "degenerate", "pass"),
        rows,
        {"violations": violations, "worst_abs_dev": max(r[5] for r in rows)},
        violations == 0,
    )


GME_STATES = ("ghz", "plus-product", "superposition", "uniform-cap", "extremal-cap", "random")


def _gme_state(name: str, n: int, c: float, rng: Rng):
    if name == "ghz":
        return ghz(n)
    if name == "plus-product":
        return product_state([plus_vector()] * n)
    if name == "superposition":
        return superposition_state(n)
    if name == "uniform-cap":
        return cap_state(n, c, "uniform")[1]
    if name == "extremal-cap":
        return cap_state(n, c, "extremal")[1]
    if name == "random":
        return sample_haar(n, 2, rng)
    raise ConfigError(f"state must be one of {GME_STATES}, got {name!r}")


def _run_result2(cfg, rng: Rng) -> tuple[Result2Report, str]:
    n, c, delta = cfg["n"], cfg["c"], cfg["delta"]
    _require(n >= 2, "need n >= 2")
    state = _gme_state(cfg["state"], n, c, rng.substream(0))
    oracle_delta = cfg.get("oracle_delta", 0.0)
    report = verify_result2(
        state, c, delta,
        rng=rng.substream(1),
        restarts=cfg["restarts"],
        oracle_delta=None if oracle_delta <= 0.0 else oracle_delta,
    )
    return report, cfg["state"]


def run_gme_scan(cfg, rng: Rng) -> ExperimentResult:
    report, _ = _run_result2(cfg, rng)
    row = (
        rng.seed, report.n, report.c, report.gme_estimate.value, report.threshold,
        report.qfi_state, report.qfi_sym, report.qfi_cap, report.hypothesis_established,
    )
    return ExperimentResult(
        ("seed", "n", "c", "gme_estimate", "threshold", "qfi_state", "qfi_sym",
         "qfi_cap", "hypothesis_established"),
        [row],
        {
            "certified_gme": report.certified_gme,
            "oracle_used": report.oracle_used,
            "implication_holds": report.implication_holds,
        },
        report.implication_holds is not False,
    )


def run_result2_verify(cfg, rng: Rng) -> ExperimentResult:
    report, state_name = _run_result2(cfg, rng)
    implication = "none" if report.implication_holds is None else (
        "true" if report.implication_holds else "false"
    )
    row = (
        report.n, report.c, report.delta, state_name, report.gme_estimate.value,
        report.certified_gme, report.oracle_used, report.threshold,
        report.hypothesis_established, report.qfi_state, report.qfi_sym,
        report.qfi_cap, implication,
    )
    return ExperimentResult(
        ("n", "c", "delta", "state", "gme_estimate", "certified_gme", "oracle_used",
         "threshold", "hypothesis_established", "qfi_state", "qfi_sym", "qfi_cap",
         "implication_holds"),
        [row],
        {"restarts_converged": report.gme_estimate.converged},
        report.implication_holds is not False,
    )


def run_table_census(cfg, rng: Rng) -> ExperimentResult:
    n, k = cfg["n"], cfg["k"]
    _require(n >= 2 and k >= 2, "need n >= 2 and k >= 2")
    rows = []
    mismatches = []
    skipped = []
    for shape in GRAPH_SHAPES:
        try:
            g = preset_graph(shape, n, k)
            closed = preset_census(shape, n, k)
        except ValueError:
            skipped.append(shape)
            continue
        brute = census_bruteforce(g)
        deg = degree_vector(g)
        routes = [closed, brute]
        if k == 2:
            routes.append(census_by_degrees(deg))
        if any(r != brute for r in routes):
            mismatches.append(shape)
        norm1_sq, norm2_sq = degree_norms(deg)
        rows.append(
            (shape, n, k, brute.s, brute.disjoint, brute.connected, brute.all,
             norm1_sq, norm2_sq)
        )
    _require(bool(rows), f"no preset is defined at n={n}, k={k}")
    return ExperimentResult(
        ("shape", "n", "k", "s", "disjoint", "connected", "all", "norm1_sq", "norm2_sq"),
        rows,
        {"route_mismatches": mismatches, "skipped_shapes": skipped},
        not mismatches,
    )


def run_scaling_report(cfg, rng: Rng) -> ExperimentResult:
    shapes = [s.strip() for s in cfg["shapes"].split(",") if s.strip()]
    for s in shapes:
        _require(s in GRAPH_SHAPES, f"unknown shape {s!r}; options: {GRAPH_SHAPES}")
    n_min, n_max = cfg["n_min"], cfg["n_max"]
    _require(2 <= n_min <= n_max, "need 2 <= n_min <= n_max")
    rows = []
    for shape in shapes:
        for n in range(n_min, n_max + 1):
            try:
                g = preset_graph(shape, n, 2)
            except ValueError:
                continue
            rep = scaling_report(g)
            rows.append(
                (shape, n, rep.census.s, rep.norm1_sq, rep.norm2_sq, rep.ratio,
                 rep.verdict)
            )
    _require(bool(rows), "no (shape, n) pair in range is valid")
    return ExperimentResult(
        ("shape", "n", "s", "norm1_sq", "norm2_sq", "ratio", "verdict"),
        rows,
        {"shapes": shapes},
        True,
    )


def run_net_audit(cfg, rng: Rng) -> ExperimentResult:
    audit = cfg["audit"]
    n, d, trials, eps = cfg["n"], cfg["d"], cfg["trials"], cfg["eps"]
    net_modes = {"cover": "prop7", "prop8": "result1", "prop9": "result3"}
    _require(audit in net_modes, f"audit must be cover, prop8, or prop9, got {audit!r}")
    _require(d == 2, "constructive nets are qubit-only (d = 2)")
    _require(trials >= 1, "trials must be positive")
    params = BoundParams(
        n=n, d=d, s_coff=float(d * n), s_basis=1.0, A=cfg["A"], B=cfg["B"],
        a=1.0, norm_A0=0.0, c=1.0, eps=eps,
    )
    net = build_linear_net(params, net_modes[audit], cfg["prop6_c"])
    report = property_audit(net, eps, trials, audit, rng.substream(1))
    return ExperimentResult(
        ("trial", "distance_to_net", "eps", "pass"),
        [(t, v, eps, v <= eps) for t, v in enumerate(report.values.tolist())],
        {
            "audit": audit,
            "max_distance_to_net": report.max_value,
            "violations": report.violations,
            "counterexamples": list(report.counterexamples),
        },
        report.violations == 0,
    )


def run_bound_sweep(cfg, rng: Rng) -> ExperimentResult:
    which = cfg["which"]
    _require(which in ("thm7", "thm9"), f"which must be thm7 or thm9, got {which!r}")
    n_min, n_max, step = cfg["n_min"], cfg["n_max"], cfg["n_step"]
    _require(1 <= n_min <= n_max and step >= 1, "need 1 <= n_min <= n_max and n_step >= 1")
    # Zero/negative sentinels mean "use the demonstration defaults for this
    # theorem"; the defaults put the downturn inside a 4..64 sweep.
    d = cfg["d"] if cfg["d"] > 0 else (14 if which == "thm7" else 2)
    c = cfg["c"] if cfg["c"] > 0 else (40.0 if which == "thm7" else 2.0)
    rows = []
    for n in range(n_min, n_max + 1, step):
        if which == "thm7":
            params = BoundParams(
                n=n, d=d, s_coff=float(d * n), s_basis=1.0, A=cfg["A"], B=cfg["B"],
                a=1.0, norm_A0=0.0, c=c, eps=cfg["eps"],
            )
        else:
            params = BoundParams(
                n=n, d=d, s_coff=4.0, s_basis=float(n), A=cfg["A"], B=cfg["B"],
                a=float(n), norm_A0=1.0, c=c, eps=cfg["eps"],
                a_provenance="linear-growth model",
            )
        tb = theorem_bound(params, which, cfg["d_min"], cfg["prop6_c"])
        rows.append((n, d, tb.log_prefactor, tb.log_exponential, tb.log_total, tb.vacuous))
    totals = [r[4] for r in rows]
    peak = max(range(len(totals)), key=lambda i: totals[i])
    tail = totals[peak:]
    tail_monotone = all(b < a for a, b in zip(tail, tail[1:]))
    turned_over = peak < len(totals) - 1
    return ExperimentResult(
        ("n", "d", "log_prefactor", "log_exponential", "log_total", "vacuous"),
        rows,
        {
            "which": which,
            "c": c,
            "peak_n": rows[peak][0],
            "turned_over": turned_over,
            "tail_monotone": tail_monotone,
        },
        turned_over and tail_monotone,
    )


# --- registry -----------------------------------------------------------------

_COMMON = {"seed": ("int", 0)}

EXPERIMENTS: dict[str, tuple[dict[str, tuple[str, object]], Callable]] = {
    "ghz-baseline": (
        {**_COMMON, "n_min": ("int", 3), "n_max": ("int", 8), "lam0": ("float", 0.0),
         "lam1": ("float", 1.0), "tol": ("float", 1e-9)},
        run_ghz_baseline,
    ),
    "lemma1-montecarlo": (
        {**_COMMON, "n": ("int", 2), "d": ("int", 2), "trials": ("int", 100_000),
         "family": ("str", "linear"), "low": ("float", -1.0), "high": ("float", 1.0)},
        run_lemma1_montecarlo,
    ),
    "lemma3-montecarlo": (
        {**_COMMON, "n": ("int", 2), "d": ("int", 2), "trials": ("int", 100_000),
         "lam0": ("float", 0.0), "lam1": ("float", 1.0)},
        run_lemma3_montecarlo,
    ),
    "concentration": (
        {**_COMMON, "n": ("int", 12), "d": ("int", 2), "trials": ("int", 10_000),
         "lam0": ("float", 0.0), "lam1": ("float", 1.0), "epsilon": ("float", 110.0)},
        run_concentration,
    ),
    "prop4-audit": (
        {**_COMMON, "n": ("int", 4), "d": ("int", 2), "trials": ("int", 200),
         "low": ("float", -1.0), "high": ("float", 1.0), "tol": ("float", 1e-9)},
        run_prop4_audit,
    ),
    "prop5-audit": (
        {**_COMMON, "n": ("int", 5), "d": ("int", 3), "trials": ("int", 200),
         "low": ("float", -1.0), "high": ("float", 1.0), "tol": ("float", 1e-9)},
        run_prop5_audit,
    ),
    "result1-demo": (
        {**_COMMON, "n": ("int", 4), "d": ("int", 2), "hamiltonians": ("int", 50),
         "states": ("int", 200), "c": ("float", 1.0), "eps": ("float", 0.5),
         "A": ("float", 1.0), "B": ("float", 2.0)},
        run_result1_demo,
    ),
    "result3-demo": (
        {**_COMMON, "n": ("int", 4), "d": ("int", 2), "hamiltonians": ("int", 20),
         "states": ("int", 500), "c": ("float", 1.0), "eps": ("float", 0.5),
         "A": ("float", 1.0), "B": ("float", 2.0)},
        run_result3_demo,
    ),
    "thm11-check": (
        {**_COMMON, "n": ("int", 3), "d": ("int", 2), "trials": ("int", 100),
         "tol": ("float", 1e-7)},
        run_thm11_check,
    ),
    "gme-scan": (
        {**_COMMON, "n": ("int", 8), "c": ("float", 1.5), "delta": ("float", 1.0),
         "state": ("str", "ghz"), "restarts": ("int", 8), "oracle_delta": ("float", 0.0)},
        run_gme_scan,
    ),
    "result2-verify": (
        {**_COMMON, "n": ("int", 3), "c": ("float", 1.5), "delta": ("float", 1.0),
         "state": ("str", "ghz"), "restarts": ("int", 8), "oracle_delta": ("float", 0.0)},
        run_result2_verify,
    ),
    "table-census": (
        {**_COMMON, "n": ("int", 5), "k": ("int", 2)},
        run_table_census,
    ),
    "scaling-report": (
        {**_COMMON, "shapes": ("str", "star,chain,ring,complete"),
         "n_min": ("int", 4), "n_max": ("int", 12)},
        run_scaling_report,
    ),
    "net-audit": (
        {**_COMMON, "audit": ("str", "cover"), "n": ("int", 2), "d": ("int", 2),
         "trials": ("int", 200), "eps": ("float", 0.5), "A": ("float", 1.0),
         "B": ("float", 2.0), "prop6_c": ("float", 18.0)},
        run_net_audit,
    ),
    "bound-sweep": (
        {**_COMMON, "which": ("str", "thm7"), "n_min": ("int", 4), "n_max": ("int", 64),
         "n_step": ("int", 4), "d": ("int", 0), "c": ("float", 0.0),
         "eps": ("float", 0.5), "A": ("float", 1.0), "B": ("float", 2.0),
         "d_min": ("float", 0.0), "prop6_c": ("float", 18.0)},
        run_bound_sweep,
    ),
}


# --- entry point ---------------------------------------------------------------

def _check_threads(arg: int | None) -> None:
    """Validate --threads, or QFIWB_THREADS when the flag is absent; no effect."""
    if arg is not None:
        value = arg
    else:
        env = os.environ.get(THREADS_ENV, "").strip()
        if not env:
            return
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"{THREADS_ENV}={env!r} is not an integer")
    if value < 1:
        raise ConfigError(f"thread count must be >= 1, got {value}")


def _internal_error(exc: Exception) -> int:
    """Report a crash on one line; exit 1 stays reserved for violated checks."""
    print(f"qfiwb: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_INTERNAL


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qfiwb",
        description="Run a registered experiment and write CSV plus JSON summary.",
    )
    parser.add_argument("experiment", help="experiment name; see the registry in the docs")
    parser.add_argument("--config", required=True, help="flat key = value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=".", help="output directory (default: cwd)")
    parser.add_argument("--threads", type=int, default=None,
                        help=f"accepted and validated (>= 1; default: ${THREADS_ENV}) "
                             "but without effect: trials run serially")
    args = parser.parse_args(argv)

    try:
        if args.experiment not in EXPERIMENTS:
            known = ", ".join(sorted(EXPERIMENTS))
            raise ConfigError(f"unknown experiment {args.experiment!r}; choose from: {known}")
        fields, runner = EXPERIMENTS[args.experiment]
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}")
        cfg = build_config(args.experiment, fields, parse_config_text(text))
        if args.seed is not None:
            cfg["seed"] = args.seed
        _check_threads(args.threads)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {args.out!r}: {exc}")
    except ConfigError as exc:
        print(f"qfiwb: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        result = runner(cfg, Rng(cfg["seed"]))
    except (ConfigError, ValueError) as exc:
        # Library code raises ValueError only for arguments outside a
        # documented domain, so it maps to the config exit, not a crash.
        print(f"qfiwb: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        return _internal_error(exc)

    csv_path = out_dir / f"{args.experiment}.csv"
    summary_path = out_dir / f"{args.experiment}.summary.json"
    try:
        write_csv(csv_path, result.header, result.rows)
        summary = {
            "experiment": args.experiment,
            "seed": cfg["seed"],
            "config": {k: cfg[k] for k in sorted(cfg)},
            "rows": len(result.rows),
            "passed": result.passed,
            **result.summary,
        }
        summary_path.write_text(
            json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"
        )
    except OSError as exc:
        print(f"qfiwb: config error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        # Experiments validate every string they emit, so a bad cell is a bug.
        return _internal_error(exc)

    status = "pass" if result.passed else "FAIL"
    print(f"{args.experiment}: {status} ({len(result.rows)} rows) -> {csv_path}")
    return EXIT_PASS if result.passed else EXIT_VIOLATION


if __name__ == "__main__":
    raise SystemExit(main())
