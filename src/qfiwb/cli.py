"""Seeded experiment runner with CSV and JSON artifacts.

Every experiment is a named driver over the library modules.  A run is
pinned by (experiment, config, seed): trial t always draws from the seed's
stream (1, t), and trials run serially in trial order.

Every driver reads its trial words through one protocol,
`Rng.uniform_blocks` (its docstring has the routes, the README their timings):
each block of at most 2^16 words holds the words the trials' own streams
would draw, bit for bit.  The sampled states (lemma1-montecarlo,
lemma3-montecarlo, result1-demo, result3-demo, net-audit's prop8 and
prop9) come a block at a time from `states.state_blocks`.  The audits, the
Hamiltonians of result1-demo and result3-demo, and the GME restarts read
`Rng.substream_uniforms`, and the array samplers take each trial's
Hamiltonian at fixed offsets, exactly the words the per-trial samplers read.
concentration and thm11-check evaluate each block as arrays: one GEMM of
the block's logs against the centred spectrum's powers, and one stacked
eigh of the block's Hamiltonians with the transport as row arrays.
`--threads` and QFIWB_THREADS are accepted and validated but have no
effect.

Every driver returns its CSV as named columns, each a 1-D numpy array or
a scalar that repeats on every row.  The writer formats a scalar once and
an array by its dtype: float64 as %.17g after one finiteness check (the
same bytes as format(v, ".17g")), ints as %d, bools as true/false, and str
labels as they are, each distinct label checked once.  A run of
bit-identical floats is formatted once.

Every config key declares its domain in the registry, next to its kind
and default: an interval, whose float ends are finite caps that keep every
derived value a finite double, or a tuple of choices.  `build_config`
checks each key before the driver runs; only conditions across keys, such
as n_min <= n_max, are checked in the drivers.

Exit codes: 0 all asserted invariants held, 1 an invariant was violated,
2 the invocation or config was invalid (a key outside its declared domain,
a cross-key condition, or a library DomainError), 3 an internal error (any
other exception from an experiment or while writing outputs).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .gme import Result2Report, cap_state, verify_result2
from .graphs import (GRAPH_SHAPES, census, degree_norms, degree_vector, preset_census, preset_degrees,
                     preset_edge_count, preset_graph, preset_sizes, scaling_report)
from .hamiltonians import (
    LinearHamiltonian,
    ProductDiagonalHamiltonian,
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
    linear_banded_words,
    product_banded_words,
    property_audit,
    sample_linear_banded_arrays,
    sample_product_banded_arrays,
    theorem_bound,
)
from .numerics import (DomainError, Rng, check_bytes, check_dense_power, check_power_dim, complex_normals,
                       content_lines, hermitian_parts, row_norms)
from .qfi import (
    expected_qfi_haar,
    expected_qfi_haar_diagonals,
    expected_qfi_symmetric_levels,
    expected_qfi_symmetric_linear,
    expected_qfi_symmetric_tables,
    levy_bound,
    optimal_separable_reference,
    qfi_batch,
    separable_reference_diagonals,
    transport_batch,
)
from .states import (
    DickeBasis,
    dicke_basis,
    ghz,
    plus_vector,
    product_state,
    sample_haar,
    state_blocks,
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
    for lineno, line in content_lines(text):
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {line!r}")
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
        return raw
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {kind} ({exc})")


def _list_items(value: str) -> list[str]:
    """The non-empty comma-separated items of a "list" value."""
    return [item.strip() for item in value.split(",") if item.strip()]


def _interval(domain: str) -> tuple[float, bool, float, bool]:
    """(low, low end open, high, high end open) of an interval domain such as "(1, 2]"."""
    left, low, high, right = re.fullmatch(r"([\[(])(\S+), (\S+)([\])])", domain).groups()
    return float(low), left == "(", float(high), right == ")"


def in_domain(kind: str, domain: str | tuple[str, ...], value) -> bool:
    """Whether a coerced value lies in its key's declared domain.

    An interval reads "[low, high]", with "(" or ")" for an open end and
    inf for no bound.  A tuple holds the allowed strings; a "list" value
    needs at least one item, and every item must be one of them.
    """
    if isinstance(domain, tuple):
        items = _list_items(value) if kind == "list" else [value]
        return bool(items) and all(item in domain for item in items)
    low, open_low, high, open_high = _interval(domain)
    return (low < value if open_low else low <= value) and (value < high if open_high else value <= high)


def describe_domain(kind: str, domain: str | tuple[str, ...]) -> str:
    """A domain as the README and the config errors write it."""
    if isinstance(domain, str):
        return domain
    choices = "{" + ", ".join(domain) + "}"
    return f"comma list from {choices}" if kind == "list" else choices


def build_config(name: str, fields: dict[str, tuple], raw: dict[str, str]) -> dict[str, object]:
    """Defaults overlaid with the coerced raw values, each checked against its key's domain."""
    cfg = {key: default for key, (_, default, _) in fields.items()}
    for key, value in raw.items():
        if key not in fields:
            known = ", ".join(sorted(fields))
            raise ConfigError(f"unknown config key {key!r} for {name}; known keys: {known}")
        kind, _, domain = fields[key]
        cfg[key] = v = _coerce(kind, value, key)
        if not in_domain(kind, domain, v):
            raise ConfigError(f"config key {key!r}: {v!r} is outside {describe_domain(kind, domain)}")
    return cfg


def _require(cond: bool, message: str) -> None:
    """A condition across config keys; a single key's domain is in the registry."""
    if not cond:
        raise ConfigError(message)


# --- output plumbing ----------------------------------------------------------

@dataclass
class ExperimentResult:
    """CSV columns in header order, each a 1-D array or a scalar repeated on every row."""

    columns: dict[str, object]
    summary: dict
    passed: bool


def _labels(cells: list[str]) -> list[str]:
    """Str cells, each distinct label checked once in first-seen order, so the first bad one is reported."""
    for label in dict.fromkeys(cells):
        if "," in label or "\n" in label:
            raise ValueError(f"string cell {label!r} would break the CSV")
    return cells


def _format(values: np.ndarray) -> list[str]:
    """The cells of an array column, by its dtype.

    Floats are written with 17 significant digits, which round-trip every
    double ("%.17g" % v and format(v, ".17g") give the same bytes), and
    each run of bit-identical values is formatted once; comparing the bits
    keeps -0.0 apart from 0.0.
    """
    kind = values.dtype.kind
    if kind == "f":
        finite = np.isfinite(values)
        if not finite.all():
            raise ArithmeticError(f"non-finite value {float(values[np.argmin(finite)])!r} in CSV output")
        bits = values.view(np.int64)
        starts = np.flatnonzero(np.diff(bits, prepend=bits[:1] ^ 1))
        cells = list(map("%.17g".__mod__, values[starts].tolist()))
        if len(cells) == values.size:
            return cells
        return np.repeat(np.array(cells, dtype=object), np.diff(starts, append=values.size)).tolist()
    if kind in "iu":
        return list(map(str, values.tolist()))
    if kind == "b":
        return np.where(values, "true", "false").tolist()
    if kind == "U":
        return _labels(values.tolist())
    raise TypeError(f"unsupported CSV column dtype {values.dtype}")


def _scalar_cell(value) -> str:
    """The one cell of a scalar column.

    A Python int and a str are written as they are: a seed can pass 2^63,
    where numpy would need an object array, and a numpy str array drops a
    label's trailing NULs.  Any other scalar is formatted as a one-element
    array.
    """
    if type(value) is int:
        return str(value)
    if isinstance(value, str):
        return _labels([value])[0]
    return _format(np.array([value]))[0]


def write_csv(path: Path, columns: dict[str, object]) -> int:
    """Header line, then one line per row; every column is checked before writing.

    A column is a 1-D array or a scalar that repeats on every row, and a
    scalar is formatted once.  The rows are the arrays' common length, or
    one when every column is a scalar.  Raises ValueError for arrays of
    unequal length or a label that would break the CSV, ArithmeticError for
    a non-finite float, and TypeError for any other dtype; with several bad
    columns, the first one wins.  Returns the number of rows.
    """
    lengths = {len(c) for c in columns.values() if isinstance(c, np.ndarray)}
    if len(lengths) > 1:
        raise ValueError(f"array columns of unequal lengths {sorted(lengths)}")
    rows = lengths.pop() if lengths else 1
    cells = [_format(c) if isinstance(c, np.ndarray) else [_scalar_cell(c)] * rows for c in columns.values()]
    path.write_text("\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n")
    return rows


# The sampled-state drivers' norms: a pairwise sum per row, which their pinned bytes keep.
_PAIRWISE_NORMS = partial(np.linalg.norm, axis=1)


def _state_qfis(rng: Rng, trials: range, hs: list, basis: DickeBasis | None = None) -> np.ndarray:
    """QFI (len(hs), len(trials)) of each trial's random state under every operator in `hs`.

    The operators are typed Hamiltonians, evaluated in their product
    eigenframes, or bare arrays. Trial t's state is the one sample_haar, or
    with `basis` sample_symmetric, draws on the seed's stream (1, t), and
    each block of states is one qfi_batch call per operator.
    """
    dim = hs[0].shape[0] if isinstance(hs[0], np.ndarray) else check_power_dim(hs[0].d, hs[0].n)
    check_bytes(8 * len(hs) * len(trials), f"QFI values of {len(hs)} operators x {len(trials)} trials")
    out = np.empty((len(hs), len(trials)))
    for rows, states in state_blocks(rng.substream(1), trials, dim, basis, norms=_PAIRWISE_NORMS):
        out[:, rows] = [qfi_batch(h, states) for h in hs]
    return out


def _columns_of(items: list, names: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Columns named after attributes, each holding that attribute of every item in order."""
    return {name: np.array([getattr(item, name) for item in items]) for name in names}


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error by exact sums; np.float_power squares as a scalar ** 2 does."""
    count = values.size
    mean = math.fsum(values.tolist()) / count
    if count < 2:
        return mean, 0.0
    var = math.fsum(np.float_power(values - mean, 2).tolist()) / (count - 1)
    return mean, math.sqrt(var / count)


# --- experiment drivers -------------------------------------------------------

def run_ghz_baseline(cfg, rng: Rng) -> ExperimentResult:
    n_min, n_max = cfg["n_min"], cfg["n_max"]
    _require(n_min <= n_max, "need n_min <= n_max")
    lam0, lam1, tol = cfg["lam0"], cfg["lam1"], cfg["tol"]
    sites = (SingleSiteOperator.computational((lam0, lam1)), SingleSiteOperator.plus_minus((lam0, lam1)))
    # each n has a computational row, closed form n^2 gap^2, then a plus_minus row, n gap^2
    qfis = np.array([
        qfi_batch(LinearHamiltonian.from_site(n, site), ghz(n).amplitudes[None, :])[0]
        for n in range(n_min, n_max + 1) for site in sites
    ])
    ns = np.arange(n_min, n_max + 1).repeat(2)
    computational = np.arange(ns.size) % 2 == 0
    closed = np.where(computational, ns * ns, ns) * ((lam1 - lam0) ** 2)
    dev = np.abs(qfis - closed)
    worst = float(dev.max())
    return ExperimentResult(
        {"n": ns, "family": np.where(computational, "computational", "plus_minus"), "lam0": lam0,
         "lam1": lam1, "qfi": qfis, "closed_form": closed, "abs_dev": dev, "pass": dev <= tol},
        {"worst_abs_dev": worst, "tolerance": tol},
        worst <= tol,
    )


def _montecarlo_result(
    cfg, family: str, values: np.ndarray, closed: float
) -> ExperimentResult:
    """Columns and the 3-sigma verdict of a Monte Carlo mean against its closed form.

    With zero spread the verdict is exact equality, and z_score is 0.0 when
    it holds and None (JSON null) when it does not.
    """
    mean, se = _mean_se(values)
    if se > 0.0:
        z = abs(mean - closed) / se
        passed = z <= 3.0
    else:
        passed = mean == closed
        z = 0.0 if passed else None
    return ExperimentResult(
        {"seed": cfg["seed"], "trial": np.arange(values.size), "n": cfg["n"], "d": cfg["d"],
         "family": family, "qfi": values, "closed_form": closed, "abs_dev": np.abs(values - closed)},
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
    n, d, trials, family = cfg["n"], cfg["d"], cfg["trials"], cfg["family"]
    h_rng = rng.substream(0)
    if family == "linear":
        h = sample_linear(n, d, h_rng, cfg["low"], cfg["high"], basis="haar")
    else:
        h = sample_product_diagonal(n, d, h_rng, cfg["low"], cfg["high"])
    closed = expected_qfi_haar(h)
    values = _state_qfis(rng, range(trials), [h])[0]
    return _montecarlo_result(cfg, family, values, closed)


def run_lemma3_montecarlo(cfg, rng: Rng) -> ExperimentResult:
    n, d, trials = cfg["n"], cfg["d"], cfg["trials"]
    basis = dicke_basis(n, d)  # first: it refuses n >= 2, d = 4096 before a 4096 x 4096 site basis is built
    site = SingleSiteOperator.computational(tuple(np.linspace(cfg["lam0"], cfg["lam1"], d)))
    h = LinearHamiltonian.from_site(n, site)
    closed = expected_qfi_symmetric_linear(site, n)
    values = _state_qfis(rng, range(trials), [h], basis)[0]
    return _montecarlo_result(cfg, "equal-row", values, closed)


def run_concentration(cfg, rng: Rng) -> ExperimentResult:
    n, d, trials, eps = cfg["n"], cfg["d"], cfg["trials"], cfg["epsilon"]
    check_power_dim(d, 2, 16, "site basis")  # first: a huge d is refused before its d levels are built
    levels = np.linspace(cfg["lam0"], cfg["lam1"], d)
    # The equal-row Hamiltonian is computational, so its eigenframe diagonal
    # is its spectrum and each trial needs only |z_k|^2.
    h = LinearHamiltonian.from_site(n, SingleSiteOperator.computational(tuple(levels)))
    diag = h.diagonal()
    dim = diag.size
    f_mean = expected_qfi_haar(h) / 4.0
    bound = levy_bound(h, dim, eps)
    # |z_k|^2 of the state complex_normal(dim) would draw: Box-Muller reads
    # the first dim words as u1 and |z_k|^2 = r_k^2 / 2 = -log(1 - u1_k), so
    # the angles (the next dim words) never matter.  f is the variance of D
    # under the weights |z_k|^2 / sum |z|^2, which a shift of D leaves as it
    # is, so D is centred at its mid-range (a constant D gives exactly 0).
    # One GEMM of a block's log(1 - u1) against -[1, c, c^2] gives each
    # row's sum s and moments m1, m2; the two minus signs cancel.
    c = diag - (diag.max() + diag.min()) / 2.0
    check_bytes(3 * diag.nbytes, f"spectral moments of {dim} levels")
    moments = -np.stack([np.ones(dim), c, c * c], axis=1)
    s, m1, m2 = np.concatenate([
        np.log(np.subtract(1.0, u, out=u), out=u) @ moments
        for _, u in rng.substream(1).uniform_blocks(range(trials), dim)
    ]).T
    f = np.maximum(m2 / s - (m1 / s) ** 2, 0.0)  # a variance below 0 by rounding is 0
    dev = f - f_mean
    exceed_two = np.abs(dev) > eps
    exceed_one = dev < -eps
    freq_two = int(np.count_nonzero(exceed_two)) / trials
    freq_one = int(np.count_nonzero(exceed_one)) / trials
    return ExperimentResult(
        {"trial": np.arange(trials), "f_value": f, "f_mean": f_mean, "deviation": dev,
         "exceed_two": exceed_two, "exceed_one": exceed_one},
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
        (bound.vacuous_two_sided or freq_two <= bound.two_sided)
        and (bound.vacuous_one_sided or freq_one <= bound.one_sided),
    )


def _audit_result(
    n: int, d: int, values: dict[str, np.ndarray], margin: np.ndarray, tol: float
) -> ExperimentResult:
    """Columns (trial, n, d, *values, margin, pass) of a margin audit; pass is margin >= -tol."""
    passed = margin >= -tol
    violations = int(np.count_nonzero(~passed))
    return ExperimentResult(
        {"trial": np.arange(margin.size), "n": n, "d": d, **values, "margin": margin, "pass": passed},
        {"violations": violations, "min_margin": float(margin.min())},
        violations == 0,
    )


def run_prop4_audit(cfg, rng: Rng) -> ExperimentResult:
    n, d, trials, tol = cfg["n"], cfg["d"], cfg["trials"], cfg["tol"]
    # trial t reads the words sample_product_diagonal would from stream (1, t)
    u = rng.substream(1).substream_uniforms(range(trials), product_diagonal_words(n, d))
    coeffs, _ = sample_product_diagonal_arrays(u, n, d, cfg["low"], cfg["high"])
    haar_mean = expected_qfi_haar_diagonals(coeffs)
    reference = separable_reference_diagonals(coeffs)
    return _audit_result(
        n, d, {"haar_mean": haar_mean, "separable_reference": reference}, reference - haar_mean, tol,
    )


def run_prop5_audit(cfg, rng: Rng) -> ExperimentResult:
    n, d, trials, tol = cfg["n"], cfg["d"], cfg["trials"], cfg["tol"]
    # trial t reads the words sample_linear would from stream (1, t)
    u = rng.substream(1).substream_uniforms(range(trials), linear_words(n, d, "haar"))
    tables, _ = sample_linear_arrays(u, n, d, cfg["low"], cfg["high"], "haar")
    e_linear = expected_qfi_symmetric_tables(tables)
    # the permutation average of a linear H has every row at the column means
    e_averaged = expected_qfi_symmetric_levels(tables.mean(axis=-2), n)
    return _audit_result(
        n, d, {"e_sym_linear": e_linear, "e_sym_averaged": e_averaged}, e_linear - e_averaged, tol,
    )


def _demo_bound(cfg, which: str, s_coff: float, s_basis: float, observed: float) -> tuple[dict, bool]:
    """Summary entries of the demo's union bound; passed when `observed` is under it or it is vacuous."""
    params = BoundParams(
        n=cfg["n"], d=cfg["d"], s_coff=s_coff, s_basis=s_basis, A=cfg["A"], B=cfg["B"],
        a=1.0, norm_A0=0.0, c=cfg["c"], eps=cfg["eps"],
    )
    bound = theorem_bound(params, which)
    summary = {"bound_log_prefactor": bound.log_prefactor, "bound_log_exponential": bound.log_exponential,
               "bound_log_total": bound.log_total, "bound_vacuous": bound.vacuous}
    return summary, bound.vacuous or observed <= math.exp(min(bound.log_total, 700.0))


def run_result1_demo(cfg, rng: Rng) -> ExperimentResult:
    n, d, n_h, n_s, c = cfg["n"], cfg["d"], cfg["hamiltonians"], cfg["states"], cfg["c"]
    # Hamiltonian i reads a linear_banded_words row of stream (0, i)
    u = rng.substream(0).substream_uniforms(range(n_h), linear_banded_words(n, d))
    tables, bases = sample_linear_banded_arrays(u, n, d, cfg["A"], cfg["B"])
    hams = [LinearHamiltonian(table, basis) for table, basis in zip(tables, bases)]
    # the permutation average of a linear H has every row at the column means
    sym_means = expected_qfi_symmetric_levels(tables.mean(axis=-2), n).repeat(n_s)
    basis = dicke_basis(n, d)
    # pair (i, j) is trial i n_s + j, and Hamiltonian i scores its own n_s states
    qfis = np.empty(n_h * n_s)
    for rows, states in state_blocks(rng.substream(1), range(qfis.size), check_power_dim(d, n), basis,
                                     norms=_PAIRWISE_NORMS, group=n_s):
        for lo in range(rows.start, rows.stop, n_s):
            hi = min(lo + n_s, rows.stop)
            qfis[lo:hi] = qfi_batch(hams[lo // n_s], states[lo - rows.start:hi - rows.start])
    threshold = sym_means - c
    below = qfis < threshold
    fraction = int(np.count_nonzero(below)) / qfis.size
    summary, passed = _demo_bound(cfg, "thm7", float(d * n), 1.0, fraction)
    return ExperimentResult(
        {"trial": np.arange(qfis.size), "h_index": np.arange(n_h).repeat(n_s),
         "state_index": np.tile(np.arange(n_s), n_h), "qfi": qfis, "sym_mean": sym_means,
         "threshold": threshold, "below": below},
        {"fraction_below": fraction, "pairs": qfis.size, **summary}, passed,
    )


def run_result3_demo(cfg, rng: Rng) -> ExperimentResult:
    n, d, n_h, n_s, c = cfg["n"], cfg["d"], cfg["hamiltonians"], cfg["states"], cfg["c"]
    # Hamiltonian i reads a product_banded_words row of stream (0, i)
    u = rng.substream(0).substream_uniforms(range(n_h), product_banded_words(n, d))
    coeffs, bases = sample_product_banded_arrays(u, n, d, cfg["A"], cfg["B"])
    hams = [ProductDiagonalHamiltonian(c, tuple(b)) for c, b in zip(coeffs, bases)]
    refs = np.array([optimal_separable_reference(h) for h in hams])
    qfis = _state_qfis(rng, range(n_s), hams)
    gaps = (qfis - refs[:, None]).max(axis=0)
    exceed = gaps > c
    count = int(np.count_nonzero(exceed))
    summary, passed = _demo_bound(cfg, "thm9", float(d**n), float(n), count / n_s)
    return ExperimentResult(
        {"trial": np.arange(n_s), "max_gap": gaps, "c": c, "exceed": exceed},
        {"exceedances": count, "rate": count / n_s, **summary}, passed,
    )


def run_thm11_check(cfg, rng: Rng) -> ExperimentResult:
    n, d, trials, tol = cfg["n"], cfg["d"], cfg["trials"], cfg["tol"]
    dim = check_dense_power(d, n)
    h_words = 2 * dim * dim
    parts = []
    # trial t reads the words random_hermitian, then sample_haar, would from
    # stream (1, t); each block is one stacked transport, row i bit for bit
    # its one-trial call (the state's norm rounds as np.linalg.norm's)
    for _, u in rng.substream(1).uniform_blocks(range(trials), h_words + 2 * dim):
        h = hermitian_parts(complex_normals(u[:, :h_words]).reshape(-1, dim, dim))
        psi = complex_normals(u[:, h_words:])
        res = transport_batch(psi / row_norms(psi)[:, None], h)
        parts.append((res.target, res.check, res.degenerate))
    target, achieved, degenerate = (np.concatenate(column) for column in zip(*parts))
    dev = np.abs(achieved - target)
    passed = dev <= tol
    violations = int(np.count_nonzero(~passed))
    return ExperimentResult(
        {"trial": np.arange(trials), "n": n, "d": d, "target": target, "achieved": achieved,
         "abs_dev": dev, "degenerate": degenerate, "pass": passed},
        {"violations": violations, "worst_abs_dev": float(dev.max())},
        violations == 0,
    )


# The GME states by name, from (n, c, rng); only "random" draws.
GME_STATES = {
    "ghz": lambda n, c, rng: ghz(n),
    "plus-product": lambda n, c, rng: product_state([plus_vector()] * n),
    "superposition": lambda n, c, rng: superposition_state(n),
    "uniform-cap": lambda n, c, rng: cap_state(n, c, "uniform")[1],
    "extremal-cap": lambda n, c, rng: cap_state(n, c, "extremal")[1],
    "random": lambda n, c, rng: sample_haar(n, 2, rng),
}


def _run_result2(cfg, rng: Rng) -> Result2Report:
    n, c = cfg["n"], cfg["c"]
    state = GME_STATES[cfg["state"]](n, c, rng.substream(0))
    return verify_result2(
        state, c, cfg["delta"], rng=rng.substream(1), restarts=cfg["restarts"],
        oracle_delta=cfg["oracle_delta"] or None,  # 0 takes the default for n
    )


def run_gme_scan(cfg, rng: Rng) -> ExperimentResult:
    report = _run_result2(cfg, rng)
    return ExperimentResult(
        {"seed": rng.seed, "n": report.n, "c": report.c, "gme_estimate": report.gme_estimate.value,
         "threshold": report.threshold, "qfi_state": report.qfi_state, "qfi_sym": report.qfi_sym,
         "qfi_cap": report.qfi_cap, "hypothesis_established": report.hypothesis_established},
        {"certified_gme": report.certified_gme, "oracle_used": report.oracle_used,
         "implication_holds": report.implication_holds},
        report.implication_holds is not False,
    )


def run_result2_verify(cfg, rng: Rng) -> ExperimentResult:
    report = _run_result2(cfg, rng)
    implication = "none" if report.implication_holds is None else (
        "true" if report.implication_holds else "false"
    )
    return ExperimentResult(
        {"n": report.n, "c": report.c, "delta": report.delta, "state": cfg["state"],
         "gme_estimate": report.gme_estimate.value, "certified_gme": report.certified_gme,
         "oracle_used": report.oracle_used, "threshold": report.threshold,
         "hypothesis_established": report.hypothesis_established, "qfi_state": report.qfi_state,
         "qfi_sym": report.qfi_sym, "qfi_cap": report.qfi_cap, "implication_holds": implication},
        {"restarts_converged": report.gme_estimate.converged},
        report.implication_holds is not False,
    )


def run_table_census(cfg, rng: Rng) -> ExperimentResult:
    n, k = cfg["n"], cfg["k"]
    sizes = preset_sizes(GRAPH_SHAPES, n, k)  # every preset is sized and checked before any is built
    _require(bool(sizes), f"no preset is defined at n={n}, k={k}")
    censuses, norms = [], []
    for shape in sizes:
        g = preset_graph(shape, n, k)
        censuses.append(census(g))
        norms.append(degree_norms(degree_vector(g)))
    mismatches = [shape for shape, c in zip(sizes, censuses) if c != preset_census(shape, n, k)]
    norm1_sq, norm2_sq = np.array(norms).T
    return ExperimentResult(
        {"shape": np.array(list(sizes)), "n": n, "k": k,
         **_columns_of(censuses, ("s", "disjoint", "connected", "all")),
         "norm1_sq": norm1_sq, "norm2_sq": norm2_sq},
        {"route_mismatches": mismatches, "skipped_shapes": [sh for sh in GRAPH_SHAPES if sh not in sizes]},
        not mismatches,
    )


def run_scaling_report(cfg, rng: Rng) -> ExperimentResult:
    shapes = _list_items(cfg["shapes"])
    n_min, n_max = cfg["n_min"], cfg["n_max"]
    _require(n_min <= n_max, "need n_min <= n_max")
    rows = []
    for shape in shapes:
        for n in range(n_min, n_max + 1):
            try:
                preset_edge_count(shape, n)
            except DomainError:
                continue  # the preset is undefined at n
            # closed-form degrees: no graph is built and no census run
            rows.append((shape, n, scaling_report(preset_degrees(shape, n))))
    _require(bool(rows), "no (shape, n) pair in range is valid")
    labels, ns, reports = zip(*rows)
    return ExperimentResult(
        {"shape": np.array(labels), "n": np.array(ns), "s": np.array([rep.census.s for rep in reports]),
         **_columns_of(reports, ("norm1_sq", "norm2_sq", "ratio", "verdict"))},
        {"shapes": shapes},
        True,
    )


def run_net_audit(cfg, rng: Rng) -> ExperimentResult:
    audit = cfg["audit"]
    n, d, trials, eps = cfg["n"], cfg["d"], cfg["trials"], cfg["eps"]
    net_modes = {"cover": "prop7", "prop8": "result1", "prop9": "result3"}
    params = BoundParams(
        n=n, d=d, s_coff=float(d * n), s_basis=1.0, A=cfg["A"], B=cfg["B"],
        a=1.0, norm_A0=0.0, c=1.0, eps=eps,
    )
    net = build_linear_net(params, net_modes[audit], cfg["prop6_c"])
    report = property_audit(net, eps, trials, audit, rng.substream(1))
    return ExperimentResult(
        {"trial": np.arange(report.values.size), "distance_to_net": report.values, "eps": eps,
         "pass": report.values <= eps},
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
    n_min, n_max, step = cfg["n_min"], cfg["n_max"], cfg["n_step"]
    _require(n_min <= n_max, "need n_min <= n_max")
    # d = 0 and c = 0 mean "use the demonstration defaults for this
    # theorem"; the defaults put the downturn inside a 4..64 sweep.
    d = cfg["d"] if cfg["d"] > 0 else (14 if which == "thm7" else 2)
    c = cfg["c"] if cfg["c"] > 0 else (40.0 if which == "thm7" else 2.0)
    ns = range(n_min, n_max + 1, step)
    bounds = []
    for n in ns:
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
        bounds.append(theorem_bound(params, which, cfg["d_min"], cfg["prop6_c"]))
    columns = {"n": np.array(ns), "d": d,
               **_columns_of(bounds, ("log_prefactor", "log_exponential", "log_total", "vacuous"))}
    totals = columns["log_total"]
    peak = int(np.argmax(totals))
    tail_monotone = bool(np.all(totals[peak + 1:] < totals[peak:-1]))
    turned_over = peak < len(totals) - 1
    return ExperimentResult(
        columns,
        {"which": which, "c": c, "peak_n": ns[peak], "turned_over": turned_over,
         "tail_monotone": tail_monotone},
        turned_over and tail_monotone,
    )


# --- registry -----------------------------------------------------------------

# Each key is (kind, default, domain).  Floats are capped at magnitude 1e50:
# a QFI is then at most about (2 * 12 * 1e50)^2 for a 12-site operator, so
# the Monte Carlo variances, Levy exponents and bound fourth powers the
# drivers form all stay finite doubles.  Positive scales are also at least
# 1e-50, so the net accuracies' denominators never underflow to zero.
_LEVEL = "[-1e50, 1e50]"
_POSITIVE = "[1e-50, 1e50]"
_NONNEGATIVE = "[0, 1e50]"


def _int(default: int, domain: str = "[1, inf)") -> tuple:
    return ("int", default, domain)


def _float(default: float, domain: str = _LEVEL) -> tuple:
    return ("float", default, domain)


_COMMON = {"seed": _int(0, "[0, inf)")}


def _sites(n: int, d: int, **more) -> dict:
    return {**_COMMON, "n": _int(n), "d": _int(d, "[2, inf)"), **more}


def _demo(n_h: int, n_s: int) -> dict:
    return _sites(4, 2, hamiltonians=_int(n_h), states=_int(n_s), c=_float(1.0, _POSITIVE),
                  eps=_float(0.5, _POSITIVE), A=_float(1.0, _POSITIVE), B=_float(2.0, _POSITIVE))


def _result2(n: int) -> dict:
    return {**_COMMON, "n": _int(n, "[2, inf)"), "c": _float(1.5, "(1, 2)"), "delta": _float(1.0),
            "state": ("str", "ghz", tuple(GME_STATES)), "restarts": _int(8),
            "oracle_delta": _float(0.0, _NONNEGATIVE)}


EXPERIMENTS: dict[str, tuple[dict[str, tuple], Callable]] = {
    "ghz-baseline": (
        {**_COMMON, "n_min": _int(3, "[3, inf)"), "n_max": _int(8, "[3, inf)"), "lam0": _float(0.0),
         "lam1": _float(1.0), "tol": _float(1e-9, _NONNEGATIVE)},
        run_ghz_baseline,
    ),
    "lemma1-montecarlo": (
        _sites(2, 2, trials=_int(100_000, "[2, inf)"), family=("str", "linear", ("linear", "product")),
               low=_float(-1.0), high=_float(1.0)),
        run_lemma1_montecarlo,
    ),
    "lemma3-montecarlo": (
        _sites(2, 2, trials=_int(100_000, "[2, inf)"), lam0=_float(0.0), lam1=_float(1.0)),
        run_lemma3_montecarlo,
    ),
    "concentration": (
        _sites(12, 2, trials=_int(10_000), lam0=_float(0.0), lam1=_float(1.0),
               epsilon=_float(110.0, _POSITIVE)),
        run_concentration,
    ),
    "prop4-audit": (
        _sites(4, 2, trials=_int(200), low=_float(-1.0), high=_float(1.0), tol=_float(1e-9, _NONNEGATIVE)),
        run_prop4_audit,
    ),
    "prop5-audit": (
        _sites(5, 3, trials=_int(200), low=_float(-1.0), high=_float(1.0), tol=_float(1e-9, _NONNEGATIVE)),
        run_prop5_audit,
    ),
    "result1-demo": (_demo(50, 200), run_result1_demo),
    "result3-demo": (_demo(20, 500), run_result3_demo),
    "thm11-check": (_sites(3, 2, trials=_int(100), tol=_float(1e-7, _NONNEGATIVE)), run_thm11_check),
    "gme-scan": (_result2(8), run_gme_scan),
    "result2-verify": (_result2(3), run_result2_verify),
    "table-census": ({**_COMMON, "n": _int(5, "[2, inf)"), "k": _int(2, "[2, inf)")}, run_table_census),
    "scaling-report": (
        {**_COMMON, "shapes": ("list", "star,chain,ring,complete", GRAPH_SHAPES),
         "n_min": _int(4, "[2, inf)"), "n_max": _int(12, "[2, inf)")},
        run_scaling_report,
    ),
    "net-audit": (
        {**_COMMON, "audit": ("str", "cover", ("cover", "prop8", "prop9")), "n": _int(2),
         "d": _int(2, "[2, 2]"), "trials": _int(200), "eps": _float(0.5, _POSITIVE),
         "A": _float(1.0, _POSITIVE), "B": _float(2.0, _POSITIVE), "prop6_c": _float(18.0, _POSITIVE)},
        run_net_audit,
    ),
    # n and d are capped at 10^4: d^n then has at most about 1.3e5 bits, and
    # the bound has long since left the doubles.
    "bound-sweep": (
        {**_COMMON, "which": ("str", "thm7", ("thm7", "thm9")), "n_min": _int(4, "[1, 10000]"),
         "n_max": _int(64, "[1, 10000]"), "n_step": _int(4), "d": _int(0, "[0, 10000]"),
         "c": _float(0.0, _NONNEGATIVE), "eps": _float(0.5, _POSITIVE), "A": _float(1.0, _POSITIVE),
         "B": _float(2.0, _POSITIVE), "d_min": _float(0.0, _NONNEGATIVE),
         "prop6_c": _float(18.0, _POSITIVE)},
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
        raw = parse_config_text(text)
        if args.seed is not None:
            raw["seed"] = str(args.seed)
        cfg = build_config(args.experiment, fields, raw)
        _check_threads(args.threads)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {args.out!r}: {exc}")
        result = runner(cfg, Rng(cfg["seed"]))
    except (ConfigError, DomainError) as exc:
        # A bad invocation, a key outside its declared domain, a cross-key
        # condition, or a library argument outside its documented domain; any
        # other exception, a bare ValueError too, is a crash.
        print(f"qfiwb: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        return _internal_error(exc)

    csv_path = out_dir / f"{args.experiment}.csv"
    summary_path = out_dir / f"{args.experiment}.summary.json"
    try:
        rows = write_csv(csv_path, result.columns)
        summary = {
            "experiment": args.experiment,
            "seed": cfg["seed"],
            "config": {k: cfg[k] for k in sorted(cfg)},
            "rows": rows,
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
    print(f"{args.experiment}: {status} ({rows} rows) -> {csv_path}")
    return EXIT_PASS if result.passed else EXIT_VIOLATION


if __name__ == "__main__":
    raise SystemExit(main())
