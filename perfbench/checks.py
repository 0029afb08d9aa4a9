"""Output checks for every experiment the workloads run.

Each check reads the CSV and summary JSON an invocation wrote and tests
them against values computed here, independently of `qfiwb`, or against
properties the method must have.  No check compares against stored output
of an earlier run.

The Monte Carlo experiments exit 1 when the sample mean lies more than
three standard errors from the closed form, which happens by chance on
about 0.3 % of seeds.  So the exit code is checked against the verdict
recomputed from the CSV, and the benchmark's own acceptance test is five
standard errors.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from pathlib import Path


class CheckError(Exception):
    """An invocation's output is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(a: float, b: float, rel: float = 1e-12, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def _parse_cell(cell: str):
    if cell == "true":
        return True
    if cell == "false":
        return False
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def read_outputs(out_dir: Path, experiment: str) -> tuple[list[dict], dict]:
    text = (out_dir / f"{experiment}.csv").read_text()
    reader = csv.DictReader(io.StringIO(text))
    rows = [{k: _parse_cell(v) for k, v in row.items()} for row in reader]
    summary = json.loads((out_dir / f"{experiment}.summary.json").read_text())
    return rows, summary


def _mean_se(values: list[float]) -> tuple[float, float]:
    count = len(values)
    mean = math.fsum(values) / count
    var = math.fsum((v - mean) ** 2 for v in values) / (count - 1)
    return mean, math.sqrt(var / count)


def _monte_carlo(rows: list[dict], summary: dict, bound: float, seed: int) -> bool:
    """Shared checks of lemma1/lemma3; returns the recomputed 3-sigma verdict."""
    cfg = summary["config"]
    closed = rows[0]["closed_form"]
    _require(0.0 <= closed <= bound * (1 + 1e-12), f"closed form {closed} outside [0, {bound}]")
    for t, row in enumerate(rows):
        _require(row["trial"] == t and row["seed"] == seed, f"row {t}: wrong trial or seed")
        _require(row["n"] == cfg["n"] and row["d"] == cfg["d"], f"row {t}: wrong n or d")
        _require(row["closed_form"] == closed, f"row {t}: closed form is not constant")
        q = row["qfi"]
        _require(0.0 <= q <= bound * (1 + 1e-12), f"row {t}: qfi {q} outside [0, {bound}]")
        _require(_close(row["abs_dev"], abs(q - closed)), f"row {t}: abs_dev inconsistent")
    mean, se = _mean_se([row["qfi"] for row in rows])
    _require(abs(mean - closed) <= 5.0 * se,
             f"mean {mean} is more than five standard errors ({se}) from {closed}")
    _require(_close(summary["empirical_mean"], mean, rel=1e-12), "summary mean disagrees with CSV")
    z = abs(mean - closed) / se
    _require(_close(summary["z_score"], z, rel=1e-9), "summary z-score disagrees with CSV")
    return summary["z_score"] <= 3.0


def check_lemma1(rows, summary, seed):
    cfg = summary["config"]
    width = cfg["high"] - cfg["low"]
    # Levels lie in [low, high]: a sum of n one-site terms spreads at most
    # n * width, a product-diagonal operator at most width.
    spread = cfg["n"] * width if cfg["family"] == "linear" else width
    _require(all(row["family"] == cfg["family"] for row in rows), "wrong family column")
    return _monte_carlo(rows, summary, spread**2, seed)


def check_lemma3(rows, summary, seed):
    cfg = summary["config"]
    n, lam0, lam1 = cfg["n"], cfg["lam0"], cfg["lam1"]
    _require(cfg["d"] == 2, "the Dicke-eigenvalue check covers qubits")
    # The Dicke states are eigenvectors of the collective diagonal operator,
    # with eigenvalues n*lam0 + k*(lam1 - lam0), k = 0..n.
    e = [n * lam0 + k * (lam1 - lam0) for k in range(n + 1)]
    c = n + 1
    s1 = math.fsum(e)
    s2 = math.fsum(x * x for x in e)
    closed = 4.0 * (s2 / (c + 1) - s1 * s1 / (c * (c + 1)))
    _require(_close(rows[0]["closed_form"], closed, rel=1e-10),
             f"closed form {rows[0]['closed_form']} != Dicke-eigenvalue value {closed}")
    return _monte_carlo(rows, summary, (e[-1] - e[0]) ** 2, seed)


def check_concentration(rows, summary, seed):
    cfg = summary["config"]
    n, lam0, lam1, eps = cfg["n"], cfg["lam0"], cfg["lam1"], cfg["epsilon"]
    _require(cfg["d"] == 2, "the trace-formula check covers qubits")
    dim = 2**n
    # The equal-row diagonal holds n*lam0 + k*(lam1 - lam0) on C(n, k) entries.
    level = [n * lam0 + k * (lam1 - lam0) for k in range(n + 1)]
    tr1 = math.fsum(math.comb(n, k) * level[k] for k in range(n + 1))
    tr2 = math.fsum(math.comb(n, k) * level[k] ** 2 for k in range(n + 1))
    f_mean = tr2 / (dim + 1) - tr1 * tr1 / (dim * (dim + 1))
    f_max = (max(level) - min(level)) ** 2 / 4.0
    for t, row in enumerate(rows):
        _require(row["trial"] == t, f"row {t}: wrong trial")
        _require(_close(row["f_mean"], f_mean, rel=1e-12), f"f_mean {row['f_mean']} != {f_mean}")
        f = row["f_value"]
        _require(0.0 <= f <= f_max * (1 + 1e-12), f"row {t}: f {f} outside [0, {f_max}]")
        dev = row["deviation"]
        _require(_close(dev, f - row["f_mean"]), f"row {t}: deviation inconsistent")
        _require(row["exceed_two"] == (abs(dev) > eps) and row["exceed_one"] == (dev < -eps),
                 f"row {t}: exceedance flags inconsistent")
    _require(summary["dim"] == dim, "wrong dimension in summary")
    two = sum(1 for r in rows if r["exceed_two"]) / len(rows)
    one = sum(1 for r in rows if r["exceed_one"]) / len(rows)
    _require(summary["freq_two_sided"] == two and summary["freq_one_sided"] == one,
             "summary frequencies disagree with CSV")
    verdict = True
    if not summary["vacuous_two_sided"]:
        verdict = verdict and two <= summary["bound_two_sided"]
    if not summary["vacuous_one_sided"]:
        verdict = verdict and one <= summary["bound_one_sided"]
    return verdict


def check_result1(rows, summary, seed):
    cfg = summary["config"]
    n_s = cfg["states"]
    # |levels| <= B at each of n sites, so the spectral spread is <= 2 n B.
    bound = (2.0 * cfg["n"] * cfg["B"]) ** 2
    sym_means: dict[int, float] = {}
    for t, row in enumerate(rows):
        i, j = divmod(t, n_s)
        _require((row["trial"], row["h_index"], row["state_index"]) == (t, i, j),
                 f"row {t}: wrong indices")
        q = row["qfi"]
        _require(0.0 <= q <= bound, f"row {t}: qfi {q} outside [0, {bound}]")
        mean = sym_means.setdefault(i, row["sym_mean"])
        _require(row["sym_mean"] == mean and 0.0 < mean <= bound, f"row {t}: bad sym_mean")
        _require(_close(row["threshold"], mean - cfg["c"]), f"row {t}: threshold inconsistent")
        _require(row["below"] == (q < row["threshold"]), f"row {t}: below flag inconsistent")
    fraction = sum(1 for r in rows if r["below"]) / len(rows)
    _require(summary["fraction_below"] == fraction, "summary fraction disagrees with CSV")
    _require(_close(summary["bound_log_total"],
                    summary["bound_log_prefactor"] + summary["bound_log_exponential"]),
             "bound pieces do not add up")
    if summary["bound_vacuous"]:
        return True
    return fraction <= math.exp(min(summary["bound_log_total"], 700.0))


def _gme_threshold(n: int, c: float) -> float:
    return n - (2.0 * (n ** (c - 1.0) - math.log(n)) + c * math.log(n)) / math.log(2.0)


def _certification(row: dict, cfg: dict, certified: float, oracle_used: bool,
                   implication) -> bool:
    """Checks shared by result2-verify and gme-scan; returns the verdict."""
    n, c, delta = cfg["n"], cfg["c"], cfg["delta"]
    threshold = _gme_threshold(n, c)
    cap = 6.0 * delta**2 * n**c
    est = row["gme_estimate"]
    _require(_close(row["threshold"], threshold), f"threshold {row['threshold']} != {threshold}")
    _require(_close(row["qfi_cap"], cap), f"qfi cap {row['qfi_cap']} != {cap}")
    _require(0.0 <= certified <= est + 1e-12, f"certified {certified} above estimate {est}")
    _require(est <= n - 1 + 1e-9, f"GME estimate {est} above n - 1")
    _require(row["qfi_sym"] >= row["qfi_state"] - 1e-9, "symmetrizing lowered the QFI")
    _require(0.0 <= row["qfi_state"] <= (n * delta) ** 2 * (1 + 1e-12), "qfi_state out of range")
    _require(oracle_used == (n <= 4 and threshold >= 0.0), "oracle use does not match n")
    established = certified > threshold
    _require(row["hypothesis_established"] == established, "hypothesis flag inconsistent")
    expected = None
    if established:
        expected = row["qfi_state"] <= cap + 1e-9 and row["qfi_sym"] <= cap + 1e-9
    _require(implication == expected, f"implication {implication} != {expected}")
    if cfg["state"] == "ghz":
        _require(abs(est - 1.0) <= 1e-9, f"GHZ GME estimate {est} != 1")
        target = (n * delta) ** 2
        _require(_close(row["qfi_state"], target), f"GHZ qfi {row['qfi_state']} != {target}")
    return implication is not False


def check_result2(rows, summary, seed):
    cfg = summary["config"]
    (row,) = rows
    _require(row["state"] == cfg["state"] and row["n"] == cfg["n"], "wrong state or n")
    implication = None if row["implication_holds"] == "none" else row["implication_holds"]
    return _certification(row, cfg, row["certified_gme"], row["oracle_used"], implication)


def check_gme_scan(rows, summary, seed):
    cfg = summary["config"]
    (row,) = rows
    _require(row["seed"] == seed and row["n"] == cfg["n"], "wrong seed or n")
    return _certification(row, cfg, summary["certified_gme"], summary["oracle_used"],
                          summary["implication_holds"])


def check_net_audit(rows, summary, seed):
    cfg = summary["config"]
    for t, row in enumerate(rows):
        _require(row["trial"] == t and row["eps"] == cfg["eps"], f"row {t}: wrong trial or eps")
        dist = row["distance_to_net"]
        _require(0.0 <= dist <= cfg["eps"], f"row {t}: distance {dist} above eps {cfg['eps']}")
        _require(row["pass"] is True, f"row {t}: pass flag false")
    _require(summary["max_distance_to_net"] == max(r["distance_to_net"] for r in rows),
             "summary maximum disagrees with CSV")
    _require(summary["violations"] == 0, "summary reports violations")
    return True


def check_prop4(rows, summary, seed):
    cfg = summary["config"]
    dim = cfg["d"] ** cfg["n"]
    for t, row in enumerate(rows):
        haar, ref, margin = row["haar_mean"], row["separable_reference"], row["margin"]
        _require(row["trial"] == t and haar >= 0.0, f"row {t}: bad trial or Haar mean")
        _require(_close(margin, ref - haar, rel=1e-12), f"row {t}: margin inconsistent")
        # 4(T2/D - T1^2/D^2) - 4(T2/(D+1) - T1^2/(D(D+1))) = Haar mean / D.
        _require(_close(margin, haar / dim, rel=1e-9), f"row {t}: margin != Haar mean / D")
        _require(margin >= -cfg["tol"] and row["pass"] is True, f"row {t}: margin below -tol")
    return True


def check_prop5(rows, summary, seed):
    cfg = summary["config"]
    for t, row in enumerate(rows):
        margin = row["margin"]
        _require(row["trial"] == t, f"row {t}: wrong trial")
        _require(_close(margin, row["e_sym_linear"] - row["e_sym_averaged"], rel=1e-12),
                 f"row {t}: margin inconsistent")
        _require(margin >= -cfg["tol"] and row["pass"] is True, f"row {t}: margin below -tol")
    return True


def check_thm11(rows, summary, seed):
    cfg = summary["config"]
    for t, row in enumerate(rows):
        dev = abs(row["achieved"] - row["target"])
        _require(row["trial"] == t and row["target"] >= 0.0, f"row {t}: bad trial or target")
        _require(_close(row["abs_dev"], dev), f"row {t}: abs_dev inconsistent")
        _require(dev <= cfg["tol"] and row["pass"] is True, f"row {t}: |achieved - target| > tol")
    return True


def _graph(shape: str, n: int) -> list[frozenset] | None:
    """Two-body edges of the preset shapes, or None where undefined."""
    if shape == "star":
        return [frozenset((1, j)) for j in range(2, n + 1)] if n >= 2 else None
    if shape == "chain":
        return [frozenset((i, i + 1)) for i in range(1, n)] if n >= 2 else None
    if shape == "ring":
        return [frozenset((i, i % n + 1)) for i in range(1, n + 1)] if n >= 3 else None
    if shape == "complete":
        return [frozenset(e) for e in itertools.combinations(range(1, n + 1), 2)] if n >= 2 else None
    raise CheckError(f"unknown shape {shape!r}")


def _degree_norms(edges: list[frozenset], n: int) -> tuple[float, float]:
    deg = [sum(1 for e in edges if v in e) for v in range(1, n + 1)]
    return float(sum(deg)) ** 2, float(sum(x * x for x in deg))


SHAPES = ("star", "chain", "ring", "complete")


def check_table_census(rows, summary, seed):
    cfg = summary["config"]
    n = cfg["n"]
    _require(cfg["k"] == 2, "the census enumeration covers two-body graphs")
    expected = [s for s in SHAPES if _graph(s, n) is not None]
    _require([r["shape"] for r in rows] == expected, "wrong shapes in census table")
    for row in rows:
        edges = _graph(row["shape"], n)
        connected = disjoint = 0
        for a, b in itertools.permutations(edges, 2):
            if a & b:
                connected += 1
            else:
                disjoint += 1
        s = len(edges)
        want = (s, disjoint, connected, s * s, *_degree_norms(edges, n))
        got = tuple(row[k] for k in ("s", "disjoint", "connected", "all", "norm1_sq", "norm2_sq"))
        _require(got == want, f"{row['shape']}: census {got} != enumeration {want}")
    _require(summary["route_mismatches"] == [], "census routes disagree")
    return True


def check_scaling_report(rows, summary, seed):
    cfg = summary["config"]
    shapes = [s.strip() for s in cfg["shapes"].split(",") if s.strip()]
    expected = [(s, n) for s in shapes for n in range(cfg["n_min"], cfg["n_max"] + 1)
                if _graph(s, n) is not None]
    _require([(r["shape"], r["n"]) for r in rows] == expected, "wrong (shape, n) rows")
    for row in rows:
        edges = _graph(row["shape"], row["n"])
        norm1, norm2 = _degree_norms(edges, row["n"])
        ratio = norm2 / norm1
        _require((row["s"], row["norm1_sq"], row["norm2_sq"]) == (len(edges), norm1, norm2),
                 f"{row['shape']} n={row['n']}: wrong edge count or degree norms")
        _require(_close(row["ratio"], ratio), f"{row['shape']} n={row['n']}: wrong ratio")
        _require(row["verdict"] == ("gap" if ratio <= 0.25 else "no-gap"),
                 f"{row['shape']} n={row['n']}: wrong verdict")
    return True


def check_bound_sweep(rows, summary, seed):
    cfg = summary["config"]
    ns = list(range(cfg["n_min"], cfg["n_max"] + 1, cfg["n_step"]))
    _require([r["n"] for r in rows] == ns, "wrong n column")
    for row in rows:
        total = row["log_prefactor"] + row["log_exponential"]
        _require(_close(row["log_total"], total), f"n={row['n']}: total != prefactor + exponential")
        _require(row["log_exponential"] <= 0.0, f"n={row['n']}: positive log tail")
        _require(row["vacuous"] == (row["log_total"] >= 0.0), f"n={row['n']}: vacuous flag")
    totals = [r["log_total"] for r in rows]
    peak = max(range(len(totals)), key=lambda i: totals[i])
    tail = totals[peak:]
    return peak < len(totals) - 1 and all(b < a for a, b in zip(tail, tail[1:]))


CHECKS = {
    "lemma1-montecarlo": check_lemma1,
    "lemma3-montecarlo": check_lemma3,
    "concentration": check_concentration,
    "result1-demo": check_result1,
    "result2-verify": check_result2,
    "gme-scan": check_gme_scan,
    "net-audit": check_net_audit,
    "prop4-audit": check_prop4,
    "prop5-audit": check_prop5,
    "thm11-check": check_thm11,
    "table-census": check_table_census,
    "scaling-report": check_scaling_report,
    "bound-sweep": check_bound_sweep,
}


def expected_rows(experiment: str, cfg: dict) -> int:
    if experiment == "result1-demo":
        return cfg["hamiltonians"] * cfg["states"]
    if experiment in ("result2-verify", "gme-scan"):
        return 1
    if experiment == "table-census":
        return sum(1 for s in SHAPES if _graph(s, cfg["n"]) is not None)
    if experiment == "scaling-report":
        shapes = [s.strip() for s in cfg["shapes"].split(",") if s.strip()]
        return sum(1 for s in shapes for n in range(cfg["n_min"], cfg["n_max"] + 1)
                   if _graph(s, n) is not None)
    if experiment == "bound-sweep":
        return len(range(cfg["n_min"], cfg["n_max"] + 1, cfg["n_step"]))
    return cfg["trials"]


def check_invocation(experiment: str, config: dict, out_dir: Path, seed: int, rc: int) -> int:
    """Check one invocation's outputs and exit code; return its CSV row count."""
    rows, summary = read_outputs(out_dir, experiment)
    _require(summary["experiment"] == experiment and summary["seed"] == seed,
             "summary names the wrong experiment or seed")
    echo = summary["config"]
    _require(all(echo[k] == v for k, v in config.items()), f"config echo {echo} lacks {config}")
    want = expected_rows(experiment, echo)
    _require(len(rows) == want and summary["rows"] == want,
             f"{len(rows)} rows written, {want} expected")
    verdict = CHECKS[experiment](rows, summary, seed)
    _require(summary["passed"] == verdict, f"pass flag {summary['passed']} != recomputed {verdict}")
    _require(rc == (0 if verdict else 1), f"exit code {rc} for verdict {verdict}")
    if experiment not in ("lemma1-montecarlo", "lemma3-montecarlo"):
        _require(rc == 0, f"exit code {rc}")
    return len(rows)
