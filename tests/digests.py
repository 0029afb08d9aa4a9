"""Golden SHA-256 digests of the experiments' CSV and summary bytes.

The runs covered are every registered experiment at its default config and
seed 0, and every perfbench workload invocation at seeds 1 and 7. Each run
records its exit code, one digest per output file, and one digest per CSV
column and per top-level summary key, tagged with the kind of cell it holds:
`verdict` (true/false/none cells, a `pass` or `verdict` column, the exit
code), `count` (integers) or `value`. A moved digest then names the file,
the column and whether a verdict, pass or count cell moved.

Regenerate the golden file, only when an output is meant to move, with

    PYTHONPATH=src python tests/digests.py
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

import qfiwb.cli as cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
PERFBENCH_SEEDS = (1, 7)
_VERDICT_CELLS = frozenset(("true", "false", "none"))
_VERDICT_NAMES = frozenset(("pass", "passed", "verdict"))
_INT = re.compile(r"-?\d+\Z")


def runs() -> dict[str, tuple[str, str, int]]:
    """label -> (experiment, config text, seed) for every covered run."""
    out = {f"default/{name}/seed0": (name, "", 0) for name in cli.EXPERIMENTS}
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for workload, invocations in WORKLOADS.items():
        for inv in invocations:
            for seed in PERFBENCH_SEEDS:
                out[f"perfbench/{workload}/{inv.label}/seed{seed}"] = (
                    inv.experiment, inv.config_text(), seed,
                )
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tagged(kind: str, data: bytes) -> str:
    return f"{kind}:{_sha(data)}"


def _cell_kind(name: str, cells: tuple[str, ...]) -> str:
    if name in _VERDICT_NAMES or (cells and set(cells) <= _VERDICT_CELLS):
        return "verdict"
    if cells and all(_INT.match(c) for c in cells):
        return "count"
    return "value"


def _value_kind(name: str, value) -> str:
    if name in _VERDICT_NAMES or value is None or isinstance(value, bool):
        return "verdict"
    return "count" if isinstance(value, int) else "value"


def run(experiment: str, config: str, seed: int) -> tuple[int, bytes, bytes]:
    """Exit code, CSV bytes and summary bytes of one run in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(config)
        argv = [experiment, "--config", str(cfg), "--seed", str(seed),
                "--out", tmp, "--threads", "1"]
        code = cli.main(argv)
        csv = (Path(tmp) / f"{experiment}.csv").read_bytes()
        summary = (Path(tmp) / f"{experiment}.summary.json").read_bytes()
    return code, csv, summary


def record(experiment: str, config: str, seed: int) -> dict:
    """Digests of one run's outputs."""
    return digest(*run(experiment, config, seed))


def digest(code: int, csv: bytes, summary: bytes) -> dict:
    """The exit code, and digests of the outputs, their columns and summary keys."""
    header, *lines = csv.decode().splitlines()
    names = header.split(",")
    columns = list(zip(*(line.split(",") for line in lines))) or [()] * len(names)
    fields = json.loads(summary)
    return {
        "exit": code,
        "csv": _sha(csv),
        "summary": _sha(summary),
        "csv_columns": {
            name: _tagged(_cell_kind(name, cells), "\n".join(cells).encode())
            for name, cells in zip(names, columns)
        },
        "summary_keys": {
            key: _tagged(_value_kind(key, value), json.dumps(value, sort_keys=True).encode())
            for key, value in fields.items()
        },
    }


def moved(label: str, experiment: str, want: dict, got: dict) -> list[str]:
    """What moved between two records, led by whether a verdict, pass or count cell did.

    Returns an empty list when nothing moved.
    """
    lines, kinds = [], set()
    if got["exit"] != want["exit"]:
        kinds.add("verdict")
        lines.append(f"  exit code {want['exit']} -> {got['exit']}")
    for part, file, noun in (("csv_columns", f"{experiment}.csv", "column"),
                             ("summary_keys", f"{experiment}.summary.json", "key")):
        for name in sorted(want[part].keys() | got[part].keys()):
            old, new = want[part].get(name), got[part].get(name)
            if old != new:
                kind = (old or new).split(":")[0]
                kinds.update(tag.split(":")[0] for tag in (old, new) if tag)
                what = "appeared" if old is None else "vanished" if new is None else "moved"
                lines.append(f"  {file} {noun} {name!r} ({kind}) {what}")
        whole = "csv" if part == "csv_columns" else "summary"
        if want[whole] != got[whole] and not any(file in line for line in lines):
            lines.append(f"  {file} bytes moved (no single {noun} digest did)")
    if not lines:
        return []
    flag = "yes" if kinds & {"verdict", "count"} else "no"
    return [f"{label}: a verdict, pass or count cell moved: {flag}"] + lines


def main() -> None:
    golden = {label: record(*args) for label, args in runs().items()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} runs to {GOLDEN}")


if __name__ == "__main__":
    main()
