"""One run of one workload, in a fresh process started by run.py.

The process imports `qfiwb` once, then repeats rounds of the workload's
CLI invocations through `qfiwb.cli.main` while the next round is expected
to end within `--seconds`.  Every round runs the same invocations with the
same seed, so rounds are alike and their median is steady.  The first round
is a warm-up: it is checked in full but not timed.  Later rounds are timed,
and their outputs are checked, outside the timed span, by comparing bytes
with the first round's.

`setup_s` is the median time of `import qfiwb` in fresh interpreters.  The
samples are taken between rounds, about one per three seconds of round
time, because a shared host's speed drifts over seconds: samples spread
over the run vary less from run to run than samples taken back to back.

With `--trace 1`, untraced and traced rounds alternate after the warm-up;
the per-layer metrics are the medians over the traced rounds, and
`trace.overhead_s` is the median traced round minus the median untraced
round.

The last line printed is the run's result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import check_invocation
from tracing import Tracer, layer_metrics, metric_units, write_spans
from workloads import WORKLOADS, Invocation

SETUP_EVERY_S = 3.0
SETUP_SAMPLES = 8  # at least this many per run
IMPORT_TIMER = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import qfiwb\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds() -> float:
    """Time of `import qfiwb` in a fresh interpreter with this environment."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1])


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _outputs(out_dir: Path, experiment: str) -> tuple[bytes, bytes]:
    return (
        (out_dir / f"{experiment}.csv").read_bytes(),
        (out_dir / f"{experiment}.summary.json").read_bytes(),
    )


class Runner:
    def __init__(self, cli, invocations: tuple[Invocation, ...], out: Path, seed: int):
        self.cli = cli
        self.invocations = invocations
        self.out = out
        self.seed = seed
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.rows = 0  # CSV rows of one round
        self.first: dict[str, tuple[bytes, bytes]] = {}
        for inv in invocations:
            (out / inv.label).mkdir(parents=True)
            (out / inv.label / "config.cfg").write_text(inv.config_text())

    def invoke(self, inv: Invocation, out_dir: Path) -> int | None:
        """Run one invocation as the CLI would; None if it raised."""
        argv = inv.argv(str(self.out / inv.label / "config.cfg"), str(out_dir), self.seed)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(argv)
        except Exception:
            traceback.print_exc()
            return None

    def check(self, inv: Invocation, out_dir: Path, rc: int) -> int:
        try:
            return check_invocation(inv.experiment, inv.config, out_dir, self.seed, rc)
        except Exception as exc:  # any error while checking is a failed check
            print(f"check failed: {inv.label}: {exc!r}", file=sys.stderr)
            self.correct = False
            return 0

    def round(self) -> tuple[float, float]:
        """Run every invocation once; return (wall, cpu) seconds."""
        codes = []
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        for inv in self.invocations:
            codes.append(self.invoke(inv, self.out / inv.label))
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        first = self.rounds == 0
        self.rounds += 1
        for inv, rc in zip(self.invocations, codes):
            self.attempted += 1
            if rc is None:
                self.failed += 1
                continue
            out_dir = self.out / inv.label
            if first:
                self.rows += self.check(inv, out_dir, rc)
            got = _outputs(out_dir, inv.experiment)
            if got != self.first.setdefault(inv.label, got):
                print(f"check failed: {inv.label}: outputs differ from the first run",
                      file=sys.stderr)
                self.correct = False
        return wall, cpu


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True, help="directory holding the qfiwb package")
    parser.add_argument("--out", required=True, help="empty directory for CLI outputs")
    parser.add_argument("--spans", required=True, help="file for the last traced round's spans")
    args = parser.parse_args()

    import qfiwb
    import qfiwb.cli

    if Path(qfiwb.__file__).resolve().parent.parent != Path(args.src).resolve():
        print(f"qfiwb was imported from {qfiwb.__file__}, not from {args.src}", file=sys.stderr)
        return 2

    invocations = WORKLOADS[args.workload]
    runner = Runner(qfiwb.cli, invocations, Path(args.out), args.seed)
    tracer = Tracer() if args.trace else None
    experiments = sorted({inv.experiment for invs in WORKLOADS.values() for inv in invs})
    walls: list[float] = []
    cpus: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict] = []
    spans: list[tuple] = []
    setups: list[float] = []
    runner.round()  # warm-up, checked in full but not timed
    steps: list[float] = []  # seconds per loop pass, with checks and set-up samples
    start = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        wall, cpu = runner.round()
        walls.append(wall)
        cpus.append(cpu)
        if tracer is None:
            setups.extend(import_seconds() for _ in range(math.ceil(wall / SETUP_EVERY_S)))
        else:
            tracer.install()
            try:
                wall, _ = runner.round()
            finally:
                tracer.uninstall()
            spans = tracer.take()
            traced_walls.append(wall)
            layers.append(layer_metrics(spans, experiments))
        now = time.perf_counter()
        steps.append(now - step_start)
        if now - start + statistics.median(steps) > args.seconds:
            break

    if tracer is None:
        setups.extend(import_seconds() for _ in range(SETUP_SAMPLES - len(setups)))
        wall_s = statistics.median(walls)
        metrics = {
            "wall_s": (wall_s, "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "rows_per_s": (runner.rows / wall_s, "rows/s"),
        }
    else:
        write_spans(args.spans, spans)
        units = metric_units(experiments)
        metrics = {name: (statistics.median(m[name] for m in layers), unit)
                   for name, unit in units.items() if name != "trace.overhead_s"}
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics["trace.overhead_s"] = (overhead, "s")
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
