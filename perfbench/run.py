"""Benchmark of the qfiwb CLI experiments, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc-small --seed 1 --seconds 30 --trace 0

It runs the workload in a fresh worker process (worker.py) and prints one
JSON object as its last line: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  BLAS and OpenMP are held to one
thread, so every invocation computes on one thread.  The worker runs with a
fixed hash seed and, where the kernel allows it, without address-space
randomisation, so that separate runs lay out their memory alike.  Exits 2
if the checkout holds no `src/qfiwb` package.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0
ADDR_NO_RANDOMIZE = 0x0040000


def _environment(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    env.pop("QFIWB_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    return env


def _no_aslr() -> None:
    """In the child before exec: turn off address-space randomisation if allowed."""
    personality = ctypes.CDLL(None, use_errno=True).personality
    current = personality(0xFFFFFFFF)
    if current != -1:
        personality(current | ADDR_NO_RANDOMIZE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    started = time.monotonic()

    root = Path.cwd()
    src = root / "src"
    if not (src / "qfiwb" / "__init__.py").is_file():
        print(f"perfbench: no qfiwb package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = _environment(src)
    out_root = root / ".perfbench_out"
    run_dir = out_root / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--src", str(src), "--out", str(run_dir),
             "--spans", str(out_root / f"spans-{args.workload}-seed{args.seed}.csv")],
            env=env, stdout=subprocess.PIPE, text=True, preexec_fn=_no_aslr,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)),
        )
    except subprocess.TimeoutExpired:
        print("perfbench: the workload did not finish in time", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if worker.returncode != 0:
        print(f"perfbench: worker exited with {worker.returncode}", file=sys.stderr)
        return worker.returncode
    result = worker.stdout.strip().splitlines()[-1]
    print(result)
    return 0 if json.loads(result)["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
