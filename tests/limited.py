"""Run the qfiwb CLI in a child process with a capped address space.

`run_cli(experiment, text, out)` writes `text` as the config file, runs
`python -m qfiwb.cli` on it and returns its exit code, its stdout and
stderr as text, and its own peak resident set.  RLIMIT_AS is set to
ADDRESS_SPACE in the child only, through `preexec_fn`, so the test process
keeps its own limits.  The child is reaped with `os.wait4`, whose resource
usage is that one child's, so `peak_rss` does not mix in earlier children
as RUSAGE_CHILDREN would.  The child runs one BLAS thread: a thread pool
reserves address space per thread, which would tie the limit to the
host's core count.
"""

import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ADDRESS_SPACE = 2 * 2**30
_SRC = str(Path(__file__).resolve().parents[1] / "src")


@dataclass(frozen=True)
class Finished:
    """A finished child: exit code, output text, and peak resident set in bytes."""

    returncode: int
    stdout: str
    stderr: str
    peak_rss: int


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_cli(experiment: str, text: str, out: Path, timeout: float = 300) -> Finished:
    cfg = out / f"{experiment}.cfg"
    cfg.write_text(text)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "qfiwb.cli", experiment, "--config", str(cfg), "--out", str(out)]
    # Files, not pipes: nothing has to drain them while the child runs.
    with open(out / f"{experiment}.stdout", "w+") as stdout, open(out / f"{experiment}.stderr", "w+") as stderr:
        proc = subprocess.Popen(argv, env=env, stdout=stdout, stderr=stderr, preexec_fn=_cap_address_space)
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise subprocess.TimeoutExpired(argv, timeout)
            time.sleep(0.05)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
        stdout.seek(0)
        stderr.seek(0)
        return Finished(proc.returncode, stdout.read(), stderr.read(), usage.ru_maxrss * 1024)  # KiB on Linux
