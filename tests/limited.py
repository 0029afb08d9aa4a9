"""Run the qfiwb CLI in a child process with a capped address space.

`run_cli(experiment, text, out)` writes `text` as the config file, runs
`python -m qfiwb.cli` on it and returns the finished process with its
stdout and stderr as text.  RLIMIT_AS is set to ADDRESS_SPACE in the child
only, through `preexec_fn`, so the test process keeps its own limits.  The
child runs one BLAS thread: a thread pool reserves address space per
thread, which would tie the limit to the host's core count.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

ADDRESS_SPACE = 2 * 2**30
_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_cli(experiment: str, text: str, out: Path, timeout: float = 300) -> subprocess.CompletedProcess:
    cfg = out / f"{experiment}.cfg"
    cfg.write_text(text)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "qfiwb.cli", experiment, "--config", str(cfg), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=timeout, preexec_fn=_cap_address_space,
    )
