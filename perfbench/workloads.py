"""The benchmark's workloads: the CLI invocations each one runs, in order.

A workload round runs every invocation of its workload once, exactly as
`qfiwb <experiment> --config <file> --seed <seed> --threads 1 --out <dir>`
would.  Config values not listed here take the CLI defaults.  Trial counts
are chosen so that one round of each workload takes a few seconds on one
core, long enough that interpreter noise does not dominate.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Invocation:
    """One experiment invocation; `label` names its output directory."""

    label: str
    experiment: str
    config: dict = field(default_factory=dict)

    def config_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.config.items())

    def argv(self, config_path: str, out_dir: str, seed: int) -> list[str]:
        return [
            self.experiment, "--config", config_path, "--seed", str(seed),
            "--out", out_dir, "--threads", "1",
        ]


WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    # Monte Carlo trials: first tiny ones (dimension 4 to 16), where
    # per-trial Python overhead dominates, then dimension-1024 dense
    # operators and a dimension-4096 diagonal, where operator work does.
    "montecarlo": (
        Invocation("lemma1-linear", "lemma1-montecarlo", {"family": "linear", "trials": 4000}),
        Invocation("lemma1-product", "lemma1-montecarlo", {"family": "product", "trials": 4000}),
        Invocation("lemma3", "lemma3-montecarlo", {"trials": 4000}),
        Invocation("result1", "result1-demo", {"hamiltonians": 20, "states": 200}),
        Invocation("lemma1-n10", "lemma1-montecarlo", {"n": 10, "trials": 40}),
        Invocation("lemma3-n10", "lemma3-montecarlo", {"n": 10, "trials": 40}),
        Invocation("concentration", "concentration", {"trials": 2000}),
    ),
    # Depth certification, nets, censuses and bounds; little Monte Carlo.
    "certify": (
        Invocation("result2-ghz", "result2-verify", {"n": 3, "c": 1.3, "state": "ghz"}),
        Invocation("result2-random", "result2-verify", {"n": 3, "c": 1.3, "state": "random"}),
        Invocation("gme-scan", "gme-scan", {"n": 10, "state": "random"}),
        Invocation("net-cover", "net-audit", {"audit": "cover"}),
        Invocation("net-prop8", "net-audit", {"audit": "prop8"}),
        Invocation("net-prop9", "net-audit", {"audit": "prop9"}),
        Invocation("prop4", "prop4-audit"),
        Invocation("prop5", "prop5-audit"),
        Invocation("thm11", "thm11-check", {"n": 6}),
        Invocation("table-census", "table-census", {"n": 30}),
        Invocation("scaling-report", "scaling-report", {"n_max": 40}),
        Invocation("bound-sweep", "bound-sweep"),
    ),
}
