"""Span tracing of `qfiwb`, installed from outside the package.

`Tracer.install` replaces each traced function with a wrapper in every
`qfiwb` module namespace that binds it (the package imports with
`from ... import`, so patching only the defining module would miss calls),
and traced methods on their classes.  Modules are reached through
`sys.modules`, because the package attributes `qfiwb.qfi` and `qfiwb.gme`
are functions, not the modules.  Spans stay in memory until the round ends.

A span's self time is its duration minus the part of its interval covered
by its child spans, so `cli.main`'s self time is the experiment driver's
own work: config, trial loop and summary.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _dim(array) -> int:
    return int(array.shape[0])


def _normals(args, kwargs, result) -> int:
    return int(args[1])


def _hermitian_bytes(args, kwargs, result) -> int:
    return 3 * 16 * _dim(args[0]) ** 2  # a, a^dag and their difference


def _qfi_dim(args, kwargs, result) -> int:
    return args[0].amplitudes.shape[0]


def _batch_rows(args, kwargs, result) -> int:
    return _dim(result)


def _grid_points(args, kwargs, result) -> int:
    return result.points_per_site ** (result.n - 1)


def _csv_bytes(args, kwargs, result) -> int:
    return os.stat(args[0]).st_size


def _experiment(args, kwargs, result) -> str:
    return args[0][0]  # cli.main(argv): argv[0] names the experiment


@dataclass(frozen=True)
class Layer:
    """A traced layer: metric name and the (module, attribute path) it wraps."""

    name: str
    targets: tuple[tuple[str, str], ...]
    amount: Callable | None = None


LAYERS = (
    Layer("numerics.Rng.substream", (("qfiwb.numerics", "Rng.substream"),)),
    Layer("numerics.Rng.normal", (("qfiwb.numerics", "Rng.normal"),), _normals),
    Layer("numerics.ensure_hermitian", (("qfiwb.numerics", "ensure_hermitian"),), _hermitian_bytes),
    Layer("numerics.kron_all", (("qfiwb.numerics", "kron_all"),)),
    Layer("numerics.haar_unitary", (("qfiwb.numerics", "haar_unitary"),)),
    Layer("numerics.spectral_norm", (("qfiwb.numerics", "spectral_norm"),)),
    Layer("states.sample_haar", (("qfiwb.states", "sample_haar"),)),
    Layer("states.sample_symmetric", (("qfiwb.states", "sample_symmetric"),)),
    Layer("states.normalized_state", (("qfiwb.states", "normalized_state"),)),
    Layer("states.dicke_basis", (("qfiwb.states", "dicke_basis"),)),
    Layer("hamiltonians.dense", (
        ("qfiwb.hamiltonians", "LinearHamiltonian.dense"),
        ("qfiwb.hamiltonians", "ProductDiagonalHamiltonian.dense"),
        ("qfiwb.hamiltonians", "GraphHamiltonian.dense"),
    )),
    Layer("hamiltonians.sample", (
        ("qfiwb.hamiltonians", "sample_linear"),
        ("qfiwb.hamiltonians", "sample_product_diagonal"),
    )),
    Layer("qfi.qfi", (("qfiwb.qfi", "qfi"),), _qfi_dim),
    Layer("qfi.qfi_batch", (("qfiwb.qfi", "qfi_batch"),), _batch_rows),
    Layer("qfi.expected", (
        ("qfiwb.qfi", "expected_qfi_haar"),
        ("qfiwb.qfi", "expected_qfi_symmetric"),
        ("qfiwb.qfi", "expected_qfi_haar_linear"),
        ("qfiwb.qfi", "expected_qfi_symmetric_linear"),
    )),
    Layer("qfi.global_unitary_transport", (("qfiwb.qfi", "global_unitary_transport"),)),
    Layer("gme.gme", (("qfiwb.gme", "gme"),)),
    Layer("gme.verify_result2", (("qfiwb.gme", "verify_result2"),)),
    Layer("gme.gme_grid_oracle", (("qfiwb.gme", "gme_grid_oracle"),), _grid_points),
    Layer("graphs.census_bruteforce", (("qfiwb.graphs", "census_bruteforce"),)),
    Layer("graphs.scaling_report", (("qfiwb.graphs", "scaling_report"),)),
    Layer("nets.nearest", (("qfiwb.nets", "LinearFamilyNet.nearest"),)),
    Layer("nets.audit", (("qfiwb.nets", "net_cover_audit"), ("qfiwb.nets", "property_audit"))),
    Layer("nets.theorem_bound", (("qfiwb.nets", "theorem_bound"),)),
    Layer("cli.write_csv", (("qfiwb.cli", "write_csv"),), _csv_bytes),
    Layer("cli.main", (("qfiwb.cli", "main"),), _experiment),
)

# Counters summed (or, for qfi.max_dim, maximised) from span amounts.
COUNTERS = (
    ("numerics.normals_drawn", "numerics.Rng.normal", "count"),
    ("numerics.ensure_hermitian.bytes", "numerics.ensure_hermitian", "B"),
    ("qfi.operator_bytes", "qfi.qfi", "B"),
    ("qfi.max_dim", "qfi.qfi", "count"),
    ("qfi.qfi_batch.rows", "qfi.qfi_batch", "count"),
    ("gme.gme_grid_oracle.points", "gme.gme_grid_oracle", "count"),
    ("cli.csv_bytes", "cli.write_csv", "B"),
)


def metric_units(experiments) -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer.name}.calls"] = "count"
        units[f"{layer.name}.self_s"] = "s"
    for name, _, unit in COUNTERS:
        units[name] = unit
    for experiment in experiments:
        units[f"cli.{experiment}.s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, amount)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local
        name, amount = layer.name, layer.amount

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            ok = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                value = amount(args, kwargs, result) if ok and amount else 0
                spans.append((sid, name, t0, t1, parent, value))

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "qfiwb" or key.startswith("qfiwb."))]
        for layer in LAYERS:
            for module_name, path in layer.targets:
                owner = sys.modules[module_name]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapper = self._wrap(layer, original)
                if outer:  # a method: patch the class
                    self._patch(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def take(self) -> list[tuple]:
        """The spans recorded so far; the tracer starts afresh."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(spans: list[tuple], experiments) -> dict[str, float]:
    """Per-layer calls, self times and counters of one round's spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, t0, t1, parent, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    metrics = {name: 0 for name in metric_units(experiments)}
    del metrics["trace.overhead_s"]
    counter_of = {layer: name for name, layer, _ in COUNTERS if layer != "qfi.qfi"}
    for sid, name, t0, t1, _, amount in spans:
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.self_s"] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        if name == "cli.main":
            metrics[f"cli.{amount}.s"] += t1 - t0
        elif name == "qfi.qfi":
            metrics["qfi.operator_bytes"] += 16 * amount * amount
            metrics["qfi.max_dim"] = max(metrics["qfi.max_dim"], amount)
        elif name in counter_of:
            metrics[counter_of[name]] += amount
    return metrics


def write_spans(path, spans: list[tuple]) -> None:
    with open(path, "w") as f:
        f.write("id,name,start_s,end_s,parent\n")
        for sid, name, t0, t1, parent, _ in spans:
            f.write(f"{sid},{name},{t0!r},{t1!r},{parent or ''}\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
