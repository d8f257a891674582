"""Per-layer timing for the traced run, wrapped around vpadvisor's
module-level functions from outside the package.

Each target names the module that defines a function and the layer its
calls are charged to.  :func:`traced_layers` replaces the function in
that module and at every ``vpadvisor`` module that imported it by name,
so a call is timed whichever module makes it; an importing module may
charge the call to another layer (``evaluate`` called from ``mip`` is
``mip.reprice``).  A target that no longer exists is skipped and its
layer reported absent.  Only calls made inside a root span (one CLI
command) are recorded, so the benchmark's own correctness checks stay
out of the numbers.  Spans nest on one stack, which assumes a single
solver thread (``--runs 1``).
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

# (defining module, function, layer or None, {importing module: layer}).
# A layer of None patches only the listed importers.
TARGETS: Tuple[Tuple[str, str, Optional[str], Dict[str, str]], ...] = (
    ("vpadvisor.fileio", "load_instance", "fileio.load_instance", {}),
    ("vpadvisor.workload", "derive", "workload.derive", {}),
    ("vpadvisor.partitioning", "evaluate", "partitioning.evaluate",
     {"vpadvisor.mip": "mip.reprice"}),
    ("vpadvisor.partitioning", "check_feasible", None, {"vpadvisor.mip": "mip.reprice"}),
    ("vpadvisor.mip", "solve_exact", "mip.solve_exact", {}),
    ("vpadvisor.mip", "build_mip", "mip.build_mip", {}),
    ("vpadvisor.mip", "export_model", "mip.export_model", {}),
    ("scipy.optimize", "linprog", "mip.lp", {}),
    ("scipy.optimize", "milp", "mip.lp", {}),
    ("vpadvisor.anneal", "solve_sa", "anneal.solve_sa", {"vpadvisor.mip": "mip.warm_start"}),
    ("vpadvisor.anneal", "solve_subproblem_fix_replicas", "anneal.repair_assign", {}),
    ("vpadvisor.anneal", "solve_subproblem_fix_transactions", "anneal.repair_replicas", {}),
    ("vpadvisor.anneal", "perturb_transactions", "anneal.perturb", {}),
    ("vpadvisor.anneal", "perturb_replicas", "anneal.perturb", {}),
    ("vpadvisor.kernels", "assign_transactions", "kernels.assign_transactions", {}),
    ("vpadvisor.kernels", "greedy_replicas", "kernels.greedy_replicas", {}),
    ("vpadvisor.kernels", "folded_cost", "kernels.folded_cost", {}),
)


def _sa_counts(result) -> Dict[str, float]:
    report, trace = result
    return {
        "anneal.evaluations": report.node_count,
        "anneal.steps": len(trace),
        "anneal.accepted": sum(trace.accepted_moves),
    }


# Counters read off a layer's return value, keyed by layer.
HOOKS: Dict[str, Callable[[object], Dict[str, float]]] = {
    "anneal.solve_sa": _sa_counts,
    "mip.solve_exact": lambda report: {"mip.nodes": report.node_count},
    "mip.build_mip": lambda model: {
        "mip.build_mip.vars": model.variable_count,
        "mip.build_mip.rows": model.constraint_count,
    },
    "mip.export_model": lambda text: {"mip.export_model.mb": len(text) / 1e6},
}


class Tracer:
    """Accumulates calls, busy time, self time and counters per layer.

    A layer's self time is its span minus the spans of the layers it
    called.  :meth:`take` returns the totals since the last call and
    starts new ones, so a run reads them once per command.
    """

    def __init__(self) -> None:
        self._open: List[List[float]] = []  # child time of each open span
        self._reset()

    def _reset(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer``."""
        children = [0.0]
        self._open.append(children)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            took = time.perf_counter() - start
            self._open.pop()
            if self._open:
                self._open[-1][0] += took
            self.calls[layer] += 1
            self.busy[layer] += took
            self.self_time[layer] += took - children[0]
        hook = HOOKS.get(layer)
        if hook is not None:
            try:
                counts = hook(result)
            except (AttributeError, TypeError, ValueError):
                counts = {}  # the layer changed its return shape: counters absent
            for key, value in counts.items():
                self.counts[key] += value
        return result

    def wrap(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._open:
                return fn(*args, **kwargs)
            return self.call(layer, fn, *args, **kwargs)

        return traced

    def span_cost(self, n: int = 20000, repeats: int = 5) -> float:
        """Seconds one traced call adds over a plain call (median of
        ``repeats``), measured on a function that does nothing."""
        def noop() -> None:
            return None

        traced = self.wrap("calibration", noop)

        def loop(fn: Callable) -> float:
            start = time.perf_counter()
            for _ in range(n):
                fn()
            return time.perf_counter() - start

        costs = []
        for _ in range(repeats):
            plain = self.call("calibration.root", loop, noop)
            wrapped = self.call("calibration.root", loop, traced)
            costs.append(max(wrapped - plain, 0.0) / n)
        self.take()
        return sorted(costs)[len(costs) // 2]

    def take(self) -> Dict[str, Dict[str, float]]:
        taken = {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
        }
        self._reset()
        return taken


def _vpadvisor_modules() -> List[Tuple[str, object]]:
    return [
        (name, mod)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "vpadvisor" or name.startswith("vpadvisor."))
    ]


@contextmanager
def traced_layers(tracer: Tracer) -> Iterator[Set[str]]:
    """Patch every target for the duration of the block; yields the set
    of layers that were found.  Import ``vpadvisor.cli`` first, so that
    every importing module is loaded."""
    patched: List[Tuple[object, str, object]] = []
    present: Set[str] = set()
    try:
        for home, name, layer, importers in TARGETS:
            try:
                original = getattr(importlib.import_module(home), name)
            except (ImportError, AttributeError):
                continue
            for mod_name, mod in _vpadvisor_modules():
                for attr, value in list(vars(mod).items()):
                    if value is not original or (mod_name == home and attr != name):
                        continue
                    charged = importers.get(mod_name, layer)
                    if charged is None:
                        continue
                    setattr(mod, attr, tracer.wrap(charged, original))
                    patched.append((mod, attr, original))
                    present.add(charged)
        yield present
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)
