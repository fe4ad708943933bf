"""Per-layer tracing by wrapping the program's public functions in place.

The program looks up module attributes and class methods at call time, so
rebinding them in memory traces every call without editing the package.  A
function imported by name into another module (`from .data import
parse_libsvm`) or stored in a module-level table (the harness's oracle
table) is rebound there too.  `install` fails when a named layer is
missing, so a refactor that renames one is noticed instead of traced as
zero.

Each wrapper records a span: calls and self time (its duration minus the
time of the traced spans it caused), keyed by the kind of benchmark
operation in progress.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import importlib
import sys
import time

PACKAGE = "adaptreduce"
# (module, function) pairs traced under "<module>.<function>"
FUNCTIONS = [
    ("data", "parse_libsvm"), ("data", "matvec"), ("data", "rmatvec"),
    ("data", "row_dot"), ("losses", "smoothed_deriv"),
    ("losses", "loss_deriv"), ("losses", "loss_conjugate"),
    ("references", "base_reference"), ("harness", "cached_reference"),
    ("harness", "run_experiment"),
]
# (module, class, method) traced under "<module>.<method>"
METHODS = [
    ("regularizers", "Regularizer", "prox"),
    ("regularizers", "Regularizer", "conjugate_argmax"),
    ("objectives", "CompositeObjective", "duality_gap"),
    ("objectives", "CompositeObjective", "full_gradient"),
    ("objectives", "CompositeObjective", "full_value"),
    ("objectives", "CompositeObjective", "content_hash"),
]
# groups traced under one name, with a counter fed by each call's result
ORACLES = ("prox_gd_hood", "apg_hood", "svrg_hood", "sdca_hood")
REDUCTIONS = ("adapt_reg", "adapt_smooth", "joint_adapt", "classical_reg",
              "classical_smooth")


def _count_oracle(tracer, report):
    tracer.add("solvers.sample_steps", report.sample_evals)
    tracer.add("solvers.full_evals", report.full_evals)


def _count_epochs(tracer, result):
    tracer.add("reductions.epochs", len(result[1]))


class Tracer:
    def __init__(self):
        self.kind = None
        self.spans: dict[tuple[str, str], list] = {}   # -> [calls, self s]
        self.counters: dict[tuple[str, str], int] = {}
        self._stack: list[float] = []
        self._undo: list = []

    def add(self, name: str, amount: int) -> None:
        key = (self.kind, name)
        self.counters[key] = self.counters.get(key, 0) + amount

    def calls(self, kind: str, name: str) -> int:
        return self.spans.get((kind, name), (0, 0.0))[0]

    def self_seconds(self, kind: str, name: str) -> float:
        return self.spans.get((kind, name), (0, 0.0))[1]

    def counter(self, kind: str, name: str) -> int:
        return self.counters.get((kind, name), 0)

    def _wrap(self, name, fn, after=None):
        stack, clock, tracer = self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span = tracer.spans.setdefault((tracer.kind, name), [0, 0.0])
                span[0] += 1
                span[1] += elapsed - children
            if after is not None:
                after(tracer, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, original, wrapped) -> int:
        """Replace every reference the package holds to `original`."""
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE
                                   or modname.startswith(PACKAGE + ".")):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((namespace, key, value))
                    namespace[key] = wrapped
                    hits += 1
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._undo.append((value, k, v))
                            value[k] = wrapped
                            hits += 1
        return hits

    def _module(self, name):
        return importlib.import_module(f"{PACKAGE}.{name}")

    def install(self) -> None:
        targets = [(f"{m}.{f}", m, f, None) for m, f in FUNCTIONS]
        targets += [("solvers.oracle", "solvers", f, _count_oracle)
                    for f in ORACLES]
        targets += [("reductions.reduction", "reductions", f, _count_epochs)
                    for f in REDUCTIONS]
        for name, modname, attr, after in targets:
            original = getattr(self._module(modname), attr)
            if not self._rebind(original, self._wrap(name, original, after)):
                raise RuntimeError(f"traced layer {modname}.{attr} not found")
        for modname, clsname, attr in METHODS:
            cls = getattr(self._module(modname), clsname)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"{modname}.{attr}", original))

    def uninstall(self) -> None:
        while self._undo:
            target, key, value = self._undo.pop()
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
