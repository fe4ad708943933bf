"""The benchmark's per-layer tracer still finds every layer it wraps.

`bench/run.py --trace 1` rebinds package functions and methods by name, and
its `install` raises when one is missing, so a rename in the package would
break the traced benchmark run without failing any other test."""
import importlib.util
from pathlib import Path

from adaptreduce import regularizers, solvers

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_bench_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    oracle = solvers.svrg_hood
    conjugate_argmax = regularizers.Regularizer.__dict__["conjugate_argmax"]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert solvers.svrg_hood is not oracle
        assert (regularizers.Regularizer.__dict__["conjugate_argmax"]
                is not conjugate_argmax)
    finally:
        tracer.uninstall()
    assert solvers.svrg_hood is oracle
    assert regularizers.Regularizer.__dict__["conjugate_argmax"] is conjugate_argmax
