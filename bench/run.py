"""Benchmark of adaptreduce's adaptive reductions, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload lasso-dense --seed 1 --seconds 42 --trace 0

One process runs one workload.  It writes the workload's input as a LibSVM
file under bench/_work/, then repeats whole rounds, at least two, and no
more than fit in --seconds.  A round is

    10 setup operations    harness.load_dataset + harness.build_objective
    1 reference operation  harness.cached_reference into an empty cache
                           directory (the first on the run's data, later
                           ones on row permutations of it)
    1 run operation        harness.run_experiment with the reference cached
                           on disk and the CSV written; even rounds call it
                           directly, odd rounds through `adaptreduce run`
                           (cli.main)

and every output is checked against the benchmark's own computations
(certify.py).  An operation fails when it raises, emits a RuntimeWarning or
gives an output that a check rejects; a rejected output also makes
`correct` false.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics instead:
the setup and reference operations and the CLI run operations are traced
(tracing.py), the direct run operations stay untraced, and the difference
between the medians of the two is the tracing overhead.
"""
from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS thread, whatever the machine offers.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from certify import (TRACE_TOL, CheckFailed, Rows,  # noqa: E402
                     certify_reference, check_dataset, check_trace,
                     objective, require)
from inputs import WORKLOADS, present, row_permutation, write_libsvm  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_OPS = 5  # twice per round
MIN_ROUNDS = 2  # one direct and one CLI run operation

END_TO_END = (("setup_s", "s"), ("reference_s", "s"), ("run_s", "s"),
              ("passes_to_target", "passes"), ("peak_rss_mb", "MiB"))
# layers timed per call inside run operations
RUN_LAYERS = ("data.matvec", "data.rmatvec", "data.row_dot",
              "losses.smoothed_deriv", "losses.loss_deriv",
              "losses.loss_conjugate", "regularizers.prox",
              "regularizers.conjugate_argmax", "objectives.duality_gap",
              "objectives.full_gradient", "objectives.full_value")


def load_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "adaptreduce" / "__init__.py").is_file():
        raise SystemExit(f"error: no adaptreduce package under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("adaptreduce")
    if Path(pkg.__file__).resolve().parent != src / "adaptreduce":
        raise SystemExit(f"error: adaptreduce imported from {pkg.__file__}")
    return (pkg, importlib.import_module("adaptreduce.harness"),
            importlib.import_module("adaptreduce.cli"))


class Bench:
    def __init__(self, workload, seed: int, trace: bool, work: Path):
        self.pkg, self.harness, self.cli = load_program()
        self.wl, self.seed, self.work = workload, seed, work
        self.tracer = Tracer() if trace else None
        self.traced_ops = {"setup": 0, "reference": 0, "run": 0}
        self.samples = {name: [] for name in
                        ("setup_s", "reference_s", "run_s",
                         "passes_to_target", "direct_run_s", "cli_run_s")}
        self.attempted = self.failed = 0
        self.correct = True
        self.first_csv = None

    # -- inputs -------------------------------------------------------------
    def prepare(self) -> None:
        cfg = self.wl.config
        self.work.mkdir(parents=True)
        problem = present(self.wl.make_base(), self.seed)
        self.rows = Rows(problem, cfg.get("normalize", False))
        data_path = self.work / "data.txt"
        write_libsvm(problem, str(data_path))
        self.runs_dir = self.work / "runs"
        self.config = self.harness.ExperimentConfig(
            data_path=str(data_path), out_dir=str(self.runs_dir), **cfg)
        self.cli_argv = (["run", "--data-path", str(data_path)]
                         + self.wl.cli_args + ["--out", str(self.runs_dir)])
        self.dataset = self.harness.load_dataset(self.config)
        self.f_star = self.sigma0 = None

    def _key(self, ds) -> str:
        c = self.config
        return self.harness.reference_cache_key(
            ds, c.task, c.l1_weight, c.l2_weight, c.normalize)

    # -- operations ---------------------------------------------------------
    @contextlib.contextmanager
    def _layers(self, kind: str, traced: bool = True):
        if self.tracer is None or not traced:
            yield
            return
        self.traced_ops[kind] += 1
        self.tracer.kind = kind
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()

    def setup_op(self):
        with self._layers("setup"):
            start = time.perf_counter()
            ds = self.harness.load_dataset(self.config)
            self.harness.build_objective(ds, self.config.task,
                                         self.config.l1_weight,
                                         self.config.l2_weight)
            elapsed = time.perf_counter() - start
        check_dataset(ds, self.rows)
        return {"setup_s": elapsed}

    def reference_op(self, k: int):
        """Cold solve into an empty cache directory.  Solve 0 is the run's
        own data, into the cache the run operations read; later solves are
        row permutations of it, whose new content hash no cache the program
        keeps in memory or on disk can answer."""
        # a fresh dataset each time: the dense cache a solve builds on it
        # dies with it, so peak memory does not grow with the round count
        if k:
            ds = self._permuted(row_permutation(self.dataset.n, self.seed, k))
            cache = self.work / f"refcache-{k}"
        else:
            ds = self.harness.load_dataset(self.config)
            cache = self.runs_dir / "_refcache"
        c = self.config
        F = self.harness.build_objective(ds, c.task, c.l1_weight, c.l2_weight)
        key = self._key(ds)
        with self._layers("reference"):
            start = time.perf_counter()
            x = self.harness.cached_reference(F, key, str(cache))
            elapsed = time.perf_counter() - start
        f = certify_reference(self.rows, self.wl.config, x)
        if k:
            shutil.rmtree(cache)
            require(abs(f - self.f_star) <= TRACE_TOL,
                    f"F* {f!r} of a cold solve differs from {self.f_star!r}")
        else:
            self.f_star = f
            zero = np.zeros(self.rows.dim)
            self.sigma0 = (objective(self.rows, self.wl.config, zero) - f) / (x @ x)
        return {"reference_s": elapsed}

    def _permuted(self, perm):
        src = self.dataset
        lengths = np.diff(src.indptr)[perm]
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        take = (np.repeat(src.indptr[perm] - indptr[:-1], lengths)
                + np.arange(indptr[-1]))
        return self.pkg.Dataset(indptr=indptr, indices=src.indices[take],
                                values=src.values[take],
                                labels=src.labels[perm], dim=src.dim)

    def run_op(self, via_cli: bool):
        if self.f_star is None:
            raise RuntimeError("no certified reference to run against")
        csv = Path(self.config.out_path)
        csv.unlink(missing_ok=True)
        with self._layers("run", via_cli):
            start = time.perf_counter()
            if via_cli:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.cli.main(self.cli_argv)
            else:
                self.harness.run_experiment(self.config)
                code = 0
            elapsed = time.perf_counter() - start
        require(code == 0, f"adaptreduce run exited with {code}")
        text = csv.read_bytes()
        passes = check_trace(text.decode("utf-8"), self.wl.config,
                             self.f_star, self.sigma0, self.wl.target,
                             self.wl.final_max)
        if self.first_csv is None:
            self.first_csv = text
        require(text == self.first_csv,
                "CSV differs from the first run of the same config")
        entry = "cli_run_s" if via_cli else "direct_run_s"
        return {"run_s": elapsed, entry: elapsed, "passes_to_target": passes}

    def attempt(self, op, *args):
        """One operation: its samples, or None when it failed."""
        self.attempted += 1
        problem = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = op(*args)
            except CheckFailed as err:
                self.correct = False
                problem = f"check failed: {err}"
            except Exception as err:  # any program error fails the operation
                problem = f"{type(err).__name__}: {err}"
        numeric = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if problem is None and numeric:
            w = numeric[0]
            problem = (f"{len(numeric)} RuntimeWarning(s), first "
                       f"{w.message} at {Path(w.filename).name}:{w.lineno}")
        if problem is not None:
            self.failed += 1
            print(f"operation {op.__name__} failed: {problem}", file=sys.stderr)
            return None
        for name, value in result.items():
            self.samples[name].append(value)
        return result

    def round(self, k: int) -> None:
        # Operations are interleaved so that each metric's samples spread
        # over the whole run: the machine's speed drifts over seconds, and
        # samples taken in one burst would follow that drift.
        self.setups()
        self.attempt(self.reference_op, k)
        self.setups()
        self.attempt(self.run_op, k % 2 == 1)

    def setups(self) -> None:
        for _ in range(SETUP_OPS):
            self.attempt(self.setup_op)

    def measure(self, seconds: float) -> int:
        """Whole rounds, at least MIN_ROUNDS; another one starts only when
        it would end within `seconds` if it took as long as the longest so
        far."""
        self.prepare()
        start = time.perf_counter()
        rounds, longest = 0, 0.0
        while True:
            began = time.perf_counter()
            self.round(rounds)
            rounds += 1
            now = time.perf_counter()
            longest = max(longest, now - began)
            if rounds >= MIN_ROUNDS and now - start + longest > seconds:
                return rounds

    # -- metrics ------------------------------------------------------------
    def _values(self, name: str) -> list:
        values = self.samples[name]
        if not values:
            raise SystemExit(f"error: every operation behind {name} failed")
        return values

    def _median(self, name: str) -> float:
        return statistics.median(self._values(name))

    def _upper(self, name: str) -> float:
        """The 80th percentile, interpolated between the two nearest samples.

        reference_s and run_s use it (bench/README.md, "Spread"): the host
        runs this process at two speeds about 2x apart, in spells of seconds
        to minutes, and a median of a run's few long operations reads
        whichever speed held for longer, so it flips from run to run."""
        values = self._values(name)
        if len(values) == 1:
            return values[0]
        return statistics.quantiles(values, n=5, method="inclusive")[-1]

    def end_to_end(self) -> dict:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": self._median("setup_s"),
                  "reference_s": self._upper("reference_s"),
                  "run_s": self._upper("run_s"),
                  "passes_to_target": self._median("passes_to_target"),
                  "peak_rss_mb": peak_mb}
        return {name: (values[name], unit) for name, unit in END_TO_END}

    def per_layer(self) -> dict:
        t, ops = self.tracer, self.traced_ops
        run, ref = max(ops["run"], 1), max(ops["reference"], 1)
        out = {}

        def per_call(kind, name, per):
            calls = t.calls(kind, name)
            us = t.self_seconds(kind, name) / calls * 1e6 if calls else 0.0
            out[f"{name}.calls"] = (calls / per, "count")
            out[f"{name}.us"] = (us, "us")

        def ms(kind, name, per):
            return t.self_seconds(kind, name) / per * 1e3

        out["data.parse_libsvm.ms"] = (
            ms("setup", "data.parse_libsvm", max(ops["setup"], 1)), "ms")
        for name in RUN_LAYERS:
            per_call("run", name, run)
        per_call("reference", "objectives.content_hash", ref)
        steps = t.counter("run", "solvers.sample_steps")
        oracle_s = t.self_seconds("run", "solvers.oracle")
        out["solvers.oracle.calls"] = (t.calls("run", "solvers.oracle") / run,
                                       "count")
        out["solvers.oracle.self_ms"] = (oracle_s / run * 1e3, "ms")
        out["solvers.sample_steps"] = (steps / run, "count")
        out["solvers.full_evals"] = (
            t.counter("run", "solvers.full_evals") / run, "count")
        out["solvers.step_us"] = (oracle_s / steps * 1e6 if steps else 0.0,
                                  "us")
        out["reductions.epochs"] = (t.counter("run", "reductions.epochs") / run,
                                    "count")
        out["reductions.self_ms"] = (ms("run", "reductions.reduction", run),
                                     "ms")
        out["references.base_reference.ms"] = (
            ms("reference", "references.base_reference", ref), "ms")
        out["harness.cached_reference.ms"] = (
            ms("run", "harness.cached_reference", run), "ms")
        out["harness.run_experiment.self_ms"] = (
            ms("run", "harness.run_experiment", run), "ms")
        out["trace.overhead_s"] = (self._median("cli_run_s")
                                   - self._median("direct_run_s"), "s")
        return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    work = BENCH_DIR / "_work" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}")
    bench = Bench(WORKLOADS[args.workload], args.seed, bool(args.trace), work)
    try:
        rounds = bench.measure(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={rounds} attempted={bench.attempted} failed={bench.failed} "
          f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} blas_threads={BLAS_THREADS}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": bench.correct, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
