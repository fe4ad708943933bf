"""Experiment harness: task/method configuration, trace recording, sweeps.

An ExperimentConfig names a dataset file, one of six standard tasks, a
method (three adaptive reductions, two classical fixed-parameter baselines,
or a direct solver run), and an inner oracle.  `run_experiment` builds the
objective, resolves a certified reference minimizer through an on-disk cache,
runs the method with integer-exact pass accounting, and writes one CSV trace
row per epoch.  Suboptimality columns are always measured against the cached
reference, so traces from different methods on the same data are directly
comparable.

Everything is deterministic given the config: the wall_ms column is emitted
as 0.0 (timing is not part of any contract here) so identical config + seed
produces byte-identical files.
"""
from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .data import Dataset, normalize_rows, parse_libsvm, serialize_libsvm
from .errors import ConfigError, DataError, NumericalError
from .objectives import Case, CompositeObjective
from .reductions import (ReductionParams, _drive, adapt_reg, adapt_smooth,
                         classical_reg, classical_smooth, default_params,
                         joint_adapt)
from .references import base_reference
from .regularizers import Regularizer
from .solvers import (PracticalGapQuarter, PracticalGradThird, TheoryBudget,
                      apg_hood, prox_gd_hood, sdca_hood, svrg_hood)

TASKS = ("ridge", "elasticnet", "lasso", "logistic", "svm", "l1svm")
METHODS = ("adaptreg", "adaptsmooth", "joint", "classical-reg",
           "classical-smooth", "direct")
ORACLES = ("proxgd", "apg", "svrg", "sdca")

_ORACLE_FN = {"proxgd": prox_gd_hood, "apg": apg_hood, "svrg": svrg_hood,
              "sdca": sdca_hood}

CSV_HEADER = "epoch,passes,objective,subopt,stat,sigma_t,lambda_t,wall_ms"


@dataclass
class ExperimentConfig:
    data_path: str = ""
    task: str = "ridge"
    l1_weight: float = 0.0
    l2_weight: float = 0.0
    method: str = "direct"
    oracle: str = "apg"
    sigma0: float | None = None
    lam0: float | None = None
    sigma: float | None = None
    lam: float | None = None
    T: int | None = None
    eps: float = 1e-6
    pass_budget: float | None = None
    seed: int = 0
    normalize: bool = False
    out_dir: str = "runs"

    def validate(self) -> None:
        if not self.data_path:
            raise ConfigError("data_path is required")
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.oracle not in ORACLES:
            raise ConfigError(
                f"unknown oracle {self.oracle!r}; expected one of {ORACLES}")
        if self.eps <= 0.0:
            raise ConfigError("eps must be positive")
        if self.T is not None and self.T < 1:
            raise ConfigError("T must be at least 1")
        if self.pass_budget is not None and self.pass_budget <= 0.0:
            raise ConfigError("pass_budget must be positive")
        for name in ("l1_weight", "l2_weight"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be nonnegative")
        for name in ("sigma0", "lam0", "sigma", "lam"):
            v = getattr(self, name)
            if v is not None and v <= 0.0:
                raise ConfigError(f"{name} must be positive when given")

    @property
    def run_name(self) -> str:
        parts = [self.task, self.method, self.oracle]
        for name in ("sigma0", "lam0", "sigma", "lam"):
            v = getattr(self, name)
            if v is not None:
                parts.append(f"{name}{v:g}")
        if self.T is not None:
            parts.append(f"T{self.T}")
        parts.append(f"seed{self.seed}")
        return "-".join(parts)

    @property
    def out_path(self) -> str:
        return os.path.join(self.out_dir, self.run_name + ".csv")


@dataclass
class TraceRow:
    epoch: int
    passes: float
    objective: float
    subopt: float
    stat: float
    sigma_t: float
    lambda_t: float
    wall_ms: float = 0.0


@dataclass
class ConvergenceTrace:
    rows: list[TraceRow] = field(default_factory=list)

    @property
    def final_subopt(self) -> float:
        return self.rows[-1].subopt if self.rows else float("nan")

    @property
    def total_passes(self) -> float:
        return self.rows[-1].passes if self.rows else 0.0

    def min_subopt(self) -> float:
        return min((r.subopt for r in self.rows), default=float("nan"))

    def passes_to(self, threshold: float) -> float | None:
        """First cumulative pass count at which subopt <= threshold."""
        for r in self.rows:
            if r.subopt <= threshold:
                return r.passes
        return None


# ---------------------------------------------------------------------------
# objective construction and compatibility
# ---------------------------------------------------------------------------

_TASK_LOSS = {"ridge": "squared", "elasticnet": "squared", "lasso": "squared",
              "logistic": "logistic", "svm": "hinge", "l1svm": "hinge"}

_TASK_WEIGHTS = {
    # task -> (l1 required, l1 forbidden, l2 required, l2 forbidden)
    "ridge": (False, True, True, False),
    "elasticnet": (True, False, True, False),
    "lasso": (True, False, False, True),
    "logistic": (False, True, False, False),
    "svm": (False, True, True, False),
    "l1svm": (True, False, False, True),
}


def build_objective(data: Dataset, task: str, l1_weight: float,
                    l2_weight: float) -> CompositeObjective:
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}")
    l1_req, l1_forbid, l2_req, l2_forbid = _TASK_WEIGHTS[task]
    if l1_req and l1_weight <= 0.0:
        raise ConfigError(f"task {task} requires l1_weight > 0")
    if l1_forbid and l1_weight != 0.0:
        raise ConfigError(f"task {task} does not take an l1 term")
    if l2_req and l2_weight <= 0.0:
        raise ConfigError(f"task {task} requires l2_weight > 0")
    if l2_forbid and l2_weight != 0.0:
        raise ConfigError(f"task {task} does not take an l2 term")
    reg = Regularizer(l1=l1_weight, l2=l2_weight)
    return CompositeObjective(data=data, loss=_TASK_LOSS[task], reg=reg)


def _check_compatibility(config: ExperimentConfig, F: CompositeObjective) -> None:
    case = F.classify_case()
    need = {"adaptreg": Case.Case2, "adaptsmooth": Case.Case3,
            "joint": Case.Case4, "classical-reg": Case.Case2,
            "classical-smooth": Case.Case3}
    if config.method in need and case is not need[config.method]:
        raise ConfigError(
            f"method {config.method} requires a {need[config.method].name} "
            f"objective, but task {config.task} with these weights is {case.name}")
    if config.method == "direct" and case is not Case.Case1:
        raise ConfigError(
            f"direct {config.oracle} requires a Case1 objective; "
            f"task {config.task} with these weights is {case.name}")
    if config.method == "classical-reg" and config.sigma is None:
        raise ConfigError("classical-reg requires --sigma")
    if config.method == "classical-smooth" and config.lam is None:
        raise ConfigError("classical-smooth requires --lam")
    if config.method in ("classical-reg", "classical-smooth", "direct"):
        return
    # adaptive methods: pin down starting parameters they cannot default
    if config.method in ("adaptsmooth", "joint") and math.isinf(F.lipschitz_G) \
            and config.lam0 is None:
        raise ConfigError(
            "smoothing methods need lam0 when the loss Lipschitz constant "
            "is infinite")


# ---------------------------------------------------------------------------
# reference cache (disk)
# ---------------------------------------------------------------------------

def reference_cache_key(data: Dataset, task: str, l1_weight: float,
                        l2_weight: float, normalize: bool) -> str:
    h = data.content_sha256()
    h.update(task.encode())
    h.update(repr((float(l1_weight), float(l2_weight))).encode())
    h.update(b"normalized" if normalize else b"raw")
    return h.hexdigest()


def cached_reference(F: CompositeObjective, key: str,
                     cache_dir: str) -> np.ndarray:
    """Disk-cached certified reference minimizer, decimal text, atomic write."""
    path = os.path.join(cache_dir, key + ".ref")
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                x = np.array([float(line) for line in fh if line.strip()])
            except ValueError as err:
                raise DataError(f"reference cache entry {path} is unparsable "
                                f"({err})")
        if len(x) != F.dim:
            raise DataError(f"reference cache entry {path} has wrong length")
        if not np.isfinite(x).all():
            raise DataError(f"reference cache entry {path} is not finite")
        x.setflags(write=False)
        return x
    x = base_reference(F)
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            for v in x:
                fh.write(repr(float(v)) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return x


def config_reference(config: ExperimentConfig, data: Dataset,
                     F: CompositeObjective) -> tuple[np.ndarray, str]:
    """The reference minimizer of F for this config, through the disk cache
    under out_dir/_refcache, and the path of its cache entry."""
    key = reference_cache_key(data, config.task, config.l1_weight,
                              config.l2_weight, config.normalize)
    cache_dir = os.path.join(config.out_dir, "_refcache")
    return (cached_reference(F, key, cache_dir),
            os.path.join(cache_dir, key + ".ref"))


# ---------------------------------------------------------------------------
# running experiments
# ---------------------------------------------------------------------------

def load_dataset(config: ExperimentConfig) -> Dataset:
    try:
        with open(config.data_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise DataError(f"cannot read data file {config.data_path}: {err}")
    data = parse_libsvm(text)
    if config.normalize:
        data = normalize_rows(data)
    return data


def _resolve_params(config: ExperimentConfig, F: CompositeObjective,
                    x_ref: np.ndarray) -> ReductionParams:
    x0 = np.zeros(F.dim)
    delta = F.full_value(x0) - F.full_value(x_ref)
    theta = float(np.sum((x0 - x_ref) ** 2))
    if delta <= 0.0 or theta <= 0.0:
        raise ConfigError("starting point is already optimal; nothing to run")
    params = default_params(delta, theta, F.lipschitz_G, config.eps)
    sigma0 = config.sigma0 if config.sigma0 is not None else params.sigma0
    lam0 = config.lam0 if config.lam0 is not None else params.lam0
    T = config.T if config.T is not None else params.T
    return replace(params, sigma0=sigma0, lam0=lam0, T=T)


def _records_to_trace(F: CompositeObjective, records, F_star: float) -> ConvergenceTrace:
    trace = ConvergenceTrace()
    for rec in records:
        if trace.rows and rec.passes <= trace.rows[-1].passes:
            continue  # budget-edge epoch that could not afford any work
        obj = F.full_value(rec.x_hat)
        trace.rows.append(TraceRow(
            epoch=rec.t, passes=rec.passes, objective=float(obj),
            subopt=float(obj - F_star), stat=float(rec.report.final_stat),
            sigma_t=float(rec.sigma_t), lambda_t=float(rec.lambda_t)))
    return trace


def run_experiment(config: ExperimentConfig,
                   write: bool = True) -> ConvergenceTrace:
    config.validate()
    data = load_dataset(config)
    F = build_objective(data, config.task, config.l1_weight, config.l2_weight)
    _check_compatibility(config, F)

    x_ref, _ = config_reference(config, data, F)
    F_star = float(F.full_value(x_ref))

    x0 = np.zeros(F.dim)
    oracle = _ORACLE_FN[config.oracle]
    method = config.method
    if method in ("adaptreg", "adaptsmooth", "joint"):
        reduce_fn = {"adaptreg": adapt_reg, "adaptsmooth": adapt_smooth,
                     "joint": joint_adapt}[method]
        # the gradient-norm statistic leaves out the l1 term, so only the
        # l1-free adaptsmooth tasks can use it
        policy = (PracticalGradThird() if method == "adaptsmooth"
                  else PracticalGapQuarter())
        _, records = reduce_fn(F, oracle, x0, _resolve_params(config, F, x_ref),
                               policy, seed=config.seed,
                               pass_budget=config.pass_budget)
    elif method == "classical-reg":
        _, records = classical_reg(F, oracle, x0, config.sigma,
                                   seed=config.seed,
                                   pass_budget=config.pass_budget,
                                   target_stat=config.eps)
    elif method == "classical-smooth":
        _, records = classical_smooth(F, oracle, x0, config.lam,
                                      seed=config.seed,
                                      pass_budget=config.pass_budget,
                                      target_stat=config.eps)
    else:  # direct: one epoch of the oracle's certified budget on F itself
        _, records = _drive(F, oracle, x0, TheoryBudget(), [(0.0, 0.0)],
                            lambda sigma_t, lam_t: F, seed=config.seed,
                            pass_budget=config.pass_budget,
                            epoch_seed=lambda seed, t: seed)

    trace = _records_to_trace(F, records, F_star)
    if write:
        emit_csv(trace, config.out_path)
    return trace


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def emit_csv(trace: ConvergenceTrace, path: str) -> None:
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in trace.rows:
            fh.write(",".join([
                str(r.epoch), repr(r.passes), repr(r.objective),
                repr(r.subopt), repr(r.stat), repr(r.sigma_t),
                repr(r.lambda_t), repr(r.wall_ms)]) + "\n")


def parse_trace_csv(path: str) -> ConvergenceTrace:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise DataError(f"{path}: missing or wrong trace header")
    trace = ConvergenceTrace()
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 8:
            raise DataError(f"{path}: expected 8 columns, got {len(parts)}")
        trace.rows.append(TraceRow(
            epoch=int(parts[0]), passes=float(parts[1]),
            objective=float(parts[2]), subopt=float(parts[3]),
            stat=float(parts[4]), sigma_t=float(parts[5]),
            lambda_t=float(parts[6]), wall_ms=float(parts[7])))
    return trace


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    config: ExperimentConfig
    trace: ConvergenceTrace | None = None
    error: Exception | None = None


def sweep(configs: list[ExperimentConfig]) -> list[SweepResult]:
    paths = [c.out_path for c in configs]
    dupes = {p for p in paths if paths.count(p) > 1}
    if dupes:
        raise ConfigError(f"duplicate output paths in sweep: {sorted(dupes)}")
    results = []
    for c in configs:
        try:
            results.append(SweepResult(c, trace=run_experiment(c)))
        except (ConfigError, DataError, NumericalError, OSError) as err:
            results.append(SweepResult(c, error=err))
    return results


def sweep_summary(results: list[SweepResult]) -> str:
    header = f"{'run':<48} {'status':<8} {'final_subopt':>14} {'passes':>10}"
    lines = [header, "-" * len(header)]
    for r in results:
        name = r.config.run_name
        if r.error is not None:
            lines.append(f"{name:<48} {'ERROR':<8} {type(r.error).__name__}: {r.error}")
        else:
            lines.append(f"{name:<48} {'ok':<8} {r.trace.final_subopt:>14.6e} "
                         f"{r.trace.total_passes:>10.2f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# synthetic data generators
# ---------------------------------------------------------------------------

def dense_to_dataset(A: np.ndarray, labels: np.ndarray) -> Dataset:
    A = np.asarray(A, dtype=float)
    labels = np.asarray(labels, dtype=float)
    n, d = A.shape
    indptr = np.arange(0, n * d + 1, d, dtype=np.int64)
    indices = np.tile(np.arange(d, dtype=np.int64), n)
    return Dataset(indptr=indptr, indices=indices, values=A.ravel().copy(),
                   labels=labels.copy(), dim=d)


def gen_regression(seed: int, n: int, d: int, sparsity: int = 10,
                   planted_scale: float = 2.0,
                   noise: float = 0.08) -> Dataset:
    """Gaussian design with a planted sparse solution and label noise."""
    if not (0 < sparsity <= d):
        raise ConfigError("sparsity must be in 1..d")
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, d)) / np.sqrt(d)
    x_planted = np.zeros(d)
    support = rng.choice(d, sparsity, replace=False)
    x_planted[support] = rng.normal(size=sparsity) * planted_scale
    b = A @ x_planted + noise * rng.normal(size=n)
    return dense_to_dataset(A, b)


def gen_classification(seed: int, n: int, d: int, separation: float = 2.0,
                       noise_scale: float = 2.0,
                       flip_fraction: float = 0.05) -> Dataset:
    """Two-class Gaussian mixture along a planted unit direction, with a
    fraction of labels flipped."""
    if not (0.0 <= flip_fraction < 1.0):
        raise ConfigError("flip_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    A = (separation * y[:, None] * direction[None, :]
         + noise_scale * rng.normal(size=(n, d)) / np.sqrt(d))
    flip = rng.random(n) < flip_fraction
    y[flip] *= -1.0
    return dense_to_dataset(A, y)


def write_dataset(data: Dataset, path: str) -> None:
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_libsvm(data))


# ---------------------------------------------------------------------------
# config file parsing ("key = value" lines, CLI overrides applied by the CLI)
# ---------------------------------------------------------------------------

_CONFIG_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_value(name: str, raw: str):
    raw = raw.strip()
    if name in ("data_path", "task", "method", "oracle", "out_dir"):
        return raw
    if name == "seed":
        return int(raw)
    if name == "T":
        return int(raw)
    if name == "normalize":
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config: bad boolean for normalize: {raw!r}")
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"config: bad numeric value for {name}: {raw!r}")


def parse_config_file(path: str) -> dict:
    """Flat 'key = value' lines; '#' starts a comment; keys may be kebab-case."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}")
    out = {}
    for ln_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln_no}: expected 'key = value'")
        key, raw = line.split("=", 1)
        name = key.strip().replace("-", "_")
        if name not in _CONFIG_TYPES:
            raise ConfigError(f"{path}:{ln_no}: unknown config key {key.strip()!r}")
        out[name] = _parse_value(name, raw)
    return out
