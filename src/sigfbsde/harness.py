"""Experiment registry, configuration handling, and result emission."""

from __future__ import annotations

import json
import math
import os
import platform
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import __version__, oracle, sde, solver

PROFILES = ("desk", "paper")


class ConfigError(ValueError):
    """Configuration document failed validation."""


# key -> (type, accepts None).  Every configurable knob is listed here;
# anything else in a document is rejected.
CONFIG_KEYS = {
    "experiment": (str, False),
    "profile": (str, False),
    "method": (str, False),
    "feature": (str, False),
    "d": (int, False),
    "m": (int, False),
    "embed_dim": (int, True),
    "n_fine": (int, False),
    "n_coarse": (int, False),
    "batch": (int, False),
    "iterations": (int, False),
    "lr": (float, False),
    "runs": (int, False),
    "seed": (int, False),
    "out": (str, True),
    "x0": (float, False),
    "rate": (float, False),
    "sigma": (float, False),
    "strike": (float, False),
    "horizon": (float, False),
    "workers": (int, False),
    "reference_paths": (int, False),
}
_FLOAT_KEYS = tuple(key for key, (typ, _) in CONFIG_KEYS.items() if typ is float)


@dataclass(frozen=True)
class HarnessConfig:
    """A resolved config document and the experiment spec built from it."""

    document: dict
    spec: solver.ExperimentSpec


@dataclass(frozen=True)
class Experiment:
    """One registry record: the defaults, builders and oracle of a benchmark.

    ``defaults`` and each ``profiles`` entry are partial config documents
    layered over :data:`_SHARED`; a dict value there is keyed by ``method``.
    ``model`` and ``payoff`` build the spec's parts from a resolved
    document, ``references`` returns the oracle values of a config,
    ``ignores`` names the keys its model, payoff and oracle never read, and
    ``check`` raises :class:`ConfigError` where that oracle does not apply.
    """

    defaults: dict
    profiles: dict
    model: Callable[[dict], sde.ModelSpec]
    payoff: Callable[[dict], solver.PayoffKind]
    references: Callable[[HarnessConfig], dict]
    ignores: tuple = ()
    check: Callable[[dict], None] = lambda doc: None


# defaults every experiment shares; a dict value is keyed by method
_SHARED = {
    "horizon": 1.0, "lr": 1e-3, "embed_dim": None, "strike": 0.0, "seed": 0,
    "runs": 1, "workers": 1, "reference_paths": 200_000, "out": None,
    "batch": {"forward": 100, "backward": 1000, "reflected": 1000},
}


def _geometric_model(doc: dict) -> sde.ModelSpec:
    return sde.ModelSpec.geometric(doc["x0"], doc["rate"], doc["sigma"], dim=doc["d"])


def _lookback_params(doc: dict) -> oracle.LookbackParams:
    """The lookback claim at time 0; raises ``OracleDomainError`` off its domain."""
    return oracle.LookbackParams(doc["x0"], doc["x0"], doc["rate"], doc["sigma"],
                                 doc["horizon"])


def _reject_ignored(doc: dict, *keys: str):
    """Reject a value off the record's default for keys the run ignores.

    Such a value would be echoed in the config document without changing
    the run.
    """
    defaults = experiment_defaults(doc["experiment"], doc["profile"], doc["method"])
    changed = [f"{key}={doc[key]}" for key in keys if doc[key] != defaults[key]]
    if changed:
        raise ConfigError(f"the {doc['experiment']} experiment with method "
                          f"{doc['method']} ignores {', '.join(changed)}; "
                          f"leave them at their defaults")


def _lookback_check(doc: dict):
    try:
        _lookback_params(doc)
    except oracle.OracleDomainError:
        raise ConfigError(
            f"the lookback closed form needs positive x0, rate and sigma, got "
            f"x0={doc['x0']}, rate={doc['rate']}, sigma={doc['sigma']}") from None


def _lookback_references(cfg: HarnessConfig) -> dict:
    params = _lookback_params(cfg.document)
    return {"reference": oracle.lookback_discrete_price(params, cfg.document["n_fine"]),
            "kind": "continuity-corrected lookback value on the simulation grid",
            "continuous_reference": oracle.lookback_price(params)}


def _quadratic_references(cfg: HarnessConfig) -> dict:
    doc = cfg.document
    return {"reference": oracle.quadratic_grid_value(doc["d"], doc["x0"], doc["n_fine"],
                                                     doc["horizon"]),
            "kind": "exact mean of the simulated payoff",
            "continuous_reference": oracle.quadratic_pde_solution(
                0.0, np.full((1, doc["d"]), doc["x0"]), doc["horizon"])}


def _amerasian_check(doc: dict):
    if doc["x0"] <= 0:
        raise ConfigError(f"the geometric model needs positive x0, got x0={doc['x0']}")
    if doc["reference_paths"] < oracle.MIN_MC_PATHS:
        raise ConfigError(f"reference_paths={doc['reference_paths']} must be "
                          f"at least {oracle.MIN_MC_PATHS}")


def _amerasian_references(cfg: HarnessConfig) -> dict:
    spec = cfg.spec
    est, se = oracle.asian_european_mc(
        spec.model, spec.grid, spec.payoff.strike,
        np.full(spec.model.dim, 1.0 / spec.model.dim),
        cfg.document["reference_paths"], solver.derive_seed(spec.seed, 7))
    bound = oracle.jensen_lower_bound(spec.model, spec.payoff.strike,
                                      spec.grid.horizon)
    return {"reference": est, "kind": "European Monte Carlo",
            "european_se": se, "jensen_bound": bound}


REGISTRY = {
    "lookback": Experiment(
        defaults={"method": "forward", "feature": "signature", "d": 1, "m": 3,
                  "n_coarse": 20, "x0": 10.0, "rate": 0.01, "sigma": 1.0},
        profiles={
            "desk": {"n_fine": 400, "iterations": {"forward": 3000, "backward": 700},
                     "runs": {"forward": 1, "backward": 10}},
            "paper": {"n_fine": 2000, "iterations": {"forward": 5000, "backward": 1200},
                      "runs": {"forward": 1, "backward": 50}}},
        model=_geometric_model,
        payoff=lambda doc: solver.PayoffKind("lookback"),
        references=_lookback_references, ignores=("strike", "reference_paths"),
        check=_lookback_check),
    "quadratic": Experiment(
        defaults={"method": "forward", "feature": "log-signature", "d": 20, "m": 2,
                  "n_coarse": 5, "n_fine": 100, "x0": 0.0, "rate": 0.0, "sigma": 0.0},
        profiles={"desk": {"iterations": {"forward": 2000, "backward": 500}},
                  "paper": {"iterations": {"forward": 5000, "backward": 1500}}},
        model=lambda doc: sde.ModelSpec.arithmetic_unit(doc["x0"], dim=doc["d"]),
        payoff=lambda doc: solver.PayoffKind("quadratic-integral"),
        references=_quadratic_references,
        ignores=("rate", "sigma", "strike", "reference_paths")),
    "amerasian": Experiment(
        defaults={"method": "reflected", "feature": "log-signature", "d": 1, "m": 2,
                  "n_coarse": 20, "x0": 100.0, "rate": 0.05, "sigma": 0.15,
                  "strike": 100.0},
        profiles={"desk": {"n_fine": 200, "iterations": 400, "runs": 10},
                  "paper": {"n_fine": 1000, "iterations": 1000, "runs": 50}},
        model=_geometric_model,
        payoff=lambda doc: solver.PayoffKind("asian-basket-call", strike=doc["strike"]),
        references=_amerasian_references, check=_amerasian_check),
}
EXPERIMENTS = tuple(REGISTRY)


def _coerce(key: str, value):
    if key not in CONFIG_KEYS:
        return value
    typ, nullable = CONFIG_KEYS[key]
    if value is None or (isinstance(value, str) and value.lower() == "none"):
        if not nullable:
            raise ConfigError(f"key {key!r} cannot be none")
        return None
    try:
        if isinstance(value, bool):   # no key takes a JSON true or false
            raise TypeError
        if typ is int:
            coerced = int(value)
            if isinstance(value, float) and value != coerced:
                raise ValueError
            return coerced
        return typ(value)
    except (TypeError, ValueError):
        raise ConfigError(f"key {key!r} expects {typ.__name__}, got {value!r}") from None


def experiment_defaults(experiment: str, profile: str, method: str | None = None) -> dict:
    """Documented default configuration for one experiment and profile."""
    if experiment not in REGISTRY:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    record = REGISTRY[experiment]
    doc = {**_SHARED, **record.defaults, **record.profiles[profile],
           "experiment": experiment, "profile": profile}
    doc["method"] = method = method or doc["method"]
    for key, value in doc.items():
        if isinstance(value, dict):
            doc[key] = value.get(method, next(iter(value.values())))
    return doc


def load_config(path: str | None = None, overrides: dict | None = None) -> HarnessConfig:
    """Resolve defaults, an optional JSON document, and explicit overrides.

    Later sources win.  An unreadable or malformed document, unknown keys,
    impossible grids, inconsistent sizes and configs outside the
    experiment's oracle are rejected with every offending key named.
    """
    doc: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config document {path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config document {path} must be a JSON object")
        doc.update(loaded)
    if overrides:
        doc.update(overrides)

    unknown = sorted(set(doc) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    doc = {k: _coerce(k, v) for k, v in doc.items()}

    resolved = experiment_defaults(doc.get("experiment", "lookback"),
                                   doc.get("profile", "paper"), doc.get("method"))
    resolved.update(doc)

    # high-dimensional runs get the dimension-reducing embedding unless a
    # document or override sets embed_dim, even to none
    if "embed_dim" not in doc and resolved["d"] > 20:
        resolved["embed_dim"] = 5

    problems = []
    for key in ("d", "n_fine", "n_coarse", "batch", "runs", "workers"):
        if resolved[key] < 1:
            problems.append(f"{key}={resolved[key]} must be positive")
    for key in ("iterations", "seed"):
        if resolved[key] < 0:
            problems.append(f"{key}={resolved[key]} must be nonnegative")
    for key in _FLOAT_KEYS:
        if resolved[key] is not None and not math.isfinite(resolved[key]):
            problems.append(f"{key}={resolved[key]} must be finite")
    if math.isfinite(resolved["lr"]) and resolved["lr"] <= 0:
        problems.append(f"lr={resolved['lr']} must be positive")
    if problems:
        raise ConfigError("; ".join(problems))

    record = REGISTRY[resolved["experiment"]]
    try:
        model = record.model(resolved)
        spec = solver.ExperimentSpec(
            method=resolved["method"],
            model=model,
            grid=sde.GridSpec(resolved["horizon"], resolved["n_fine"],
                              resolved["n_coarse"]),
            driver=solver.DriverKind(model.rate),
            payoff=record.payoff(resolved),
            depth=resolved["m"],
            feature=resolved["feature"],
            embed_dim=resolved["embed_dim"],
            batch_size=resolved["batch"],
            iterations=resolved["iterations"],
            learning_rate=resolved["lr"],
            runs=resolved["runs"],
            seed=resolved["seed"],
        )
    except (solver.SpecError, sde.GridError, sde.ModelError) as exc:
        raise ConfigError(str(exc)) from exc
    _reject_ignored(resolved, *record.ignores)
    record.check(resolved)
    return HarnessConfig(resolved, spec)


def config_document(cfg: HarnessConfig) -> dict:
    """Flat key-value document that :func:`load_config` maps back to ``cfg``."""
    return dict(cfg.document)


def reference_values(cfg: HarnessConfig) -> dict:
    """Oracle references for one experiment configuration."""
    return REGISTRY[cfg.document["experiment"]].references(cfg)


@dataclass
class ResultsTable:
    """Per-run rows plus the aggregate summary emitted to disk."""

    rows: list = field(default_factory=list)     # (run, final_estimate, iterations, elapsed_s)
    summary: dict = field(default_factory=dict)
    reports: list = field(default_factory=list)


def _run_one(args) -> solver.RunReport:
    spec, run_seed = args
    return solver.train(spec, run_seed=run_seed)


def run_experiment(cfg: HarnessConfig) -> ResultsTable:
    """Execute all runs, aggregate, attach the oracle reference, emit files.

    ``out`` is created before the first run; a path that cannot be a
    directory raises :class:`ConfigError` before any training.  A run that
    aborts on a non-finite loss still writes the curves of the runs before
    it and its own partial curve to ``out`` before the
    :class:`solver.SolverAbort` propagates.
    """
    doc, spec = cfg.document, cfg.spec
    if doc["out"]:
        try:
            os.makedirs(doc["out"], exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"out={doc['out']} cannot be created as a directory: "
                              f"{exc}") from None
    run_seeds = [solver.derive_seed(spec.seed, 6, r) for r in range(spec.runs)]
    jobs = [(spec, s) for s in run_seeds]
    workers = min(doc["workers"], spec.runs, sde.thread_count())
    reports = []  # in run order; extend keeps the runs that finished before an abort
    try:
        if workers > 1:
            # imported here, so multiprocessing loads only for a pool
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                reports.extend(pool.map(_run_one, jobs))
        else:
            reports.extend(map(_run_one, jobs))
    except solver.SolverAbort as exc:
        if doc["out"]:
            for r, report in enumerate(reports):
                _write_curve(doc["out"], r, report)
            if exc.report is not None:
                _write_curve(doc["out"], run_seeds.index(exc.report.seed), exc.report)
        raise

    table = ResultsTable(reports=reports)
    for r, report in enumerate(reports):
        elapsed = report.elapsed[-1] if report.elapsed else 0.0
        table.rows.append((r, report.final_estimate, report.iterations, elapsed))

    agg = solver.aggregate_runs(reports)
    refs = reference_values(cfg)
    summary = {
        "experiment": doc["experiment"],
        "profile": doc["profile"],
        "method": spec.method,
        "runs": spec.runs,
        "mean": agg.mean,
        "ci_low": agg.ci_low,
        "ci_high": agg.ci_high,
    }
    summary.update(refs)
    if refs["reference"] is not None and refs["reference"] != 0.0:
        summary["rel_error"] = (agg.mean - refs["reference"]) / refs["reference"]
    # the resolved config, which load_config maps back to this spec, and
    # the seed each run trained with
    summary["config"] = config_document(cfg)
    summary["run_seeds"] = run_seeds
    # what the numbers depend on beyond the config; cores is the most
    # threads a batch of long streams is drawn on, and the BLAS thread
    # settings (None where unset) can move the last bits of training
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    summary["provenance"] = {"cores": sde.thread_count(), "numpy": np.__version__,
                             "python": platform.python_version(), "sigfbsde": __version__,
                             **{name: os.environ.get(name) for name in blas}}
    table.summary = summary

    if doc["out"]:
        emit_outputs(table, doc["out"])
    return table


def emit_outputs(table: ResultsTable, directory: str) -> list:
    """Write the curve CSV of each of ``table.reports``, the summary CSV, and
    the JSON report.

    Emission is pure formatting: identical inputs produce byte-identical
    files.  Returns the list of paths written.
    """
    os.makedirs(directory, exist_ok=True)
    written = [_write_curve(directory, r, report) for r, report in enumerate(table.reports)]

    path = os.path.join(directory, "summary.csv")
    lines = ["run,final_estimate,iterations,elapsed_s"]
    for run, est, iters, elapsed in table.rows:
        lines.append(f"{run},{est!r},{iters},{elapsed!r}")
    _write_text(path, "\n".join(lines) + "\n")
    written.append(path)

    path = os.path.join(directory, "report.json")
    _write_text(path, json.dumps(table.summary, indent=2, sort_keys=True) + "\n")
    written.append(path)
    return written


def _write_curve(directory: str, run: int, report: solver.RunReport) -> str:
    """Write one run's loss/estimate trajectory as ``curve_run<run>.csv``."""
    path = os.path.join(directory, f"curve_run{run}.csv")
    lines = ["iteration,loss,y0_estimate,elapsed_s"]
    for it, (loss, est, el) in enumerate(
            zip(report.losses, report.estimates, report.elapsed)):
        lines.append(f"{it},{loss!r},{est!r},{el!r}")
    _write_text(path, "\n".join(lines) + "\n")
    return path


def _write_text(path: str, content: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc
