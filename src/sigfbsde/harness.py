"""Experiment registry, configuration handling, and result emission."""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import oracle, sde, solver

EXPERIMENTS = ("lookback", "quadratic", "amerasian")
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
    "y0_init": (float, True),
    "workers": (int, False),
    "reference_paths": (int, False),
}

# per-(experiment, profile) defaults; method-dependent entries hold a dict
_BASE = {
    "lookback": {
        "method": "forward", "feature": "signature", "d": 1, "m": 3,
        "n_coarse": 20, "x0": 10.0, "rate": 0.01, "sigma": 1.0,
        "strike": 0.0, "horizon": 1.0, "lr": 1e-3, "embed_dim": None,
    },
    "quadratic": {
        "method": "forward", "feature": "log-signature", "d": 20, "m": 2,
        "n_coarse": 5, "n_fine": 100, "x0": 0.0, "rate": 0.0, "sigma": 0.0,
        "strike": 0.0, "horizon": 1.0, "lr": 1e-3, "embed_dim": None,
    },
    "amerasian": {
        "method": "reflected", "feature": "log-signature", "d": 1, "m": 2,
        "n_coarse": 20, "x0": 100.0, "rate": 0.05, "sigma": 0.15,
        "strike": 100.0, "horizon": 1.0, "lr": 1e-3, "embed_dim": None,
    },
}

_PROFILE = {
    ("lookback", "desk"): {"n_fine": 400, "iterations": {"forward": 3000, "backward": 700},
                           "runs": {"forward": 1, "backward": 10}},
    ("lookback", "paper"): {"n_fine": 2000, "iterations": {"forward": 5000, "backward": 1200},
                            "runs": {"forward": 1, "backward": 50}},
    ("quadratic", "desk"): {"iterations": {"forward": 2000, "backward": 500},
                            "runs": {"forward": 1, "backward": 1}},
    ("quadratic", "paper"): {"iterations": {"forward": 5000, "backward": 1500},
                             "runs": {"forward": 1, "backward": 1}},
    ("amerasian", "desk"): {"n_fine": 200, "iterations": {"reflected": 400},
                            "runs": {"reflected": 10}},
    ("amerasian", "paper"): {"n_fine": 1000, "iterations": {"reflected": 1000},
                             "runs": {"reflected": 50}},
}

# batch size depends on the training scheme
_BATCH_BY_METHOD = {"forward": 100, "backward": 1000, "reflected": 1000}


@dataclass(frozen=True)
class HarnessConfig:
    """A fully resolved experiment plus harness-level run options."""

    experiment: str
    profile: str
    spec: solver.ExperimentSpec
    out: str | None = None
    workers: int = 1
    reference_paths: int = 200_000


def _coerce(key: str, value):
    if key not in CONFIG_KEYS:
        return value
    typ, nullable = CONFIG_KEYS[key]
    if value is None or (isinstance(value, str) and value.lower() == "none"):
        if not nullable:
            raise ConfigError(f"key {key!r} cannot be none")
        return None
    try:
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
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    doc = dict(_BASE[experiment])
    doc.update({k: v for k, v in _PROFILE[(experiment, profile)].items()
                if not isinstance(v, dict)})
    method = method or doc["method"]
    per_method = {k: v for k, v in _PROFILE[(experiment, profile)].items()
                  if isinstance(v, dict)}
    for key, table in per_method.items():
        doc[key] = table.get(method, next(iter(table.values())))
    doc["batch"] = _BATCH_BY_METHOD.get(method, 100)
    doc.setdefault("seed", 0)
    doc.setdefault("runs", 1)
    doc.setdefault("workers", 1)
    doc.setdefault("reference_paths", 200_000)
    doc["experiment"] = experiment
    doc["profile"] = profile
    doc["method"] = method
    return doc


def _build_model(experiment: str, doc: dict) -> sde.ModelSpec:
    if experiment == "quadratic":
        return sde.ModelSpec.arithmetic_unit(doc["x0"], dim=doc["d"])
    return sde.ModelSpec.geometric(doc["x0"], doc["rate"], doc["sigma"], dim=doc["d"])


def _build_driver(experiment: str, doc: dict) -> solver.DriverKind:
    if experiment == "quadratic":
        return solver.DriverKind("zero")
    return solver.DriverKind("discount", doc["rate"])


def _build_payoff(experiment: str, doc: dict) -> solver.PayoffKind:
    if experiment == "lookback":
        return solver.PayoffKind("lookback")
    if experiment == "quadratic":
        return solver.PayoffKind("quadratic-integral")
    return solver.PayoffKind("asian-basket-call", strike=doc["strike"])


def load_config(path: str | None = None, overrides: dict | None = None) -> HarnessConfig:
    """Resolve defaults, an optional JSON document, and explicit overrides.

    Later sources win.  Unknown keys, impossible grids, and inconsistent
    sizes are rejected with every offending key named.
    """
    doc: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError(f"config document {path} must be a JSON object")
        doc.update(loaded)
    if overrides:
        doc.update(overrides)

    unknown = sorted(set(doc) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    doc = {k: _coerce(k, v) for k, v in doc.items()}

    experiment = doc.get("experiment", "lookback")
    profile = doc.get("profile", "paper")
    resolved = experiment_defaults(experiment, profile, doc.get("method"))
    resolved.update(doc)

    # high-dimensional runs get the dimension-reducing embedding by default
    if resolved.get("embed_dim") is None and resolved["d"] > 20:
        resolved["embed_dim"] = 5

    problems = []
    if resolved["d"] < 1:
        problems.append(f"d={resolved['d']} must be positive")
    if resolved["batch"] < 1:
        problems.append(f"batch={resolved['batch']} must be positive")
    if resolved["iterations"] < 0:
        problems.append(f"iterations={resolved['iterations']} must be nonnegative")
    if resolved["runs"] < 1:
        problems.append(f"runs={resolved['runs']} must be positive")
    if resolved["n_fine"] % resolved["n_coarse"] != 0:
        problems.append(
            f"n_coarse={resolved['n_coarse']} does not divide n_fine={resolved['n_fine']}")
    if experiment == "amerasian" and resolved["reference_paths"] < oracle.MIN_MC_PATHS:
        problems.append(f"reference_paths={resolved['reference_paths']} must be "
                        f"at least {oracle.MIN_MC_PATHS}")
    if problems:
        raise ConfigError("; ".join(problems))

    try:
        spec = solver.ExperimentSpec(
            method=resolved["method"],
            model=_build_model(experiment, resolved),
            grid=sde.GridSpec(resolved["horizon"], resolved["n_fine"],
                              resolved["n_coarse"]),
            driver=_build_driver(experiment, resolved),
            payoff=_build_payoff(experiment, resolved),
            depth=resolved["m"],
            feature=resolved["feature"],
            embed_dim=resolved["embed_dim"],
            batch_size=resolved["batch"],
            iterations=resolved["iterations"],
            learning_rate=resolved["lr"],
            runs=resolved["runs"],
            seed=resolved["seed"],
            y0_init=resolved.get("y0_init"),
        )
        if experiment == "lookback":
            _lookback_params(spec)  # the closed-form reference must apply
    except (solver.SpecError, sde.GridError, sde.ModelError,
            oracle.OracleDomainError) as exc:
        raise ConfigError(str(exc)) from exc
    return HarnessConfig(experiment=experiment, profile=profile, spec=spec,
                         out=resolved.get("out"), workers=resolved["workers"],
                         reference_paths=resolved["reference_paths"])


def config_document(cfg: HarnessConfig) -> dict:
    """Flat key-value document that :func:`load_config` maps back to ``cfg``."""
    spec = cfg.spec
    return {
        "experiment": cfg.experiment,
        "profile": cfg.profile,
        "method": spec.method,
        "feature": spec.feature,
        "d": spec.model.dim,
        "m": spec.depth,
        "embed_dim": spec.embed_dim,
        "n_fine": spec.grid.n_fine,
        "n_coarse": spec.grid.n_coarse,
        "batch": spec.batch_size,
        "iterations": spec.iterations,
        "lr": spec.learning_rate,
        "runs": spec.runs,
        "seed": spec.seed,
        "out": cfg.out,
        "x0": spec.model.x0[0],
        "rate": spec.model.rate if spec.model.kind == "geometric" else 0.0,
        "sigma": spec.model.sigma[0] if spec.model.sigma else 0.0,
        "strike": spec.payoff.strike,
        "horizon": spec.grid.horizon,
        "y0_init": spec.y0_init,
        "workers": cfg.workers,
        "reference_paths": cfg.reference_paths,
    }


def _lookback_params(spec: solver.ExperimentSpec) -> oracle.LookbackParams:
    """The lookback claim at time 0; raises ``OracleDomainError`` off its domain."""
    x0 = spec.model.x0[0]
    return oracle.LookbackParams(x0, x0, spec.model.rate, spec.model.sigma[0],
                                 spec.grid.horizon)


def reference_values(cfg: HarnessConfig) -> dict:
    """Oracle references for one experiment configuration."""
    spec = cfg.spec
    if cfg.experiment == "lookback":
        price = oracle.lookback_price(_lookback_params(spec))
        return {"reference": price, "kind": "analytic lookback value"}
    if cfg.experiment == "quadratic":
        value = oracle.quadratic_pde_solution(
            0.0, np.asarray(spec.model.x0)[None, :], spec.grid.horizon)
        return {"reference": value, "kind": "exact solution at time 0"}
    est, se = oracle.asian_european_mc(
        spec.model, spec.grid, spec.payoff.strike,
        np.full(spec.model.dim, 1.0 / spec.model.dim),
        cfg.reference_paths, solver.derive_seed(spec.seed, 7))
    bound = oracle.jensen_lower_bound(spec.model, spec.payoff.strike,
                                      spec.grid.horizon)
    return {"reference": est, "kind": "European Monte Carlo",
            "european_se": se, "jensen_bound": bound}


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
    """Execute all runs, aggregate, attach the oracle reference, emit files."""
    spec = cfg.spec
    run_seeds = [solver.derive_seed(spec.seed, 6, r) for r in range(spec.runs)]
    jobs = [(spec, s) for s in run_seeds]
    if cfg.workers > 1 and spec.runs > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.workers, spec.runs)) as pool:
            reports = list(pool.map(_run_one, jobs))
    else:
        reports = [_run_one(job) for job in jobs]

    table = ResultsTable(reports=reports)
    for r, report in enumerate(reports):
        elapsed = report.elapsed[-1] if report.elapsed else 0.0
        table.rows.append((r, report.final_estimate, report.iterations, elapsed))

    agg = solver.aggregate_runs(reports)
    refs = reference_values(cfg)
    summary = {
        "experiment": cfg.experiment,
        "profile": cfg.profile,
        "method": spec.method,
        "runs": spec.runs,
        "mean": agg.mean,
        "ci_low": agg.ci_low,
        "ci_high": agg.ci_high,
    }
    summary.update(refs)
    if refs["reference"] is not None and refs["reference"] != 0.0:
        summary["rel_error"] = (agg.mean - refs["reference"]) / refs["reference"]
    table.summary = summary

    if cfg.out:
        emit_outputs(table, reports, cfg.out)
    return table


def emit_outputs(table: ResultsTable, curves: list, directory: str) -> list:
    """Write per-run curve CSVs, the summary CSV, and the JSON report.

    Emission is pure formatting: identical inputs produce byte-identical
    files.  Returns the list of paths written.
    """
    os.makedirs(directory, exist_ok=True)
    written = []
    for r, report in enumerate(curves):
        path = os.path.join(directory, f"curve_run{r}.csv")
        lines = ["iteration,loss,y0_estimate,elapsed_s"]
        for it, (loss, est, el) in enumerate(
                zip(report.losses, report.estimates, report.elapsed)):
            lines.append(f"{it},{loss!r},{est!r},{el!r}")
        _write_text(path, "\n".join(lines) + "\n")
        written.append(path)

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


def _write_text(path: str, content: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc
