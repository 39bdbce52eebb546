"""Independent references and output checks of the three workloads.

The references are computed with the benchmark's own generator (PCG64,
keyed by the workload seed) and its own Euler loop, never with
``sde.simulate_batch``, and none is a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import Workload

# a check passes within this many combined standard errors
Z_TOL = 4.0
REFERENCE_CHUNK = 20_000


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag])


def _euler_chunks(x0, rate, sigma, horizon, n_fine, n_paths, rng):
    """Chunks of one-asset geometric Euler paths, one fine node at a time.

    Yields ``(i, x)`` for every node ``i = 0..n_fine`` of every chunk, with
    ``x`` the chunk's states at that node.
    """
    h = horizon / n_fine
    root_h = math.sqrt(h)
    for done in range(0, n_paths, REFERENCE_CHUNK):
        x = np.full(min(REFERENCE_CHUNK, n_paths - done), float(x0))
        yield 0, x
        for i in range(1, n_fine + 1):
            x = x + rate * x * h + sigma * x * (rng.standard_normal(x.shape[0]) * root_h)
            yield i, x


def _mean_std(total: float, total_sq: float, n: int) -> tuple[float, float]:
    mean = total / n
    std = math.sqrt(max(total_sq / n - mean * mean, 0.0))
    return mean, std


def lookback_same_grid(x0, rate, sigma, horizon, n_fine, n_coarse, n_paths, seed):
    """Discretely monitored floating-strike lookback on the Euler grid.

    The payoff ``X_T - min_i X_i`` takes its minimum over the same fine nodes
    the program simulates; it is discounted by the forward scheme's factor
    ``(1 + r dt)^N``.  Returns ``(value, standard_error, payoff_std)``, the
    last one undiscounted per path.
    """
    total = total_sq = 0.0
    for i, x in _euler_chunks(x0, rate, sigma, horizon, n_fine, n_paths, _rng(seed, 101)):
        low = x if i == 0 else np.minimum(low, x)
        if i == n_fine:
            pay = x - low
            total += float(pay.sum())
            total_sq += float((pay * pay).sum())
    mean, std = _mean_std(total, total_sq, n_paths)
    growth = (1.0 + rate * horizon / n_coarse) ** n_coarse
    return mean / growth, std / math.sqrt(n_paths) / growth, std


def asian_same_grid(x0, rate, sigma, horizon, n_fine, strike, n_paths, seed):
    """Undiscounted mean and standard error of the average-price call payoff.

    The average is the left-endpoint Riemann sum over the fine nodes divided
    by the horizon, the same quadrature as the program's payoff.
    """
    h = horizon / n_fine
    total = total_sq = 0.0
    for i, x in _euler_chunks(x0, rate, sigma, horizon, n_fine, n_paths, _rng(seed, 102)):
        if i == 0:
            integral = np.zeros_like(x)
        if i < n_fine:
            integral += x * h
        else:
            pay = np.maximum(integral / horizon - strike, 0.0)
            total += float(pay.sum())
            total_sq += float((pay * pay).sum())
    mean, std = _mean_std(total, total_sq, n_paths)
    return mean, std / math.sqrt(n_paths)


def quadratic_discrete_value(d: int, n_fine: int, horizon: float) -> float:
    """Exact mean of ``(sum_{i<n} S_{t_i} h)^2`` for a d-dimensional Brownian basket.

    ``E[S_s S_t] = d min(s, t)``, so the mean is
    ``d h^3 sum_{i,j<n} min(i, j) = d h^3 (n-1) n (2n-1) / 6``.
    """
    h = horizon / n_fine
    n = n_fine
    return d * h ** 3 * (n - 1) * n * (2 * n - 1) / 6.0


def references(workload: Workload, config: dict, seed: int) -> dict:
    """Independent reference values for one workload at one seed.

    ``config`` is the resolved config document (``harness.config_document``),
    which the worker reports so that shapes are read, not repeated here.
    """
    c = config
    if c["experiment"] == "lookback":
        value, se, std = lookback_same_grid(c["x0"], c["rate"], c["sigma"], c["horizon"],
                                            c["n_fine"], c["n_coarse"], 100_000, seed)
        growth = (1.0 + c["rate"] * c["horizon"] / c["n_coarse"]) ** c["n_coarse"]
        return {"same_grid_mc": value, "same_grid_se": se,
                "pilot_se": std / math.sqrt(4096) / growth}
    if c["experiment"] == "amerasian":
        mean, se = asian_same_grid(c["x0"], c["rate"], c["sigma"], c["horizon"],
                                   c["n_fine"], c["strike"], c["reference_paths"], seed)
        scheme = (1.0 - c["rate"] * c["horizon"] / c["n_coarse"]) ** c["n_coarse"]
        continuous = math.exp(-c["rate"] * c["horizon"])
        return {"european_scheme": mean * scheme, "european_scheme_se": se * scheme,
                "european_continuous": mean * continuous,
                "european_continuous_se": se * continuous}
    return {"discrete_exact": quadratic_discrete_value(c["d"], c["n_fine"], c["horizon"])}


def _tail_se(losses, batch: int) -> float:
    """Standard error of a backward-scheme tail estimate from its own losses.

    Each loss is the batch variance of ``y0``, so one iteration's estimate has
    variance ``loss / batch``; the tail averages ``k`` independent batches.
    """
    k = max(1, int(round(0.25 * len(losses))))
    return math.sqrt(float(np.mean(losses[-k:])) / batch / k)


def run_checks(workload: Workload, result: dict, refs: dict) -> list:
    """Output checks of one round: a list of ``(name, passed, detail)``."""
    c = result["config"]
    est = result["final_estimate"]
    losses = result["losses"]
    out = []
    for name in workload.checks:
        if name == "loss":
            # medians: one batch of the heavy-tailed lookback payoff can lift a
            # quarter's mean loss tenfold
            q = max(1, len(losses) // 4)
            first, last = float(np.median(losses[:q])), float(np.median(losses[-q:]))
            out.append((name, last < first,
                        f"median loss first quarter {first:.4g}, last quarter {last:.4g}"))
        elif name == "outputs":
            out.append((name, result["outputs_ok"], result["outputs_detail"]))
        elif c["experiment"] == "lookback":
            # the estimate is the pilot value moved by at most ~lr per Adam step
            tol = Z_TOL * math.hypot(refs["same_grid_se"], refs["pilot_se"]) \
                + c["lr"] * c["iterations"]
            out.append((name, abs(est - refs["same_grid_mc"]) <= tol,
                        f"estimate {est:.4f} vs same-grid MC "
                        f"{refs['same_grid_mc']:.4f} ± {refs['same_grid_se']:.4f} "
                        f"(tolerance {tol:.4f})"))
        elif c["experiment"] == "amerasian" and name == "estimate":
            se = math.hypot(refs["european_scheme_se"], _tail_se(losses, c["batch"]))
            floor = refs["european_scheme"] - Z_TOL * se
            out.append((name, est >= floor,
                        f"estimate {est:.4f} vs European {refs['european_scheme']:.4f} "
                        f"± {refs['european_scheme_se']:.4f} (floor {floor:.4f})"))
        elif name == "oracle":
            oracle, oracle_se = result["summary"]["reference"], result["summary"]["european_se"]
            tol = Z_TOL * math.hypot(oracle_se, refs["european_continuous_se"])
            gap = oracle - refs["european_continuous"]
            out.append((name, abs(gap) <= tol,
                        f"oracle {oracle:.4f} ± {oracle_se:.4f} vs benchmark European "
                        f"{refs['european_continuous']:.4f} ± "
                        f"{refs['european_continuous_se']:.4f} (gap {gap:+.4f}, "
                        f"tolerance {tol:.4f})"))
        else:  # quadratic estimate
            se = _tail_se(losses, c["batch"])
            exact = refs["discrete_exact"]
            out.append((name, abs(est - exact) <= Z_TOL * se,
                        f"estimate {est:.4f} vs discrete exact {exact:.4f} "
                        f"(se {se:.4f} from the run's losses)"))
    return out
