"""Analytic and brute-force reference values, independent of the solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sde


class OracleDomainError(ValueError):
    """Inputs leave the validity region of a closed-form reference."""


MIN_MC_PATHS = 1000  # fewest paths asian_european_mc accepts
BLOCK_PATHS = 4096   # asian_european_mc's paths per Philox stream
SUB_BATCH_PATHS = 128   # and per draw, the rows of each thread's buffers


def norm_cdf(x: float) -> float:
    """Standard normal CDF via the error function."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass(frozen=True)
class LookbackParams:
    """State of a floating-strike lookback claim at valuation time."""

    spot: float
    running_min: float
    rate: float
    sigma: float
    remaining: float  # time to maturity

    def __post_init__(self):
        if not 0.0 < self.running_min <= self.spot:
            raise OracleDomainError(
                f"need 0 < running_min <= spot, got ({self.running_min}, {self.spot})")
        if self.sigma <= 0 or self.rate <= 0:
            raise OracleDomainError("rate and sigma must be positive")
        if self.remaining < 0:
            raise OracleDomainError(f"remaining time {self.remaining} is negative")


def lookback_price(p: LookbackParams) -> float:
    """Closed-form value of the floating-strike lookback call.

    At zero remaining time the payoff ``spot - running_min`` is returned.
    """
    if p.remaining == 0.0:
        return p.spot - p.running_min
    x, m, r, sig, tau = p.spot, p.running_min, p.rate, p.sigma, p.remaining
    root = math.sqrt(tau)
    p1 = (math.log(x / m) + (r + sig * sig / 2.0) * tau) / (sig * root)
    p2 = p1 - sig * root
    p3 = p1 - 2.0 * r * root / sig
    disc = math.exp(-r * tau)
    return (x * norm_cdf(p1) - m * disc * norm_cdf(p2)
            - x * (sig * sig / (2.0 * r))
            * (norm_cdf(-p1) - disc * (m / x) ** (2.0 * r / sig ** 2) * norm_cdf(-p3)))


# Broadie–Glasserman–Kou shift, -zeta(1/2) / sqrt(2 pi)
BGK_BETA = 0.5825971579390108


def lookback_discrete_price(p: LookbackParams, n_steps: int) -> float:
    """Floating-strike lookback call monitored at ``n_steps`` equal steps.

    Broadie–Glasserman–Kou continuity correction ("Connecting discrete and
    continuous path-dependent options", 1999): the discrete minimum behaves
    like the continuous one times ``e^{βσ√Δt}``, with ``Δt`` the monitoring
    step, which turns the closed form ``C`` into
    ``e^{βσ√Δt}·C − (e^{βσ√Δt} − 1)·spot``.  It tends to ``C`` as
    ``n_steps`` grows.
    """
    if n_steps < 1:
        raise OracleDomainError(f"need at least one monitoring step, got {n_steps}")
    shift = math.exp(BGK_BETA * p.sigma * math.sqrt(p.remaining / n_steps))
    return shift * lookback_price(p) - (shift - 1.0) * p.spot


def quadratic_pde_solution(t: float, prefix_values: np.ndarray,
                           horizon: float) -> float:
    """Exact value of the squared-integral claim given the path so far.

    ``prefix_values`` holds the state on a uniform fine grid over ``[0, t]``
    (a single row when ``t = 0``); the running integral uses the same
    left-endpoint rule as the simulator.
    """
    prefix = np.atleast_2d(np.asarray(prefix_values, dtype=float))
    if t < 0 or t > horizon:
        raise OracleDomainError(f"need 0 <= t <= horizon, got t={t}")
    d = prefix.shape[1]
    basket = prefix.sum(axis=1)
    # no step before t = 0, whose prefix is the one row
    integral = float(np.sum(basket[:-1]) * (t / max(prefix.shape[0] - 1, 1)))
    tail = horizon - t
    spot = float(basket[-1])
    return (integral ** 2 + spot ** 2 * tail ** 2 + 2.0 * tail * spot * integral
            + d / 3.0 * tail ** 3)


def quadratic_grid_value(d: int, x0: float, n_fine: int, horizon: float) -> float:
    """Exact mean of the simulated squared-integral payoff at time 0.

    The left-endpoint integral of a basket of ``d`` unit Brownian motions
    from ``x0`` over ``n`` steps of size ``h`` has second moment
    ``d h^3 sum_{i,j<n} min(i, j) + (d x0 T)^2``, the double sum being
    ``(n-1) n (2n-1) / 6``; :func:`quadratic_pde_solution` is its limit.
    """
    h = horizon / n_fine
    n = n_fine
    return d * h ** 3 * (n - 1) * n * (2 * n - 1) / 6.0 + (d * x0 * horizon) ** 2


def _block_sums(model: sde.ModelSpec, grid: sde.GridSpec, w: np.ndarray, strike: float,
                seed: int, n_paths: int, bufs: dict, sums: np.ndarray, a, b):
    """Write into ``sums[k]``, for blocks ``k`` in ``a:b``, the sums of
    ``max(Σ_t X_t·w, strike) − strike`` and of its square over the paths of
    block ``k``, which its Philox stream fills sub-batch after sub-batch."""
    incr, states, pay = bufs[a]
    for k in range(a, b):
        size = min(BLOCK_PATHS, n_paths - k * BLOCK_PATHS)
        key = np.array([seed, k], dtype=np.uint64)   # a seed may exceed 2**63
        gen = np.random.Generator(np.random.Philox(key=key))
        for lo in range(0, size, SUB_BATCH_PATHS):
            rows = min(SUB_BATCH_PATHS, size - lo)
            gen.standard_normal(out=incr[:rows])
            np.multiply(incr[:rows], math.sqrt(grid.h), out=states[:rows, 1:])
            sde._step_states(model, grid.h, states[:rows])
            np.einsum("ptd,d->p", states[:rows, :-1], w, out=pay[lo:lo + rows])
        block = np.maximum(pay[:size], strike, out=pay[:size])
        block -= strike
        sums[k] = block.sum(), np.square(block, out=block).sum()


def asian_european_mc(model: sde.ModelSpec, grid: sde.GridSpec, strike: float,
                      weights, n_paths: int, seed: int) -> tuple[float, float]:
    """Monte Carlo value of the European average-price call.

    Discounted positive part of the weighted running average at maturity,
    using the same fine-grid quadrature as the solvers, summed directly
    rather than through the whole running integral.  Block ``k`` of
    :data:`BLOCK_PATHS` paths draws from one Philox stream keyed
    ``(seed, k)``, so its draws and sums do not depend on the sub-batch;
    whole blocks are split over the cores, so every bit is the same on any
    core count.  Returns ``(estimate, standard_error)``.
    """
    if n_paths < MIN_MC_PATHS:
        raise ValueError(f"n_paths must be >= {MIN_MC_PATHS}, got {n_paths}")
    disc = math.exp(-model.rate * grid.horizon)
    w = np.asarray(weights, dtype=float) * (disc * grid.h / grid.horizon)
    sums = np.empty((-(-n_paths // BLOCK_PATHS), 2))   # per block: sum, sum of squares
    parts = sde._blocks(len(sums), sde.thread_count())
    # every thread's increment, state and payoff buffers, made on this thread
    bufs = {a: (np.empty((SUB_BATCH_PATHS, grid.n_fine, model.dim)),
                np.empty((SUB_BATCH_PATHS, grid.n_fine + 1, model.dim)),
                np.empty(BLOCK_PATHS)) for a, _ in parts}
    sde._run_blocks(lambda a, b: _block_sums(model, grid, w, disc * strike, seed, n_paths,
                                             bufs, sums, a, b), parts)
    mean, mean_sq = sums.sum(axis=0) / n_paths
    return float(mean), math.sqrt(max(mean_sq - mean * mean, 0.0) / n_paths)


def jensen_lower_bound(model: sde.ModelSpec, strike: float,
                       horizon: float = 1.0, weights=None) -> float:
    """Discounted positive part of the expected average: a price floor.

    Also the large-basket limit of the equally-weighted average-price call.
    """
    if model.kind != "geometric":
        raise OracleDomainError("the bound is stated for the geometric model")
    r, t = model.rate, horizon
    w = (np.full(model.dim, 1.0 / model.dim) if weights is None
         else np.asarray(weights, dtype=float))
    basket0 = float(np.asarray(model.x0) @ w)
    growth = (math.exp(r * t) - 1.0) / (r * t) if r > 0 else 1.0
    return math.exp(-r * t) * max(basket0 * growth - strike, 0.0)


def bermudan_deterministic_dp(exercise_values, rate: float, dt: float) -> float:
    """Backward induction over exercise dates on a deterministic path.

    ``exercise_values[n]`` is the payoff of exercising at coarse date ``n``.
    Continuation discounts one step with the same explicit factor
    ``(1 - rate * dt)`` the backward scheme applies, so a zero-volatility
    reflected run reproduces this value exactly.
    """
    g = np.asarray(exercise_values, dtype=float)
    value = g[-1]
    for n in range(len(g) - 2, -1, -1):
        value = max(g[n], value * (1.0 - rate * dt))
    return float(value)
