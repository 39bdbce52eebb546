"""Training procedures for path-dependent FBSDEs on signature features.

Three schemes share one feature pipeline (simulate, optionally embed,
time-augment, checkpoint-scan prefix signatures at the coarse dates, over
bounded chunks of the batch's paths) and one training step,
:func:`train_step`, which reads the scheme from ``spec.method`` as data: a
sign, the order of the coarse dates, the start value and, for
``reflected`` only, an exercise floor.  The per-date
approximators are one stacked MLP, run once per step over all dates.

* ``forward``  — a trainable initial value is propagated to maturity and
  fitted by matching the terminal payoff in mean square;
* ``backward`` — the payoff is rolled backwards and the batch variance of
  the reconstructed initial values is minimised (their mean is the price);
* ``reflected`` — the backward scheme with an early-exercise floor applied
  at every coarse date.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import net, sde
from .sigcore import engine, lyndon

METHODS = ("forward", "backward", "reflected")
FEATURE_KINDS = ("signature", "log-signature")
PILOT_PATHS = 4096     # Monte Carlo paths behind the forward scheme's start value
TAIL_FRACTION = 0.25   # trailing share of iterations averaged into the final estimate
# The per-path feature stages run over chunks of paths that together hold at
# most this many values of their largest per-path array (_values_per_path),
# so the temporaries stay bounded whatever the depth, channels and path
# length; placed so that the embedded d=100 desk batch keeps the 125-path
# chunks that a sweep of its peak memory chose (CHANGES.md).
FEATURE_CHUNK_VALUES = 60_000


class SolverAbort(RuntimeError):
    """Training hit a non-finite loss; carries run metadata and, once
    :func:`train` attaches it, the partial :class:`RunReport` as ``report``."""

    def __init__(self, message: str, method: str, iteration: int, seed: int):
        super().__init__(message)
        self.method = method
        self.iteration = iteration
        self.seed = seed
        self.report = None

    def __reduce__(self):  # rebuilt in the parent process after a worker aborts
        return (type(self), (str(self), self.method, self.iteration, self.seed),
                {"report": self.report})


class SpecError(ValueError):
    """Experiment description is internally inconsistent."""


def derive_seed(seed: int, *parts: int) -> int:
    """Deterministic child seed from a master seed and integer tags."""
    ss = np.random.SeedSequence((int(seed),) + tuple(int(p) for p in parts))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class DriverKind:
    """Backward-equation driver: the discounting ``f = -rate * y`` (zero at rate 0)."""

    rate: float = 0.0

    def __post_init__(self):
        if self.rate < 0:
            raise SpecError(f"driver rate must be nonnegative, got {self.rate}")

    def f(self, y):
        return -self.rate * y

    def dy(self) -> float:
        """``∂f/∂y``, a constant."""
        return -self.rate


@dataclass(frozen=True)
class PayoffKind:
    """Terminal payoff evaluated on the fine-grid path functionals."""

    kind: str
    strike: float = 0.0

    def __post_init__(self):
        if self.kind not in ("lookback", "quadratic-integral", "asian-basket-call"):
            raise SpecError(f"unknown payoff kind {self.kind!r}")
        if self.strike < 0:
            raise SpecError(f"strike must be nonnegative, got {self.strike}")

    @property
    def supports_exercise(self) -> bool:
        return self.kind == "asian-basket-call"

    def values(self, batch: sde.PathBatch) -> tuple:
        """Terminal payoff ``(B,)`` and early-exercise payoff ``(B, N+1)``.

        The early-exercise payoff at coarse date ``n`` takes the running
        average over ``[0, t_n]`` in place of the full-horizon average; at
        ``t_0`` the spot basket value stands in for it.  It is ``None`` for
        payoffs without early exercise.  Both come from one running integral.
        """
        d = batch.states.shape[-1]
        if self.kind == "lookback":
            return batch.states[:, -1, 0] - batch.states[:, :, 0].min(axis=1), None
        w = np.full(d, 1.0 / d) if self.kind == "asian-basket-call" else np.ones(d)
        integral = sde.running_integral(batch, w)
        if self.kind == "quadratic-integral":
            return integral[:, -1] ** 2, None
        grid = batch.grid
        t = np.arange(grid.n_coarse + 1) * grid.dt
        avg = np.empty((batch.batch_size, grid.n_coarse + 1))
        avg[:, 0] = batch.states[:, 0, :] @ w
        avg[:, 1:] = integral[:, ::grid.fine_per_segment][:, 1:] / t[1:]
        terminal = integral[:, -1] / grid.horizon
        return (np.maximum(terminal - self.strike, 0.0),
                np.maximum(avg - self.strike, 0.0))


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to train one solver configuration."""

    method: str
    model: sde.ModelSpec
    grid: sde.GridSpec
    driver: DriverKind
    payoff: PayoffKind
    depth: int
    feature: str = "signature"
    embed_dim: int | None = None
    batch_size: int = 100
    iterations: int = 1000
    learning_rate: float = 1e-3
    runs: int = 1
    seed: int = 0
    y0_init: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise SpecError(f"unknown method {self.method!r}; expected {METHODS}")
        if self.feature not in FEATURE_KINDS:
            raise SpecError(f"unknown feature kind {self.feature!r}")
        if self.depth < 1:
            raise SpecError(f"signature depth must be >= 1, got {self.depth}")
        if self.payoff.kind == "lookback" and self.model.dim != 1:
            raise SpecError(f"lookback payoff is defined for a single asset, "
                            f"got d={self.model.dim}")
        if self.method == "reflected" and not self.payoff.supports_exercise:
            raise SpecError(
                f"reflected method needs an early-exercise payoff, "
                f"got {self.payoff.kind!r}")
        if self.embed_dim is not None and not 0 < self.embed_dim < self.model.dim:
            raise SpecError(
                f"embedding dimension {self.embed_dim} must lie in "
                f"(0, {self.model.dim})")
        if self.embed_dim is not None and self.depth > 3:
            raise SpecError(f"m={self.depth} > 3 with embed_dim={self.embed_dim}: "
                            f"no closed-form reverse pass into the embedding")
        if self.batch_size < 1 or self.iterations < 0 or self.runs < 1:
            raise SpecError("batch_size/iterations/runs out of range")

    @property
    def stream_channels(self) -> int:
        """Signature alphabet size: state (or embedded) channels plus time."""
        return (self.embed_dim or self.model.dim) + 1

    @property
    def feature_width(self) -> int:
        if self.feature == "signature":
            return engine.sig_width(self.stream_channels, self.depth)
        return lyndon.lyndon_count(self.stream_channels, self.depth)


@dataclass
class TrainState:
    """Stacked approximators plus optional trainable scalar and embedding.

    ``nets`` is one :class:`net.MlpParams` stack; slice ``[n]`` serves date
    ``n``.  Every trainable array is a view of the one flat buffer ``params``,
    in :func:`trainables` order, and ``adam`` is the one Adam state over it.
    ``grad`` has the same structure over a buffer of its own, into which
    each training step writes its gradients.  The nets read the features
    of the conditioned path (:func:`features_for_batch`) as they are.
    """

    nets: net.MlpParams
    y0: np.ndarray | None = None
    embedding: np.ndarray | None = None
    params: np.ndarray | None = None
    grad: TrainState | None = None
    adam: net.AdamState | None = None
    iteration: int = 0


def trainables(state: TrainState) -> list:
    """Trainable arrays in buffer order: the nets' layers, y0, the embedding."""
    out = list(state.nets.parameters())
    if state.y0 is not None:
        out.append(state.y0)
    if state.embedding is not None:
        out.append(state.embedding)
    return out


def _pack(state: TrainState) -> TrainState:
    """Copy every trainable array into one flat buffer, ``state.params``,
    and rebind each as a view of it."""
    arrays = trainables(state)
    state.params = np.concatenate([np.ravel(a) for a in arrays])
    chunks = np.split(state.params, np.cumsum([a.size for a in arrays])[:-1])
    views = iter([v.reshape(a.shape) for v, a in zip(chunks, arrays)])  # trainables() order
    for l in range(len(state.nets.weights)):
        state.nets.weights[l], state.nets.biases[l] = next(views), next(views)
    if state.y0 is not None:
        state.y0 = next(views)
    if state.embedding is not None:
        state.embedding = next(views)
    return state


@dataclass
class RunReport:
    """Loss and estimate trajectory of one training run."""

    method: str
    seed: int
    losses: list = field(default_factory=list)
    estimates: list = field(default_factory=list)
    elapsed: list = field(default_factory=list)
    final_estimate: float = float("nan")

    @property
    def iterations(self) -> int:
        return len(self.losses)


def pilot_estimate(spec: ExperimentSpec) -> float:
    """Plain Monte Carlo estimate of the discounted terminal payoff.

    Used to seed the forward method's trainable initial value close to the
    answer; the discount matches the per-step growth of the forward scheme.
    """
    seed = derive_seed(spec.seed, 2)
    total = 0.0
    for offset in range(0, PILOT_PATHS, 2048):
        batch = sde.simulate_batch(spec.model, spec.grid, min(2048, PILOT_PATHS - offset),
                                   seed, path_offset=offset)
        total += float(np.sum(spec.payoff.values(batch)[0]))
        del batch   # freed before the next batch is drawn
    growth = (1.0 - spec.driver.dy() * spec.grid.dt) ** spec.grid.n_coarse
    return total / PILOT_PATHS / growth


def init_state(spec: ExperimentSpec) -> TrainState:
    """Fresh approximators, initial value and embedding, packed into one buffer."""
    # each approximator maps features to a row vector against the Brownian motion
    mlp_spec = net.MlpSpec(spec.feature_width, spec.model.dim)
    state = TrainState(nets=net.init_mlp(
        mlp_spec, [derive_seed(spec.seed, 1, n) for n in range(spec.grid.n_coarse)]))
    if spec.method == "forward":
        y0 = spec.y0_init if spec.y0_init is not None else pilot_estimate(spec)
        state.y0 = np.asarray(float(y0))
    if spec.embed_dim is not None:
        state.embedding = net.init_embedding(spec.model.dim, spec.embed_dim,
                                             derive_seed(spec.seed, 3))
    _pack(state)
    state.grad = _pack(copy.deepcopy(state))
    state.grad.params[:] = 0.0
    state.adam = net.init_adam(state.params, spec.learning_rate)
    return state


@dataclass
class FeatureCache:
    """Intermediates kept for the reverse pass through the embedding.

    ``stream`` is the unembedded batch, which :func:`net.embed_backward`
    reads.  ``chunks`` holds, per chunk of paths, its rows, the increments
    of its time-augmented embedded stream up to coarse date ``N-1`` and its
    ``checkpoint_scan`` levels, one slot per date 0..N-1.
    """

    stream: np.ndarray
    chunks: list   # (rows, increments, prefixes) per chunk of paths


def feature_scale(model: sde.ModelSpec) -> np.ndarray:
    """Per-channel state magnitude ``|x0|`` (1 where ``x0`` is zero).

    :func:`features_for_batch` divides the state channels of the stream by
    this scale where it builds the stream, which keeps level-``k`` inputs
    from growing like ``|x0|**k`` and swamping them: a plain stream's
    increments are divided, an embedded stream's weight rows are.
    """
    scale = np.abs(np.asarray(model.x0, dtype=float))
    scale[scale == 0.0] = 1.0
    return scale


def _values_per_path(spec: ExperimentSpec, grid: sde.GridSpec) -> int:
    """Values per path of the feature stages' largest array: a scanned step
    holds ``d̂**max(1, m-1)`` of them (the per-step terms of
    :func:`engine.checkpoint_scan`) and the checkpoint levels ``N·d̂**m``."""
    d_hat, depth = spec.stream_channels, spec.depth
    n_scan = (grid.n_coarse - 1) * grid.fine_per_segment
    return max(n_scan * d_hat ** max(1, depth - 1), grid.n_coarse * d_hat ** depth)


def features_for_batch(state: TrainState, batch: sde.PathBatch,
                       spec: ExperimentSpec):
    """Per-date feature vectors for every path, shape ``(N, B, F)``.

    Feature ``n`` is the (log-)signature up to coarse date ``n`` of the
    conditioned path: state channel ``i`` divided by :func:`feature_scale`
    ``[i]``, then optionally embedded, then time-augmented; feature 0 is
    identically zero.  The division is applied once, where the stream is
    built: to a plain stream's state increments, or to the rows of the
    embedding weight.  Returns ``(features, cache)`` where ``cache`` is
    ``None`` unless an embedding is being trained.

    Paths never mix, so the per-path stages (embedding, time augmentation,
    checkpoint scan, logarithm and Lyndon projection) run over contiguous
    chunks of near-equal size, one after another, each writing its rows of
    the features.  A chunk has at most ``FEATURE_CHUNK_VALUES //
    _values_per_path`` paths, and at least one: its temporaries are bounded
    by a working set, not a path count, and every bit is the same as for
    the whole batch at once.  No feature reads the last segment, so the
    stages run over the path up to date ``N-1`` only.
    """
    grid, size = batch.grid, batch.batch_size
    d_hat, width = spec.stream_channels, spec.feature_width
    n_scan = (grid.n_coarse - 1) * grid.fine_per_segment
    time_inc = np.diff(np.arange(n_scan + 1) * grid.h)
    features = np.empty((grid.n_coarse, size, width))
    chunks = []
    inv_scale = 1.0 / feature_scale(spec.model)
    if state.embedding is not None:
        weight = inv_scale[:, None] * state.embedding
    paths = max(1, FEATURE_CHUNK_VALUES // _values_per_path(spec, grid))
    for start, stop in sde._blocks(size, -(-size // paths)):
        rows = slice(start, stop)
        values = batch.states[rows, :n_scan + 1]
        if state.embedding is not None:
            values = net.embed_stream(weight, values)
        if values.shape[-1] + 1 != d_hat:
            raise SpecError(
                f"stream has {values.shape[-1] + 1} channels, expected {d_hat}")
        # the time-augmented stream's increments: time in channel 0
        increments = np.empty((stop - start, n_scan, d_hat))
        increments[..., 0] = time_inc
        np.subtract(values[:, 1:], values[:, :-1], out=increments[..., 1:])
        if state.embedding is None:
            increments[..., 1:] *= inv_scale

        stacked = engine.checkpoint_scan(increments, grid.fine_per_segment, spec.depth)
        if state.embedding is not None:
            chunks.append((rows, increments, stacked))

        if spec.feature == "signature":
            flat = engine.flatten_levels(stacked)
        else:
            log_levels = engine.log_of_group(stacked)
            flat = lyndon.project(log_levels, d_hat, spec.depth)
        if flat.shape[-1] != width:
            raise SpecError(f"feature width {flat.shape[-1]} != expected {width}")
        features[:, rows] = np.moveaxis(flat, 0, 1)
    cache = FeatureCache(batch.states, chunks) if state.embedding is not None else None
    return features, cache


def features_backward(state: TrainState, spec: ExperimentSpec,
                      cache: FeatureCache, feature_cots: np.ndarray):
    """Pull the feature cotangents of all dates back to the embedding's ``dW``.

    The reverse pass runs chunk by chunk over the cache, writing each
    chunk's node gradients into one ``(B, n+1, embed_dim)`` buffer; the
    embedding gradient is then one product over the whole batch, scaled
    as in :func:`features_for_batch`.  The nodes of the last segment, which
    no feature reads, get zero gradients.
    """
    d_hat = spec.stream_channels
    n_scan = (spec.grid.n_coarse - 1) * spec.grid.fine_per_segment
    node_grads = np.empty(cache.stream.shape[:-1] + (d_hat - 1,))
    node_grads[:, n_scan + 1:] = 0.0
    for rows, increments, prefixes in cache.chunks:
        cot = np.moveaxis(feature_cots[:, rows], 0, 1)
        if spec.feature == "signature":
            levels = engine.split_flat(cot, d_hat, spec.depth)
        else:
            levels = engine.log_of_group_vjp(prefixes,
                                             lyndon.project_vjp(cot, d_hat, spec.depth))
        grad_inc = engine.checkpoint_scan_vjp(increments, spec.grid.fine_per_segment, levels)
        node_grads[rows, :n_scan + 1] = engine.increments_to_nodes_grad(grad_inc)[..., 1:]
    grad = net.embed_backward(cache.stream, node_grads)
    grad *= (1.0 / feature_scale(spec.model))[:, None]
    return grad


def _scheme(spec: ExperimentSpec) -> tuple:
    """Sign and date order of the coarse recursion for ``spec.method``.

    ``forward`` steps dates ``0..N-1`` towards maturity with sign ``+1``;
    ``backward`` and ``reflected`` step dates ``N-1..0`` towards time zero
    with sign ``-1``.
    """
    n_seg = spec.grid.n_coarse
    if spec.method == "forward":
        return 1.0, range(n_seg)
    return -1.0, range(n_seg - 1, -1, -1)


def rollout(state: TrainState, spec: ExperimentSpec, batch: sde.PathBatch,
            features: np.ndarray, coarse_incs: np.ndarray):
    """Run the coarse recursion in the direction of ``spec.method``.

    ``forward`` starts from the trainable initial value at date 0;
    ``backward`` and ``reflected`` start from the terminal payoff at date
    ``N``, and ``reflected`` floors every value at the early-exercise payoff.
    Date ``n`` links the values at ``n`` and ``n+1`` through
    ``y - sign*f(y)*dt + sign*Σ z·ΔW``, with ``z`` the output of approximator
    ``n`` and ``ΔW`` the Brownian increment over segment ``n``.

    Returns ``(ys, payoff, nets, masks)``: ``ys[:, n]`` is the value at
    coarse date ``n``, ``payoff`` the terminal payoff, ``nets`` the
    ``(output, cache)`` of the stacked approximators, and ``masks[n]`` where
    the value stepped to by date ``n`` stayed on or above the floor
    (``None`` without a floor).
    """
    sign, dates = _scheme(spec)
    n_seg, dt = spec.grid.n_coarse, spec.grid.dt
    # the payoff's temporaries are freed before the nets' cache is allocated
    payoff, exercise = spec.payoff.values(batch)
    zs, cache = net.mlp_forward(state.nets, features)
    ys = np.empty((batch.batch_size, n_seg + 1))
    if sign > 0:
        ys[:, 0] = float(state.y0)
    else:
        ys[:, n_seg] = payoff
    masks: list = [None] * n_seg
    for n in dates:
        src, dst = (n, n + 1) if sign > 0 else (n + 1, n)
        y = ys[:, src]
        y = y - sign * spec.driver.f(y) * dt \
            + sign * np.sum(zs[n] * coarse_incs[:, n, :], axis=1)
        if spec.method == "reflected":
            masks[n] = y >= exercise[:, n]
            y = np.maximum(exercise[:, n], y)
        ys[:, dst] = y
    return ys, payoff, (zs, cache), masks


def train_step(state: TrainState, spec: ExperimentSpec, seed: int,
               update: bool = True):
    """One training step of ``spec.method`` on a fresh batch.

    ``forward``: the loss is the mean-square mismatch between the propagated
    value and the payoff at maturity, and the estimate is the trainable
    initial value.  ``backward`` and ``reflected``: the loss is the batch
    variance of the rolled-back initial values, and the estimate is their
    mean.  With ``update``, the adjoint sweep walks the dates in reverse and
    one Adam step is applied to the flat buffer of every trainable array:
    the approximators, the embedding (when present) and, for ``forward``,
    the initial value; the sweep fills every date's output cotangent, then
    one stacked backward pass gives all net and feature gradients.  Returns
    ``(state, loss, estimate)``, the forward estimate taken after the update.
    """
    batch = sde.simulate_batch(spec.model, spec.grid, spec.batch_size, seed)
    features, fcache = features_for_batch(state, batch, spec)
    ys, payoff, (zs, cache), masks = rollout(state, spec, batch, features,
                                             batch.coarse_increments)
    sign, dates = _scheme(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        if sign > 0:
            resid = ys[:, -1] - payoff
        else:
            estimate = float(np.mean(ys[:, 0]))
            resid = ys[:, 0] - estimate
        loss = float(np.mean(resid ** 2))
    if not np.isfinite(loss):
        raise SolverAbort(f"non-finite loss at iteration {state.iteration} (seed {seed})",
                          spec.method, state.iteration, seed)

    if update:
        adj = 2.0 * resid / spec.batch_size
        step_factor = 1.0 - sign * spec.driver.dy() * spec.grid.dt
        # the nets' outputs are dead after the rollout and mlp_backward never
        # reads them, so their array takes the output cotangents
        g_z = zs
        for n in reversed(dates):
            if masks[n] is not None:
                adj = adj * masks[n]
            g_z[n] = sign * adj[:, None] * batch.coarse_increments[:, n, :]
            adj = adj * step_factor
        _, feature_cots = net.mlp_backward(state.nets, cache, g_z, fcache is not None,
                                           out=state.grad.nets.parameters())
        del cache, features, zs, g_z   # spent; freed before the features' reverse pass
        if sign > 0:
            state.grad.y0[...] = np.sum(adj)
        if fcache is not None:
            state.grad.embedding[...] = features_backward(state, spec, fcache, feature_cots)
        net.adam_step(state.adam, state.params, state.grad.params)
        state.iteration += 1
    return state, loss, float(state.y0) if sign > 0 else estimate


def train(spec: ExperimentSpec, run_seed: int | None = None) -> RunReport:
    """Run one full training and collect the loss/estimate trajectory.

    The reported final estimate averages the trailing ``TAIL_FRACTION`` of
    per-iteration estimates, which damps the per-batch fluctuation of the
    variance-minimising methods without biasing the forward one.
    """
    spec = spec if run_seed is None else replace(spec, seed=int(run_seed))
    state = init_state(spec)
    report = RunReport(method=spec.method, seed=spec.seed)
    start = time.perf_counter()
    for it in range(spec.iterations):
        seed = derive_seed(spec.seed, 4, it)
        try:
            state, loss, estimate = train_step(state, spec, seed)
        except SolverAbort as exc:
            exc.report = report   # the iterations before the blow-up
            raise
        report.losses.append(loss)
        report.estimates.append(estimate)
        report.elapsed.append(time.perf_counter() - start)
    if report.estimates:
        tail = max(1, int(round(TAIL_FRACTION * len(report.estimates))))
        report.final_estimate = float(np.mean(report.estimates[-tail:]))
    elif spec.method == "forward":
        report.final_estimate = float(state.y0)
    else:
        _, _, estimate = train_step(state, spec, derive_seed(spec.seed, 4, 0),
                                    update=False)
        report.final_estimate = estimate
    return report


@dataclass(frozen=True)
class RunSummary:
    mean: float
    ci_low: float
    ci_high: float
    estimates: tuple


def aggregate_runs(reports: list) -> RunSummary:
    """Mean and normal-approximation 95% interval of the run estimates."""
    if not reports:
        raise ValueError("aggregate_runs needs at least one report")
    values = np.array([r.final_estimate for r in reports], dtype=float)
    mean = float(values.mean())
    if len(values) == 1:
        return RunSummary(mean, mean, mean, tuple(values))
    half = 1.96 * float(values.std(ddof=1)) / np.sqrt(len(values))
    return RunSummary(mean, mean - half, mean + half, tuple(values))
