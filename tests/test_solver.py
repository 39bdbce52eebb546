import contextlib
import functools
import inspect
import threading
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sigfbsde import net, oracle, sde, solver
from sigfbsde.sigcore import engine, lyndon
import reference
from conftest import signature
from conftest import central_difference


def constant_payoff_spec(method="forward", rate=0.1, n_coarse=1, n_fine=4,
                         x0=2.0, **kw):
    """Driftless zero-volatility model: the quadratic payoff is the constant
    (x0 * horizon)^2 while the driver still discounts at ``rate``."""
    defaults = dict(
        method=method,
        model=sde.ModelSpec.geometric(x0, 0.0, 0.0),
        grid=sde.GridSpec(1.0, n_fine, n_coarse),
        driver=solver.DriverKind(rate),
        payoff=solver.PayoffKind("quadratic-integral"),
        depth=2, feature="signature", batch_size=8, iterations=1, seed=0)
    defaults.update(kw)
    return solver.ExperimentSpec(**defaults)


def lookback_spec(**kw):
    defaults = dict(
        method="forward",
        model=sde.ModelSpec.geometric(10.0, 0.01, 1.0),
        grid=sde.GridSpec(1.0, 100, 10),
        driver=solver.DriverKind(0.01),
        payoff=solver.PayoffKind("lookback"),
        depth=3, feature="signature", batch_size=64, iterations=50, seed=0)
    defaults.update(kw)
    return solver.ExperimentSpec(**defaults)


def amerasian_spec(**kw):
    defaults = dict(
        method="reflected",
        model=sde.ModelSpec.geometric(100.0, 0.05, 0.15),
        grid=sde.GridSpec(1.0, 100, 10),
        driver=solver.DriverKind(0.05),
        payoff=solver.PayoffKind("asian-basket-call", strike=100.0),
        depth=2, feature="signature", batch_size=64, iterations=5, seed=0)
    defaults.update(kw)
    return solver.ExperimentSpec(**defaults)


def force_constant_output(state, value):
    # the last layer of every date's net, through the stacked arrays
    state.nets.weights[-1][:] = 0.0
    state.nets.biases[-1][:] = value


class TestSpecValidation:
    def test_reflected_needs_exercise_payoff(self):
        with pytest.raises(solver.SpecError):
            lookback_spec(method="reflected")

    def test_embedding_must_reduce_dimension(self):
        with pytest.raises(solver.SpecError):
            solver.ExperimentSpec(
                method="forward",
                model=sde.ModelSpec.arithmetic_unit(0.0, dim=3),
                grid=sde.GridSpec(1.0, 10, 5),
                driver=solver.DriverKind(),
                payoff=solver.PayoffKind("quadratic-integral"),
                depth=2, embed_dim=3)

    def test_embedding_beyond_depth_three_accepted(self):
        def spec(depth, embed_dim):
            return solver.ExperimentSpec(
                method="backward",
                model=sde.ModelSpec.arithmetic_unit(0.0, dim=3),
                grid=sde.GridSpec(1.0, 10, 5),
                driver=solver.DriverKind(),
                payoff=solver.PayoffKind("quadratic-integral"),
                depth=depth, embed_dim=embed_dim)

        for depth in (3, 4, 5):
            assert spec(depth, 2).feature_width == engine.sig_width(3, depth)
        assert spec(4, None).depth == 4

    def test_log_signature_width_at_depth_forty_lists_no_words(self):
        # 21 channels at m=40: listing the words would exhaust memory, so the
        # width comes from the closed-form count alone
        spec = constant_payoff_spec(model=sde.ModelSpec.arithmetic_unit(0.0, dim=20),
                                    depth=40, feature="log-signature")
        with mock.patch.object(lyndon, "_lyndon_words_of_length",
                               side_effect=AssertionError):
            count = lyndon.lyndon_count(21, 40)
            assert spec.feature_width == count
        assert 21 ** 40 // 40 < count < 21 ** 40

    def test_unknown_method_rejected(self):
        with pytest.raises(solver.SpecError):
            lookback_spec(method="sideways")

    @pytest.mark.parametrize("method", solver.METHODS)
    def test_one_path_batch_rejected(self, method):
        # a one-path batch has zero variance: every loss is 0, nothing trains
        make = amerasian_spec if method == "reflected" else lookback_spec
        with pytest.raises(solver.SpecError, match="batch=1 must be at least 2"):
            make(method=method, batch_size=1)
        assert make(method=method, batch_size=2).batch_size == 2


def node_features(state, batch, spec):
    """Features and increments of the time-augmented node formulation: the
    time column concatenated to the (embedded) states, then ``np.diff``,
    with a plain stream's state increments divided by ``feature_scale``."""
    grid = spec.grid
    n_scan = (grid.n_coarse - 1) * grid.fine_per_segment
    times = np.arange(n_scan + 1) * grid.h
    values = batch.states[:, :n_scan + 1]
    if state.embedding is not None:
        weight = (1.0 / solver.feature_scale(spec.model))[:, None] * state.embedding
        values = net.embed_stream(weight, values)
    nodes = np.concatenate(
        [np.broadcast_to(times[None, :, None], values.shape[:-1] + (1,)), values], axis=-1)
    increments = np.diff(nodes, axis=-2)
    if state.embedding is None:
        increments[..., 1:] *= 1.0 / solver.feature_scale(spec.model)
    levels = engine.checkpoint_scan(increments, grid.fine_per_segment, spec.depth)
    if spec.feature == "signature":
        flat = engine.flatten_levels(levels)
    else:
        flat = lyndon.project(engine.log_of_group(levels), spec.stream_channels, spec.depth)
    return np.moveaxis(flat, 0, 1), increments


class TestFeatures:
    @pytest.mark.parametrize("spec", [
        pytest.param(lookback_spec(batch_size=40), id="lookback"),
        pytest.param(solver.ExperimentSpec(
            method="backward", model=sde.ModelSpec.arithmetic_unit(0.5, dim=30),
            grid=sde.GridSpec(1.0, 40, 5), driver=solver.DriverKind(),
            payoff=solver.PayoffKind("quadratic-integral"), depth=2,
            feature="log-signature", embed_dim=5, batch_size=40, seed=2), id="embedded-d30"),
    ])
    def test_increments_match_the_node_formulation_bytewise(self, spec, monkeypatch):
        # several chunks, each against its rows of the whole-batch reference
        monkeypatch.setattr(solver, "FEATURE_CHUNK_VALUES",
                            15 * solver._values_per_path(spec, spec.grid))
        state = solver.init_state(spec)
        batch = sde.simulate_batch(spec.model, spec.grid, spec.batch_size, 5)
        features, cache = solver.features_for_batch(state, batch, spec)
        want, increments = node_features(state, batch, spec)
        assert features.tobytes() == want.tobytes()
        if spec.embed_dim is not None:
            assert len(cache.chunks) == 3
            for rows, cached, _ in cache.chunks:
                assert cached.tobytes() == increments[rows].tobytes()

    def test_first_feature_is_zero_for_every_path(self):
        spec = lookback_spec()
        state = solver.init_state(spec)
        batch = sde.simulate_batch(spec.model, spec.grid, spec.batch_size, 5)
        features, cache = solver.features_for_batch(state, batch, spec)
        assert cache is None
        assert np.all(features[0] == 0.0)
        assert features.shape == (10, 64, spec.feature_width)

    def test_identity_embedding_reproduces_plain_features(self):
        spec = lookback_spec(batch_size=8)
        state = solver.init_state(spec)
        batch = sde.simulate_batch(spec.model, spec.grid, 8, 5)
        plain, _ = solver.features_for_batch(state, batch, spec)
        # both streams are conditioned by |x0|, so the identity map embeds alike
        state.embedding = np.eye(spec.model.dim)
        embedded, cache = solver.features_for_batch(state, batch, spec)
        assert cache is not None
        # block-combined and sequential scans associate differently
        np.testing.assert_allclose(embedded, plain, rtol=1e-9, atol=1e-12)

    def test_streamed_features_match_from_scratch_prefix(self):
        spec = lookback_spec(batch_size=4)
        state = solver.init_state(spec)
        batch = sde.simulate_batch(spec.model, spec.grid, 4, 5)
        features, _ = solver.features_for_batch(state, batch, spec)
        grid = spec.grid
        times = np.arange(grid.n_fine + 1) * grid.h
        rescaled = batch.states / solver.feature_scale(spec.model)
        for n in (1, 4, 9):
            for j in (0, 3):
                # a long-double Chen scan, so the reference's own rounding
                # stays well below the tolerance
                end = n * grid.fine_per_segment + 1
                prefix = np.stack([times[:end], rescaled[j, :end, 0]], axis=-1)
                scratch = reference.signature_scan(
                    np.diff(prefix.astype(np.longdouble), axis=0), spec.depth)
                np.testing.assert_allclose(features[n, j], engine.flatten_levels(scratch),
                                           rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("make_spec, feature, depth", [
        (lookback_spec, "signature", 3),
        (amerasian_spec, "log-signature", 2),
    ])
    def test_approximator_input_is_rescaled_path_feature(self, make_spec,
                                                         feature, depth):
        # the nets a training step runs see the path with its state
        # channels divided by feature_scale
        spec = make_spec(feature=feature, depth=depth, batch_size=4)
        state = solver.init_state(spec)
        batch = sde.simulate_batch(spec.model, spec.grid, 4, 5)
        with mock.patch.object(net, "mlp_forward", wraps=net.mlp_forward) as forward:
            solver.train_step(state, spec, 5, update=False)
        first_layer_input = forward.call_args.args[1]
        grid = spec.grid
        times = np.arange(grid.n_fine + 1) * grid.h
        rescaled = batch.states / solver.feature_scale(spec.model)
        for n in (1, 4, 9):
            end = n * grid.fine_per_segment + 1
            for j in (0, 3):
                prefix = np.concatenate([times[:end, None], rescaled[j, :end]], axis=1)
                levels = signature(prefix, depth)
                if feature == "signature":
                    expect = engine.flatten_levels(levels)
                else:
                    expect = lyndon.project(engine.log_of_group(levels),
                                            prefix.shape[1], depth)
                np.testing.assert_allclose(first_layer_input[n, j], expect,
                                           rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("x0, feature, depth, embed_dim", [
        pytest.param(10.0, "signature", 3, None, id="signature-depth3"),
        pytest.param(10.0, "log-signature", 2, None, id="log-signature-depth2"),
        pytest.param((90.0, 100.0, 120.0), "signature", 2, 2, id="embedded-d3"),
    ])
    def test_conditioning_is_a_dilation_invariant(self, x0, feature, depth, embed_dim):
        # a geometric path scales with its spot, so dividing by |x0| undoes
        # any dilation of x0: same seeds, same features
        def features(spot):
            spec = solver.ExperimentSpec(
                method="backward", model=sde.ModelSpec.geometric(spot, 0.05, 0.2),
                grid=sde.GridSpec(1.0, 12, 3), driver=solver.DriverKind(0.05),
                payoff=solver.PayoffKind("quadratic-integral"), depth=depth,
                feature=feature, embed_dim=embed_dim, batch_size=4, seed=1)
            state = solver.init_state(spec)
            batch = sde.simulate_batch(spec.model, spec.grid, 4, 9)
            return solver.features_for_batch(state, batch, spec)[0]

        base = features(x0)
        assert np.any(base[1:] != 0.0)
        np.testing.assert_allclose(features(tuple(7.0 * np.atleast_1d(x0))), base,
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("feature, depth", [
        pytest.param("signature", 2, id="signature"),
        pytest.param("log-signature", 2, id="log-signature"),
        pytest.param("signature", 3, id="signature-depth3"),
        pytest.param("log-signature", 3, id="log-signature-depth3"),
        pytest.param("signature", 4, id="signature-depth4"),
        pytest.param("log-signature", 4, id="log-signature-depth4"),
    ])
    def test_embedding_gradient_matches_finite_differences(self, rng, feature, depth):
        spec = solver.ExperimentSpec(
            method="backward",
            model=sde.ModelSpec.geometric((90.0, 100.0, 120.0), 0.05,
                                          (0.1, 0.2, 0.15)),
            grid=sde.GridSpec(1.0, 12, 3),
            driver=solver.DriverKind(0.05),
            payoff=solver.PayoffKind("asian-basket-call", strike=100.0),
            depth=depth, feature=feature, embed_dim=2, batch_size=3, seed=1)
        state = solver.init_state(spec)
        batch = sde.simulate_batch(spec.model, spec.grid, 3, 9)
        cot = rng.standard_normal((spec.grid.n_coarse, 3, spec.feature_width))

        def objective(_):
            features, _ = solver.features_for_batch(state, batch, spec)
            return float(np.sum(cot * features))

        _, cache = solver.features_for_batch(state, batch, spec)
        grad = solver.features_backward(state, spec, cache, cot)
        numeric_w = central_difference(objective, state.embedding)
        np.testing.assert_allclose(grad, numeric_w, rtol=1e-5, atol=1e-6)

    def test_log_features_width(self):
        spec = lookback_spec(feature="log-signature", batch_size=4)
        state = solver.init_state(spec)
        batch = sde.simulate_batch(spec.model, spec.grid, 4, 5)
        features, _ = solver.features_for_batch(state, batch, spec)
        assert features.shape[-1] == spec.feature_width == 5


def chunked_pipeline(state, spec, batch, cot, chunk):
    """Features, embedding gradient and node gradients with the feature
    pipeline run over chunks of at most ``chunk`` paths."""
    budget = chunk * solver._values_per_path(spec, batch.grid)
    return budgeted_pipeline(state, spec, batch, cot, budget)


def budgeted_pipeline(state, spec, batch, cot, budget):
    """:func:`chunked_pipeline` with a budget of ``budget`` values per chunk."""
    with mock.patch.object(solver, "FEATURE_CHUNK_VALUES", budget), \
            mock.patch.object(net, "embed_backward", wraps=net.embed_backward) as pullback:
        features, cache = solver.features_for_batch(state, batch, spec)
        if cache is None:
            return [features]
        grad = solver.features_backward(state, spec, cache, cot)
    return [features, grad, pullback.call_args.args[1]]


class TestFeatureChunks:
    @given(chunk=st.integers(1, 4), chunks=st.integers(1, 3), offset=st.integers(-1, 1),
           feature=st.sampled_from(solver.FEATURE_KINDS), embedded=st.booleans(),
           depth=st.integers(1, 3))
    def test_chunks_are_bitwise_one_chunk(self, chunk, chunks, offset, feature,
                                          embedded, depth):
        # batch sizes on and around a multiple of the chunk size, one path
        # included: the spec needs two, but the features read the batch's size
        batch_size = max(1, chunk * chunks + offset)
        spec = solver.ExperimentSpec(
            method="backward",
            model=sde.ModelSpec.geometric((90.0, 100.0, 120.0), 0.05, (0.1, 0.2, 0.15)),
            grid=sde.GridSpec(1.0, 12, 3), driver=solver.DriverKind(0.05),
            payoff=solver.PayoffKind("asian-basket-call", strike=100.0),
            depth=depth, feature=feature, embed_dim=2 if embedded else None,
            batch_size=max(2, batch_size), seed=1)
        state = solver.init_state(spec)
        batch = sde.simulate_batch(spec.model, spec.grid, batch_size, 9)
        cot = np.random.default_rng(depth).standard_normal(
            (spec.grid.n_coarse, batch_size, spec.feature_width))
        whole = chunked_pipeline(state, spec, batch, cot, batch_size)
        split = chunked_pipeline(state, spec, batch, cot, chunk)
        assert len(split) == (3 if embedded else 1)
        for a, b in zip(whole, split):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @given(size=st.integers(1, 7), budget=st.floats(0.0, 1.2), depth=st.integers(1, 3),
           feature=st.sampled_from(solver.FEATURE_KINDS), embedded=st.booleans())
    def test_every_budget_is_bitwise_one_chunk(self, size, budget, depth, feature,
                                               embedded):
        # budgets from below one path's values to above the whole batch's
        spec = solver.ExperimentSpec(
            method="backward",
            model=sde.ModelSpec.geometric((90.0, 100.0, 120.0), 0.05, (0.1, 0.2, 0.15)),
            grid=sde.GridSpec(1.0, 12, 3), driver=solver.DriverKind(0.05),
            payoff=solver.PayoffKind("asian-basket-call", strike=100.0),
            depth=depth, feature=feature, embed_dim=2 if embedded else None,
            batch_size=max(2, size), seed=1)
        state = solver.init_state(spec)
        batch = sde.simulate_batch(spec.model, spec.grid, size, 9)
        cot = np.random.default_rng(depth).standard_normal(
            (spec.grid.n_coarse, size, spec.feature_width))
        whole_batch = size * solver._values_per_path(spec, batch.grid)
        whole = budgeted_pipeline(state, spec, batch, cot, whole_batch)
        split = budgeted_pipeline(state, spec, batch, cot, int(budget * whole_batch))
        assert len(split) == (3 if embedded else 1)
        for a, b in zip(whole, split):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("spec, paths", [
        # 380 steps of 4 values per path at depth 3: 39 paths per chunk at most
        (lookback_spec(grid=sde.GridSpec(1.0, 400, 20), batch_size=100), [33, 33, 34]),
        # 190 steps of 2 values per path at depth 2: 157 paths at most
        (amerasian_spec(grid=sde.GridSpec(1.0, 200, 20), feature="log-signature",
                        batch_size=1000), [142] + [143] * 6),
        # 160 scanned steps of 21**2 values exceed the budget: one path per chunk
        (solver.ExperimentSpec(
            method="backward", model=sde.ModelSpec.arithmetic_unit(0.0, dim=20),
            grid=sde.GridSpec(1.0, 200, 5), driver=solver.DriverKind(),
            payoff=solver.PayoffKind("quadratic-integral"), depth=3,
            feature="log-signature", batch_size=3), [1, 1, 1]),
    ])
    def test_desk_chunks_follow_the_working_set(self, spec, paths):
        state = solver.init_state(spec)
        batch = sde.simulate_batch(spec.model, spec.grid, spec.batch_size, 2)
        with mock.patch.object(engine, "checkpoint_scan",
                               wraps=engine.checkpoint_scan) as scan:
            solver.features_for_batch(state, batch, spec)
        assert [c.args[0].shape[0] for c in scan.call_args_list] == paths

    def test_embedded_d100_desk_batch_keeps_chunks_of_125_paths(self):
        # 80 scanned steps of 6 channels: 480 values per path
        spec = solver.ExperimentSpec(
            method="backward", model=sde.ModelSpec.arithmetic_unit(0.0, dim=100),
            grid=sde.GridSpec(1.0, 100, 5), driver=solver.DriverKind(),
            payoff=solver.PayoffKind("quadratic-integral"), depth=2,
            feature="log-signature", embed_dim=5, batch_size=1000, seed=0)
        assert solver.FEATURE_CHUNK_VALUES // solver._values_per_path(spec, spec.grid) == 125

    def test_depth_three_lookback_features_peak_below_a_bound(self):
        # 380 scanned steps of 2 channels at depth 3: a 100-path chunk's five
        # per-step arrays of 1.2 MB each peaked near 6 MB
        spec = lookback_spec(grid=sde.GridSpec(1.0, 400, 20), batch_size=100)
        state = solver.init_state(spec)
        batch = sde.simulate_batch(spec.model, spec.grid, 100, 4)
        solver.features_for_batch(state, batch, spec)
        tracemalloc.start()
        try:
            solver.features_for_batch(state, batch, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    def test_chunks_bound_the_peak_memory(self):
        spec = solver.ExperimentSpec(
            method="backward", model=sde.ModelSpec.arithmetic_unit(0.0, dim=20),
            grid=sde.GridSpec(1.0, 100, 5), driver=solver.DriverKind(),
            payoff=solver.PayoffKind("quadratic-integral"), depth=2,
            feature="log-signature", embed_dim=5, batch_size=256, seed=0)
        state = solver.init_state(spec)
        batch = sde.simulate_batch(spec.model, spec.grid, 256, 3)
        cot = np.random.default_rng(0).standard_normal((5, 256, spec.feature_width))

        def peak(chunk):
            tracemalloc.start()
            try:
                chunked_pipeline(state, spec, batch, cot, chunk)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(32)   # warm up lazily built bases
        # eight chunks measured 0.43 of the one-chunk peak
        assert peak(32) <= 0.6 * peak(256)

    @pytest.mark.parametrize("n_coarse", [1, 2, 4])
    @pytest.mark.parametrize("feature", solver.FEATURE_KINDS)
    def test_last_segment_is_not_scanned(self, n_coarse, feature):
        # feature n reads the path up to date n < N, so the scan stops at N-1
        spec = solver.ExperimentSpec(
            method="backward", model=sde.ModelSpec.arithmetic_unit(0.0, dim=4),
            grid=sde.GridSpec(1.0, 3 * n_coarse, n_coarse), driver=solver.DriverKind(),
            payoff=solver.PayoffKind("quadratic-integral"), depth=2, feature=feature,
            embed_dim=2, batch_size=6, seed=0)
        state = solver.init_state(spec)
        batch = sde.simulate_batch(spec.model, spec.grid, 6, 1)
        cot = np.random.default_rng(2).standard_normal((n_coarse, 6, spec.feature_width))
        with mock.patch.object(engine, "checkpoint_scan",
                               wraps=engine.checkpoint_scan) as scan:
            features, grad, node_grads = chunked_pipeline(state, spec, batch, cot, 6)
        assert scan.call_args.args[0].shape == (6, 3 * (n_coarse - 1), 3)
        assert not np.any(features[0])
        assert not np.any(node_grads[:, 3 * (n_coarse - 1) + 1:])
        if n_coarse == 1:
            assert not np.any(grad)


class TestStepMemory:
    def test_embedded_step_frees_dead_arrays(self):
        # d=100 embedded to 5, 5 dates, 250 paths in two feature chunks: the
        # step's traced peak beyond the state buffer measured 4.95 (N, B, d)
        # arrays; holding the spent nets' cache, the nets' outputs and a
        # separate output cotangent through the features' reverse pass
        # measured 8.21
        spec = solver.ExperimentSpec(
            method="backward", model=sde.ModelSpec.arithmetic_unit(0.0, dim=100),
            grid=sde.GridSpec(1.0, 20, 5), driver=solver.DriverKind(),
            payoff=solver.PayoffKind("quadratic-integral"), depth=2,
            feature="log-signature", embed_dim=5, batch_size=250, seed=0)
        state = solver.init_state(spec)
        solver.train_step(state, spec, 1)   # warm up lazily built bases
        tracemalloc.start()
        try:
            solver.train_step(state, spec, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        states = 250 * 21 * 100 * 8
        date_array = 5 * 250 * 100 * 8
        assert peak <= states + 6.5 * date_array

    def test_rollout_and_adjoint_sweep_make_no_date_temporary(self, monkeypatch):
        # d=100: from the nets' output to the end of the rollout, and from
        # there to the stacked backward pass, the traced peak stays below
        # one (B, d) array above the level where it starts; a per-date
        # z * ΔW product or cotangent temporary is one such array
        spec = solver.ExperimentSpec(
            method="backward", model=sde.ModelSpec.arithmetic_unit(0.0, dim=100),
            grid=sde.GridSpec(1.0, 20, 5), driver=solver.DriverKind(),
            payoff=solver.PayoffKind("quadratic-integral"), depth=2,
            feature="log-signature", embed_dim=5, batch_size=250, seed=0)
        forward, rollout, backward = net.mlp_forward, solver.rollout, net.mlp_backward
        levels, rises = {}, {}

        def start(stage):
            tracemalloc.reset_peak()
            levels[stage] = tracemalloc.get_traced_memory()[0]

        def end(stage):
            rises[stage] = tracemalloc.get_traced_memory()[1] - levels[stage]

        def forwarded(*args, **kw):
            out = forward(*args, **kw)
            start("rollout")
            return out

        def rolled_out(*args, **kw):
            out = rollout(*args, **kw)
            end("rollout")
            start("sweep")
            return out

        def backwarded(*args, **kw):
            end("sweep")
            return backward(*args, **kw)

        monkeypatch.setattr(net, "mlp_forward", forwarded)
        monkeypatch.setattr(solver, "rollout", rolled_out)
        monkeypatch.setattr(net, "mlp_backward", backwarded)
        state = solver.init_state(spec)
        tracemalloc.start()
        try:
            solver.train_step(state, spec, 2)
        finally:
            tracemalloc.stop()
        date_array = 250 * 100 * 8
        assert 0 <= rises["rollout"] < date_array
        assert 0 <= rises["sweep"] < date_array

    @pytest.mark.parametrize("embed_dim", [None, 2])
    def test_batch_arrays_die_with_their_last_reader(self, monkeypatch, embed_dim):
        # a plain stream's fine grid is dead once the payoffs are taken; a
        # trained embedding's gradient still reads it; the coarse increments
        # are dead once the adjoint sweep is done
        spec = amerasian_spec(model=sde.ModelSpec.geometric(100.0, 0.05, 0.15, dim=3),
                              embed_dim=embed_dim)
        simulate, forward, backward = sde.simulate_batch, net.mlp_forward, net.mlp_backward
        refs, alive = {}, {}

        def simulated(*args, **kw):
            batch = simulate(*args, **kw)
            refs["states"] = weakref.ref(batch.states)
            refs["increments"] = weakref.ref(batch.coarse_increments)
            return batch

        def watch(stage, fn):
            def watched(*args, **kw):
                alive[stage] = {name: ref() is not None for name, ref in refs.items()}
                return fn(*args, **kw)
            return watched

        monkeypatch.setattr(sde, "simulate_batch", simulated)
        monkeypatch.setattr(net, "mlp_forward", watch("forward", forward))
        monkeypatch.setattr(net, "mlp_backward", watch("backward", backward))
        state = solver.init_state(spec)
        solver.train_step(state, spec, 1)
        embedded = embed_dim is not None
        assert alive == {"forward": {"states": embedded, "increments": True},
                         "backward": {"states": embedded, "increments": False}}


class TestForwardIteration:
    @pytest.mark.parametrize("n_coarse", [1, 2, 4])
    @pytest.mark.parametrize("start", [0.0, 1.0, 1e3])
    def test_zero_volatility_step_solves_the_discounted_payoff(self, n_coarse, start):
        # zero approximators, constant payoff g = (2 * 1)^2: Y_N = G * y0
        spec = constant_payoff_spec(n_coarse=n_coarse, n_fine=4 * n_coarse)
        state = solver.init_state(spec)
        state.y0 = start
        _, loss, estimate = solver.train_step(state, spec, 7, update=False)
        growth = (1.0 + 0.1 / n_coarse) ** n_coarse
        assert abs(estimate - 4.0 / growth) < 1e-12
        assert loss <= 1e-20

    def test_run_started_far_away_reports_the_discounted_payoff(self):
        spec = constant_payoff_spec(iterations=3)
        with mock.patch.object(solver, "pilot_estimate", return_value=3.0):
            report = solver.train(spec)
        assert all(abs(e - 4.0 / 1.1) < 1e-12 for e in report.estimates)
        assert abs(report.final_estimate - 4.0 / 1.1) < 1e-12

    def test_update_moves_the_initial_value_to_the_estimate(self):
        spec = constant_payoff_spec()
        state = solver.init_state(spec)
        state.y0 = 1.0
        _, _, estimate = solver.train_step(state, spec, 7, update=False)
        assert state.y0 == 1.0 and abs(estimate - 4.0 / 1.1) < 1e-12
        _, _, again = solver.train_step(state, spec, 7)
        assert again == estimate and state.y0 == estimate

    def test_estimates_do_not_depend_on_the_start_value(self):
        spec = lookback_spec(iterations=8, batch_size=16)
        runs = []
        for start in (None, 0.0):   # the pilot, or far below the answer
            state = solver.init_state(spec)
            if start is not None:
                state.y0 = start
            runs.append([solver.train_step(state, spec, solver.derive_seed(0, 4, it))[1:]
                         for it in range(spec.iterations)])
        np.testing.assert_allclose(runs[0], runs[1], rtol=1e-9)

    def test_martingale_preservation_with_fixed_nets(self):
        # zero driver: terminal mean equals the initial value within noise
        spec = solver.ExperimentSpec(
            method="forward",
            model=sde.ModelSpec.arithmetic_unit(0.0),
            grid=sde.GridSpec(1.0, 60, 6),
            driver=solver.DriverKind(),
            payoff=solver.PayoffKind("quadratic-integral"),
            depth=2, batch_size=512, iterations=1, seed=2)
        state = solver.init_state(spec)
        state.y0 = 0.4
        fresh = net.init_mlp(state.nets.spec, range(100, 100 + spec.grid.n_coarse),
                             zero_output=False)
        for stacked, value in zip(state.nets.parameters(), fresh.parameters()):
            stacked[...] = value
        batch = sde.simulate_batch(spec.model, spec.grid, spec.batch_size, 31)
        features, _ = solver.features_for_batch(state, batch, spec)
        ys, _, _ = solver.rollout(state, spec, features, batch.coarse_increments,
                                  *spec.payoff.values(batch))
        gains = ys[:, -1] - ys[:, 0]
        bound = 3.0 * gains.std(ddof=1) / np.sqrt(spec.batch_size)
        assert abs(gains.mean()) <= bound


class TestBackwardIteration:
    def test_zero_volatility_variance_is_exactly_zero(self):
        spec = constant_payoff_spec(method="backward", n_coarse=2, n_fine=8)
        state = solver.init_state(spec)
        _, loss, estimate = solver.train_step(state, spec, 3)
        assert loss == 0.0
        # two explicit discount steps on the constant payoff 4
        assert abs(estimate - 4.0 * (1.0 - 0.05) ** 2) < 1e-12

    def test_unit_nets_telescope_terminal_value(self):
        # dX = dW, g = X_T, approximators pinned at one: the rolled-back
        # value cancels every increment and lands on x0 for every path
        model = sde.ModelSpec.arithmetic_unit(1.5)
        grid = sde.GridSpec(1.0, 40, 8)
        spec = solver.ExperimentSpec(
            method="backward", model=model, grid=grid,
            driver=solver.DriverKind(),
            payoff=solver.PayoffKind("quadratic-integral"),
            depth=2, batch_size=32, iterations=1, seed=4)
        state = solver.init_state(spec)
        force_constant_output(state, 1.0)
        batch = sde.simulate_batch(model, grid, 32, 17)
        features, _ = solver.features_for_batch(state, batch, spec)
        y = batch.states[:, -1, 0].copy()
        for n in range(grid.n_coarse, 0, -1):
            y = y - batch.coarse_increments[:, n - 1, 0]
        np.testing.assert_allclose(y, 1.5, rtol=0, atol=1e-12)

    def test_estimate_is_batch_mean(self):
        spec = amerasian_spec(method="backward")
        state = solver.init_state(spec)
        batch = sde.simulate_batch(spec.model, spec.grid, spec.batch_size, 11)
        features, _ = solver.features_for_batch(state, batch, spec)
        ys, _, _ = solver.rollout(state, spec, features, batch.coarse_increments,
                                  *spec.payoff.values(batch))
        _, _, estimate = solver.train_step(state, spec, 11, update=False)
        assert abs(estimate - ys[:, 0].mean()) < 1e-14


class TestReflectedIteration:
    def test_floor_holds_at_every_date(self):
        spec = amerasian_spec(iterations=3)
        state = solver.init_state(spec)
        for it in range(3):
            solver.train_step(state, spec, 100 + it)
        batch = sde.simulate_batch(spec.model, spec.grid, spec.batch_size, 999)
        features, _ = solver.features_for_batch(state, batch, spec)
        payoff, exercise = spec.payoff.values(batch)
        ys, _, _ = solver.rollout(state, spec, features, batch.coarse_increments,
                                  payoff, exercise)
        assert np.min(ys - exercise) >= 0.0

    def test_zero_volatility_matches_dynamic_programming(self):
        spec = amerasian_spec(model=sde.ModelSpec.geometric(100.0, 0.05, 0.0))
        state = solver.init_state(spec)
        _, _, estimate = solver.train_step(state, spec, 55, update=False)
        batch = sde.simulate_batch(spec.model, spec.grid, 1, 55)
        exercise = spec.payoff.values(batch)[1][0]
        dp = oracle.bermudan_deterministic_dp(exercise, 0.05, spec.grid.dt)
        assert abs(estimate - dp) < 1e-10


class TestTrain:
    def test_zero_iterations_reports_initial_estimate(self):
        spec = lookback_spec(iterations=0)
        report = solver.train(spec)
        assert report.losses == [] and report.estimates == []
        assert report.final_estimate == solver.pilot_estimate(spec)

    def test_zero_iterations_backward_evaluates_once(self):
        spec = amerasian_spec(method="backward", iterations=0)
        report = solver.train(spec)
        assert report.iterations == 0
        assert np.isfinite(report.final_estimate)

    def test_non_finite_loss_aborts_with_metadata(self):
        # payoffs near 1e200 spread too widely for their variance to be finite
        spec = lookback_spec(model=sde.ModelSpec.geometric(1e200, 0.01, 1.0), iterations=3)
        with pytest.raises(solver.SolverAbort) as err:
            solver.train(spec)
        assert err.value.method == "forward"

    def test_every_trainable_array_is_a_view_of_one_buffer(self):
        spec = solver.ExperimentSpec(
            method="forward", model=sde.ModelSpec.arithmetic_unit(1.0, dim=3),
            grid=sde.GridSpec(1.0, 8, 2), driver=solver.DriverKind(),
            payoff=solver.PayoffKind("quadratic-integral"), depth=2,
            embed_dim=2, batch_size=8, iterations=1, seed=0)
        state = solver.init_state(spec)
        owned = list(state.nets.parameters()) + [state.embedding]
        assert [id(a) for a in solver.trainables(state)] == [id(a) for a in owned]
        assert sum(a.size for a in owned) == state.params.size
        assert type(state.y0) is float

        def all_views():
            owned = list(state.nets.parameters()) + [state.embedding]
            return all(np.shares_memory(a, state.params) for a in owned)

        assert all_views()
        solver.train_step(state, spec, 5)
        assert all_views()

    def test_training_is_reproducible(self):
        spec = lookback_spec(iterations=10, batch_size=16)
        a = solver.train(spec)
        b = solver.train(spec)
        assert a.estimates == b.estimates and a.losses == b.losses


class TestCallContracts:
    @pytest.mark.parametrize("spec", [
        lookback_spec(iterations=3, batch_size=8),
        lookback_spec(method="backward", iterations=3, batch_size=8),
        amerasian_spec(iterations=3, batch_size=8)], ids=solver.METHODS)
    def test_train_calls_the_module_attributes_the_benchmark_patches(self, spec):
        """perfbench marks an iteration by a ``derive_seed`` call made by
        ``train`` itself, and swaps ``features_for_batch`` on the module,
        expecting one call per iteration."""
        stack, calls = [], []

        def recorded(name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls.append((name, stack[-1] if stack else None))
                stack.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
            return wrapper

        with contextlib.ExitStack() as patches:
            for name in ("train", "init_state", "derive_seed", "train_step",
                         "features_for_batch"):
                patches.enter_context(mock.patch.object(
                    solver, name, recorded(name, getattr(solver, name))))
            solver.train(spec)
        in_train = [name for name, parent in calls if parent == "train"]
        assert in_train == ["init_state"] + ["derive_seed", "train_step"] * 3
        assert [parent for name, parent in calls
                if name == "features_for_batch"] == ["train_step"] * 3


@contextlib.contextmanager
def thread_log(workers):
    """Log which thread every public function of the package runs on.

    Yields ``(calls, off_main)``: ``(name, on_main_thread)`` per public
    call, and the names among the private ``(module, attr)`` ``workers``
    that ran off the main thread.  ``sde.thread_count`` is pinned to 2, so
    batches, stacks and oracle blocks split in two.
    """
    calls, off_main = [], set()

    def recorded(name, fn, log):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log(name, threading.current_thread() is threading.main_thread())
            return fn(*args, **kwargs)
        return wrapper

    with contextlib.ExitStack() as patches:
        for module in (sde, net, engine, lyndon, solver, oracle):
            for attr, fn in vars(module).copy().items():
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                if fn is sde.thread_count:
                    fn = lambda: 2
                patches.enter_context(mock.patch.object(module, attr, recorded(
                    attr, fn, lambda name, main: calls.append((name, main)))))
        for module, attr in workers:
            patches.enter_context(mock.patch.object(module, attr, recorded(
                attr, getattr(module, attr), lambda name, main: main or off_main.add(name))))
        yield calls, off_main


class TestThreads:
    """Worker threads call private helpers only, so a tracer that wraps
    every public function (as perfbench's does) sees one thread."""

    def test_public_functions_run_on_the_main_thread(self):
        spec = solver.ExperimentSpec(
            method="backward", model=sde.ModelSpec.arithmetic_unit(0.5, dim=8),
            grid=sde.GridSpec(1.0, 128, 8), driver=solver.DriverKind(),
            payoff=solver.PayoffKind("quadratic-integral"), depth=2, embed_dim=2,
            batch_size=net.PARALLEL_MIN_ROWS // 4, iterations=1, seed=0)
        with thread_log([(sde, "_simulate_rows"), (net, "_forward_dates"),
                         (net, "_backward_dates")]) as (calls, off_main):
            state = solver.init_state(spec)
            solver.train_step(state, spec, 7)
        names = {name for name, _ in calls}
        assert {"simulate_batch", "thread_count", "mlp_forward", "mlp_backward",
                "checkpoint_scan", "features_backward"} <= names
        assert off_main == {"_simulate_rows", "_forward_dates", "_backward_dates"}
        assert [name for name, main in calls if not main] == []

    def test_oracle_blocks_are_all_that_leave_the_main_thread(self):
        model = sde.ModelSpec.geometric(100.0, 0.05, 0.15)
        with thread_log([(oracle, "_block_sums")]) as (calls, off_main):
            oracle.asian_european_mc(model, sde.GridSpec(1.0, 20, 4), 100.0, [1.0],
                                     3 * oracle.BLOCK_PATHS, seed=1)
        assert {name for name, _ in calls} == {"asian_european_mc", "thread_count"}
        assert off_main == {"_block_sums"}
        assert [name for name, main in calls if not main] == []


class TestAggregate:
    def test_identical_values_collapse_interval(self):
        reports = [solver.RunReport("forward", 0, final_estimate=5.0)
                   for _ in range(50)]
        summary = solver.aggregate_runs(reports)
        assert summary.mean == 5.0
        assert summary.ci_low == summary.ci_high == 5.0

    def test_two_point_mixture_mean(self):
        reports = [solver.RunReport("backward", i, final_estimate=v)
                   for i, v in enumerate([5.77] * 25 + [5.79] * 25)]
        summary = solver.aggregate_runs(reports)
        assert abs(summary.mean - 5.78) < 1e-12
        assert summary.ci_low < 5.78 < summary.ci_high

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            solver.aggregate_runs([])

    def test_single_run_degenerate_interval(self):
        summary = solver.aggregate_runs(
            [solver.RunReport("forward", 0, final_estimate=1.23)])
        assert summary.ci_low == summary.ci_high == 1.23
