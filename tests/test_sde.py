import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sigfbsde import sde


def make_batch(states, horizon=1.0):
    """Wrap synthetic states in a PathBatch (increments unused by functionals)."""
    states = np.asarray(states, dtype=float)
    b, n1, d = states.shape
    grid = sde.GridSpec(horizon, n1 - 1, 1)
    return sde.PathBatch(states, np.zeros((b, 1, d)), grid, seed=0,
                         path_ids=np.arange(b))


def redrawn_increments(batch):
    """The fine increments behind ``batch``, drawn again for its seed and path ids."""
    b, n1, d = batch.states.shape
    return sde.brownian_increments(batch.grid, batch.seed, batch.path_ids,
                                   np.empty((b, n1 - 1, d)))


def states_from_increments(model, h, incs):
    """States driven by ``incs`` of shape ``(B, n, d)``."""
    states = np.empty((incs.shape[0], incs.shape[1] + 1, incs.shape[2]))
    states[:, 1:] = incs
    return sde._step_states(model, h, states)


class TestGridSpec:
    def test_derived_quantities(self):
        grid = sde.GridSpec(2.0, 100, 20)
        assert grid.h == 0.02
        assert grid.fine_per_segment == 5
        assert grid.dt == 0.1

    def test_divisibility_enforced(self):
        with pytest.raises(sde.GridError):
            sde.GridSpec(1.0, 101, 20)

    def test_positivity_enforced(self):
        with pytest.raises(sde.GridError):
            sde.GridSpec(0.0, 10, 2)


class TestModelSpec:
    def test_geometric_broadcasts_scalars(self):
        model = sde.ModelSpec.geometric(100.0, 0.05, 0.15, dim=3)
        assert model.x0 == (100.0, 100.0, 100.0)
        assert model.sigma == (0.15, 0.15, 0.15)
        assert model.dim == 3

    def test_negative_volatility_rejected(self):
        with pytest.raises(sde.ModelError):
            sde.ModelSpec("geometric", (1.0,), 0.0, (-0.1,))

    def test_unknown_kind_rejected(self):
        with pytest.raises(sde.ModelError):
            sde.ModelSpec("heston", (1.0,))


class TestSimulate:
    def test_zero_volatility_zero_rate_is_constant(self):
        model = sde.ModelSpec.geometric(7.0, 0.0, 0.0)
        grid = sde.GridSpec(1.0, 16, 4)
        batch = sde.simulate_batch(model, grid, 5, seed=1)
        assert np.all(batch.states == 7.0)

    def test_unit_diffusion_accumulates_increments(self):
        model = sde.ModelSpec.arithmetic_unit(2.0, dim=2)
        grid = sde.GridSpec(1.0, 10, 5)
        batch = sde.simulate_batch(model, grid, 4, seed=3)
        incs = redrawn_increments(batch)
        # rebuild with the same one-step recursion
        expect = np.empty_like(batch.states)
        expect[:, 0, :] = 2.0
        for i in range(grid.n_fine):
            expect[:, i + 1, :] = expect[:, i, :] + incs[:, i, :]
        np.testing.assert_array_equal(batch.states, expect)

    def test_exact_step_reproduces_states_bitwise(self):
        # X_i = x0 * exp(sigma * W_i + (r - sigma^2 / 2) * t_i), in the
        # simulator's order: W, times sigma, plus drift, exp, times x0
        model = sde.ModelSpec.geometric((10.0, 4.0), 0.05, (0.2, 0.7))
        grid = sde.GridSpec(1.0, 32, 8)
        batch = sde.simulate_batch(model, grid, 6, seed=11)
        incs = redrawn_increments(batch)
        sig, x0 = np.asarray(model.sigma), np.asarray(model.x0)
        w = np.zeros_like(batch.states)
        w[:, 1:] = np.cumsum(incs, axis=1)
        t = grid.h * np.arange(grid.n_fine + 1)
        expect = np.exp(w * sig + t[:, None] * (model.rate - 0.5 * sig * sig)) * x0
        np.testing.assert_array_equal(batch.states, expect)

    def test_zero_volatility_compounds_continuously(self):
        model = sde.ModelSpec.geometric((10.0, 3.0), 0.05, 0.0, dim=2)
        grid = sde.GridSpec(2.0, 40, 8)
        batch = sde.simulate_batch(model, grid, 3, seed=4)
        t = grid.h * np.arange(grid.n_fine + 1)
        expect = np.asarray(model.x0) * np.exp(0.05 * t)[:, None]
        np.testing.assert_allclose(batch.states, np.broadcast_to(expect, batch.states.shape),
                                   rtol=1e-15, atol=0.0)

    def test_initial_state_is_x0(self):
        model = sde.ModelSpec.geometric(3.0, 0.01, 0.5, dim=2)
        batch = sde.simulate_batch(model, sde.GridSpec(1.0, 8, 2), 3, seed=0)
        assert np.all(batch.states[:, 0, :] == 3.0)

    def test_same_seed_and_path_id_bit_identical_across_batches(self):
        model = sde.ModelSpec.geometric(10.0, 0.01, 1.0)
        grid = sde.GridSpec(1.0, 20, 4)
        big = sde.simulate_batch(model, grid, 8, seed=42)
        small = sde.simulate_batch(model, grid, 3, seed=42, path_offset=5)
        np.testing.assert_array_equal(big.states[5:8], small.states)
        np.testing.assert_array_equal(redrawn_increments(big)[5:8],
                                      redrawn_increments(small))

    def test_geometric_terminal_mean_matches_moment(self):
        # E[X_T] for the exact dynamics is x0 * exp(r T)
        model = sde.ModelSpec.geometric(100.0, 0.05, 0.15)
        grid = sde.GridSpec(1.0, 50, 10)
        batch = sde.simulate_batch(model, grid, 100_000, seed=7)
        terminal = batch.states[:, -1, 0]
        se = terminal.std(ddof=1) / np.sqrt(len(terminal))
        assert abs(terminal.mean() - 100.0 * np.exp(0.05)) < 3.0 * se


class TestOneBuffer:
    """The increments are drawn into the state buffer and stepped over in place."""

    def test_peak_memory_is_one_state_buffer(self):
        model = sde.ModelSpec.geometric(10.0, 0.01, 1.0, dim=4)
        grid = sde.GridSpec(1.0, 100, 5)
        sde.simulate_batch(model, grid, 2, seed=1)  # warm up imports and caches
        tracemalloc.start()
        try:
            batch = sde.simulate_batch(model, grid, 500, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * batch.states.nbytes + batch.coarse_increments.nbytes

    @pytest.mark.parametrize("dim,n_fine,n_coarse", [(1, 400, 20), (3, 60, 12), (2, 8, 8)])
    def test_coarse_increments_are_segment_sums_of_the_draws(self, dim, n_fine, n_coarse):
        model = sde.ModelSpec.geometric(10.0, 0.01, 1.0, dim=dim)
        grid = sde.GridSpec(1.0, n_fine, n_coarse)
        batch = sde.simulate_batch(model, grid, 9, seed=17, path_offset=4)
        incs = redrawn_increments(batch)
        sums = incs.reshape(9, n_coarse, grid.fine_per_segment, dim).sum(axis=2)
        np.testing.assert_array_equal(batch.coarse_increments, sums)

    @given(n_coarse=st.integers(1, 4), per_segment=st.integers(1, 5), dim=st.integers(1, 3),
           start=st.integers(0, 4), count=st.integers(1, 4), after=st.integers(0, 3),
           seed=st.integers(0, 2 ** 32 - 1), geometric=st.booleans())
    def test_batch_slicing_is_bitwise(self, n_coarse, per_segment, dim, start, count, after,
                                      seed, geometric):
        model = (sde.ModelSpec.geometric(2.0, 0.05, 0.4, dim=dim) if geometric
                 else sde.ModelSpec.arithmetic_unit(0.5, dim=dim))
        grid = sde.GridSpec(1.0, n_coarse * per_segment, n_coarse)
        full = sde.simulate_batch(model, grid, start + count + after, seed)
        part = sde.simulate_batch(model, grid, count, seed, path_offset=start)
        rows = slice(start, start + count)
        np.testing.assert_array_equal(part.states, full.states[rows])
        np.testing.assert_array_equal(part.coarse_increments, full.coarse_increments[rows])

    @pytest.mark.parametrize("seed", [0, 2 ** 63, 2 ** 64 - 1])
    def test_increments_match_a_freshly_keyed_philox(self, seed):
        # a seed of 2**63 or more keys the stream exactly, as a uint64
        grid = sde.GridSpec(1.0, 6, 2)
        path_ids = np.array([0, 7, 2 ** 40])
        incs = sde.brownian_increments(grid, seed, path_ids, np.empty((3, 6, 2)))
        for row, pid in enumerate(path_ids):
            gen = np.random.Generator(
                np.random.Philox(key=np.array([seed, pid], dtype=np.uint64)))
            expect = gen.standard_normal((6, 2)) * np.sqrt(grid.h)
            assert incs[row].tobytes() == expect.tobytes()

    def test_increment_buffer_shape_checked(self):
        grid = sde.GridSpec(1.0, 8, 2)
        with pytest.raises(ValueError):
            sde.brownian_increments(grid, 0, np.arange(3), np.empty((3, 9, 1)))


class TestThreadedBlocks:
    """A batch of long streams is split over threads without changing a bit.

    ``thread_count`` is pinned to 3, so the split is exercised on any host,
    with uneven blocks and with fewer paths than threads.  At ``d >= 2048``
    every stream and every block's fine step is above the cut.  A short
    switch interval makes the threads interleave as often as they can.
    """

    @given(batch=st.integers(1, 7), offset=st.integers(0, 2 ** 40),
           dim=st.integers(2048, 2100), n_coarse=st.integers(1, 3),
           per_segment=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
           geometric=st.booleans())
    def test_threaded_batch_matches_its_row_slices(self, batch, offset, dim, n_coarse,
                                                   per_segment, seed, geometric):
        model = (sde.ModelSpec.geometric(2.0, 0.05, 0.4, dim=dim) if geometric
                 else sde.ModelSpec.arithmetic_unit(0.5, dim=dim))
        grid = sde.GridSpec(1.0, n_coarse * per_segment, n_coarse)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(sde, "thread_count", lambda: 3):
                assert len(sde._row_blocks(batch, grid.n_fine, dim)) == min(3, batch)
                full = sde.simulate_batch(model, grid, batch, seed, path_offset=offset)
        finally:
            sys.setswitchinterval(interval)
        for row in range(batch):
            alone = sde.simulate_batch(model, grid, 1, seed, path_offset=offset + row)
            np.testing.assert_array_equal(full.states[row], alone.states[0])
            np.testing.assert_array_equal(full.coarse_increments[row],
                                          alone.coarse_increments[0])

    def test_peak_memory_is_one_state_buffer_when_threaded(self):
        model = sde.ModelSpec.geometric(10.0, 0.01, 1.0, dim=16)
        grid = sde.GridSpec(1.0, 128, 4)
        with mock.patch.object(sde, "thread_count", lambda: 2):
            assert len(sde._row_blocks(512, grid.n_fine, model.dim)) == 2
            sde.simulate_batch(model, grid, 512, seed=1)  # warm up the pool's imports
            tracemalloc.start()
            try:
                batch = sde.simulate_batch(model, grid, 512, seed=1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 1.1 * batch.states.nbytes + batch.coarse_increments.nbytes

    @pytest.mark.parametrize("batch,n_fine,dim,blocks", [
        (100, 400, 1, 1),       # lookback: short streams
        (1000, 200, 1, 1),      # amerasian: short streams
        (100, 2000, 1, 1),      # long streams, but each step too thin to share
        (1000, 100, 20, 2),
        (1000, 100, 100, 2),
        (1, 1, 8192, 1),        # fewer paths than threads
    ])
    def test_split_needs_long_streams_and_wide_steps(self, batch, n_fine, dim, blocks):
        with mock.patch.object(sde, "thread_count", lambda: 2):
            cuts = sde._row_blocks(batch, n_fine, dim)
        assert len(cuts) == blocks
        assert cuts[0][0] == 0 and cuts[-1][1] == batch
        assert all(a == b for (_, a), (b, _) in zip(cuts, cuts[1:]))


class TestCoarseDates:
    """A batch's coarse dates: the states at every ``fine_per_segment``-th
    node, and the coarse increments of the driving Brownian motion."""

    def test_unit_segment_ratio_is_identity(self):
        model = sde.ModelSpec.arithmetic_unit(0.0)
        grid = sde.GridSpec(1.0, 6, 6)
        batch = sde.simulate_batch(model, grid, 2, seed=5)
        np.testing.assert_array_equal(batch.states[:, ::grid.fine_per_segment],
                                      batch.states)
        np.testing.assert_array_equal(batch.coarse_increments, redrawn_increments(batch))

    def test_snapshot_differences_are_coarse_increments(self):
        # unit diffusion: the state moves by the Brownian increment alone
        model = sde.ModelSpec.arithmetic_unit(0.0)
        grid = sde.GridSpec(1.0, 4, 2)
        batch = sde.simulate_batch(model, grid, 3, seed=5)
        snapshots = batch.states[:, ::grid.fine_per_segment]
        assert snapshots.shape == (3, 3, 1)
        np.testing.assert_allclose(np.diff(snapshots, axis=1), batch.coarse_increments,
                                   rtol=1e-12, atol=1e-15)

    def test_coarse_increments_telescope_to_terminal_displacement(self):
        model = sde.ModelSpec.arithmetic_unit(0.0, dim=2)
        grid = sde.GridSpec(1.0, 60, 12)
        batch = sde.simulate_batch(model, grid, 4, seed=9)
        np.testing.assert_allclose(batch.coarse_increments.sum(axis=1),
                                   redrawn_increments(batch).sum(axis=1),
                                   rtol=1e-12, atol=1e-15)


class TestRunningFunctionals:
    def test_integral_of_constant_path(self):
        batch = make_batch(np.full((2, 11, 1), 3.0), horizon=2.0)
        out = sde.running_integral(batch, [1.0])
        assert out[0, 0] == 0.0
        np.testing.assert_allclose(out[:, -1], 6.0, rtol=1e-12)

    def test_left_rule_bias_on_linear_path(self):
        n = 1000
        t = np.linspace(0.0, 1.0, n + 1)
        batch = make_batch(t[None, :, None])
        out = sde.running_integral(batch, [1.0])
        np.testing.assert_allclose(out[0, -1], 0.4995, rtol=1e-12)

    def test_zero_weights_give_zero(self, rng):
        batch = make_batch(rng.standard_normal((3, 9, 2)))
        assert np.all(sde.running_integral(batch, [0.0, 0.0]) == 0.0)

    @given(dim=st.sampled_from([1, 2, 7, 100]), size=st.integers(1, 6),
           n_fine=st.integers(1, 30), horizon=st.floats(0.1, 5.0),
           x0=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_integral_is_bitwise_the_two_buffer_formula(self, dim, size, n_fine, horizon,
                                                         x0, seed):
        # the weighted states, cumulated times h into a zeroed buffer from entry 1
        model = sde.ModelSpec.arithmetic_unit(x0, dim=dim)
        batch = sde.simulate_batch(model, sde.GridSpec(horizon, n_fine, 1), size, seed)
        w = np.random.default_rng(seed).uniform(-1.0, 1.0, dim)
        weighted = batch.states @ w
        expected = np.zeros(weighted.shape)
        np.cumsum(weighted[:, :-1] * batch.grid.h, axis=1, out=expected[:, 1:])
        out = sde.running_integral(batch, w)
        assert out.shape == expected.shape and out.tobytes() == expected.tobytes()

    def test_integral_keeps_an_underflowed_step_negative(self):
        # -5e-324 * h rounds to -0.0, which a 0 + x step would turn into +0.0
        batch = make_batch(np.array([[[-5e-324], [1.0], [2.0]]]), horizon=0.5)
        out = sde.running_integral(batch, [1.0])
        assert np.signbit(out[0, 1]) and out[0, 1] == 0.0

    def test_integral_peak_memory_is_one_output(self):
        # the amerasian desk shape: the product is written shifted into the
        # output, with no shifted copy and no weighted temporary beside it
        model = sde.ModelSpec.geometric(100.0, 0.05, 0.15)
        batch = sde.simulate_batch(model, sde.GridSpec(1.0, 200, 20), 1000, 5)
        sde.running_integral(batch, [1.0])
        tracemalloc.start()
        try:
            out = sde.running_integral(batch, [1.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two outputs' worth (3.2 MB) with the shifted copy
        assert peak <= out.nbytes + 4096


class TestRefinementProperties:
    def test_refining_never_increases_discrete_minimum(self, rng):
        # common Brownian tree: finer grids pass through the coarse nodes
        fine_incs = rng.standard_normal((3, 64, 1)) * np.sqrt(1.0 / 64)
        model = sde.ModelSpec.arithmetic_unit(0.0)
        mins = []
        for level in range(3):
            step = 4 // (2 ** level)  # 16, 32, 64 steps
            incs = fine_incs.reshape(3, 64 // step, step, 1).sum(axis=2)
            states = states_from_increments(model, 1.0 / incs.shape[1], incs)
            mins.append(states.min(axis=1))
        assert np.all(mins[1] <= mins[0] + 1e-12)
        assert np.all(mins[2] <= mins[1] + 1e-12)

    def test_endpoint_is_exact_at_every_refinement(self, rng):
        # the geometric step is exact: on common noise every refinement ends
        # at the solution driven by the same Brownian path
        model = sde.ModelSpec.geometric(1.5, 0.05, 0.4)
        n_fine, paths = 256, 4000
        incs = rng.standard_normal((paths, n_fine, 1)) * np.sqrt(1.0 / n_fine)
        w_total = incs.sum(axis=(1, 2))
        exact = 1.5 * np.exp((0.05 - 0.5 * 0.4 ** 2) + 0.4 * w_total)
        for step in (4, 2, 1):
            coarse = incs.reshape(paths, n_fine // step, step, 1).sum(axis=2)
            states = states_from_increments(model, step / n_fine, coarse)
            np.testing.assert_allclose(states[:, -1, 0], exact, rtol=1e-12)
