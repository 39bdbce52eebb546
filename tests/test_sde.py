import numpy as np
import pytest

from sigfbsde import sde


def make_batch(states, horizon=1.0):
    """Wrap synthetic states in a PathBatch (increments unused by functionals)."""
    states = np.asarray(states, dtype=float)
    b, n1, d = states.shape
    grid = sde.GridSpec(horizon, n1 - 1, 1)
    return sde.PathBatch(states, np.zeros((b, n1 - 1, d)), grid, seed=0,
                         path_ids=np.arange(b))


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
        # rebuild with the same one-step recursion
        expect = np.empty_like(batch.states)
        expect[:, 0, :] = 2.0
        for i in range(grid.n_fine):
            expect[:, i + 1, :] = expect[:, i, :] + batch.brownian_fine[:, i, :]
        np.testing.assert_array_equal(batch.states, expect)

    def test_euler_recursion_reproduces_states_bitwise(self):
        model = sde.ModelSpec.geometric(10.0, 0.05, 0.2)
        grid = sde.GridSpec(1.0, 32, 8)
        batch = sde.simulate_batch(model, grid, 6, seed=11)
        h = grid.h
        sig = np.asarray(model.sigma)
        expect = np.empty_like(batch.states)
        expect[:, 0, :] = 10.0
        for i in range(grid.n_fine):
            x = expect[:, i, :]
            expect[:, i + 1, :] = x + model.rate * x * h \
                + sig * x * batch.brownian_fine[:, i, :]
        np.testing.assert_array_equal(batch.states, expect)

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
        np.testing.assert_array_equal(big.brownian_fine[5:8], small.brownian_fine)

    def test_geometric_terminal_mean_matches_moment(self):
        # E[X_T] for the exact dynamics is x0 * exp(r T); the Euler drift
        # compounds to x0 * (1 + r h)^n, well inside three standard errors
        model = sde.ModelSpec.geometric(100.0, 0.05, 0.15)
        grid = sde.GridSpec(1.0, 50, 10)
        batch = sde.simulate_batch(model, grid, 100_000, seed=7)
        terminal = batch.states[:, -1, 0]
        se = terminal.std(ddof=1) / np.sqrt(len(terminal))
        assert abs(terminal.mean() - 100.0 * np.exp(0.05)) < 3.0 * se


class TestCoarsen:
    def test_unit_segment_ratio_is_identity(self):
        model = sde.ModelSpec.arithmetic_unit(0.0)
        grid = sde.GridSpec(1.0, 6, 6)
        batch = sde.simulate_batch(model, grid, 2, seed=5)
        cs, cw = sde.coarsen(batch)
        np.testing.assert_array_equal(cs, batch.states)
        np.testing.assert_array_equal(cw, batch.brownian_fine)

    def test_snapshot_indices(self):
        model = sde.ModelSpec.arithmetic_unit(0.0)
        grid = sde.GridSpec(1.0, 4, 2)
        batch = sde.simulate_batch(model, grid, 3, seed=5)
        cs, _ = sde.coarsen(batch)
        np.testing.assert_array_equal(cs, batch.states[:, [0, 2, 4], :])

    def test_coarse_increments_telescope_to_terminal_displacement(self):
        model = sde.ModelSpec.arithmetic_unit(0.0, dim=2)
        grid = sde.GridSpec(1.0, 60, 12)
        batch = sde.simulate_batch(model, grid, 4, seed=9)
        _, cw = sde.coarsen(batch)
        np.testing.assert_allclose(cw.sum(axis=1),
                                   batch.brownian_fine.sum(axis=1),
                                   rtol=1e-12, atol=1e-15)

    def test_mismatched_grid_rejected(self):
        model = sde.ModelSpec.arithmetic_unit(0.0)
        batch = sde.simulate_batch(model, sde.GridSpec(1.0, 8, 4), 2, seed=1)
        with pytest.raises(sde.GridError):
            sde.coarsen(batch, sde.GridSpec(1.0, 16, 4))


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


class TestRefinementProperties:
    def test_refining_never_increases_discrete_minimum(self, rng):
        # common Brownian tree: finer grids pass through the coarse nodes
        fine_incs = rng.standard_normal((3, 64, 1)) * np.sqrt(1.0 / 64)
        model = sde.ModelSpec.arithmetic_unit(0.0)
        mins = []
        for level in range(3):
            step = 4 // (2 ** level)  # 16, 32, 64 steps
            incs = fine_incs.reshape(3, 64 // step, step, 1).sum(axis=2)
            states = sde._euler_states(model, 1.0 / incs.shape[1], incs)
            mins.append(states.min(axis=1))
        assert np.all(mins[1] <= mins[0] + 1e-12)
        assert np.all(mins[2] <= mins[1] + 1e-12)

    def test_strong_error_decreases_on_common_noise(self, rng):
        # mean-square endpoint error against the exact solution driven by
        # the same Brownian increments, geometric model
        model = sde.ModelSpec.geometric(1.0, 0.05, 0.4)
        n_fine, paths = 256, 4000
        incs = rng.standard_normal((paths, n_fine, 1)) * np.sqrt(1.0 / n_fine)
        w_total = incs.sum(axis=(1, 2))
        exact = np.exp((0.05 - 0.5 * 0.4 ** 2) + 0.4 * w_total)
        errors = []
        for step in (4, 2, 1):
            coarse = incs.reshape(paths, n_fine // step, step, 1).sum(axis=2)
            states = sde._euler_states(model, step / n_fine, coarse)
            errors.append(np.mean((states[:, -1, 0] - exact) ** 2))
        assert errors[0] > errors[1] > errors[2]
