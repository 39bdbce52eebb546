import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from sigfbsde import oracle, sde

# frozen by two independent evaluations: the closed formula below and
# numerical integration of the terminal/minimum joint law
LOOKBACK_REFERENCE = 5.828175


class TestNormCdf:
    def test_symmetry_point(self):
        assert oracle.norm_cdf(0.0) == 0.5

    def test_reflection_identity(self, rng):
        for x in rng.uniform(-4.0, 4.0, size=20):
            assert abs(oracle.norm_cdf(-x) - (1.0 - oracle.norm_cdf(x))) < 1e-12

    def test_upper_quantile(self):
        assert abs(oracle.norm_cdf(1.959964) - 0.975) < 1e-6


class TestLookbackPrice:
    def test_at_the_money_reference_value(self):
        p = oracle.LookbackParams(10.0, 10.0, 0.01, 1.0, 1.0)
        assert abs(oracle.lookback_price(p) - LOOKBACK_REFERENCE) < 5e-4

    def test_zero_remaining_time_pays_intrinsic(self):
        p = oracle.LookbackParams(10.0, 7.0, 0.01, 1.0, 0.0)
        assert oracle.lookback_price(p) == 3.0

    def test_price_is_homogeneous_in_spot_and_minimum(self, rng):
        base = oracle.LookbackParams(10.0, 8.0, 0.05, 0.4, 0.7)
        value = oracle.lookback_price(base)
        for lam in rng.uniform(0.2, 5.0, size=10):
            scaled = oracle.LookbackParams(10.0 * lam, 8.0 * lam, 0.05, 0.4, 0.7)
            assert abs(oracle.lookback_price(scaled) - lam * value) < 1e-9 * lam

    def test_domain_violations_rejected(self):
        with pytest.raises(oracle.OracleDomainError):
            oracle.LookbackParams(10.0, 11.0, 0.01, 1.0, 1.0)
        with pytest.raises(oracle.OracleDomainError):
            oracle.LookbackParams(10.0, 10.0, 0.0, 1.0, 1.0)


class TestLookbackDiscretePrice:
    def test_matches_same_grid_monte_carlo(self):
        # on 25 steps the correction is -0.52, about 6.6 standard errors here
        n_fine, paths = 25, 20_000
        p = oracle.LookbackParams(10.0, 10.0, 0.01, 1.0, 1.0)
        model = sde.ModelSpec.geometric(10.0, 0.01, 1.0)
        states = sde.simulate_batch(model, sde.GridSpec(1.0, n_fine, 1), paths,
                                    seed=1).states[:, :, 0]
        pay = math.exp(-0.01) * (states[:, -1] - states.min(axis=1))
        se = pay.std(ddof=1) / math.sqrt(paths)
        assert abs(pay.mean() - oracle.lookback_discrete_price(p, n_fine)) < 4.0 * se
        assert abs(pay.mean() - oracle.lookback_price(p)) > 4.0 * se

    def test_tends_to_closed_form_as_monitoring_refines(self):
        p = oracle.LookbackParams(10.0, 10.0, 0.01, 1.0, 1.0)
        gaps = [abs(oracle.lookback_discrete_price(p, n) - oracle.lookback_price(p))
                for n in (10, 100, 1000, 10 ** 4, 10 ** 6)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 3e-3

    def test_monitoring_steps_must_be_positive(self):
        p = oracle.LookbackParams(10.0, 10.0, 0.01, 1.0, 1.0)
        with pytest.raises(oracle.OracleDomainError):
            oracle.lookback_discrete_price(p, 0)

class TestQuadraticSolution:
    def test_value_at_origin_is_dimension_thirds(self):
        assert abs(oracle.quadratic_pde_solution(0.0, np.zeros((1, 20)), 1.0)
                   - 20.0 / 3.0) < 1e-12
        assert abs(oracle.quadratic_pde_solution(0.0, np.zeros((1, 100)), 1.0)
                   - 100.0 / 3.0) < 1e-12

    def test_terminal_value_matches_payoff(self, rng):
        for _ in range(5):
            prefix = rng.standard_normal((41, 3))
            batch_states = prefix[None, :, :]
            grid = sde.GridSpec(1.0, 40, 4)
            pb = sde.PathBatch(batch_states, np.zeros((1, 4, 3)), grid)
            payoff = sde.running_integral(pb, np.ones(3))[0, -1] ** 2
            value = oracle.quadratic_pde_solution(1.0, prefix, 1.0)
            assert abs(value - payoff) < 1e-10 * max(1.0, payoff)

    def test_time_domain_checked(self):
        with pytest.raises(oracle.OracleDomainError):
            oracle.quadratic_pde_solution(2.0, np.zeros((3, 1)), 1.0)

    def test_grid_value_matches_direct_sum(self):
        for n in range(1, 9):
            for d, x0 in ((1, 0.0), (3, 0.7)):
                h = 1.5 / n
                pairs = sum(min(i, j) for i in range(n) for j in range(n))
                direct = d * h ** 3 * pairs + (d * x0 * 1.5) ** 2
                value = oracle.quadratic_grid_value(d, x0, n, 1.5)
                assert abs(value - direct) < 1e-12 * max(1.0, direct)

    def test_grid_value_is_mean_of_simulated_payoff(self):
        model = sde.ModelSpec.arithmetic_unit(0.5, dim=2)
        grid = sde.GridSpec(1.0, 8, 2)
        batch = sde.simulate_batch(model, grid, 20000, seed=3)
        payoff = sde.running_integral(batch, np.ones(2))[:, -1] ** 2
        se = payoff.std(ddof=1) / math.sqrt(payoff.size)
        assert abs(payoff.mean() - oracle.quadratic_grid_value(2, 0.5, 8, 1.0)) < 4.0 * se

    def test_grid_value_tends_to_continuous_solution(self):
        continuous = oracle.quadratic_pde_solution(0.0, np.full((1, 4), 0.3), 2.0)
        fine = oracle.quadratic_grid_value(4, 0.3, 100_000, 2.0)
        assert abs(fine - continuous) < 1e-4 * continuous


class TestAsianEuropeanMc:
    def test_zero_volatility_matches_deterministic_quadrature(self):
        model = sde.ModelSpec.geometric(100.0, 0.05, 0.0)
        grid = sde.GridSpec(1.0, 1000, 20)
        est, se = oracle.asian_european_mc(model, grid, 100.0,
                                           [1.0], 1000, seed=5)
        # left-rule average of 100 e^{r t_i} over t_i = i h, i < n
        n, h = grid.n_fine, grid.h
        avg = 100.0 * math.expm1(0.05 * n * h) / (n * math.expm1(0.05 * h))
        expect = math.exp(-0.05) * (avg - 100.0)
        assert se <= 1e-8  # identical paths, variance is rounding noise
        assert abs(est - expect) < 1e-9
        # the left rule undershoots the continuous bound only slightly
        assert abs(est - 2.418) < 1e-2

    def test_zero_strike_recovers_discounted_average(self):
        model = sde.ModelSpec.geometric(100.0, 0.05, 0.15)
        grid = sde.GridSpec(1.0, 100, 10)
        est, se = oracle.asian_european_mc(model, grid, 0.0, [1.0],
                                           40_000, seed=6)
        expect = 100.0 * (1.0 - math.exp(-0.05)) / 0.05
        assert abs(est - expect) < 3.0 * se + 0.05

    def test_standard_error_halves_with_four_times_paths(self):
        model = sde.ModelSpec.geometric(100.0, 0.05, 0.15)
        grid = sde.GridSpec(1.0, 50, 10)
        _, se_small = oracle.asian_european_mc(model, grid, 100.0, [1.0],
                                               8_000, seed=7)
        _, se_big = oracle.asian_european_mc(model, grid, 100.0, [1.0],
                                             32_000, seed=7)
        ratio = se_small / se_big
        assert 1.6 <= ratio <= 2.4

    def test_estimate_is_bit_equal_on_any_thread_count(self):
        # five blocks, the last one partial, split over one to three threads;
        # the seed is a uint64 above 2**63, as solver.derive_seed gives
        model = sde.ModelSpec.geometric((90.0, 110.0), 0.05, (0.15, 0.25))
        grid = sde.GridSpec(1.0, 20, 4)
        runs = []
        for threads in (1, 2, 3):
            with mock.patch.object(sde, "thread_count", lambda: threads):
                runs.append(oracle.asian_european_mc(model, grid, 100.0, [0.5, 0.5],
                                                     20_000, seed=2 ** 64 - 8))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("dim", [1, 3])
    def test_estimate_is_bit_equal_whatever_the_sub_batch(self, dim):
        model = sde.ModelSpec.geometric(100.0, 0.05, 0.2, dim=dim)
        grid = sde.GridSpec(1.0, 40, 4)
        runs = []
        for paths in (7, 512, 4096):
            with mock.patch.object(oracle, "SUB_BATCH_PATHS", paths):
                runs.append(oracle.asian_european_mc(model, grid, 100.0,
                                                     np.full(dim, 1.0 / dim), 2500,
                                                     seed=10))
        assert runs[0] == runs[1] == runs[2]

    def test_peak_memory_is_below_one_block_of_states(self):
        model = sde.ModelSpec.geometric(100.0, 0.05, 0.2)
        grid = sde.GridSpec(1.0, 200, 20)
        oracle.asian_european_mc(model, grid, 100.0, [1.0], 1000, seed=11)   # warm up
        tracemalloc.start()
        try:
            oracle.asian_european_mc(model, grid, 100.0, [1.0], 4096, seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < oracle.BLOCK_PATHS * (grid.n_fine + 1) * 8   # one block's states

    def test_two_threads_peak_below_the_per_path_oracle_on_one_thread(self):
        # 1,716,734 bytes: this call's peak on one thread when every path had
        # its own Philox key and 512-path sub-batches were simulated whole
        model = sde.ModelSpec.geometric(100.0, 0.05, 0.2)
        grid = sde.GridSpec(1.0, 200, 20)
        with mock.patch.object(sde, "thread_count", lambda: 2):
            oracle.asian_european_mc(model, grid, 100.0, [1.0], 1000, seed=11)   # warm up
            tracemalloc.start()
            try:
                oracle.asian_european_mc(model, grid, 100.0, [1.0], 10_000, seed=11)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1_716_734

    def test_terminal_sum_matches_running_integral(self):
        # zero strike on positive paths: the estimate is the discounted mean
        # of the terminal average, which running_integral also gives on
        # block 0's paths, drawn here from the block's one stream
        model = sde.ModelSpec.geometric((90.0, 110.0), 0.05, (0.15, 0.25))
        grid = sde.GridSpec(2.0, 60, 6)
        w = np.array([0.3, 0.7])
        est, _ = oracle.asian_european_mc(model, grid, 0.0, w, 3000, seed=9)
        gen = np.random.Generator(np.random.Philox(key=[9, 0]))
        states = np.empty((3000, grid.n_fine + 1, 2))
        states[:, 1:] = gen.standard_normal((3000, grid.n_fine, 2)) * math.sqrt(grid.h)
        sde._step_states(model, grid.h, states)
        batch = sde.PathBatch(states, np.empty((3000, grid.n_coarse, 2)), grid)
        terminal = sde.running_integral(batch, w)[:, -1]
        expect = math.exp(-0.05 * 2.0) * np.mean(terminal) / grid.horizon
        assert abs(est - expect) <= 1e-13 * expect

    def test_path_floor_enforced(self):
        model = sde.ModelSpec.geometric(100.0, 0.05, 0.15)
        with pytest.raises(ValueError):
            oracle.asian_european_mc(model, sde.GridSpec(1.0, 10, 2),
                                     100.0, [1.0], 500, seed=0)


class TestJensenBound:
    def test_reference_parameters(self):
        model = sde.ModelSpec.geometric(100.0, 0.05, 0.15)
        assert abs(oracle.jensen_lower_bound(model, 100.0) - 2.418) < 1e-3

    def test_deep_out_of_the_money_is_zero(self):
        model = sde.ModelSpec.geometric(100.0, 0.05, 0.15)
        assert oracle.jensen_lower_bound(model, 150.0) == 0.0

    def test_zero_rate_limit(self):
        model = sde.ModelSpec.geometric(100.0, 0.0, 0.15)
        assert oracle.jensen_lower_bound(model, 40.0) == 60.0

    def test_geometric_model_required(self):
        with pytest.raises(oracle.OracleDomainError):
            oracle.jensen_lower_bound(sde.ModelSpec.arithmetic_unit(1.0), 0.5)


class TestBermudanDp:
    def test_zero_rate_increasing_payoffs_wait(self):
        assert oracle.bermudan_deterministic_dp([0.0, 1.0, 2.0, 3.0],
                                                0.0, 0.25) == 3.0

    def test_heavy_discounting_exercises_immediately(self):
        assert oracle.bermudan_deterministic_dp([5.0, 6.0, 7.0],
                                                1.9, 0.5) == 5.0

    def test_single_date_returns_terminal(self):
        assert oracle.bermudan_deterministic_dp([4.0], 0.05, 0.1) == 4.0
