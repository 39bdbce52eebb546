import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sigfbsde import net, sde
from sigfbsde.sigcore import engine
from conftest import central_difference, signature, whole_path_vjp


def preactivations(params, x):
    """Every layer's preactivation of a stack, computed from the parameters."""
    pre, h = [], x
    for w, b in zip(params.weights, params.biases):
        pre.append(h @ w + b)
        h = np.maximum(pre[-1], 0.0)
    return pre


def random_mlp(rng, spec, n_nets=1, seed=0, kink_margin=1e-2, tries=50):
    """A random stack of ``n_nets`` and an input ``(n_nets, 4, in_dim)`` whose
    preactivations stay clear of relu kinks."""
    x = rng.uniform(-1.0, 1.0, size=(n_nets, 4, spec.in_dim))
    for attempt in range(tries):
        first = seed + attempt * n_nets
        params = net.init_mlp(spec, range(first, first + n_nets), zero_output=False)
        if min(np.abs(z).min() for z in preactivations(params, x)) > kink_margin:
            return params, x
    raise AssertionError("could not find a kink-free probe point")


class TestMlpForward:
    def test_zero_weights_yield_final_bias(self):
        spec = net.MlpSpec(3, 2, hidden=(4,))
        params = net.init_mlp(spec, [0])
        for w in params.weights:
            w[:] = 0.0
        params.biases[-1][:] = [1.5, -2.5]
        out, _ = net.mlp_forward(params, np.ones((1, 5, 3)))
        np.testing.assert_array_equal(out, np.tile([1.5, -2.5], (1, 5, 1)))

    def test_width_mismatch_rejected(self):
        params = net.init_mlp(net.MlpSpec(3, 1), [0])
        with pytest.raises(ValueError):
            net.mlp_forward(params, np.ones((1, 2, 4)))

    def test_zero_output_initialisation(self, rng):
        params = net.init_mlp(net.MlpSpec(6, 2), [1])
        out, _ = net.mlp_forward(params, rng.standard_normal((1, 7, 6)))
        assert np.all(out == 0.0)

    def test_initialisation_is_deterministic(self):
        a = net.init_mlp(net.MlpSpec(5, 3), [123], zero_output=False)
        b = net.init_mlp(net.MlpSpec(5, 3), [123], zero_output=False)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    @pytest.mark.parametrize("zero_output", [False, True])
    def test_net_of_a_stack_is_its_own_seeds_stack_of_one(self, zero_output):
        # net n draws from its own seed only, whatever the other seeds
        spec = net.MlpSpec(4, 2, hidden=(5, 3))
        seeds = [7, 1, 7, 2 ** 40]
        stacked = net.init_mlp(spec, seeds, zero_output=zero_output)
        for n, seed in enumerate(seeds):
            alone = net.init_mlp(spec, [seed], zero_output=zero_output)
            for whole, part in zip(stacked.parameters(), alone.parameters()):
                assert whole[n:n + 1].tobytes() == part.tobytes()


class TestMlpBackward:
    def test_zero_cotangent_gives_zero_gradients(self, rng):
        spec = net.MlpSpec(4, 2, hidden=(5,))
        params = net.init_mlp(spec, [2], zero_output=False)
        x = rng.standard_normal((1, 3, 4))
        out, cache = net.mlp_forward(params, x)
        grads, gx = net.mlp_backward(params, cache, np.zeros_like(out), True)
        assert all(np.all(g == 0.0) for g in grads)
        assert np.all(gx == 0.0)

    def test_linear_net_parameter_gradient_is_outer_product(self, rng):
        spec = net.MlpSpec(3, 2, hidden=())
        params = net.init_mlp(spec, [3], zero_output=False)
        x = rng.standard_normal((1, 6, 3))
        cot = rng.standard_normal((1, 6, 2))
        out, cache = net.mlp_forward(params, x)
        grads, gx = net.mlp_backward(params, cache, cot, True)
        np.testing.assert_allclose(grads[0][0], x[0].T @ cot[0], rtol=1e-12)
        np.testing.assert_allclose(grads[1][0, 0], cot[0].sum(axis=0), rtol=1e-12)
        np.testing.assert_allclose(gx[0], cot[0] @ params.weights[0][0].T, rtol=1e-12)

    def test_gradients_match_finite_differences(self, rng):
        spec = net.MlpSpec(5, 2, hidden=(8, 8))
        params, x = random_mlp(rng, spec, seed=10)
        cot = rng.standard_normal((1, 4, 2))

        def loss_at(_):
            out, _ = net.mlp_forward(params, x)
            return float(np.sum(out * cot))

        _, cache = net.mlp_forward(params, x)
        grads, gx = net.mlp_backward(params, cache, cot, True)
        for arr, grad in zip(params.parameters(), grads):
            np.testing.assert_allclose(grad, central_difference(loss_at, arr),
                                       rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(gx, central_difference(loss_at, x), rtol=1e-5, atol=1e-6)

    def test_backward_leaves_input_and_output_intact(self, rng):
        # the pass spends the hidden layers of the cache, nothing else
        params = net.init_mlp(net.MlpSpec(3, 2, hidden=(4, 5)), [6], zero_output=False)
        x = rng.standard_normal((1, 6, 3))
        out, cache = net.mlp_forward(params, x)
        x_before, out_before = x.copy(), out.copy()
        net.mlp_backward(params, cache, rng.standard_normal((1, 6, 2)), True)
        assert np.array_equal(x, x_before) and np.array_equal(out, out_before)

    def test_cotangent_shape_checked(self, rng):
        params = net.init_mlp(net.MlpSpec(3, 2), [0])
        _, cache = net.mlp_forward(params, rng.standard_normal((1, 2, 3)))
        with pytest.raises(ValueError):
            net.mlp_backward(params, cache, np.zeros((1, 2, 5)), True)

    def test_skipped_input_gradient_leaves_parameter_gradients_bitwise(self, rng):
        spec = net.MlpSpec(4, 2, hidden=(6, 5))
        stacked = net.init_mlp(spec, [30, 31, 32], zero_output=False)
        x = rng.standard_normal((3, 7, 4))
        cot = rng.standard_normal((3, 7, 2))
        grads, gx = net.mlp_backward(stacked, net.mlp_forward(stacked, x)[1], cot, True)
        kept, none = net.mlp_backward(stacked, net.mlp_forward(stacked, x)[1], cot, False)
        assert gx.shape == x.shape and none is None
        for g, k in zip(grads, kept):
            assert np.array_equal(g, k)

    @pytest.mark.parametrize("n_nets", [1, 3])
    def test_gradients_written_in_place_are_bitwise(self, rng, n_nets):
        # into C-contiguous views of one flat buffer, as a training step passes them
        spec = net.MlpSpec(4, 2, hidden=(6, 5))
        params = net.init_mlp(spec, range(40, 40 + n_nets), zero_output=False)
        x = rng.standard_normal((n_nets, 7, 4))
        cot = rng.standard_normal((n_nets, 7, 2))
        grads, _ = net.mlp_backward(params, net.mlp_forward(params, x)[1], cot, False)
        shapes = [p.shape for p in params.parameters()]
        flat = np.full(sum(int(np.prod(s)) for s in shapes), np.nan)
        chunks = np.split(flat, np.cumsum([int(np.prod(s)) for s in shapes])[:-1])
        views = [c.reshape(s) for c, s in zip(chunks, shapes)]
        written, _ = net.mlp_backward(params, net.mlp_forward(params, x)[1], cot, False,
                                      out=views)
        assert len(written) == len(views)
        assert all(w is v for w, v in zip(written, views))
        for g, v in zip(grads, views):
            assert g.shape == v.shape and g.tobytes() == v.tobytes()

    def test_gradient_outputs_checked(self, rng):
        params = net.init_mlp(net.MlpSpec(3, 2, hidden=(4,)), [0], zero_output=False)
        _, cache = net.mlp_forward(params, rng.standard_normal((1, 5, 3)))
        out = [np.empty(p.shape) for p in params.parameters()]
        out[0] = np.empty(out[0].shape[::-1]).T   # right shape, not C-contiguous
        with pytest.raises(ValueError):
            net.mlp_backward(params, cache, np.zeros((1, 5, 2)), False, out=out)


def assert_stack_matches_separate_nets(spec, seeds, x, cot):
    """Forward and backward of a stack over ``seeds`` equal, bit for bit,
    those of each seed's stack of one on its own date."""
    stacked = net.init_mlp(spec, seeds, zero_output=False)
    out, cache = net.mlp_forward(stacked, x)
    grads, gx = net.mlp_backward(stacked, cache, cot, True)
    for n, seed in enumerate(seeds):
        alone = net.init_mlp(spec, [seed], zero_output=False)
        out_n, cache_n = net.mlp_forward(alone, x[n:n + 1])
        grads_n, gx_n = net.mlp_backward(alone, cache_n, cot[n:n + 1], True)
        assert np.array_equal(out[n:n + 1], out_n)
        assert np.array_equal(gx[n:n + 1], gx_n)
        for g, g_n in zip(grads, grads_n):
            assert np.array_equal(g[n:n + 1], g_n)


class TestStackedMlp:
    def test_stack_is_bit_equal_to_separate_nets(self, rng):
        spec = net.MlpSpec(5, 2, hidden=(8, 6))
        assert_stack_matches_separate_nets(
            spec, range(10, 14), rng.standard_normal((4, 7, 5)),
            rng.standard_normal((4, 7, 2)))

    def test_relu_masks_in_chunks_of_dates(self, rng):
        # one block, two dates per sub-block, the last sub-block holding one
        rows = net.SUB_BLOCK_ROWS // 2 - 1
        with mock.patch.object(sde, "thread_count", lambda: 1):
            assert_stack_matches_separate_nets(
                net.MlpSpec(3, 2, hidden=(6, 5)), range(5),
                rng.standard_normal((5, rows, 3)), rng.standard_normal((5, rows, 2)))

    def test_stack_layout(self):
        spec = net.MlpSpec(3, 2, hidden=(4,))
        stacked = net.init_mlp(spec, range(5))
        assert [w.shape for w in stacked.weights] == [(5, 3, 4), (5, 4, 2)]
        assert [b.shape for b in stacked.biases] == [(5, 1, 4), (5, 1, 2)]
        assert [w.shape for w in net.init_mlp(spec, [0]).weights] == [(1, 3, 4), (1, 4, 2)]

    def test_input_must_carry_the_stack_axis(self, rng):
        stacked = net.init_mlp(net.MlpSpec(3, 1), range(2))
        for shape in [(3, 4, 3), (4, 3), (2, 1, 4, 3), (2, 4, 2)]:
            with pytest.raises(ValueError):
                net.mlp_forward(stacked, rng.standard_normal(shape))

    def test_gradients_match_finite_differences(self, rng):
        spec = net.MlpSpec(3, 2, hidden=(6, 5))
        stacked, x = random_mlp(rng, spec, n_nets=3)
        cot = rng.standard_normal((3, 4, 2))

        def loss_at(_):
            out, _ = net.mlp_forward(stacked, x)
            return float(np.sum(out * cot))

        _, cache = net.mlp_forward(stacked, x)
        grads, gx = net.mlp_backward(stacked, cache, cot, True)
        for arr, grad in zip(stacked.parameters(), grads):
            np.testing.assert_allclose(grad, central_difference(loss_at, arr),
                                       rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(gx, central_difference(loss_at, x),
                                   rtol=1e-5, atol=1e-6)

    @given(n_nets=st.integers(1, 5), batch=st.integers(1, 7),
           widths=st.lists(st.integers(1, 6), min_size=2, max_size=4),
           seed=st.integers(0, 2 ** 16))
    def test_stack_property(self, n_nets, batch, widths, seed):
        rng = np.random.default_rng(seed)
        spec = net.MlpSpec(widths[0], widths[-1], hidden=tuple(widths[1:-1]))
        assert_stack_matches_separate_nets(
            spec, range(seed, seed + n_nets),
            rng.standard_normal((n_nets, batch, spec.in_dim)),
            rng.standard_normal((n_nets, batch, spec.out_dim)))


def stack_run(stacked, x, cot, need_input_grad, threads):
    """Stacked forward and backward with ``thread_count`` pinned to ``threads``."""
    with mock.patch.object(sde, "thread_count", lambda: threads):
        out, cache = net.mlp_forward(stacked, x)
        out = out.copy()   # the backward pass spends the cache, output included
        grads, gx = net.mlp_backward(stacked, cache, cot, need_input_grad)
    return out, grads, gx


class TestDateBlocks:
    """A stack of enough rows (dates times paths) runs on date blocks over
    threads without changing a bit.

    ``thread_count`` is pinned to 3, so blocks are uneven and there can be
    more threads than dates.  A short switch interval makes the threads
    interleave as often as they can.
    """

    @given(n_dates=st.integers(1, 7), extra_rows=st.integers(0, 3),
           widths=st.lists(st.integers(1, 6), min_size=2, max_size=4),
           need_input_grad=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_split_stack_is_bit_equal_to_one_block(self, n_dates, extra_rows, widths,
                                                   need_input_grad, seed):
        rng = np.random.default_rng(seed)
        spec = net.MlpSpec(widths[0], widths[-1], hidden=tuple(widths[1:-1]))
        stacked = net.init_mlp(spec, range(seed, seed + n_dates), zero_output=False)
        rows = 3 * net.PARALLEL_MIN_ROWS // n_dates + 1 + extra_rows   # three blocks' worth
        # the solver's features are a strided view, date-major over path-major data
        x = np.moveaxis(rng.standard_normal((rows, n_dates + 1, spec.in_dim))[:, :n_dates],
                        0, 1)
        cot = rng.standard_normal((n_dates, rows, spec.out_dim))
        with mock.patch.object(sde, "thread_count", lambda: 3):
            assert len(net._date_blocks(x)) == min(3, n_dates)
        one = stack_run(stacked, x, cot, need_input_grad, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            split = stack_run(stacked, x, cot, need_input_grad, 3)
        finally:
            sys.setswitchinterval(interval)
        assert one[0].tobytes() == split[0].tobytes()
        for g_one, g_split in zip(one[1], split[1]):
            assert g_one.shape == g_split.shape and g_one.tobytes() == g_split.tobytes()
        if need_input_grad:
            assert one[2].tobytes() == split[2].tobytes()
        else:
            assert one[2] is None and split[2] is None

    @pytest.mark.parametrize("n_dates,rows,threads,blocks", [
        (20, 100, 2, 1),    # lookback: thin dates
        (5, 1000, 2, 2),    # embedded quadratic
        (20, 1000, 2, 2),   # amerasian
        (1, 10 ** 5, 2, 1),
        (2, 4096, 3, 2),    # more threads than dates
        (3, 2048, 3, 3),
        (3, 2047, 3, 2),
    ])
    def test_one_block_per_min_rows(self, n_dates, rows, threads, blocks):
        with mock.patch.object(sde, "thread_count", lambda: threads):
            cuts = net._date_blocks(np.empty((n_dates, rows, 3)))
        assert len(cuts) == blocks and cuts[0][0] == 0 and cuts[-1][1] == n_dates
        assert all(a == b for (_, a), (b, _) in zip(cuts, cuts[1:]))

    def test_split_peak_memory_matches_one_block(self, rng):
        spec = net.MlpSpec(8, 2)
        stacked = net.init_mlp(spec, range(6), zero_output=False)
        rows = net.PARALLEL_MIN_ROWS // 3 + 1   # two blocks of three dates
        x = rng.standard_normal((6, rows, 8))
        cot = rng.standard_normal((6, rows, 2))
        with mock.patch.object(sde, "thread_count", lambda: 2):
            assert len(net._date_blocks(x)) == 2
        stack_run(stacked, x, cot, True, 2)   # warm up the pool's imports
        peaks = {}
        for threads in (1, 2):
            tracemalloc.start()
            try:
                stack_run(stacked, x, cot, True, threads)
                peaks[threads] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2] <= 1.1 * peaks[1]


class TestSubBlocks:
    """Each date block runs through buffers of a few dates, and the backward
    pass recomputes every sub-block but the last, without changing a bit."""

    @given(n_dates=st.integers(1, 7), extra_rows=st.integers(0, 3),
           widths=st.lists(st.integers(1, 6), min_size=2, max_size=4),
           need_input_grad=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_sub_block_bound_changes_no_bit(self, n_dates, extra_rows, widths,
                                            need_input_grad, seed):
        rng = np.random.default_rng(seed)
        spec = net.MlpSpec(widths[0], widths[-1], hidden=tuple(widths[1:-1]))
        stacked = net.init_mlp(spec, range(seed, seed + n_dates), zero_output=False)
        rows = 3 * net.PARALLEL_MIN_ROWS // n_dates + 1 + extra_rows   # three blocks' worth
        x = np.moveaxis(rng.standard_normal((rows, n_dates + 1, spec.in_dim))[:, :n_dates],
                        0, 1)
        cot = rng.standard_normal((n_dates, rows, spec.out_dim))
        runs = []
        # one date per sub-block, and every date of a block in one sub-block
        for bound in (1, 3 * n_dates * rows):
            with mock.patch.object(net, "SUB_BLOCK_ROWS", bound):
                for threads in (1, 3):
                    runs.append(stack_run(stacked, x, cot, need_input_grad, threads))
        first, *others = runs
        for other in others:
            assert first[0].tobytes() == other[0].tobytes()
            for g_first, g_other in zip(first[1], other[1]):
                assert g_first.tobytes() == g_other.tobytes()
            if need_input_grad:
                assert first[2].tobytes() == other[2].tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_peak_memory_is_below_one_layer_of_the_stack(self, rng, threads):
        # amerasian's stack: 20 dates of 1000 paths, two hidden layers of 64
        spec = net.MlpSpec(3, 1, hidden=(64, 64))
        stacked = net.init_mlp(spec, range(20), zero_output=False)
        x = rng.standard_normal((20, 1000, 3))
        cot = rng.standard_normal((20, 1000, 1))
        stack_run(stacked, x, cot, True, threads)   # warm up the pool's imports
        with mock.patch.object(sde, "thread_count", lambda: threads):
            tracemalloc.start()
            try:
                out, cache = net.mlp_forward(stacked, x)
                net.mlp_backward(stacked, cache, cot, True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 20 * 1000 * 64 * 8


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        param = np.array([[1.0, -2.0], [0.5, 0.0]])
        state = net.init_adam(param, lr=0.01)
        net.adam_step(state, param, np.zeros((2, 2)))
        np.testing.assert_array_equal(param, [[1.0, -2.0], [0.5, 0.0]])

    def test_first_step_is_signed_learning_rate(self):
        param = np.array([1.0, 1.0])
        state = net.init_adam(param, lr=1e-3)
        g = np.array([0.37, -42.0])
        net.adam_step(state, param, g)
        # bias-corrected first step: lr * g / (|g| + eps) ~ lr * sign(g)
        np.testing.assert_allclose(param - 1.0, -1e-3 * g / (np.abs(g) + 1e-8), rtol=1e-12)

    def test_repeated_identical_gradients_never_grow_the_step(self):
        # closed form: with bias correction the step stays exactly constant
        param = np.array([0.0])
        state = net.init_adam(param, lr=1e-3)
        g = np.array([2.0])
        net.adam_step(state, param, g)
        first = abs(param[0])
        net.adam_step(state, param, g)
        second = abs(param[0] - -first)
        assert second <= first * (1.0 + 1e-12)

    def test_step_counter_advances(self):
        param = np.zeros(1)
        state = net.init_adam(param, lr=0.1)
        assert net.adam_step(state, param, np.ones(1)) is None
        net.adam_step(state, param, np.ones(1))
        assert state.step == 2

    def test_one_flat_buffer_steps_like_separate_arrays(self, rng):
        shapes = [(3, 4), (4,), (), (2, 1)]
        arrays = [rng.standard_normal(shape) for shape in shapes]
        flat = np.concatenate([a.ravel() for a in arrays])
        states = [net.init_adam(a, lr=1e-2) for a in arrays]
        flat_state = net.init_adam(flat, lr=1e-2)
        for _ in range(4):
            grads = [rng.standard_normal(shape) for shape in shapes]
            for state, a, g in zip(states, arrays, grads):
                net.adam_step(state, a, g)
            net.adam_step(flat_state, flat, np.concatenate([g.ravel() for g in grads]))
        assert np.array_equal(flat, np.concatenate([a.ravel() for a in arrays]))


class TestEmbedding:
    def test_identity_map_preserves_stream(self, rng):
        stream = rng.standard_normal((2, 5, 3))
        np.testing.assert_array_equal(net.embed_stream(np.eye(3), stream), stream)

    def test_gradient_is_the_stream_product(self, rng):
        stream = rng.standard_normal((7, 11, 3))
        cot = rng.standard_normal((7, 11, 2))
        expect = stream.reshape(-1, 3).T @ cot.reshape(-1, 2)
        np.testing.assert_allclose(net.embed_backward(stream, cot), expect,
                                   rtol=1e-14, atol=0)

    def test_channel_mismatch_rejected(self, rng):
        weight = net.init_embedding(4, 2, 0)
        with pytest.raises(ValueError):
            net.embed_stream(weight, rng.standard_normal((3, 5)))

    def test_end_to_end_gradient_through_signature(self, rng):
        # embed -> time-augment -> signature, gradient checked by differences
        depth = 2
        weight = net.init_embedding(3, 2, 7)
        stream = rng.uniform(-1.0, 1.0, size=(5, 3))
        times = np.linspace(0.0, 1.0, 5)
        cot = rng.standard_normal(engine.sig_width(3, depth))

        def objective(_):
            embedded = net.embed_stream(weight, stream)
            nodes = np.concatenate([times[:, None], embedded], axis=1)
            return float(cot @ engine.flatten_levels(signature(nodes, depth)))

        embedded = net.embed_stream(weight, stream)
        nodes = np.concatenate([times[:, None], embedded], axis=1)
        node_grads = engine.increments_to_nodes_grad(whole_path_vjp(
            np.diff(nodes, axis=0), engine.split_flat(cot, 3, depth)))
        grad = net.embed_backward(stream, node_grads[:, 1:])

        numeric_w = central_difference(lambda _: objective(None), weight)
        np.testing.assert_allclose(grad, numeric_w, rtol=1e-5, atol=1e-6)
