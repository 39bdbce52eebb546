import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigfbsde import sde
from sigfbsde.sigcore import engine, lyndon
import reference
from conftest import central_difference, signature, whole_path_vjp


def random_levels(rng, batch, channels, depth, scale=0.5):
    return [scale * rng.standard_normal(batch + (channels ** k,))
            for k in range(1, depth + 1)]


def whole_signature(inc, depth):
    """Signature of the whole path: the last slot of a one-checkpoint scan."""
    return [lvl[..., -1, :] for lvl in engine.checkpoint_scan(inc, inc.shape[-2], depth)]


def _outer(a, b):
    return np.einsum("...i,...j->...ij", a, b).reshape(a.shape[:-1] + (-1,))


def product_chain_vjp(increments, every, cot):
    """Reference reverse pass of the checkpoint scan.

    The prefixes are the chain ``prefix_n = prefix_{n-1} ⊗ block_n``, walked
    back one block at a time with ``product_vjp``; each block's cotangent
    then goes through the one-checkpoint reverse pass of that block alone,
    with sums restarted per block.
    """
    d, depth = increments.shape[-1], len(cot)
    blocks = increments.reshape(increments.shape[:-2] + (-1, every, d))
    prefixes = engine.checkpoint_scan(increments, every, depth)
    lower = whole_signature(blocks, depth - 1) if depth > 1 else []
    block_cot = [np.empty_like(c[..., 1:, :]) for c in cot]
    adj = reference.identity_levels(blocks.shape[:-3], d, depth)
    for seg in range(blocks.shape[-3], 0, -1):
        adj = [a + c[..., seg, :] for a, c in zip(adj, cot)]
        adj, g_block = reference.product_vjp([p[..., seg - 1, :] for p in prefixes],
                                             [b[..., seg - 1, :] for b in lower], adj)
        for k in range(depth):
            block_cot[k][..., seg - 1, :] = g_block[k]
    return whole_path_vjp(blocks, block_cot).reshape(increments.shape)


def as_levels(*levels):
    return [np.asarray(lvl, dtype=float) for lvl in levels]


def levels_close(a, b, rtol=1e-12, atol=1e-14):
    return len(a) == len(b) and all(np.allclose(x, y, rtol=rtol, atol=atol)
                                    for x, y in zip(a, b))


class TestSigDim:
    def test_two_channels_depth_two(self):
        assert engine.sig_width(2, 2) == 6

    def test_scalar_depth_three(self):
        assert engine.sig_width(1, 3) == 3

    def test_three_channels_depth_two(self):
        assert engine.sig_width(3, 2) == 12

    def test_matches_geometric_sum(self):
        for d in range(1, 6):
            for m in range(1, 5):
                assert engine.sig_width(d, m) == sum(d ** k for k in range(1, m + 1))

    def test_non_positive_arguments_rejected(self):
        for channels, depth in ((0, 2), (2, 0), (-1, 3)):
            with pytest.raises(ValueError):
                engine.sig_width(channels, depth)


class TestProduct:
    def test_unit_plus_letters(self):
        # (1 + e1)(1 + e2) = 1 + e1 + e2 + e1 e2
        a = as_levels([1.0, 0.0], [0.0] * 4)
        b = as_levels([0.0, 1.0], [0.0] * 4)
        out = reference.product(a, b)
        np.testing.assert_allclose(out[0], [1.0, 1.0])
        np.testing.assert_allclose(out[1], [0.0, 1.0, 0.0, 0.0])

    def test_identity_is_neutral(self, rng):
        for _ in range(10):
            a = random_levels(rng, (), 2, 3)
            e = reference.identity_levels((), 2, 3)
            assert levels_close(reference.product(a, e), a)
            assert levels_close(reference.product(e, a), a)

    def test_scalar_exponentials_compose(self, rng):
        # one-channel exp series multiply by adding increments
        for _ in range(10):
            p, q = rng.standard_normal(2)
            a = engine.exp_of_lie(as_levels([p], [0.0]))
            b = engine.exp_of_lie(as_levels([q], [0.0]))
            out = reference.product(a, b)
            np.testing.assert_allclose(out[0], [p + q], rtol=1e-12)
            np.testing.assert_allclose(out[1], [(p + q) ** 2 / 2.0], rtol=1e-12)

    def test_lie_like_units_keep_only_the_cross_terms(self, rng):
        # with both units 0, v ⊗ v has no level one and v1 ⊗ v1 at level two
        v = random_levels(rng, (3,), 2, 3)
        out = reference.product(v, v, 0.0, 0.0)
        np.testing.assert_array_equal(out[0], 0.0)
        np.testing.assert_allclose(out[1], np.einsum("bi,bj->bij", v[0], v[0])
                                   .reshape(3, 4), rtol=1e-14)

    def test_product_vjp_matches_central_differences(self, rng):
        for unit_a, unit_b in ((1.0, 1.0), (0.0, 1.0), (0.0, 0.0)):
            a = random_levels(rng, (2,), 2, 3)
            b = random_levels(rng, (2,), 2, 3)
            cot = [rng.standard_normal(lvl.shape) for lvl in a]

            def objective(_):
                return float(sum(np.sum(c * lvl) for c, lvl in
                                 zip(cot, reference.product(a, b, unit_a, unit_b))))

            grad_a, grad_b = reference.product_vjp(a, b, cot, unit_a, unit_b)
            for levels, grads in ((a, grad_a), (b, grad_b)):
                for level, grad in zip(levels, grads):
                    np.testing.assert_allclose(grad, central_difference(objective, level),
                                               rtol=1e-6, atol=1e-8)


class TestExp:
    def test_scalar_levels_are_powers_over_factorials(self):
        out = engine.exp_of_lie(as_levels([2.0], [0.0], [0.0]))
        np.testing.assert_allclose(engine.flatten_levels(out), [2.0, 2.0, 4.0 / 3.0],
                                   rtol=1e-14)

    def test_zero_maps_to_identity(self):
        zero = reference.identity_levels((), 3, 2)
        assert levels_close(engine.exp_of_lie(zero), reference.identity_levels((), 3, 2))

    def test_level_two_is_half_outer_product(self):
        out = engine.exp_of_lie(as_levels([1.0, 2.0], [0.0] * 4))
        np.testing.assert_allclose(out[0], [1.0, 2.0])
        np.testing.assert_allclose(out[1], [0.5, 1.0, 1.0, 2.0], rtol=1e-14)


class TestLog:
    def test_log_of_identity_is_zero(self):
        out = engine.log_of_group(reference.identity_levels((), 2, 3))
        assert all(np.all(lvl == 0.0) for lvl in out)

    def test_inverts_exp_on_lie_elements(self, rng):
        for depth in (1, 2, 3):
            for _ in range(5):
                v = random_levels(rng, (), 2, depth)
                assert levels_close(engine.log_of_group(engine.exp_of_lie(v)), v)

    def test_l_shaped_path_gives_antisymmetric_level_two(self):
        right = reference.segment_exp(np.array([1.0, 0.0]), 2)
        up = reference.segment_exp(np.array([0.0, 1.0]), 2)
        log = engine.log_of_group(reference.product(right, up))
        np.testing.assert_allclose(log[1], [0.0, 0.5, -0.5, 0.0], atol=1e-15)


def power_series(s, coeff):
    """``s + Σ_{n≥2} coeff(n)·(s-1)^{⊗n}``, each power a full
    ``reference.product`` with units 0, zero lower levels included."""
    m = len(s)
    acc, power = engine.copy_levels(s), s
    for n in range(2, m + 1):
        power = reference.product(power, s, 0.0, 0.0)
        for k in range(n, m + 1):
            acc[k - 1] = acc[k - 1] + coeff(n) * power[k - 1]
    return acc


def power_chain_log_vjp(s, cot):
    """Reverse pass of :func:`power_series`'s logarithm: every power a full
    ``reference.product`` with units 0, walked back with
    ``reference.product_vjp`` over every level, zero lower levels included."""
    m = len(s)
    powers = [s]
    for _ in range(2, m):
        powers.append(reference.product(powers[-1], s, 0.0, 0.0))
    grad = engine.copy_levels(cot)
    carry = [np.zeros_like(c) for c in cot]
    for n in range(m, 1, -1):
        coeff = (-1.0) ** (n + 1) / n
        g_power = [coeff * c + g for c, g in zip(cot, carry)]
        carry, g_s = reference.product_vjp(powers[n - 2], s, g_power, 0.0, 0.0)
        grad = [g + h for g, h in zip(grad, g_s)]
    return [g + h for g, h in zip(grad, carry)]


def lyndon_cotangent(rng, batch, channels, depth):
    """Random level cotangents scattered to the Lyndon positions, zero
    elsewhere, as ``lyndon.project_vjp`` makes them; every third top-level
    Lyndon coefficient is zero too."""
    cot = rng.standard_normal(batch + (lyndon.lyndon_count(channels, depth),))
    top = lyndon.lyndon_count(channels, depth - 1)
    cot[..., top::3] = 0.0
    return lyndon.project_vjp(cot, channels, depth)


class TestLiePowers:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_log_and_exp_equal_the_full_power_chain_bytewise(self, rng, depth):
        for d in (2, 3):
            s = random_levels(rng, (4, 3), d, depth)
            got = engine.log_of_group(s)
            want = power_series(s, lambda n: (-1.0) ** (n + 1) / n)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
            got = engine.exp_of_lie(s)
            want = power_series(s, lambda n: 1.0 / math.factorial(n))
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("depth", [3, 4, 5])
    def test_no_outer_product_of_an_all_zero_block(self, rng, depth):
        s = random_levels(rng, (4, 3), 2, depth)
        for kernel in (engine.log_of_group, engine.exp_of_lie):
            with mock.patch.object(engine, "_outer", wraps=engine._outer) as outer:
                kernel(s)
            assert outer.call_count > 0
            for call in outer.call_args_list:
                assert all(np.any(block != 0.0) for block in call.args)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_log_vjp_equals_the_full_power_chain(self, rng, depth):
        # np.array_equal: zeros of either sign count as equal
        for d in (2, 3):
            s = random_levels(rng, (4, 3), d, depth)
            for cot in (random_levels(rng, (4, 3), d, depth),
                        lyndon_cotangent(rng, (4, 3), d, depth)):
                got = engine.log_of_group_vjp(s, cot)
                want = power_chain_log_vjp(s, cot)
                assert len(got) == depth
                assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("depth", [2, 3, 4, 5])
    def test_log_vjp_runs_no_general_product_and_no_zero_block(self, rng, depth):
        s = random_levels(rng, (4, 3), 2, depth)
        cot = lyndon_cotangent(rng, (4, 3), 2, depth)
        # the general product and its VJP are test references, not library code
        assert not hasattr(engine, "product") and not hasattr(engine, "product_vjp")
        with mock.patch.object(engine, "_contract_right",
                               wraps=engine._contract_right) as right, \
                mock.patch.object(engine, "_contract_left",
                                  wraps=engine._contract_left) as left:
            engine.log_of_group_vjp(s, cot)
        calls = right.call_args_list + left.call_args_list
        assert right.call_count > 0 and left.call_count > 0
        assert all(np.any(call.args[1] != 0.0) for call in calls)


class TestRoundTrips:
    def test_exp_log_inversion_randomised(self, rng):
        # both compositions, 100 cases, coefficientwise 1e-12
        cases = 0
        for d in (1, 2, 3):
            for m in (1, 2, 3, 4, 5):
                for _ in range(7):
                    v = random_levels(rng, (), d, m)
                    assert levels_close(engine.log_of_group(engine.exp_of_lie(v)), v,
                                        rtol=1e-12, atol=1e-12)
                    s = engine.exp_of_lie(random_levels(rng, (), d, m))
                    assert levels_close(engine.exp_of_lie(engine.log_of_group(s)), s,
                                        rtol=1e-12, atol=1e-12)
                    cases += 1
        assert cases >= 100


class TestLogVjp:
    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_matches_central_differences_on_batched_input(self, rng, depth):
        channels, batch = 2, (3,)
        s = [0.5 * rng.standard_normal(batch + (channels ** k,))
             for k in range(1, depth + 1)]
        cot = [rng.standard_normal(lvl.shape) for lvl in s]

        def objective(_):
            return float(sum(np.sum(c * lvl)
                             for c, lvl in zip(cot, engine.log_of_group(s))))

        grads = engine.log_of_group_vjp(s, cot)
        for level, grad in zip(s, grads):
            np.testing.assert_allclose(grad, central_difference(objective, level),
                                       rtol=1e-6, atol=1e-8)


class TestSegmentSignature:
    def test_degenerate_segment_is_identity(self):
        out = reference.segment_exp(np.zeros(2), 3)
        assert levels_close(out, reference.identity_levels((), 2, 3))

    def test_scalar_segment(self):
        out = reference.segment_exp(np.array([2.0]), 3)
        np.testing.assert_allclose(engine.flatten_levels(out), [2.0, 2.0, 4.0 / 3.0],
                                   rtol=1e-14)

    def test_plane_segment_level_two(self):
        out = reference.segment_exp(np.array([1.0, 2.0]), 2)
        np.testing.assert_allclose(out[1], [0.5, 1.0, 1.0, 2.0], rtol=1e-14)


class TestValidation:
    def test_flatten_length_matches_sig_dim(self, rng):
        s = random_levels(rng, (), 3, 3)
        assert engine.flatten_levels(s).shape == (engine.sig_width(3, 3),)

    def test_split_flat_inverts_flatten_on_batched_levels(self, rng):
        levels = random_levels(rng, (2, 5), 3, 3)
        back = engine.split_flat(engine.flatten_levels(levels), 3, 3)
        assert [b.tobytes() for b in back] == [lvl.tobytes() for lvl in levels]

    def test_copy_levels_is_independent(self, rng):
        levels = random_levels(rng, (), 2, 2)
        copied = engine.copy_levels(levels)
        copied[1][0] += 1.0
        assert copied[1][0] == levels[1][0] + 1.0


class TestOuterKernels:
    """Both outer product kernels give einsum's bits, on each side of the cut."""

    @pytest.mark.parametrize("na, nb", [(n, n) for n in range(1, 7)] + [(4, 2), (2, 4)])
    def test_kernels_match_einsum_bytewise(self, rng, na, nb):
        b = rng.standard_normal((3, 5, nb))
        contiguous = rng.standard_normal((3, 5, na))
        strided = rng.standard_normal((3, 10, na + 1))[:, ::2, 1:]
        for a in (contiguous, strided):
            want = _outer(a, b).tobytes()
            assert engine._outer_columns(a, b).tobytes() == want
            with mock.patch.object(engine, "_outer_columns",
                                   wraps=engine._outer_columns) as columns:
                assert engine._outer(a, b).tobytes() == want
            assert columns.called == (na * nb <= engine._COLUMN_WORDS)


_shapes = st.tuples(
    st.integers(1, 4),                                  # channels
    st.integers(1, 5),                                  # depth
    st.integers(1, 8),                                  # block length
    st.lists(st.integers(1, 3), min_size=0, max_size=2).map(tuple),  # batch axes
    st.integers(0, 2 ** 32 - 1))                        # increment seed


class TestBlockKernels:
    """The closed-form block kernels against the sequential Chen scan."""

    @given(_shapes)
    def test_block_signatures_match_scan(self, shape):
        d, depth, m, batch, seed = shape
        inc = np.random.default_rng(seed).standard_normal(batch + (m, d))
        got = whole_signature(inc, depth)
        want = reference.signature_scan(inc, depth)
        assert len(got) == depth
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-13)

    @given(_shapes, st.integers(1, 3))
    def test_checkpoint_scan_matches_scan_on_every_prefix(self, shape, n_seg):
        d, depth, m, batch, seed = shape
        inc = np.random.default_rng(seed).standard_normal(batch + (n_seg * m, d))
        got = engine.checkpoint_scan(inc, m, depth)
        for seg in range(n_seg + 1):
            want = reference.signature_scan(inc[..., :seg * m, :], depth)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g[..., seg, :], w, rtol=1e-12, atol=1e-13)

    def test_checkpoint_scan_matches_long_double_scan_at_desk_lookback_shape(self):
        # 100 paths of 400 steps in 20 blocks, time plus a GBM path from 10,
        # depth 3, against a long-double Chen scan sampled at every
        # checkpoint.  Level-3 words with time letters are small differences
        # of terms up to the level's largest entry, so the relative
        # tolerance is taken against that entry, per path and checkpoint.
        model = sde.ModelSpec.geometric(10.0, 0.01, 1.0)
        grid = sde.GridSpec(1.0, 400, 20)
        batch = sde.simulate_batch(model, grid, 100, seed=13)
        times = np.broadcast_to(grid.h * np.arange(grid.n_fine + 1)[:, None], (100, 401, 1))
        inc = np.diff(np.concatenate([times, batch.states], axis=-1), axis=-2)
        got = engine.checkpoint_scan(inc, grid.fine_per_segment, 3)
        levels = reference.identity_levels((100,), 2, 3)
        for step in range(grid.n_fine):
            levels = reference.product(
                levels, reference.segment_exp(inc[:, step].astype(np.longdouble), 3))
            if (step + 1) % grid.fine_per_segment == 0:
                for g, w in zip(got, levels):
                    err = np.abs(g[:, (step + 1) // grid.fine_per_segment] - w)
                    size = np.max(np.abs(w), axis=-1, keepdims=True)
                    assert np.all(err <= 1e-13 + 1e-12 * size)

    @pytest.mark.parametrize("d, m, n_seg, batch", [(1, 3, 4, ()), (2, 2, 3, (2,)),
                                                    (3, 4, 2, (2, 1))])
    def test_depth_four_checkpoint_scan_matches_scan_on_every_prefix(self, rng, d, m,
                                                                     n_seg, batch):
        inc = rng.standard_normal(batch + (n_seg * m, d))
        got = engine.checkpoint_scan(inc, m, 4)
        assert [g.shape for g in got] == [batch + (n_seg + 1, d ** k) for k in range(1, 5)]
        for seg in range(n_seg + 1):
            want = reference.signature_scan(inc[..., :seg * m, :], 4)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g[..., seg, :], w, rtol=1e-12, atol=1e-13)

    @given(_shapes)
    def test_whole_path_vjp_matches_central_differences(self, shape):
        d, depth, m, batch, seed = shape
        rng = np.random.default_rng(seed)
        inc = rng.standard_normal(batch + (m, d))
        cot = [rng.standard_normal(batch + (d ** k,)) for k in range(1, depth + 1)]

        def objective(x):
            return sum(float(np.sum(c * lvl))
                       for c, lvl in zip(cot, whole_signature(x, depth)))

        got = whole_path_vjp(inc, cot)
        np.testing.assert_allclose(got, central_difference(objective, inc),
                                   rtol=1e-6, atol=1e-6)

    @given(_shapes, st.integers(1, 3))
    def test_checkpoint_scan_vjp_matches_central_differences(self, shape, n_seg):
        # a cotangent on every checkpoint slot, slot 0 (the identity) included
        d, depth, m, batch, seed = shape
        rng = np.random.default_rng(seed)
        inc = rng.standard_normal(batch + (n_seg * m, d))
        prefixes = engine.checkpoint_scan(inc, m, depth)
        cot = [rng.standard_normal(p.shape) for p in prefixes]

        def objective(x):
            return sum(float(np.sum(c * lvl))
                       for c, lvl in zip(cot, engine.checkpoint_scan(x, m, depth)))

        got = engine.checkpoint_scan_vjp(inc, m, cot)
        np.testing.assert_allclose(got, central_difference(objective, inc),
                                   rtol=1e-6, atol=1e-6)

    @given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5), st.integers(1, 4),
           st.sampled_from([(), (3,), (2, 2)]), st.integers(0, 2 ** 32 - 1))
    def test_checkpoint_scan_vjp_matches_product_chain(self, d, depth, n_seg, m,
                                                        batch, seed):
        rng = np.random.default_rng(seed)
        inc = rng.standard_normal(batch + (n_seg * m, d))
        cot = [rng.standard_normal(batch + (n_seg + 1, d ** k))
               for k in range(1, depth + 1)]
        got = engine.checkpoint_scan_vjp(inc, m, cot)
        want = product_chain_vjp(inc, m, cot)
        if n_seg == 1:
            np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("batch", [(), (3,), (2, 1)])
    def test_empty_path_has_one_identity_prefix_and_no_gradient(self, depth, batch):
        inc = np.empty(batch + (0, 2))
        prefixes = engine.checkpoint_scan(inc, 4, depth)
        assert [p.shape for p in prefixes] == [batch + (1, 2 ** k)
                                               for k in range(1, depth + 1)]
        assert not any(np.any(p) for p in prefixes)
        cot = [np.ones(p.shape) for p in prefixes]
        assert engine.checkpoint_scan_vjp(inc, 4, cot).shape == inc.shape

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_slot_zero_is_positive_zero_in_every_level(self, rng, depth):
        prefixes = engine.checkpoint_scan(rng.standard_normal((3, 8, 2)), 4, depth)
        for lvl in prefixes:
            assert lvl.shape[-2] == 3
            assert np.all(lvl[..., 0, :] == 0.0)
            assert not np.any(np.signbit(lvl[..., 0, :]))

    def test_reverse_pass_runs_beyond_depth_three(self, rng):
        inc = rng.standard_normal((6, 2))
        cot = [np.ones((3, 2 ** k)) for k in range(1, 5)]

        def objective(x):
            return sum(float(np.sum(c * lvl))
                       for c, lvl in zip(cot, engine.checkpoint_scan(x, 3, 4)))

        np.testing.assert_allclose(engine.checkpoint_scan_vjp(inc, 3, cot),
                                   central_difference(objective, inc), rtol=1e-6, atol=1e-6)


_series = st.tuples(
    st.integers(1, 4),                                  # channels
    st.integers(1, 4),                                  # depth
    st.lists(st.integers(1, 2), min_size=0, max_size=2).map(tuple),  # batch axes
    st.integers(0, 2 ** 32 - 1))                        # coefficient seed


class TestAlgebraProperties:
    """Chen's identity, exp/log inversion and the log VJP over random shapes."""

    @given(_series, st.integers(1, 6), st.integers(1, 6))
    def test_chen_identity_joins_block_signatures(self, shape, first, second):
        d, depth, batch, seed = shape
        inc = np.random.default_rng(seed).standard_normal(batch + (first + second, d))
        joined = whole_signature(inc, depth)
        chained = reference.product(whole_signature(inc[..., :first, :], depth),
                                    whole_signature(inc[..., first:, :], depth))
        for c, j in zip(chained, joined):
            np.testing.assert_allclose(c, j, rtol=1e-12, atol=1e-13)

    @given(_series)
    def test_exp_and_log_invert_each_other(self, shape):
        d, depth, batch, seed = shape
        rng = np.random.default_rng(seed)
        lie = random_levels(rng, batch, d, depth)
        for back, want in zip(engine.log_of_group(engine.exp_of_lie(lie)), lie):
            np.testing.assert_allclose(back, want, rtol=1e-12, atol=1e-12)
        group = engine.exp_of_lie(random_levels(rng, batch, d, depth))
        for back, want in zip(engine.exp_of_lie(engine.log_of_group(group)), group):
            np.testing.assert_allclose(back, want, rtol=1e-12, atol=1e-12)

    # one central difference per coefficient: fewer examples keep its time
    # near that of the other property tests
    @settings(max_examples=20)
    @given(_series)
    def test_log_of_group_vjp_matches_central_differences(self, shape):
        d, depth, batch, seed = shape
        rng = np.random.default_rng(seed)
        s = random_levels(rng, batch, d, depth)
        cot = [rng.standard_normal(lvl.shape) for lvl in s]

        def objective(_):
            return float(sum(np.sum(c * lvl)
                             for c, lvl in zip(cot, engine.log_of_group(s))))

        grads = engine.log_of_group_vjp(s, cot)
        for level, grad in zip(s, grads):
            np.testing.assert_allclose(grad, central_difference(objective, level),
                                       rtol=1e-6, atol=1e-6)


def is_lyndon(word) -> bool:
    n = len(word)
    return n > 0 and all(word < word[s:] + word[:s] for s in range(1, n))


def _concat_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            key = wa + wb
            out[key] = out.get(key, 0) + ca * cb
    return out


def _bracket_expansion(word, cache: dict) -> dict:
    """Tensor expansion of the standard Lyndon bracketing of ``word``."""
    if word in cache:
        return cache[word]
    if len(word) == 1:
        exp = {word: 1}
    else:
        # standard factorisation: the longest proper Lyndon suffix
        for s in range(1, len(word)):
            if is_lyndon(word[s:]):
                left, right = word[:s], word[s:]
                break
        el = _bracket_expansion(left, cache)
        er = _bracket_expansion(right, cache)
        exp = _concat_product(el, er)
        for key, coeff in _concat_product(er, el).items():
            exp[key] = exp.get(key, 0) - coeff
            if exp[key] == 0:
                del exp[key]
    cache[word] = exp
    return exp


def word_offset(word, channels: int) -> int:
    return int(np.ravel_multi_index(np.array(word) - 1, (channels,) * len(word)))


def bracket_expansions(channels: int, k: int) -> np.ndarray:
    """Dense ``(channels**k, n_words)`` tensor expansions of the bracketings
    of the length-``k`` Lyndon words, one column per word."""
    words = [w for w in reference.lyndon_words(channels, k) if len(w) == k]
    dense = np.zeros((channels ** k, len(words)))
    cache: dict = {}
    for c, w in enumerate(words):
        for v, coeff in _bracket_expansion(w, cache).items():
            dense[word_offset(v, channels), c] = coeff
    return dense


def unit_lower_solve(tri: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``x`` with ``x @ tri.T == rhs`` for a unit lower-triangular ``tri``."""
    x = np.array(rhs, dtype=float)
    for i in range(tri.shape[0]):
        x[..., i] -= x[..., :i] @ tri[i, :i]
    return x


def bracket_coordinates(coords: np.ndarray, channels: int, depth: int):
    """Bracket-basis coordinates and dense bracketings of each level, from
    the coefficients at the Lyndon words.

    Those coefficients are the bracket coordinates times the bracketings'
    rows at the Lyndon positions: a unit lower-triangular matrix, since a
    bracketing is its word plus larger anagrams.
    """
    out, offset = [], 0
    for k, level in enumerate(lyndon.basis(channels, depth), start=1):
        dense = bracket_expansions(channels, k)
        n_w = dense.shape[1]
        tri = dense[level.positions]
        assert not np.any(np.triu(tri, 1)) and np.all(np.diag(tri) == 1.0)
        out.append((unit_lower_solve(tri, coords[..., offset:offset + n_w]), dense))
        offset += n_w
    return out


_projections = st.tuples(
    st.integers(1, 5),                                  # channels
    st.integers(1, 4),                                  # depth
    st.lists(st.integers(1, 2), min_size=0, max_size=2).map(tuple),  # batch axes
    st.integers(0, 2 ** 32 - 1))                        # coefficient seed


class TestLyndonBasis:
    @given(_projections)
    def test_project_gathers_the_lyndon_words_and_its_vjp_scatters(self, shape):
        d, depth, batch, seed = shape
        rng = np.random.default_rng(seed)
        levels = random_levels(rng, batch, d, depth)
        words = reference.lyndon_words(d, depth)
        assert all(map(is_lyndon, words)) and len(words) == lyndon.lyndon_count(d, depth)
        want = np.stack([levels[len(w) - 1][..., word_offset(w, d)] for w in words],
                        axis=-1)
        assert lyndon.project(levels, d, depth).tobytes() == want.tobytes()
        cot = rng.standard_normal(batch + (len(words),))
        scattered = [np.zeros(lvl.shape) for lvl in levels]
        for i, w in enumerate(words):
            scattered[len(w) - 1][..., word_offset(w, d)] = cot[..., i]
        got = lyndon.project_vjp(cot, d, depth)
        assert [g.tobytes() for g in got] == [s.tobytes() for s in scattered]

    @pytest.mark.parametrize("d, m", [(2, 3), (3, 2), (2, 4), (3, 3), (5, 3)])
    def test_coordinates_rebuild_the_log_and_exponentiate_to_the_signature(self, rng,
                                                                         d, m):
        nodes = rng.standard_normal((6, d))
        sig = signature(nodes, m)
        coords = lyndon.project(engine.log_of_group(sig), d, m)
        log = [dense @ lie for lie, dense in bracket_coordinates(coords, d, m)]
        for got, want in zip(engine.exp_of_lie(log), sig):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("d, m", [(2, 2), (2, 3), (6, 2), (21, 2)])
    def test_gather_is_the_bracket_coordinates_at_the_workload_shapes(self, rng, d, m):
        # the bracketings are the identity at the Lyndon positions here, so
        # the features the workloads train on are bracket coordinates too
        for k, level in enumerate(lyndon.basis(d, m), start=1):
            tri = bracket_expansions(d, k)[level.positions]
            np.testing.assert_array_equal(tri, np.eye(len(level.words)))
        coords = lyndon.project(random_levels(rng, (4, 3), d, m), d, m)
        lie = np.concatenate([c for c, _ in bracket_coordinates(coords, d, m)], axis=-1)
        assert lie.tobytes() == coords.tobytes()

    def test_basis_peaks_below_two_megabytes(self):
        # quadratic d=20 at depth 3: 3080 words of length 3 and their
        # positions, with no matrix to build
        tracemalloc.start()
        try:
            levels = lyndon.basis.__wrapped__(21, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(level.words) for level in levels] == [21, 210, 3080]
        assert peak < 2 * 2 ** 20
