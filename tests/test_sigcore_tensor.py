import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigfbsde.sigcore import (DomainError, ShapeMismatchError,
                              TruncatedTensorSeries, segment_signature,
                              sig_dim, truncated_exp, truncated_log,
                              truncated_product)
from sigfbsde import sde
from sigfbsde.sigcore import engine, lyndon
from conftest import central_difference


def series(unit, *levels):
    return TruncatedTensorSeries.from_levels(unit, [np.asarray(l, dtype=float)
                                                    for l in levels])


def random_group_series(rng, channels, depth, scale=0.5):
    levels = [scale * rng.standard_normal(channels ** k)
              for k in range(1, depth + 1)]
    return TruncatedTensorSeries.from_levels(1.0, levels)


def random_lie_series(rng, channels, depth, scale=0.5):
    levels = [scale * rng.standard_normal(channels ** k)
              for k in range(1, depth + 1)]
    return TruncatedTensorSeries.from_levels(0.0, levels)


class TestSigDim:
    def test_two_channels_depth_two(self):
        assert sig_dim(2, 2) == 6

    def test_scalar_depth_three(self):
        assert sig_dim(1, 3) == 3

    def test_three_channels_depth_two(self):
        assert sig_dim(3, 2) == 12

    def test_matches_geometric_sum(self):
        for d in range(1, 6):
            for m in range(1, 5):
                assert sig_dim(d, m) == sum(d ** k for k in range(1, m + 1))


class TestProduct:
    def test_unit_plus_letters(self):
        # (1 + e1)(1 + e2) = 1 + e1 + e2 + e1 e2
        a = series(1.0, [1.0, 0.0], [0.0] * 4)
        b = series(1.0, [0.0, 1.0], [0.0] * 4)
        out = truncated_product(a, b)
        assert out.unit == 1.0
        np.testing.assert_allclose(out.level(1), [1.0, 1.0])
        np.testing.assert_allclose(out.level(2), [0.0, 1.0, 0.0, 0.0])

    def test_identity_is_neutral(self, rng):
        for _ in range(10):
            a = random_group_series(rng, 2, 3)
            e = TruncatedTensorSeries.identity(2, 3)
            assert truncated_product(a, e).allclose(a)
            assert truncated_product(e, a).allclose(a)

    def test_scalar_exponentials_compose(self, rng):
        # one-channel exp series multiply by adding increments
        for _ in range(10):
            p, q = rng.standard_normal(2)
            a = truncated_exp(series(0.0, [p], [0.0]))
            b = truncated_exp(series(0.0, [q], [0.0]))
            out = truncated_product(a, b)
            np.testing.assert_allclose(out.level(1), [p + q], rtol=1e-12)
            np.testing.assert_allclose(out.level(2), [(p + q) ** 2 / 2.0],
                                       rtol=1e-12)

    def test_mismatched_operands_raise(self):
        a = TruncatedTensorSeries.identity(2, 2)
        b = TruncatedTensorSeries.identity(3, 2)
        c = TruncatedTensorSeries.identity(2, 3)
        with pytest.raises(ShapeMismatchError):
            truncated_product(a, b)
        with pytest.raises(ShapeMismatchError):
            truncated_product(a, c)


class TestExp:
    def test_scalar_levels_are_powers_over_factorials(self):
        v = series(0.0, [2.0], [0.0], [0.0])
        out = truncated_exp(v)
        np.testing.assert_allclose(out.flatten(), [2.0, 2.0, 4.0 / 3.0],
                                   rtol=1e-14)

    def test_zero_maps_to_identity(self):
        v = TruncatedTensorSeries.zero(3, 2)
        assert truncated_exp(v).allclose(TruncatedTensorSeries.identity(3, 2))

    def test_level_two_is_half_outer_product(self):
        v = series(0.0, [1.0, 2.0], [0.0] * 4)
        out = truncated_exp(v)
        np.testing.assert_allclose(out.level(1), [1.0, 2.0])
        np.testing.assert_allclose(out.level(2), [0.5, 1.0, 1.0, 2.0],
                                   rtol=1e-14)

    def test_requires_lie_like_input(self):
        with pytest.raises(DomainError):
            truncated_exp(TruncatedTensorSeries.identity(2, 2))


class TestLog:
    def test_log_of_identity_is_zero(self):
        out = truncated_log(TruncatedTensorSeries.identity(2, 3))
        assert out.unit == 0.0
        assert all(np.all(lvl == 0.0) for lvl in out.levels)

    def test_inverts_exp_on_lie_elements(self, rng):
        for depth in (1, 2, 3):
            for _ in range(5):
                v = random_lie_series(rng, 2, depth)
                assert truncated_log(truncated_exp(v)).allclose(v, rtol=1e-12)

    def test_l_shaped_path_gives_antisymmetric_level_two(self):
        right = segment_signature([0.0, 0.0], [1.0, 0.0], 2)
        up = segment_signature([1.0, 0.0], [1.0, 1.0], 2)
        log = truncated_log(truncated_product(right, up))
        np.testing.assert_allclose(log.level(2), [0.0, 0.5, -0.5, 0.0],
                                   atol=1e-15)

    def test_requires_group_like_input(self):
        with pytest.raises(DomainError):
            truncated_log(TruncatedTensorSeries.zero(2, 2))


class TestRoundTrips:
    def test_exp_log_inversion_randomised(self, rng):
        # both compositions, 100 cases, coefficientwise 1e-12
        cases = 0
        for d in (1, 2, 3):
            for m in (1, 2, 3, 4, 5):
                for _ in range(7):
                    v = random_lie_series(rng, d, m)
                    assert truncated_log(truncated_exp(v)).allclose(
                        v, rtol=1e-12, atol=1e-12)
                    s = truncated_exp(random_lie_series(rng, d, m))
                    assert truncated_exp(truncated_log(s)).allclose(
                        s, rtol=1e-12, atol=1e-12)
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
        out = segment_signature([1.0, 2.0], [1.0, 2.0], 3)
        assert out.allclose(TruncatedTensorSeries.identity(2, 3))

    def test_scalar_segment(self):
        out = segment_signature([0.0], [2.0], 3)
        np.testing.assert_allclose(out.flatten(), [2.0, 2.0, 4.0 / 3.0],
                                   rtol=1e-14)

    def test_plane_segment_level_two(self):
        out = segment_signature([0.0, 0.0], [1.0, 2.0], 2)
        np.testing.assert_allclose(out.level(2), [0.5, 1.0, 1.0, 2.0],
                                   rtol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            segment_signature([0.0], [1.0, 2.0], 2)


class TestValidation:
    def test_wrong_block_size_rejected(self):
        with pytest.raises(ShapeMismatchError):
            TruncatedTensorSeries(2, 2, 1.0, (np.zeros(2), np.zeros(3)))

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            TruncatedTensorSeries(1, 1, 1.0, (np.array([np.inf]),))

    def test_flatten_length_matches_sig_dim(self, rng):
        s = random_group_series(rng, 3, 3)
        assert s.flatten().shape == (sig_dim(3, 3),)


_shapes = st.tuples(
    st.integers(1, 4),                                  # channels
    st.integers(1, 3),                                  # depth
    st.integers(1, 8),                                  # block length
    st.lists(st.integers(1, 3), min_size=0, max_size=2).map(tuple),  # batch axes
    st.integers(0, 2 ** 32 - 1))                        # increment seed


class TestBlockKernels:
    """The closed-form block kernels against the sequential Chen scan."""

    @given(_shapes)
    def test_block_signatures_match_scan(self, shape):
        d, depth, m, batch, seed = shape
        inc = np.random.default_rng(seed).standard_normal(batch + (m, d))
        got = engine.block_signatures(inc, depth)
        want = engine.signature_scan(inc, depth)
        assert len(got) == depth
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-13)

    @given(_shapes, st.integers(1, 3))
    def test_checkpoint_scan_matches_scan_on_every_prefix(self, shape, n_seg):
        d, depth, m, batch, seed = shape
        inc = np.random.default_rng(seed).standard_normal(batch + (n_seg * m, d))
        got = engine.checkpoint_scan(inc, m, depth)
        for seg in range(n_seg + 1):
            want = engine.signature_scan(inc[..., :seg * m, :], depth)
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
        levels = engine.identity_levels((100,), 2, 3)
        for step in range(grid.n_fine):
            levels = engine.chen_step(levels, inc[:, step].astype(np.longdouble))
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
            want = engine.signature_scan(inc[..., :seg * m, :], 4)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g[..., seg, :], w, rtol=1e-12, atol=1e-13)

    @given(_shapes)
    def test_block_signatures_vjp_matches_central_differences(self, shape):
        d, depth, m, batch, seed = shape
        rng = np.random.default_rng(seed)
        inc = rng.standard_normal(batch + (m, d))
        cot = [rng.standard_normal(batch + (d ** k,)) for k in range(1, depth + 1)]

        def objective(x):
            return sum(float(np.sum(c * lvl))
                       for c, lvl in zip(cot, engine.block_signatures(x, depth)))

        got = engine.block_signatures_vjp(inc, depth, cot)
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

        got = engine.checkpoint_scan_vjp(inc, m, prefixes, cot)
        np.testing.assert_allclose(got, central_difference(objective, inc),
                                   rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("batch", [(), (3,), (2, 1)])
    def test_empty_path_has_one_identity_prefix_and_no_gradient(self, depth, batch):
        inc = np.empty(batch + (0, 2))
        prefixes = engine.checkpoint_scan(inc, 4, depth)
        assert [p.shape for p in prefixes] == [batch + (1, 2 ** k)
                                               for k in range(1, depth + 1)]
        assert not any(np.any(p) for p in prefixes)
        if depth <= 3:
            cot = [np.ones(p.shape) for p in prefixes]
            assert engine.checkpoint_scan_vjp(inc, 4, prefixes, cot).shape == inc.shape

    def test_reverse_pass_rejects_depth_beyond_three(self, rng):
        inc = rng.standard_normal((5, 2))
        cot = [np.ones(2 ** k) for k in range(1, 5)]
        with pytest.raises(ValueError, match="depth 4"):
            engine.block_signatures_vjp(inc, 4, cot)


_series = st.tuples(
    st.integers(1, 4),                                  # channels
    st.integers(1, 4),                                  # depth
    st.lists(st.integers(1, 2), min_size=0, max_size=2).map(tuple),  # batch axes
    st.integers(0, 2 ** 32 - 1))                        # coefficient seed


def random_levels(rng, batch, channels, depth, scale=0.5):
    return [scale * rng.standard_normal(batch + (channels ** k,))
            for k in range(1, depth + 1)]


class TestAlgebraProperties:
    """Chen's identity, exp/log inversion and the log VJP over random shapes."""

    @given(_series, st.integers(1, 6), st.integers(1, 6))
    def test_chen_identity_joins_block_signatures(self, shape, first, second):
        d, depth, batch, seed = shape
        inc = np.random.default_rng(seed).standard_normal(batch + (first + second, d))
        joined = engine.block_signatures(inc, depth)
        chained = engine.product(engine.block_signatures(inc[..., :first, :], depth),
                                 engine.block_signatures(inc[..., first:, :], depth))
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


class TestLyndonBasis:
    @pytest.mark.parametrize("d, m", [(2, 3), (3, 3), (2, 4), (4, 2), (5, 3)])
    def test_expand_matches_dense_bracket_expansions(self, rng, d, m):
        coefficients = rng.standard_normal((4, 3, lyndon.lyndon_count(d, m)))
        got = lyndon.expand(coefficients, d, m)
        cache, offset = {}, 0
        for k in range(1, m + 1):
            words = lyndon._lyndon_words_of_length(d, k)
            dense = np.zeros((d ** k, len(words)))
            for c, w in enumerate(words):
                for v, coeff in lyndon._bracket_expansion(w, cache).items():
                    dense[lyndon._word_offset(v, d), c] = coeff
            want = coefficients[..., offset:offset + len(words)] @ dense.T
            assert got[k - 1].tobytes() == want.tobytes()
            offset += len(words)

    def test_basis_holds_no_dense_expansion_block(self):
        # at 21 channels and depth 3 the (21**3, 3080) expansion block is
        # 228 MB; the (3080, 3080) solve matrix, which projection reads, is 76 MB
        tracemalloc.start()
        try:
            levels = lyndon.basis.__wrapped__(21, 3)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        dense = 21 ** 3 * len(levels[2].words) * 8
        solve = sum(level.solve_matrix.nbytes for level in levels)
        assert held <= solve + 0.05 * dense
