import math

import numpy as np
import pytest

from sigfbsde.sigcore import engine, lyndon
import reference
from conftest import central_difference, signature, whole_path_vjp


def l_shaped_nodes():
    return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])


class TestPathSignature:
    def test_single_node_is_identity(self):
        sig = signature(np.array([[3.0, 4.0]]), 3)
        assert all(np.all(lvl == 0.0) for lvl in sig)

    def test_scalar_path_depends_only_on_total_increment(self):
        sig = signature(np.array([[0.0], [0.5], [2.0]]), 3)
        np.testing.assert_allclose(engine.flatten_levels(sig), [2.0, 2.0, 4.0 / 3.0],
                                   rtol=1e-14)

    def test_chen_identity_on_random_splits(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 10))
            nodes = rng.standard_normal((n, 2))
            cut = int(rng.integers(1, n - 1))
            whole = signature(nodes, 3)
            parts = reference.product(signature(nodes[:cut + 1], 3),
                                      signature(nodes[cut:], 3))
            for w, p in zip(whole, parts):
                np.testing.assert_allclose(w, p, rtol=1e-12, atol=1e-14)

    def test_shuffle_relation_depth_two(self, rng):
        for _ in range(20):
            nodes = rng.standard_normal((6, 3))
            lvl1, lvl2 = signature(nodes, 2)
            lvl2 = lvl2.reshape(3, 3)
            np.testing.assert_allclose(np.multiply.outer(lvl1, lvl1),
                                       lvl2 + lvl2.T, rtol=1e-12, atol=1e-14)

    def test_scalar_closed_form(self, rng):
        for _ in range(10):
            nodes = np.cumsum(rng.standard_normal(7))[:, None]
            sig = engine.flatten_levels(signature(nodes, 5))
            inc = nodes[-1, 0] - nodes[0, 0]
            expect = [inc ** k / math.factorial(k) for k in range(1, 6)]
            np.testing.assert_allclose(sig, expect, rtol=1e-12, atol=1e-14)


    def test_reversed_path_inverts_signature(self, rng):
        for _ in range(10):
            nodes = rng.standard_normal((7, 2))
            there_and_back = reference.product(signature(nodes, 4),
                                               signature(nodes[::-1], 4))
            for lvl in there_and_back:
                np.testing.assert_allclose(lvl, 0.0, atol=1e-12)

    def test_translation_does_not_change_signature(self, rng):
        nodes = rng.standard_normal((6, 3))
        for moved, still in zip(signature(nodes + np.array([2.0, -1.0, 0.5]), 3),
                                signature(nodes, 3)):
            np.testing.assert_allclose(moved, still, rtol=1e-12, atol=1e-14)


class TestTimeAugment:
    @staticmethod
    def augmented(times, values):
        return np.stack([times, values], axis=1)

    def test_level_one_time_coefficient_is_elapsed_time(self):
        path = self.augmented([0.0, 0.25, 0.5, 1.0], [3.0, 1.0, 4.0, 1.0])
        assert signature(path, 2)[0][0] == 1.0

    def test_constant_values_still_produce_signature(self):
        path = self.augmented([0.0, 0.5, 1.0], [2.0, 2.0, 2.0])
        lvl1, lvl2 = signature(path, 2)
        assert lvl1[0] == 1.0
        assert np.any(lvl2 != 0.0)


class TestCheckpointStream:
    def test_first_entry_is_identity(self, rng):
        nodes = rng.standard_normal((9, 2))
        stream = engine.checkpoint_scan(np.diff(nodes, axis=0), 4, 3)
        assert all(np.all(lvl[0] == 0.0) for lvl in stream)

    def test_entries_match_from_scratch_prefixes(self, rng):
        nodes = rng.standard_normal((13, 2))
        stream = engine.checkpoint_scan(np.diff(nodes, axis=0), 3, 3)
        assert all(lvl.shape[0] == 5 for lvl in stream)
        for seg in range(5):
            scratch = signature(nodes[:seg * 3 + 1], 3)
            for entry, want in zip(stream, scratch):
                np.testing.assert_allclose(entry[seg], want, rtol=1e-12, atol=1e-13)

    def test_scalar_level_one_prefix_increments(self):
        nodes = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        (lvl1,) = engine.checkpoint_scan(np.diff(nodes, axis=0), 2, 1)
        np.testing.assert_allclose(lvl1[:, 0], [0.0, 2.0, 4.0])

    def test_indivisible_grid_rejected(self):
        with pytest.raises(ValueError):
            engine.checkpoint_scan(np.zeros((5, 1)), 4, 2)


class TestLogSignature:
    def test_single_segment_only_level_one(self, rng):
        start = rng.standard_normal(2)
        end = start + np.array([0.3, -0.7])
        log = engine.log_of_group(signature(np.stack([start, end]), 3))
        logsig = lyndon.project(log, 2, 3)
        np.testing.assert_allclose(logsig[:2], end - start, rtol=1e-12)
        np.testing.assert_allclose(logsig[2:], 0.0, atol=1e-14)

    def test_l_shaped_path_coefficients(self):
        logsig = lyndon.project(engine.log_of_group(signature(l_shaped_nodes(), 2)), 2, 2)
        assert reference.lyndon_words(2, 2) == [(1,), (2,), (1, 2)]
        np.testing.assert_allclose(logsig, [1.0, 1.0, 0.5], rtol=1e-12)

    def test_dimension_follows_witt_count(self):
        nodes = np.zeros((4, 2)) + np.arange(4)[:, None]
        logsig = lyndon.project(engine.log_of_group(signature(nodes, 3)), 2, 3)
        assert logsig.shape == (5,)
        assert lyndon.lyndon_count(2, 3) == 5
        assert reference.lyndon_words(2, 3) == [(1,), (2,), (1, 2), (1, 1, 2), (1, 2, 2)]

    def test_witt_count_matches_enumeration(self):
        for d in range(1, 5):
            for m in range(1, 6):
                words = reference.lyndon_words(d, m)
                assert len(set(words)) == len(words) == lyndon.lyndon_count(d, m)
                assert [w for level in lyndon.basis(d, m) for w in level.words] == words


class TestSignaturePullback:
    """Node gradients of ``<cot, signature(nodes)>``: the one-checkpoint
    reverse pass, then increments to nodes."""

    def test_depth_one_gradient_is_pm_one(self):
        nodes = np.array([[0.2], [0.9], [0.4]])
        grad = engine.increments_to_nodes_grad(
            whole_path_vjp(np.diff(nodes, axis=0), [np.array([1.0])]))
        np.testing.assert_allclose(grad, [[-1.0], [0.0], [1.0]])

    def test_single_segment_level_two_gradient(self):
        delta = 0.7
        nodes = np.array([[0.1], [0.1 + delta]])
        cot = [np.array([0.0]), np.array([1.0])]  # weight on the level-2 coefficient
        grad = engine.increments_to_nodes_grad(
            whole_path_vjp(np.diff(nodes, axis=0), cot))
        np.testing.assert_allclose(grad, [[-delta], [delta]], rtol=1e-12)

    def test_matches_central_differences(self, rng):
        nodes = rng.standard_normal((6, 2))
        cot = rng.standard_normal(engine.sig_width(2, 3))

        def objective(x):
            return float(cot @ engine.flatten_levels(signature(x, 3)))

        grad = engine.increments_to_nodes_grad(whole_path_vjp(
            np.diff(nodes, axis=0), engine.split_flat(cot, 2, 3)))
        numeric = central_difference(objective, nodes.copy())
        np.testing.assert_allclose(grad, numeric, rtol=1e-5, atol=1e-7)

    def test_node_gradient_sums_to_zero(self, rng):
        # the signature ignores a common shift of the nodes
        nodes = rng.standard_normal((5, 2))
        cot = engine.split_flat(rng.standard_normal(engine.sig_width(2, 3)), 2, 3)
        grad = engine.increments_to_nodes_grad(
            whole_path_vjp(np.diff(nodes, axis=0), cot))
        np.testing.assert_allclose(grad.sum(axis=0), 0.0, atol=1e-12)

    def test_cotangent_shape_checked(self):
        with pytest.raises(ValueError):
            engine.split_flat(np.zeros(5), 2, 2)
