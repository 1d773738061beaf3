"""Training objectives against closed forms and a brute-force NT-Xent oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdpam import tensor as T
from cdpam.errors import ContractError, DegenerateInputError, ShapeError
from cdpam.losses import bce, margin_rank, nt_xent
from cdpam.tensor import Tensor
from test_tensor import finite_difference_check, linear_probe


def nt_xent_bruteforce(z, tau):
    """Explicit 2N x 2N softmax cross-entropy over stacked views, python-loop arithmetic only."""
    two_n = z.shape[0]
    n = two_n // 2

    def cos(a, b):
        return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

    total = 0.0
    for anchor in range(two_n):
        partner = anchor + n if anchor < n else anchor - n
        numer = math.exp(cos(z[anchor], z[partner]) / tau)
        denom = 0.0
        for other in range(two_n):
            if other != anchor:
                denom += math.exp(cos(z[anchor], z[other]) / tau)
        total += -math.log(numer / denom)
    return total / two_n


class TestNtXent:
    def test_module_example(self):
        # two orthogonal pairs, each view equal to its partner, tau = 0.5
        z = np.zeros((4, 256))
        z[[0, 2], 0] = 1.0
        z[[1, 3], 1] = 1.0
        loss = nt_xent(Tensor(z), tau=0.5)
        expected = -math.log(math.exp(2.0) / (math.exp(2.0) + 2.0))
        assert loss.item() == pytest.approx(expected, abs=1e-5)
        assert loss.item() == pytest.approx(0.23954, abs=1e-5)

    def test_all_identical_gives_log_2n_minus_1(self):
        for n in (2, 3, 5):
            z = np.tile(np.random.default_rng(n).normal(size=(1, 8)), (2 * n, 1))
            loss = nt_xent(Tensor(z), tau=0.5)
            assert loss.item() == pytest.approx(math.log(2 * n - 1), abs=1e-9)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_matches_bruteforce_oracle(self, n):
        z = np.random.default_rng(n).normal(size=(2 * n, 256))
        loss = nt_xent(Tensor(z), tau=0.5)
        assert abs(loss.item() - nt_xent_bruteforce(z, 0.5)) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
    def test_pairing_is_all_that_counts(self, n, seed):
        # swapping the two halves, or permuting the pairs in both halves together, keeps
        # every anchor's partner and negatives, so the loss is unchanged
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(2 * n, 5))
        order = rng.permutation(n)
        base = nt_xent(Tensor(z), tau=0.5).item()
        swapped = np.concatenate([z[n:], z[:n]])
        permuted = np.concatenate([z[:n][order], z[n:][order]])
        assert nt_xent(Tensor(swapped), tau=0.5).item() == pytest.approx(base, abs=1e-12)
        assert nt_xent(Tensor(permuted), tau=0.5).item() == pytest.approx(base, abs=1e-12)

    def test_invariant_to_positive_rescaling(self):
        z = np.random.default_rng(9).normal(size=(6, 16))
        base = nt_xent(Tensor(z), tau=0.5).item()
        z_scaled = z.copy()
        z_scaled[1] *= 37.5
        assert nt_xent(Tensor(z_scaled), tau=0.5).item() == pytest.approx(base, abs=1e-12)

    def test_decreases_when_positive_pair_aligns(self):
        z = np.random.default_rng(10).normal(size=(8, 16))
        drifted = z.copy()
        drifted[4] = 0.5 * z[4] + 0.5 * z[0]  # pull pair 0's second view towards its first
        before = nt_xent(Tensor(z), tau=0.5).item()
        after = nt_xent(Tensor(drifted), tau=0.5).item()
        assert after < before

    def test_needs_two_pairs(self):
        z = np.random.default_rng(0).normal(size=(2, 8))
        with pytest.raises(ContractError):
            nt_xent(Tensor(z))

    @pytest.mark.parametrize("shape", [(5, 8), (3, 8), (8,), (2, 4, 2)])
    def test_needs_a_stack_of_paired_rows(self, shape):
        z = np.random.default_rng(0).normal(size=shape)
        with pytest.raises(ShapeError, match=r"^nt_xent expects a \[2N, d\] stack of views"):
            nt_xent(Tensor(z))

    def test_zero_vector_rejected(self):
        z = np.ones((4, 4))
        z[0] = 0.0
        with pytest.raises(DegenerateInputError):
            nt_xent(Tensor(z))

    def test_gradients(self):
        z = np.random.default_rng(11).normal(size=(6, 6))
        finite_difference_check(lambda ts: nt_xent(ts[0], tau=0.5), [z])


class TestBce:
    def test_half_is_log_two(self):
        for label in (0.0, 1.0):
            assert bce(Tensor(np.array([0.5])), label).item() == pytest.approx(math.log(2.0))

    def test_perfect_prediction_bounded_by_clamp(self):
        assert bce(Tensor(np.array([1.0])), 1.0).item() <= -math.log(1.0 - 1e-7) + 1e-12
        assert bce(Tensor(np.array([0.0])), 0.0).item() <= -math.log(1.0 - 1e-7) + 1e-12

    def test_module_example_exact(self):
        assert bce(Tensor(np.array([0.9])), 0.0).item() == -np.log(1.0 - 0.9)
        assert bce(Tensor(np.array([0.9])), 0.0).item() == pytest.approx(2.302585, abs=1e-6)

    def test_batch_mean(self):
        p = Tensor(np.array([0.5, 0.5]))
        assert bce(p, np.array([0.0, 1.0])).item() == pytest.approx(math.log(2.0))

    def test_label_validation(self):
        with pytest.raises(ContractError):
            bce(Tensor(np.array([0.5])), 0.3)

    def test_gradients(self):
        rng = np.random.default_rng(12)
        p = rng.uniform(0.2, 0.8, size=(5,))
        labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        finite_difference_check(lambda ts: bce(ts[0], labels), [p])


class TestMarginRank:
    def test_satisfied_by_margin(self):
        loss = margin_rank(Tensor(np.array([0.2])), Tensor(np.array([0.5])), margin=0.1)
        assert loss.item() == 0.0

    def test_violated_pair(self):
        loss = margin_rank(Tensor(np.array([0.5])), Tensor(np.array([0.2])), margin=0.1)
        assert loss.item() == (0.5 - 0.2 + 0.1)

    def test_tie_scores_margin(self):
        loss = margin_rank(Tensor(np.array([0.3])), Tensor(np.array([0.3])), margin=0.1)
        assert loss.item() == pytest.approx(0.1)

    def test_negative_distance_rejected(self):
        with pytest.raises(ContractError):
            margin_rank(Tensor(np.array([-0.1])), Tensor(np.array([0.2])))

    def test_gradients_away_from_hinge(self):
        rng = np.random.default_rng(13)
        d_pref = rng.uniform(0.5, 1.0, size=4)
        d_other = rng.uniform(0.0, 0.3, size=4)  # active hinge, away from the kink
        probe = linear_probe((4,), 14)
        finite_difference_check(
            lambda ts: T.sum_(T.mul(margin_rank(ts[0], ts[1], margin=0.1), probe)),
            [d_pref, d_other])
