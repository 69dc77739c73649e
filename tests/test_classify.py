"""Tests for Bayesian classification (Section 5.3)."""
import itertools

import numpy as np
import pytest

from repro.bayesnet import networks, sampling
from repro.bayesnet.cpd import GroundTruth
from repro.core import classify
from repro.core.model import CountModel
from repro.stream.aggregate import aggregate_local


@pytest.fixture(scope="module")
def vee_gt():
    from repro.bayesnet.structure import BayesNet

    net = BayesNet("vee", [[], [], [0, 1]], np.array([2, 3, 4]))
    return GroundTruth.random(net, seed=5, alpha=0.4)


def brute_force_predict(gt: GroundTruth, x: np.ndarray, t: int) -> int:
    """Argmax over the hidden variable of the *full joint* — the
    definitionally correct answer predict_one must match."""
    best, best_lp = -1, -np.inf
    for y in range(int(gt.net.cards[t])):
        z = x.copy()
        z[t] = y
        lp = float(gt.log_prob(z[None, :])[0])
        if lp > best_lp:
            best, best_lp = y, lp
    return best


class TestPredictOne:
    def test_matches_brute_force_ground_truth(self, vee_gt):
        rng = np.random.default_rng(0)
        for _ in range(30):
            x = np.array(
                [rng.integers(0, c) for c in vee_gt.net.cards], dtype=np.int64
            )
            t = int(rng.integers(0, 3))
            assert classify.predict_one(vee_gt, vee_gt.net, x, t) == brute_force_predict(
                vee_gt, x, t
            )

    def test_matches_brute_force_on_chain(self):
        gt = GroundTruth.random(networks.chain(5, J=3), seed=8, alpha=0.4)
        rng = np.random.default_rng(1)
        for _ in range(30):
            x = rng.integers(0, 3, 5).astype(np.int64)
            t = int(rng.integers(0, 5))
            assert classify.predict_one(gt, gt.net, x, t) == brute_force_predict(gt, x, t)

    def test_matches_brute_force_with_count_model(self):
        """Markov-blanket argmax == full-joint argmax also for learned
        CountModels (all assignments enumerated)."""
        gt = GroundTruth.random(networks.chain(4, J=2), seed=9)
        cid, _, n = aggregate_local(gt, 0, 4000, k=1, seed=10)
        model = CountModel(gt.net, np.bincount(cid, weights=n, minlength=gt.net.n_counters))
        for x in itertools.product(range(2), repeat=4):
            x = np.array(x, dtype=np.int64)
            for t in range(4):
                full = max(
                    range(2),
                    key=lambda y: float(
                        model.log_prob(
                            np.array([np.where(np.arange(4) == t, y, x)])
                        )[0]
                    ),
                )
                assert classify.predict_one(model, gt.net, x, t) == full


class TestMakeTests:
    def test_shapes_and_ranges(self, vee_gt):
        X, targets = classify.make_tests(vee_gt, 200, seed=3)
        assert X.shape == (200, 3)
        assert targets.shape == (200,)
        assert targets.min() >= 0 and targets.max() < 3

    def test_deterministic(self, vee_gt):
        a = classify.make_tests(vee_gt, 100, seed=3)
        b = classify.make_tests(vee_gt, 100, seed=3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_disjoint_from_training_stream(self, vee_gt):
        train = sampling.sample_events(vee_gt, 0, 100, seed=3)
        test, _ = classify.make_tests(vee_gt, 100, seed=3)
        assert not np.array_equal(train, test)


class TestErrorRate:
    def test_ground_truth_model_beats_random(self, vee_gt):
        X, targets = classify.make_tests(vee_gt, 400, seed=4)
        err = classify.error_rate(vee_gt, vee_gt.net, X, targets)
        # Random guessing over cards (2,3,4) would err ~0.63 on average.
        assert err < 0.5

    def test_error_rate_bounds(self, vee_gt):
        X, targets = classify.make_tests(vee_gt, 50, seed=5)
        err = classify.error_rate(vee_gt, vee_gt.net, X, targets)
        assert 0.0 <= err <= 1.0

    def test_learned_model_close_to_ground_truth_classifier(self):
        gt = GroundTruth.random(networks.chain(6, J=3), seed=12, alpha=0.3)
        cid, _, n = aggregate_local(gt, 0, 60_000, k=1, seed=13)
        model = CountModel(gt.net, np.bincount(cid, weights=n, minlength=gt.net.n_counters))
        Xt, targets = classify.make_tests(gt, 500, seed=14)
        err_model = classify.error_rate(model, gt.net, Xt, targets)
        err_true = classify.error_rate(gt, gt.net, Xt, targets)
        assert abs(err_model - err_true) < 0.05
