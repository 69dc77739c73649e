"""Unit tests for ancestral sampling and its determinism contract."""
import numpy as np
import pytest

from repro.bayesnet import networks, sampling
from repro.bayesnet.cpd import GroundTruth
from repro.stream.aggregate import aggregate_local


@pytest.fixture(scope="module")
def chain_gt() -> GroundTruth:
    return GroundTruth.random(networks.chain(4, J=3), seed=1)


class TestDeterminism:
    def test_same_range_same_events(self, chain_gt):
        a = sampling.sample_events(chain_gt, 0, 1000, seed=5)
        b = sampling.sample_events(chain_gt, 0, 1000, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_subrange_consistency(self, chain_gt):
        """Event t is identical no matter which [lo, hi) generated it."""
        full = sampling.sample_events(chain_gt, 0, 3000, seed=5)
        part = sampling.sample_events(chain_gt, 700, 2500, seed=5)
        np.testing.assert_array_equal(full[700:2500], part)

    def test_cross_chunk_boundary(self, chain_gt):
        c = sampling.CHUNK
        full = sampling.sample_events(chain_gt, 0, c + 50, seed=5)
        tail = sampling.sample_events(chain_gt, c - 10, c + 50, seed=5)
        np.testing.assert_array_equal(full[c - 10 :], tail)

    def test_seed_changes_events(self, chain_gt):
        a = sampling.sample_events(chain_gt, 0, 500, seed=5)
        b = sampling.sample_events(chain_gt, 0, 500, seed=6)
        assert not np.array_equal(a, b)

    def test_sites_subrange_consistency(self):
        full = sampling.sample_sites(0, 3000, k=7, seed=5)
        part = sampling.sample_sites(123, 2111, k=7, seed=5)
        np.testing.assert_array_equal(full[123:2111], part)

    def test_empty_range(self, chain_gt):
        assert sampling.sample_events(chain_gt, 10, 10, seed=1).shape == (0, 4)
        assert sampling.sample_sites(10, 10, k=3, seed=1).shape == (0,)


class TestChunkPieces:
    def test_inside_one_chunk(self):
        c = sampling.CHUNK
        assert sampling.chunk_pieces(c + 10, c + 90) == [(c + 10, c + 90)]

    def test_no_empty_piece_at_boundaries(self):
        c = sampling.CHUNK
        assert sampling.chunk_pieces(c, 3 * c) == [(c, 2 * c), (2 * c, 3 * c)]
        assert sampling.chunk_pieces(c - 5, 2 * c) == [(c - 5, c), (c, 2 * c)]

    def test_pieces_tile_range_within_chunks(self):
        c = sampling.CHUNK
        lo, hi = c - 300, 4 * c + 7
        pieces = sampling.chunk_pieces(lo, hi)
        assert len(pieces) == 5
        assert [a for a, _ in pieces] == [lo] + [b for _, b in pieces[:-1]]
        assert pieces[-1][1] == hi
        for a, b in pieces:
            assert a < b and a // c == (b - 1) // c


class TestDistribution:
    def test_values_in_domain(self, chain_gt):
        X = sampling.sample_events(chain_gt, 0, 2000, seed=2)
        for i in range(chain_gt.net.n):
            assert X[:, i].min() >= 0
            assert X[:, i].max() < int(chain_gt.net.cards[i])

    def test_root_marginal_matches_cpd(self, chain_gt):
        X = sampling.sample_events(chain_gt, 0, 40_000, seed=3)
        emp = np.bincount(X[:, 0], minlength=3) / len(X)
        np.testing.assert_allclose(emp, chain_gt.cpds[0][0], atol=0.02)

    def test_conditional_matches_cpd(self, chain_gt):
        X = sampling.sample_events(chain_gt, 0, 60_000, seed=4)
        for pv in range(3):
            sel = X[X[:, 0] == pv]
            emp = np.bincount(sel[:, 1], minlength=3) / len(sel)
            np.testing.assert_allclose(emp, chain_gt.cpds[1][pv], atol=0.03)

    def test_joint_matches_ground_truth_probs(self):
        """Empirical counter frequencies ~= analytic per-counter
        probabilities on a tree network."""
        gt = GroundTruth.random(networks.chain(5, J=2), seed=7)
        cid, _, n = aggregate_local(gt, 0, 50_000, k=1, seed=8)
        emp = np.bincount(cid, weights=n, minlength=gt.net.n_counters) / 50_000
        np.testing.assert_allclose(emp, gt.exact_counter_probs(), atol=0.02)

    def test_sites_uniform(self):
        s = sampling.sample_sites(0, 60_000, k=30, seed=9)
        freq = np.bincount(s, minlength=30) / len(s)
        np.testing.assert_allclose(freq, 1 / 30, atol=0.005)

    def test_sites_range(self):
        s = sampling.sample_sites(0, 1000, k=4, seed=1)
        assert s.min() >= 0 and s.max() <= 3
