"""Spark aggregation tests, oracle-checked against DuckDB.

The one Spark aggregation that feeds training is verified with
``repro.oracle.assert_equivalent`` running independent SQL over the same
events — catching any error in the in-worker generation, the counter-id
arithmetic, the mapInPandas kernel, or the groupBy merge of task
partials, not just "it ran". Every range spans at least three sampling
chunks, so the merge combines several tasks.
"""
import numpy as np
import pandas as pd
import pytest

from repro import oracle
from repro.bayesnet import networks
from repro.bayesnet.cpd import GroundTruth
from repro.bayesnet.sampling import CHUNK
from repro.stream.aggregate import (
    aggregate_generated,
    aggregate_local,
    duckdb_counts_sql,
)
from repro.stream.events import events_pandas

#: Two chunk boundaries inside: three tasks, the outer two partial.
LO, HI = CHUNK - 700, 2 * CHUNK + 500


@pytest.fixture(scope="module")
def gt():
    rng_net = networks.synth_network(
        "agg-test", 6, 7, 60, card_cap=4, d_max=3, seed=3, attempts=4
    )
    return GroundTruth.random(rng_net, seed=4)


def generated_counts(spark, g, *, k, seed) -> pd.DataFrame:
    cid, sid, n = aggregate_generated(spark, g, LO, HI, k=k, seed=seed)
    return pd.DataFrame({"counter_id": cid, "site": sid, "n": n})


def assert_matches_duckdb(got, g, *, k, seed):
    events = events_pandas(g, LO, HI, k=k, seed=seed)
    oracle.assert_equivalent(got, duckdb_counts_sql(g.net), events=events)


class TestOracle:
    def test_spark_counts_match_duckdb(self, spark, gt):
        """The Spark path (in-worker generation -> mapInPandas kernel ->
        groupBy) equals DuckDB's independent GROUP BY over the same
        events table."""
        got = generated_counts(spark, gt, k=5, seed=7)
        assert_matches_duckdb(got, gt, k=5, seed=7)

    def test_oracle_on_chain_network(self, spark):
        g = GroundTruth.random(networks.chain(4, J=3), seed=5)
        assert_matches_duckdb(generated_counts(spark, g, k=3, seed=8), g, k=3, seed=8)

    @pytest.mark.parametrize("name", ["alarm"])
    def test_oracle_on_paper_network(self, spark, name):
        g = networks.ground_truth(name, seed=2)
        assert_matches_duckdb(generated_counts(spark, g, k=4, seed=2), g, k=4, seed=2)

    def test_oracle_catches_wrong_result(self, spark, gt):
        """Negative control: a corrupted aggregation must fail the oracle."""
        bad = generated_counts(spark, gt, k=3, seed=9)
        bad["n"] += 1
        with pytest.raises(AssertionError):
            assert_matches_duckdb(bad, gt, k=3, seed=9)


class TestPathAgreement:
    def test_generated_equals_local(self, spark, gt):
        """Spark partition-local generation == driver reference, exactly,
        over a range whose chunk pieces run as separate tasks."""
        a = aggregate_generated(spark, gt, LO, HI, k=5, seed=11)
        b = aggregate_local(gt, LO, HI, k=5, seed=11)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestAggregateInvariants:
    def test_total_increments(self, gt):
        cid, sid, n = aggregate_local(gt, 0, 1000, k=5, seed=14)
        assert n.sum() == 2 * gt.net.n * 1000

    def test_pairs_unique(self, gt):
        cid, sid, n = aggregate_local(gt, 0, 1000, k=5, seed=14)
        keys = cid * 5 + sid
        assert len(np.unique(keys)) == len(keys)

    def test_ids_in_range(self, gt):
        cid, sid, n = aggregate_local(gt, 0, 1000, k=5, seed=14)
        assert cid.min() >= 0 and cid.max() < gt.net.n_counters
        assert sid.min() >= 0 and sid.max() < 5

    def test_per_variable_mass(self, gt):
        """Each variable's family and parent blocks both absorb exactly
        one increment per event."""
        cid, sid, n = aggregate_local(gt, 0, 800, k=3, seed=15)
        tot = np.zeros(gt.net.n_counters, dtype=np.int64)
        np.add.at(tot, cid, n)
        for i in range(gt.net.n):
            assert tot[gt.net.fam_offset[i] : gt.net.fam_offset[i + 1]].sum() == 800
            assert tot[gt.net.par_offset[i] : gt.net.par_offset[i + 1]].sum() == 800

    def test_batch_additivity(self, gt):
        """Aggregating [0,600) equals [0,250) + [250,600) summed."""
        full = np.zeros(gt.net.n_counters, dtype=np.int64)
        cid, _, n = aggregate_local(gt, 0, 600, k=4, seed=16)
        np.add.at(full, cid, n)
        split = np.zeros(gt.net.n_counters, dtype=np.int64)
        for lo, hi in [(0, 250), (250, 600)]:
            cid, _, n = aggregate_local(gt, lo, hi, k=4, seed=16)
            np.add.at(split, cid, n)
        np.testing.assert_array_equal(full, split)
