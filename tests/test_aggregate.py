"""Spark aggregation tests, oracle-checked against DuckDB.

Every result-producing Spark aggregation is verified with
``repro.oracle.assert_equivalent`` running independent SQL over the same
input events — catching any error in the counter-id arithmetic, the
mapInPandas kernel, or the groupBy merge, not just "it ran".
"""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro import oracle
from repro.bayesnet import networks
from repro.bayesnet.cpd import GroundTruth
from repro.stream.aggregate import (
    aggregate_events_df,
    aggregate_generated,
    aggregate_local,
    duckdb_counts_sql,
)
from repro.stream.events import events_pandas


@pytest.fixture(scope="module")
def gt():
    rng_net = networks.synth_network(
        "agg-test", 6, 7, 60, card_cap=4, d_max=3, seed=3, attempts=4
    )
    return GroundTruth.random(rng_net, seed=4)


class TestOracle:
    def test_spark_counts_match_duckdb(self, spark, gt):
        """The full Spark path (events DF -> mapInPandas kernel ->
        groupBy) equals DuckDB's independent GROUP BY over the same
        events table."""
        events = events_pandas(gt, 0, 4000, k=5, seed=7)
        sdf = spark.createDataFrame(events)
        got = aggregate_events_df(spark, gt.net, sdf, k=5)
        oracle.assert_equivalent(got, duckdb_counts_sql(gt.net), events=events)

    def test_oracle_on_chain_network(self, spark):
        g = GroundTruth.random(networks.chain(4, J=3), seed=5)
        events = events_pandas(g, 0, 2500, k=3, seed=8)
        sdf = spark.createDataFrame(events)
        got = aggregate_events_df(spark, g.net, sdf, k=3)
        oracle.assert_equivalent(got, duckdb_counts_sql(g.net), events=events)

    @pytest.mark.parametrize("name", ["alarm"])
    def test_oracle_on_paper_network(self, spark, name):
        g = networks.ground_truth(name, seed=2)
        events = events_pandas(g, 0, 1000, k=4, seed=2)
        got = aggregate_events_df(spark, g.net, spark.createDataFrame(events), k=4)
        oracle.assert_equivalent(got, duckdb_counts_sql(g.net), events=events)

    def test_oracle_catches_wrong_result(self, spark, gt):
        """Negative control: a corrupted aggregation must fail the oracle."""
        events = events_pandas(gt, 0, 500, k=3, seed=9)
        sdf = spark.createDataFrame(events)
        bad = aggregate_events_df(spark, gt.net, sdf, k=3).withColumn(
            "n", F.col("n") + 1
        )
        with pytest.raises(AssertionError):
            oracle.assert_equivalent(bad, duckdb_counts_sql(gt.net), events=events)


class TestPathAgreement:
    def test_generated_equals_local(self, spark, gt):
        """Spark partition-local generation == driver reference, exactly."""
        a = aggregate_generated(spark, gt, 0, 5000, k=5, seed=11, rows_per_task=700)
        b = aggregate_local(gt, 0, 5000, k=5, seed=11)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_generated_partition_split_invariant(self, spark, gt):
        a = aggregate_generated(spark, gt, 0, 3000, k=4, seed=12, rows_per_task=500)
        b = aggregate_generated(spark, gt, 0, 3000, k=4, seed=12, rows_per_task=3000)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_events_df_equals_local(self, spark, gt):
        events = events_pandas(gt, 0, 2000, k=4, seed=13)
        sdf = spark.createDataFrame(events)
        pdf = (
            aggregate_events_df(spark, gt.net, sdf, k=4)
            .toPandas()
            .sort_values(["counter_id", "site"])
        )
        cid, sid, n = aggregate_local(gt, 0, 2000, k=4, seed=13)
        np.testing.assert_array_equal(pdf["counter_id"].to_numpy(), cid)
        np.testing.assert_array_equal(pdf["site"].to_numpy(), sid)
        np.testing.assert_array_equal(pdf["n"].to_numpy(), n)


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
