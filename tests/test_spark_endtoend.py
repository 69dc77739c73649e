"""End-to-end training through the Spark aggregation path."""
import numpy as np
import pytest

from repro.bayesnet import networks
from repro.core import classify
from repro.core.learner import train_many
from repro.core.model import mean_abs_ratio_error


@pytest.fixture(scope="module")
def spark_runs(spark):
    gt = networks.ground_truth("alarm")
    res = train_many(
        spark,
        gt,
        ["exact", "baseline", "uniform", "nonuniform"],
        # Batches [7168, 15360) and [15360, 20000) cross a sampling-chunk
        # boundary, so each runs two Spark tasks merged by the groupBy.
        m=20_000,
        k=10,
        eps=0.1,
        seed=31,
    )
    return gt, res


class TestSparkTraining:
    def test_spark_equals_local_exact_counts(self, spark_runs):
        """The Spark-aggregated stream is the same stream: EXACTMLE's
        counters match the driver-side reference run bit-for-bit."""
        gt, res = spark_runs
        local = train_many(
            None, gt, ["exact"], m=20_000, k=10, eps=0.1, seed=31
        )
        np.testing.assert_array_equal(
            res["exact"].model.values, local["exact"].model.values
        )

    def test_spark_equals_local_messages(self, spark_runs):
        """Approximate engines see identical aggregates in identical
        order, so message tallies agree exactly with the local path."""
        gt, res = spark_runs
        local = train_many(
            None, gt, ["exact", "baseline", "uniform", "nonuniform"],
            m=20_000, k=10, eps=0.1, seed=31,
        )
        for algo in ["baseline", "uniform", "nonuniform"]:
            assert res[algo].total_messages == local[algo].total_messages
            np.testing.assert_array_equal(
                res[algo].model.values, local[algo].model.values
            )

    def test_guarantee_through_spark(self, spark_runs):
        gt, res = spark_runs
        Xt, _ = classify.make_tests(gt, 400, seed=32)
        lp_mle = res["exact"].model.log_prob(Xt)
        for algo in ["baseline", "uniform", "nonuniform"]:
            err = mean_abs_ratio_error(res[algo].model.log_prob(Xt), lp_mle)
            assert err <= np.expm1(0.1), algo

    def test_classification_close_to_exact(self, spark_runs):
        gt, res = spark_runs
        Xt, targets = classify.make_tests(gt, 300, seed=33)
        e_exact = classify.error_rate(res["exact"].model, gt.net, Xt, targets)
        e_nu = classify.error_rate(res["nonuniform"].model, gt.net, Xt, targets)
        assert abs(e_nu - e_exact) < 0.05
