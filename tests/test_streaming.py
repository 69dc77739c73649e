"""Structured Streaming integration: the foreachBatch wiring produces
the same learned state as the explicit micro-batch loop."""
import os
import tempfile

import numpy as np
import pytest

from repro.bayesnet import networks
from repro.bayesnet.cpd import GroundTruth
from repro.core.learner import train_many
from repro.stream.streaming import run_streaming_learner, stage_stream

ALGOS = ["exact", "baseline", "uniform", "nonuniform"]


@pytest.fixture(scope="module")
def staged(spark, tmp_path_factory):
    gt = GroundTruth.random(networks.chain(5, J=3), seed=41)
    d = str(tmp_path_factory.mktemp("stream"))
    n_batches = stage_stream(spark, gt, d, m=3000, k=4, seed=42, first_batch=512)
    return gt, d, n_batches


def assert_same_as_driver(out, ref):
    for algo, (model, messages) in out.items():
        np.testing.assert_array_equal(model.values, ref[algo].model.values)
        assert model.lam == ref[algo].model.lam
        assert messages == ref[algo].total_messages, algo


class TestStructuredStreaming:
    def test_stages_doubling_batches(self, staged):
        import glob

        gt, d, n_batches = staged
        files = glob.glob(f"{d}/b*.parquet")
        assert len(files) == n_batches
        assert n_batches >= 3

    def test_exact_counts_match_batch_loop(self, spark, staged):
        gt, d, _ = staged
        out = run_streaming_learner(
            spark, gt, d, k=4, eps=0.1, algos=["exact"], seed=43
        )
        model, messages = out["exact"]
        ref = train_many(None, gt, ["exact"], m=3000, k=4, eps=0.1, seed=42)
        np.testing.assert_array_equal(model.values, ref["exact"].model.values)
        assert messages == ref["exact"].total_messages

    def test_approx_engine_runs_under_streaming(self, spark, staged):
        """Every algorithm's model and messages equal the driver path's
        on the same stream, batches and seed: both drive one coordinator."""
        gt, d, _ = staged
        kw = dict(k=4, eps=0.2, seed=42, proto_c=0.1)
        out = run_streaming_learner(spark, gt, d, algos=ALGOS, **kw)
        ref = train_many(None, gt, ALGOS, m=3000, first_batch=512, **kw)
        assert ref["uniform"].total_messages < ref["exact"].total_messages
        assert_same_as_driver(out, ref)

    def test_nb_shared_under_streaming(self, spark, tmp_path):
        gt = GroundTruth.random(networks.naive_bayes(6, J_root=3, J_leaf=2), seed=44)
        stage_stream(spark, gt, str(tmp_path), m=3000, k=5, seed=45, first_batch=512)
        kw = dict(k=5, eps=0.1, seed=45, proto_c=0.1)
        out = run_streaming_learner(spark, gt, str(tmp_path), algos=["nb-shared"], **kw)
        ref = train_many(None, gt, ["nb-shared"], m=3000, first_batch=512, **kw)
        assert_same_as_driver(out, ref)

    def test_leaves_no_temp_dirs(self, spark, staged, tmp_path, monkeypatch):
        """The query's checkpoint lives only as long as the query."""
        gt, d, _ = staged
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        run_streaming_learner(spark, gt, d, k=4, eps=0.1, algos=["exact"], seed=43)
        assert os.listdir(tmp_path) == []
