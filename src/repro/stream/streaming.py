"""Genuine Structured Streaming wiring of the learner.

The rest of the codebase drives the learner with an explicit micro-batch
loop (semantically ``foreachBatch``). This module shows the same
coordinator update running under a real Structured Streaming query: the
event stream is staged as one parquet file per micro-batch, read with
``readStream`` (``maxFilesPerTrigger=1`` so Spark's micro-batches align
with the protocol's), and every micro-batch is aggregated and fed to the
same :class:`~repro.core.learner.Coordinator` that ``train_many`` drives,
inside ``foreachBatch``.

Used by ``jobs/streaming_demo.py`` and the streaming integration test,
which asserts the resulting models and messages equal the batch-loop
path's.
"""
from __future__ import annotations

import os

import numpy as np
from pyspark.sql import SparkSession

from repro.bayesnet.cpd import GroundTruth
from repro.core.learner import Coordinator
from repro.stream.aggregate import _agg_kernel
from repro.stream.events import batch_ranges, events_pandas


def stage_stream(
    spark: SparkSession, gt: GroundTruth, out_dir: str, *, m: int, k: int, seed: int,
    first_batch: int = 1024,
) -> int:
    """Write the event stream as one parquet file per micro-batch.

    File names are zero-padded by batch index so lexicographic file
    order equals stream order. Returns the number of batches staged.
    """
    import glob
    import shutil

    ranges = batch_ranges(m, first=first_batch)
    os.makedirs(out_dir, exist_ok=True)
    stage = os.path.join(out_dir, "_stage")
    for b, (lo, hi) in enumerate(ranges):
        pdf = events_pandas(gt, lo, hi, k=k, seed=seed)
        spark.createDataFrame(pdf).coalesce(1).write.mode("overwrite").parquet(stage)
        (part,) = glob.glob(os.path.join(stage, "part-*.parquet"))
        # Flat files (not partition directories) so the file-stream source
        # sees plain parquet; sequential writes give ordered mod-times.
        shutil.move(part, os.path.join(out_dir, f"b{b:05d}.parquet"))
    shutil.rmtree(stage, ignore_errors=True)
    return len(ranges)


def run_streaming_learner(
    spark: SparkSession,
    gt: GroundTruth,
    stream_dir: str,
    *,
    k: int,
    eps: float,
    algos: list[str],
    seed: int,
    proto_c: float = 1.0,
) -> dict[str, tuple]:
    """Consume the staged stream with a Structured Streaming query.

    ``algos`` and the engine seeds are as in :class:`Coordinator`.
    Returns ``{algo: (CountModel, total_messages)}`` once the query drains
    (``availableNow`` trigger). Each invocation uses a fresh checkpoint,
    removed when the query ends, so re-running over the same staged
    stream replays it from the start.
    """
    import tempfile

    net = gt.net
    coord = Coordinator(net, algos, k=k, eps=eps, seed=seed, proto_c=proto_c)
    schema = spark.read.parquet(os.path.join(stream_dir, "b00000.parquet")).schema
    vcols = [f"v{i}" for i in range(net.n)]

    def on_batch(batch_df, batch_id: int) -> None:
        # No sort: the kernel's output does not depend on row order.
        pdf = batch_df.toPandas()
        if not len(pdf):
            return
        X = pdf[vcols].to_numpy(dtype=np.int32)
        sites = pdf["site"].to_numpy(dtype=np.int64)
        keys, cnts = _agg_kernel(net, X, sites, k)
        hi = int(pdf["event_id"].max()) + 1
        coord.update(hi, keys // k, keys % k, cnts.astype(np.int64))

    with tempfile.TemporaryDirectory(prefix="repro-stream-ckpt-") as ckpt:
        q = (
            spark.readStream.schema(schema)
            .option("maxFilesPerTrigger", 1)
            .parquet(os.path.join(stream_dir, "b*.parquet"))
            .writeStream.foreachBatch(on_batch)
            .trigger(availableNow=True)
            .option("checkpointLocation", ckpt)
            .start()
        )
        q.awaitTermination()
    return {a: (r.model, r.total_messages) for a, r in coord.finish().items()}
