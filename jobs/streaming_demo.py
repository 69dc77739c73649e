"""Structured Streaming demo: stage the distributed stream as files and
learn the model with a real streaming query (foreachBatch).

Usage: spark-submit jobs/streaming_demo.py [network] [m]
"""
import sys
import tempfile

from repro.bayesnet import networks
from repro.experiments import Config, get_spark
from repro.stream.streaming import run_streaming_learner, stage_stream


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "alarm"
    m = int(sys.argv[2]) if len(sys.argv) > 2 else 20_000
    cfg = Config()
    spark = get_spark()
    gt = networks.ground_truth(name)
    with tempfile.TemporaryDirectory(prefix="repro-stream-") as d:
        nb = stage_stream(spark, gt, d, m=m, k=cfg.k, seed=cfg.seed)
        print(f"staged {nb} micro-batches under {d}")
        out = run_streaming_learner(
            spark, gt, d, k=cfg.k, eps=cfg.eps,
            algos=["exact", "nonuniform"], seed=cfg.seed, proto_c=cfg.proto_c,
        )
    for algo, (model, messages) in out.items():
        print(f"{algo}: {messages:,} messages, model over {model.net.n_counters} counters")


if __name__ == "__main__":
    main()
