#!/usr/bin/env python3
"""Benchmark: train all four algorithms over one simulated stream, then
evaluate them, as a user of the reproduction waits for it.

Run from the root of a checkout::

    python3 perfbench/run.py --workload alarm-streaming --seed 7 --seconds 30 --trace 0

The load is a closed loop: one driver process trains one network at a
time, and each micro-batch is pulled when the previous one is done.
After set-up the workload repeats train + evaluate for as long as the
next repetition should end within ``--seconds`` (at least once) and
reports medians over the repetitions after the first. ``--trace 1`` instead
runs two plain repetitions and one traced one, and reports the
per-layer metrics of ``perfbench/layers.py``. Every repetition is checked against
the correctness gates; the last line of standard output is the JSON
result. Workloads, metrics and gates are described in
``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DRIVER_MEMORY = "4g"
K, EPS, PROTO_C, N_TESTS = 30, 0.1, 0.1, 1000
CLS_ERR_GAP_MAX = 0.08  # the bound benchmarks/bench_table2.py uses
WARMUP_M = 1024
ALGOS = ["exact", "baseline", "uniform", "nonuniform"]


@dataclass(frozen=True)
class Workload:
    name: str
    network: str
    m: int
    path: str  # "spark" (train_many on Spark) or "streaming"
    builds: int  # network builds timed in set-up; set-up reports their median
    #: messages (exact, baseline, uniform, nonuniform) at seed 7
    seed7_messages: tuple[int, int, int, int] | None


WORKLOADS = {
    w.name: w
    for w in [
        # EXPERIMENTS.md Table 3, MUNIN row.
        Workload("munin-table-spark", "munin", 50_000, "spark", 1,
                 (104_100_000, 100_184_958, 69_208_204, 75_631_587)),
        # Equal on the driver path and the streaming path.
        Workload("alarm-streaming", "alarm", 200_000, "streaming", 11,
                 (14_800_000, 1_197_342, 1_101_399, 1_140_564)),
    ]
}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "run_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "messages.baseline": "count",
    "messages.uniform": "count",
    "messages.nonuniform": "count",
}


# ------------------------------------------------------------------ spark


def spark_submit_args(work: Path) -> str:
    java = " ".join([
        f"-Djava.io.tmpdir={work}",
        f"-Dlog4j2.configurationFile={(HERE / 'log4j2.properties').as_uri()}",
        "-XX:-UsePerfData",
    ])
    args = [
        "--master", "local[*]",
        "--driver-memory", DRIVER_MEMORY,
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "--conf", f"spark.local.dir={work}",
        "--conf", f"spark.sql.warehouse.dir={work / 'warehouse'}",
        "--driver-java-options", java,
        "pyspark-shell",
    ]
    return " ".join(shlex.quote(a) for a in args)


def start_spark(work: Path):
    os.environ["PYSPARK_SUBMIT_ARGS"] = spark_submit_args(work)
    # The JVM spark-submit runs to build the driver command line.
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={work}"
    from repro.experiments import get_spark

    spark = get_spark()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM this process launched, and wait."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _import_repro(batches):
    import repro.stream.aggregate  # noqa: F401

    yield from batches


def start_python_workers(spark) -> None:
    """One Python worker per core, with repro imported.

    A small warm-up run starts one worker only; the 2-task micro-batches
    of the timed run would otherwise start the rest while timed.
    """
    n = spark.sparkContext.defaultParallelism
    spark.range(n, numPartitions=n).mapInPandas(_import_repro, "id long").collect()


# ---------------------------------------------------------------- workload


class Bench:
    def __init__(self, wl: Workload, seed: int, seconds: float, work: Path) -> None:
        from repro.experiments import Config

        self.wl, self.seed, self.seconds, self.work = wl, seed, seconds, work
        self.cfg = Config(m=wl.m, k=K, eps=EPS, n_tests=N_TESTS, seed=seed, proto_c=PROTO_C)
        self.spark = None
        self.stream_dir = work / "stream"
        self.setup_parts: dict[str, float] = {}

    # -------------------------------------------------------------- set-up

    def setup(self, trace=None) -> float:
        """Set up and return the set-up time.

        A ``LayerTrace`` given as ``trace`` is installed while the stream is
        staged, the only time the streaming workload samples events.
        """
        from repro.bayesnet import networks

        parts = self.setup_parts
        t = time.perf_counter()
        self.spark = start_spark(self.work)
        parts["spark_start_s"] = time.perf_counter() - t
        builds = []
        for _ in range(self.wl.builds):
            # ground_truth memoizes per process; clear so each build is timed.
            for cache in ("_GT_CACHE", "_NET_CACHE"):
                getattr(networks, cache, {}).clear()
            t = time.perf_counter()
            self.gt = networks.ground_truth(self.wl.network)
            builds.append(time.perf_counter() - t)
        parts["build_s"] = statistics.median(builds)
        t = time.perf_counter()
        if self.wl.path == "streaming":
            from repro.stream.streaming import stage_stream

            if trace is not None:
                trace.install()
            try:
                stage_stream(self.spark, self.gt, str(self.stream_dir), m=self.wl.m, k=K, seed=self.seed)
            finally:
                if trace is not None:
                    trace.restore()
            parts["stage_s"] = time.perf_counter() - t
            # No warm-up: it would have to be a query over the whole stream
            # (after a smaller one the next full query is still ~20%
            # slower), and the first query is the slowest of a run's four
            # or more, which their median leaves out.
        else:
            from repro.core.learner import train_many

            start_python_workers(self.spark)
            train_many(self.spark, self.gt, ALGOS, m=WARMUP_M, k=K, eps=EPS,
                       seed=self.seed, proto_c=PROTO_C)
            parts["warmup_s"] = time.perf_counter() - t
        return sum(parts.values())

    # ------------------------------------------------------------ one rep

    def train(self) -> dict:
        if self.wl.path == "streaming":
            from repro.core.learner import TrainResult
            from repro.stream.streaming import run_streaming_learner

            out = run_streaming_learner(self.spark, self.gt, str(self.stream_dir), k=K, eps=EPS,
                                        algos=ALGOS, seed=self.seed, proto_c=PROTO_C)
            return {a: TrainResult(a, model, msgs) for a, (model, msgs) in out.items()}
        from repro.core.learner import train_many

        return train_many(self.spark, self.gt, ALGOS, m=self.wl.m, k=K, eps=EPS,
                          seed=self.seed, proto_c=PROTO_C)

    def rep(self, tracer=None) -> dict:
        """One train + evaluate; times and the evaluation readout."""
        from contextlib import nullcontext

        from repro.experiments import evaluate_models

        span = tracer.span if tracer else (lambda name: nullcontext())
        t0 = time.perf_counter()
        with span("learner.train"):
            res = self.train()
        t1 = time.perf_counter()
        with span("evaluate"):
            ev = evaluate_models(self.gt, res, self.cfg)
        t2 = time.perf_counter()
        return dict(train_s=t1 - t0, run_s=t2 - t0, ev=ev,
                    messages=tuple(ev[a]["messages"] for a in ALGOS))

    # --------------------------------------------------------------- gates

    def reference_messages(self) -> tuple[int, ...] | None:
        """The driver path's messages on the same stream (streaming only)."""
        if self.wl.path != "streaming":
            return None
        from repro.core.learner import train_many

        res = train_many(None, self.gt, ALGOS, m=self.wl.m, k=K, eps=EPS,
                         seed=self.seed, proto_c=PROTO_C)
        return tuple(res[a].total_messages for a in ALGOS)

    def gate_failures(self, rep: dict, first: dict, ref: tuple | None) -> list[str]:
        msgs = rep["messages"]
        fails = []
        if msgs[0] != 2 * self.wl.m * self.gt.net.n:
            fails.append(f"exact messages {msgs[0]} != 2*m*n")
        if self.seed == 7 and self.wl.seed7_messages and msgs != self.wl.seed7_messages:
            fails.append(f"messages {msgs} != seed-7 reference {self.wl.seed7_messages}")
        if msgs != first["messages"]:
            fails.append(f"messages {msgs} differ from the first repetition {first['messages']}")
        if ref is not None and msgs != ref:
            fails.append(f"messages {msgs} != driver path {ref}")
        gap = cls_err_gap(rep["ev"])
        if gap > CLS_ERR_GAP_MAX:
            fails.append(f"cls_err_gap {gap} > {CLS_ERR_GAP_MAX}")
        return fails

    def local_batches(self):
        """Driver-side aggregation of the same stream, batch by batch, timed."""
        from repro.stream.aggregate import aggregate_local
        from repro.stream.events import batch_ranges

        elapsed, outs = 0.0, []
        for lo, hi in batch_ranges(self.wl.m):
            t = time.perf_counter()
            outs.append(aggregate_local(self.gt, lo, hi, k=K, seed=self.seed))
            elapsed += time.perf_counter() - t
        return elapsed, outs


def cls_err_gap(ev: dict) -> float:
    return max(abs(ev[a]["cls_err"] - ev["exact"]["cls_err"]) for a in ALGOS[1:])


def err_mle_max(ev: dict) -> float:
    return max(ev[a]["err_mle"] for a in ALGOS[1:])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# -------------------------------------------------------------------- runs


def run_plain(b: Bench) -> tuple[dict, int, int]:
    setup_s = b.setup()
    t_start = time.perf_counter()
    reps = [b.rep()]
    # Later repetitions raise the peak a little each (the streaming path
    # holds on to memory), so read it after a fixed amount of work.
    rss = peak_rss_mb()
    # Start another repetition only if, as long as the last one, it ends
    # within --seconds, so a workload whose repetition is longer runs once.
    while time.perf_counter() - t_start + reps[-1]["run_s"] <= b.seconds:
        reps.append(b.rep())
    ref = b.reference_messages()
    failed = 0
    for r in reps:
        fails = b.gate_failures(r, reps[0], ref)
        for f in fails:
            print(f"GATE FAILED: {f}", file=sys.stderr)
        failed += bool(fails)
    msgs = dict(zip(ALGOS, reps[0]["messages"]))
    # The first repetition of a process runs slower (the first streaming
    # query takes about twice as long), so it only counts when alone.
    timed = reps[1:] or reps
    metrics = {
        "setup_s": setup_s,
        "run_s": statistics.median(r["run_s"] for r in timed),
        "events_per_s": b.wl.m / statistics.median(r["train_s"] for r in timed),
        "peak_rss_mb": rss,
        **{f"messages.{a}": msgs[a] for a in ALGOS[1:]},
    }
    print(f"repetitions={len(reps)} run_s={[round(r['run_s'], 3) for r in reps]} "
          f"setup={ {k: round(v, 3) for k, v in b.setup_parts.items()} }")
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, len(reps), failed


def run_traced(b: Bench) -> tuple[dict, int, int]:
    import numpy as np
    from layers import PER_LAYER, LayerTrace, batch_overhead_s, spark_counts

    lt = LayerTrace()
    b.setup(lt)
    # The first full repetition of a process runs slower (1-4 s on MUNIN),
    # so the plain repetition that the traced one is compared with is the second.
    first = b.rep()
    plain = b.rep()
    group = f"perfbench-traced-{os.getpid()}"
    sc = b.spark.sparkContext
    sc.setJobGroup(group, "traced repetition")
    lt.install()
    try:
        traced = b.rep(lt.tracer)
    finally:
        lt.restore()
    ref = b.reference_messages()
    fails = {"first": b.gate_failures(first, first, ref),
             "plain": b.gate_failures(plain, first, ref),
             "traced": b.gate_failures(traced, first, ref)}

    t = lt.tracer
    m = lt.metrics()
    m["bayesnet.networks.build_s"] = b.setup_parts["build_s"]
    m["core.model.err_mle_max"] = err_mle_max(traced["ev"])
    m["core.classify.cls_err_gap"] = cls_err_gap(traced["ev"])
    m["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    train_s = t.total("learner.train")
    streaming = b.wl.path == "streaming"
    m["stream.streaming.stage_s"] = b.setup_parts.get("stage_s", 0.0)
    m["stream.streaming.query_s"] = train_s if streaming else 0.0
    m["stream.streaming.engine_s"] = t.total("distmon.update") if streaming else 0.0
    m["stream.streaming.batch_overhead_s"] = batch_overhead_s(lt.queries[-1]) if streaming else 0.0
    jobs, tasks = spark_counts(sc, group)
    if streaming:  # micro-batch jobs run in the query's own group
        qj, qt = spark_counts(sc, str(lt.queries[-1].runId))
        jobs, tasks = jobs + qj, tasks + qt
    m["spark.jobs"], m["spark.tasks"] = jobs, tasks
    m["spark.core_occupancy"] = tasks / (jobs * sc.defaultParallelism) if jobs else 0.0

    # Single-threaded reference: the same stream through aggregate_local,
    # which must equal the Spark path's (counter, site, n) bit for bit.
    local_s, local = b.local_batches()
    spark_s = m["stream.aggregate.spark_s"] if not streaming else (
        train_s - m["stream.streaming.engine_s"])
    m["stream.aggregate.spark_vs_driver"] = spark_s / local_s
    same = len(local) == len(lt.spark_batches) and all(
        all(np.array_equal(x, y) for x, y in zip(s, r))
        for s, r in zip(lt.spark_batches, local)
    )
    if not same:
        fails["traced"].append("Spark (counter, site, n) batches differ from aggregate_local")
    for f in sum(fails.values(), []):
        print(f"GATE FAILED: {f}", file=sys.stderr)
    print(f"traced train_s={train_s:.3f} first run_s={first['run_s']:.3f} "
          f"plain run_s={plain['run_s']:.3f} "
          f"traced run_s={traced['run_s']:.3f} spans={len(t.spans)} "
          f"setup={ {k: round(v, 3) for k, v in b.setup_parts.items()} }")
    return {k: (m[k], PER_LAYER[k][0]) for k in PER_LAYER}, len(fails), sum(map(bool, fails.values()))


def conditions(b: Bench) -> dict:
    import numpy
    import pyspark

    sc = b.spark.sparkContext
    return dict(seed=b.seed, nproc=os.cpu_count(), python=platform.python_version(),
                pyspark=pyspark.__version__, numpy=numpy.__version__,
                master=sc.master, defaultParallelism=sc.defaultParallelism,
                driver_memory=sc.getConf().get("spark.driver.memory"))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # Spark's Python workers import repro too; all scratch files stay in
    # the checkout and are removed at exit.
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(work)

    b = Bench(WORKLOADS[args.workload], args.seed, args.seconds, work)
    try:
        metrics, attempted, failed = (run_traced if args.trace else run_plain)(b)
        cond = conditions(b)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if b.spark is not None:
            stop_spark(b.spark)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print("conditions " + json.dumps(cond))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
