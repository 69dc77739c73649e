"""Traced-run wrappers around the repro layers, and the per-layer metrics.

Every wrapper is installed from here onto a module global or class
attribute of ``repro`` and removed again after the traced repetition;
nothing under ``src/`` is edited. The layers and the span
names they record:

==========================  ==============================================
span                        wrapped attribute
==========================  ==============================================
``sampling.events``         ``sample_events`` of ``repro.stream.aggregate``
                            and ``repro.stream.events`` (staging)
``sampling.sites``          ``sample_sites`` of the same two modules
``sampling.chunk``          ``repro.bayesnet.sampling._sample_chunk`` (rows
                            generated, regenerated chunk prefixes included)
``aggregate.local``         ``repro.core.learner.aggregate_local``
``aggregate.spark``         ``repro.core.learner.aggregate_generated``
``aggregate.kernel``        ``repro.stream.streaming._agg_kernel``
``distmon.update``          ``BatchCounterEngine.update`` and
                            ``ExactCounterEngine.update``
``model.log_prob``          ``CountModel.log_prob``
``classify.error_rate``     ``repro.core.classify.error_rate``
``streaming.start``         ``DataStreamWriter.start`` (keeps the query)
==========================  ==============================================
"""
from __future__ import annotations

import numpy as np

from spans import Tracer

ALGOS = ["exact", "baseline", "uniform", "nonuniform"]
APPROX = ALGOS[1:]

#: Per-layer metric name -> (unit, better). The order is the print order.
PER_LAYER: dict[str, tuple[str, str]] = {
    "bayesnet.networks.build_s": ("s", "lower"),
    "bayesnet.sampling.sample_s": ("s", "lower"),
    "bayesnet.sampling.rows_generated": ("count", "lower"),
    "bayesnet.sampling.useful_ratio": ("ratio", "higher"),
    "stream.aggregate.kernel_s": ("s", "lower"),
    "stream.aggregate.keys_in": ("count", "lower"),
    "stream.aggregate.rows_out": ("count", "lower"),
    "stream.aggregate.spark_s": ("s", "lower"),
    "spark.jobs": ("count", "lower"),
    "spark.tasks": ("count", "lower"),
    "spark.core_occupancy": ("ratio", "higher"),
    "stream.aggregate.spark_vs_driver": ("ratio", "lower"),
    **{f"distmon.batch.update_s.{a}": ("s", "lower") for a in ALGOS},
    "distmon.batch.rows_in": ("count", "lower"),
    **{f"distmon.batch.thinning_frac.{a}": ("ratio", "higher") for a in APPROX},
    **{f"distmon.batch.thinning_mass.{a}": ("ratio", "higher") for a in APPROX},
    "core.learner.self_s": ("s", "lower"),
    "core.model.log_prob_s": ("s", "lower"),
    "core.model.err_mle_max": ("ratio", "lower"),
    "core.classify.error_rate_s": ("s", "lower"),
    "core.classify.cls_err_gap": ("ratio", "lower"),
    "stream.streaming.stage_s": ("s", "lower"),
    "stream.streaming.query_s": ("s", "lower"),
    "stream.streaming.engine_s": ("s", "lower"),
    "stream.streaming.batch_overhead_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class LayerTrace:
    """Installs the wrappers and keeps what they saw until the run ends."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        #: engine object id -> index into ALGOS, by first update seen;
        #: train_many and run_streaming_learner build and update their
        #: engines in ``algos`` order.
        self._algo_of: dict[int, int] = {}
        self.engines: dict[str, object] = {}
        #: per-batch ``(counter, site, n)`` the traced Spark path returned.
        self.spark_batches: list[tuple[np.ndarray, ...]] = []
        self.queries: list[object] = []

    def install(self) -> None:
        from pyspark.sql.streaming import DataStreamWriter

        import repro.bayesnet.sampling as sampling
        import repro.core.classify as classify
        import repro.core.learner as learner
        import repro.stream.aggregate as aggregate
        import repro.stream.events as events
        import repro.stream.streaming as streaming
        from repro.core.model import CountModel
        from repro.distmon.batch import BatchCounterEngine, ExactCounterEngine

        t = self.tracer
        for mod in (aggregate, events):
            t.patch(mod, "sample_events", "sampling.events",
                    on_call=lambda gt, lo, hi, **kw: {"rows": hi - lo})
            t.patch(mod, "sample_sites", "sampling.sites")
        if hasattr(sampling, "_sample_chunk"):
            t.patch(sampling, "_sample_chunk", "sampling.chunk",
                    on_call=lambda gt, chunk_id, size, seed: {"rows": size})
        t.patch(learner, "aggregate_local", "aggregate.local",
                on_call=lambda gt, lo, hi, **kw: {"keys_in": 2 * gt.net.n * (hi - lo)},
                on_result=_rows_out)
        t.patch(learner, "aggregate_generated", "aggregate.spark",
                on_call=lambda spark, gt, lo, hi, **kw: {"keys_in": 2 * gt.net.n * (hi - lo)},
                on_result=self._keep_spark_batch)
        if hasattr(streaming, "_agg_kernel"):
            t.patch(streaming, "_agg_kernel", "aggregate.kernel",
                    on_call=lambda net, X, sites, k: {"keys_in": 2 * net.n * X.shape[0]},
                    on_result=self._keep_kernel_batch)
        for cls in (ExactCounterEngine, BatchCounterEngine):
            t.patch(cls, "update", "distmon.update", on_call=self._engine_call)
        t.patch(CountModel, "log_prob", "model.log_prob")
        t.patch(classify, "error_rate", "classify.error_rate")
        t.patch(DataStreamWriter, "start", "streaming.start",
                on_result=lambda s, q, *a, **kw: self.queries.append(q))

    def restore(self) -> None:
        self.tracer.restore()

    def _engine_call(self, eng, cid, sid, n) -> dict[str, float]:
        idx = self._algo_of.setdefault(id(eng), len(self._algo_of))
        self.engines.setdefault(ALGOS[idx], eng)
        return {"algo": idx, "rows": len(cid)}

    def _keep_spark_batch(self, span, out, *args, **kwargs) -> None:
        _rows_out(span, out)
        self.spark_batches.append(out)

    def _keep_kernel_batch(self, span, out, net, X, sites, k) -> None:
        keys, cnts = out
        span.counts["rows_out"] = len(keys)
        self.spark_batches.append((keys // k, keys % k, cnts.astype(np.int64)))

    # ------------------------------------------------------------ readout

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced repetition (spans and engines)."""
        t = self.tracer
        sampled = t.count("sampling.events", "rows")
        # Chunks generated for the training stream (test events are
        # sampled through the same function, outside sample_events here).
        events = {i for i, s in enumerate(t.spans) if s.name == "sampling.events"}
        chunks = [s for s in t.named("sampling.chunk") if s.parent in events]
        generated = sum(s.counts["rows"] for s in chunks) if chunks else sampled
        engine_s = t.total("distmon.update")
        agg_s = t.total("aggregate.local") + t.total("aggregate.spark") + t.total("aggregate.kernel")
        out: dict[str, float] = {
            "bayesnet.sampling.sample_s": t.total("sampling.events") + t.total("sampling.sites"),
            "bayesnet.sampling.rows_generated": generated,
            "bayesnet.sampling.useful_ratio": sampled / generated if generated else 0.0,
            "stream.aggregate.kernel_s": t.self_time("aggregate.local") + t.total("aggregate.kernel"),
            "stream.aggregate.keys_in": sum(
                t.count(n, "keys_in") for n in ("aggregate.local", "aggregate.spark", "aggregate.kernel")
            ),
            "stream.aggregate.rows_out": sum(
                t.count(n, "rows_out") for n in ("aggregate.local", "aggregate.spark", "aggregate.kernel")
            ),
            "stream.aggregate.spark_s": t.total("aggregate.spark"),
            "distmon.batch.rows_in": t.count("distmon.update", "rows"),
            "core.learner.self_s": t.total("learner.train") - agg_s - engine_s,
            "core.model.log_prob_s": t.total("model.log_prob"),
            "core.classify.error_rate_s": t.total("classify.error_rate"),
        }
        for idx, algo in enumerate(ALGOS):
            out[f"distmon.batch.update_s.{algo}"] = sum(
                s.duration for s in t.named("distmon.update") if s.counts["algo"] == idx
            )
        for algo in APPROX:
            frac, mass = thinning(self.engines.get(algo))
            out[f"distmon.batch.thinning_frac.{algo}"] = frac
            out[f"distmon.batch.thinning_mass.{algo}"] = mass
        return out


def _rows_out(span, out, *args, **kwargs) -> None:
    span.counts["rows_out"] = len(out[0])


def thinning(eng) -> tuple[float, float]:
    """Share of counters, and of count mass, reporting with p < 1."""
    p, f = getattr(eng, "p", None), getattr(eng, "f", None)
    if p is None or f is None:
        return 0.0, 0.0
    thin = p < 1.0
    mass = f.sum(axis=1)
    total = mass.sum()
    return float(thin.mean()), float(mass[thin].sum() / total) if total else 0.0


def spark_counts(sc, group: str) -> tuple[int, int]:
    """(jobs, tasks run) of one job group, from Spark's status tracker.

    Stages skipped because an earlier job already computed them report
    no completed tasks, so each stage is counted once by its completed
    tasks.
    """
    st = sc.statusTracker()
    jobs = st.getJobIdsForGroup(group)
    stages: set[int] = set()
    for j in jobs:
        info = st.getJobInfo(j)
        if info is not None:
            stages.update(int(s) for s in info.stageIds)
    tasks = 0
    for s in stages:
        info = st.getStageInfo(s)
        if info is not None:
            tasks += info.numCompletedTasks
    return len(jobs), tasks


def batch_overhead_s(query) -> float:
    """Mean Spark time per non-empty micro-batch outside ``foreachBatch``."""
    per_batch = [
        (p.durationMs.get("triggerExecution", 0) - p.durationMs.get("addBatch", 0)) / 1000.0
        for p in query.recentProgress
        if p.numInputRows
    ]
    return float(np.mean(per_batch)) if per_batch else 0.0
