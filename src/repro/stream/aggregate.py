"""Site-side aggregation: events -> per-(counter, site) increment counts.

Each event increments ``2n`` counters (one family + one parent counter
per variable). Per micro-batch we only need, for every (counter, site)
pair, *how many* increments it received — the batched protocol engine is
exact given those counts (see ``distmon.batch``). Two code paths share
one numpy kernel:

* :func:`aggregate_generated` — Spark tasks generate one chunk piece of
  the stream each (``sampling.chunk_pieces``) and aggregate it in place,
  so the raw stream (e.g. 50K x 1041 variables for MUNIN) never
  materializes; a ``groupBy`` merges the task partials. The oracle tests
  check its output row-for-row against an independent DuckDB SQL
  computation (:func:`duckdb_counts_sql`).
* :func:`aggregate_local` — driver-side numpy reference, used for tiny
  runs and by tests to prove the Spark path agrees with it bit-for-bit.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.bayesnet.cpd import GroundTruth
from repro.bayesnet.sampling import chunk_pieces, sample_events, sample_sites
from repro.bayesnet.structure import BayesNet


def _agg_kernel(
    net: BayesNet, X: np.ndarray, sites: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Unique fused keys ``counter_id * k + site`` and their counts."""
    m = X.shape[0]
    keys = np.empty(2 * net.n * m, dtype=np.int64)
    s64 = sites.astype(np.int64)
    for i in range(net.n):
        fam, par = net.counter_ids(i, X[:, i], net.parent_config_index(X, i))
        keys[2 * i * m : (2 * i + 1) * m] = fam * k + s64
        keys[(2 * i + 1) * m : (2 * i + 2) * m] = par * k + s64
    return np.unique(keys, return_counts=True)


def aggregate_local(
    gt: GroundTruth, lo: int, hi: int, *, k: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Driver-side reference aggregation of stream events ``[lo, hi)``."""
    X = sample_events(gt, lo, hi, seed=seed)
    sites = sample_sites(lo, hi, k=k, seed=seed)
    keys, cnts = _agg_kernel(gt.net, X, sites, k)
    return keys // k, keys % k, cnts.astype(np.int64)


def aggregate_generated(
    spark: SparkSession,
    gt: GroundTruth,
    lo: int,
    hi: int,
    *,
    k: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spark aggregation with partition-local stream generation.

    ``[lo, hi)`` is cut at the sampler's chunk boundaries, and each task
    generates and aggregates one piece (deterministic in ``(seed,
    piece)`` — see ``sampling``); a ``groupBy(key).sum`` then merges the
    task partials. Returns key-sorted numpy arrays ``(counter_id, site,
    n)`` for the coordinator.
    """
    pieces = chunk_pieces(lo, hi)
    net = gt.net

    def gen_agg(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            for t in pdf["id"]:
                a, b = pieces[t]
                X = sample_events(gt, a, b, seed=seed)
                sites = sample_sites(a, b, k=k, seed=seed)
                keys, cnts = _agg_kernel(net, X, sites, k)
                yield pd.DataFrame({"key": keys, "cnt": cnts.astype(np.int64)})

    out = (
        spark.range(len(pieces), numPartitions=len(pieces))
        .mapInPandas(gen_agg, schema="key long, cnt long")
        .groupBy("key")
        .agg(F.sum("cnt").alias("cnt"))
        .toPandas()
    )
    keys = out["key"].to_numpy(dtype=np.int64)
    cnts = out["cnt"].to_numpy(dtype=np.int64)
    order = np.argsort(keys)
    keys, cnts = keys[order], cnts[order]
    return keys // k, keys % k, cnts


def duckdb_counts_sql(net: BayesNet) -> str:
    """Independent DuckDB SQL computing the same (counter_id, site, n)
    counts from the wide events table — one UNION ALL branch per
    counter kind per variable, built from the network's index arithmetic
    so the oracle exercises the id mapping end to end."""
    branches = []
    for i in range(net.n):
        ps = net.parents[i]
        stride = np.concatenate([[1], np.cumprod(net.cards[ps][:-1])]) if ps else []
        pidx = " + ".join(f"{int(s)} * v{p}" for s, p in zip(stride, ps)) or "0"
        fam = f"{int(net.fam_offset[i])} + ({pidx}) * {int(net.cards[i])} + v{i}"
        par = f"{int(net.par_offset[i])} + ({pidx})"
        branches.append(f"SELECT {fam} AS counter_id, site FROM events")
        branches.append(f"SELECT {par} AS counter_id, site FROM events")
    union = "\nUNION ALL\n".join(branches)
    return (
        f"SELECT counter_id, site, COUNT(*) AS n FROM (\n{union}\n) "
        "GROUP BY counter_id, site"
    )
