"""Training orchestration: the distributed stream feeds all algorithms.

``train_many`` runs EXACTMLE / BASELINE / UNIFORM / NONUNIFORM over the
*same* simulated distributed stream (as the paper's simulator does): the
per-micro-batch Spark aggregation to ``(counter_id, site, n)`` is
computed once and fed to every algorithm's counter engine; the engines
differ only in their per-counter error parameters. The coordinator-side
protocol (estimates, rounds, message tally) runs on the driver in one
:class:`Coordinator` — the monitoring model's single coordinator — which
both ``train_many`` and the Structured Streaming query
(``stream.streaming``) drive.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import SparkSession

from repro.bayesnet.cpd import GroundTruth
from repro.bayesnet.structure import BayesNet
from repro.core.budget import counter_eps, naive_bayes_eps
from repro.core.model import CountModel
from repro.distmon.batch import BatchCounterEngine, ExactCounterEngine
from repro.stream.aggregate import aggregate_generated, aggregate_local
from repro.stream.events import batch_ranges


@dataclass
class TrainResult:
    """Outcome of training one algorithm over ``m`` streamed events."""

    algo: str
    model: CountModel
    total_messages: int
    #: (events processed, cumulative messages) after each micro-batch —
    #: the Figure 9 curve.
    history: list[tuple[int, int]] = field(default_factory=list)
    #: (events processed, counter-value snapshot) per micro-batch when
    #: ``collect_snapshots`` — the Figures 3-8 curves.
    snapshots: list[tuple[int, np.ndarray]] = field(default_factory=list)


class Coordinator:
    """The single coordinator: one counter engine per algorithm.

    ``update`` fans each micro-batch of site reports ``(counter_id,
    site, n)`` out to the engines in ``algos`` order and records the
    per-batch history (and snapshots); ``finish`` turns the final
    estimates into one :class:`CountModel` per algorithm.

    ``algos`` entries: ``"exact"``, ``"baseline"``, ``"uniform"``,
    ``"nonuniform"``, or ``"nb-shared"`` (Naive-Bayes Algorithm 4; the
    network must be a root-0 Naive Bayes). Engine ``j`` is seeded with
    ``seed * 1000 + j``.
    """

    def __init__(
        self, net: BayesNet, algos: list[str], *, k: int, eps: float, seed: int,
        collect_snapshots: bool = False, lam: float = 0.5, proto_c: float = 1.0,
    ) -> None:
        self.net, self.lam, self.collect_snapshots = net, lam, collect_snapshots
        self.engines: dict[str, object] = {}
        #: counter id -> physical counter id; only ``nb-shared`` remaps.
        self.remaps: dict[str, np.ndarray | None] = {}
        for j, algo in enumerate(algos):
            self.remaps[algo] = None
            if algo == "exact":
                self.engines[algo] = ExactCounterEngine(net.n_counters)
                continue
            if algo == "nb-shared":
                algo_eps = naive_bayes_eps(net, eps)
                self.remaps[algo] = _shared_parent_remap(net)
            else:
                algo_eps = counter_eps(net, algo, eps)
            self.engines[algo] = BatchCounterEngine(
                algo_eps, k, seed=seed * 1000 + j, proto_c=proto_c
            )
        self.results = {
            algo: TrainResult(algo, None, 0, [(0, 0)]) for algo in algos  # type: ignore[arg-type]
        }

    def update(self, hi: int, cid: np.ndarray, sid: np.ndarray, n: np.ndarray) -> None:
        """Apply the micro-batch of site reports that ends at event ``hi``."""
        for algo, eng in self.engines.items():
            rm = self.remaps[algo]
            eng.update(cid if rm is None else rm[cid], sid, n)
            self.results[algo].history.append((hi, eng.total_messages))
            if self.collect_snapshots:
                self.results[algo].snapshots.append((hi, self._values(algo)))

    def _values(self, algo: str) -> np.ndarray:
        """Counter values, with shared physical counters expanded."""
        vals = self.engines[algo].estimates()
        rm = self.remaps[algo]
        return vals if rm is None else vals[rm]

    def finish(self) -> dict[str, TrainResult]:
        for algo, res in self.results.items():
            res.model = CountModel(self.net, self._values(algo), lam=self.lam)
            res.total_messages = self.engines[algo].total_messages
        return self.results


def _shared_parent_remap(net: BayesNet) -> np.ndarray:
    """Naive-Bayes shared-counter id remap (Algorithm 4).

    All leaves' parent counters track the same event ``X_0 = x_0``; the
    optimized algorithm keeps one physical copy. We remap every leaf's
    parent-counter ids onto leaf 1's block, so the engine maintains (and
    charges messages for) a single shared counter per root value.
    """
    remap = np.arange(net.n_counters, dtype=np.int64)
    leaf1 = np.arange(net.par_offset[1], net.par_offset[2])
    remap[net.par_offset[2] :] = np.tile(leaf1, net.n - 2)
    return remap


def train_many(
    spark: SparkSession | None,
    gt: GroundTruth,
    algos: list[str],
    *,
    m: int,
    k: int,
    eps: float,
    seed: int,
    first_batch: int = 1024,
    collect_snapshots: bool = False,
    lam: float = 0.5,
    proto_c: float = 1.0,
) -> dict[str, TrainResult]:
    """Train every algorithm in ``algos`` (see :class:`Coordinator`) over
    the same ``m``-event stream.

    Pass ``spark=None`` to use the driver-side reference aggregation
    (unit tests / tiny runs).
    """
    coord = Coordinator(
        gt.net, algos, k=k, eps=eps, seed=seed,
        collect_snapshots=collect_snapshots, lam=lam, proto_c=proto_c,
    )
    for lo, hi in batch_ranges(m, first=first_batch):
        if spark is not None:
            batch = aggregate_generated(spark, gt, lo, hi, k=k, seed=seed)
        else:
            batch = aggregate_local(gt, lo, hi, k=k, seed=seed)
        coord.update(hi, *batch)
    return coord.finish()
