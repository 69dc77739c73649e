"""Distributed-stream dataflow on Spark.

The union-of-streams is modeled as a deterministic event sequence with a
uniformly random site per event (paper Section 6.1). Spark does the
site-side heavy lifting: generating each micro-batch's events inside
partitions and aggregating them to per-(counter, site) increment counts;
the coordinator protocol consumes those aggregates on the driver.
"""
from repro.stream.events import batch_ranges, events_pandas
from repro.stream.aggregate import (
    aggregate_generated,
    aggregate_local,
    duckdb_counts_sql,
)

__all__ = [
    "batch_ranges",
    "events_pandas",
    "aggregate_generated",
    "aggregate_local",
    "duckdb_counts_sql",
]
