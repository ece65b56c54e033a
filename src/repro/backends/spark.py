"""Spark SQL database connector — the reproduction's retarget, and the base
of every backend that runs on Spark.

PolyFrame's generated Spark SQL text is executed with ``spark.sql`` over
temporary views. A dataset ``namespace.collection`` is registered as the
temp view ``{namespace}_{collection}`` (Spark temp views live in a flat
namespace), which is exactly the name the ``sparksql.ini`` q1 rule forms.

One catalog: the session's temp views are the only registry. Every
connector built on :class:`SparkConnector` (``repro.backends.engines``)
registers, checks and reads datasets there, so a dataset registered
through one Spark-backed language is visible to all of them.

Catalyst supplies the "efficient query optimizer" the paper requires of
every PolyFrame backend: the deeply nested subqueries produced by
incremental formation are collapsed by CollapseProject and
PushDownPredicates before execution (see tests/test_catalyst_plans.py).
"""
from __future__ import annotations

import pandas as pd
from pyspark.errors import AnalysisException
from pyspark.sql import DataFrame as SparkDataFrame, SparkSession

from repro.core.connector import DatasetNotRegistered, DBConnector
from repro.core.rewrite import RewriteRules


def view_name(namespace: str, collection: str) -> str:
    """Flat temp-view name for a namespaced dataset."""
    return f"{namespace}_{collection}"


class TempViews:
    """One namespace of the session's temp views as a ``{collection:
    DataFrame}`` mapping — the registry the Mongo and Cypher engines read
    (scans, ``$lookup.from``, a second ``MATCH``) and write (``$out``)."""

    def __init__(self, spark: SparkSession, namespace: str):
        self.spark = spark
        self.namespace = namespace

    def __getitem__(self, collection: str) -> SparkDataFrame:
        try:
            return self.spark.table(view_name(self.namespace, collection))
        except AnalysisException:
            raise KeyError(collection) from None

    def __setitem__(self, collection: str, df: SparkDataFrame) -> None:
        df.createOrReplaceTempView(view_name(self.namespace, collection))


class SparkConnector(DBConnector):
    """Executes PolyFrame's generated Spark SQL via ``spark.sql``."""

    language = "sparksql"

    def __init__(self, spark: SparkSession, rules: RewriteRules | None = None):
        super().__init__(rules)
        self.spark = spark
        self._registered: set[tuple[str, str]] = set()

    def register(
        self, namespace: str, collection: str, data: SparkDataFrame | pd.DataFrame
    ) -> None:
        """Expose a Spark (or pandas) DataFrame as a PolyFrame dataset."""
        df = (
            data
            if isinstance(data, SparkDataFrame)
            else self.spark.createDataFrame(data)
        )
        df.createOrReplaceTempView(view_name(namespace, collection))
        self._registered.add((namespace, collection))

    def initialize(self, namespace: str, collection: str) -> None:
        if (namespace, collection) not in self._registered and not (
            self.spark.catalog.tableExists(view_name(namespace, collection))
        ):
            raise DatasetNotRegistered(f"{namespace}.{collection}")

    def send_query(self, query: str, namespace: str, collection: str) -> pd.DataFrame:
        return self.spark.sql(query).toPandas()

    def get_columns(self, namespace: str, collection: str) -> list[tuple[str, str]]:
        return self.spark.table(view_name(namespace, collection)).dtypes

    # -- reproduction helper (not part of the paper's contract) ----------
    def spark_plan(self, query: str) -> SparkDataFrame:
        """The un-collected Spark DataFrame for a generated query — used by
        plan-inspection tests and by the oracle wrapper."""
        return self.spark.sql(query)
