"""Connectors for the three simulated backends (DESIGN.md §2).

Each one is a :class:`~repro.backends.spark.SparkConnector` that adds only
what its language needs; registration, the dataset check and schema
introspection are the base's, over the one catalog of the session's temp
views (a dataset is the temp view ``{namespace}_{collection}``):

* :class:`SqlPPConnector` — SQL++ (AsterixDB) → transpiled to Spark SQL
* :class:`MongoConnector` — aggregation-pipeline JSON → mini Mongo engine
* :class:`CypherConnector` — linear Cypher → mini Cypher interpreter

A new Spark-backed backend follows the same recipe: subclass
``SparkConnector``, set ``language`` to its rule file, and override
``send_query`` and/or ``preprocess``. All return pandas DataFrames, like
every PolyFrame backend.
"""
from __future__ import annotations

import json

import pandas as pd
from pyspark.sql import SparkSession

from repro.backends.spark import SparkConnector, TempViews
from repro.core.rewrite import RewriteRules
from repro.cypher.engine import CypherEngine
from repro.mongo.engine import MongoEngine
from repro.sqlpp.transpile import transpile


class SqlPPConnector(SparkConnector):
    """AsterixDB stand-in: generated SQL++ is transpiled to Spark SQL."""

    language = "sqlpp"

    def preprocess(self, query: str, namespace: str, collection: str) -> str:
        return transpile(query)


class MongoConnector(SparkConnector):
    """MongoDB stand-in: pipeline-stage text is parsed as JSON and run by
    the mini aggregation engine. Pipeline construction (wrapping the
    comma-separated stages in ``[...]``) happens here, exactly as the
    paper describes for its MongoDB connector (§III-D)."""

    language = "mongo"

    def __init__(self, spark: SparkSession, rules: RewriteRules | None = None):
        super().__init__(spark, rules)
        self.engine = MongoEngine({})

    def preprocess(self, query: str, namespace: str, collection: str) -> str:
        return f"[ {query} ]"

    def send_query(self, query: str, namespace: str, collection: str) -> pd.DataFrame:
        self.engine.registry = TempViews(self.spark, namespace)
        return self.engine.execute(json.loads(query), collection).toPandas()


class CypherConnector(SparkConnector):
    """Neo4j stand-in: generated Cypher runs on the mini interpreter. Cypher
    has no namespaces; a label is a collection of the action's namespace."""

    language = "cypher"

    def __init__(self, spark: SparkSession, rules: RewriteRules | None = None):
        super().__init__(spark, rules)
        self.engine = CypherEngine({})

    def send_query(self, query: str, namespace: str, collection: str) -> pd.DataFrame:
        self.engine.registry = TempViews(self.spark, namespace)
        return self.engine.execute(query).toPandas()
