"""Database connector contract tests (paper §III-A).

The paper requires three methods from a new backend: initialization,
query pre-processing / sending, and result post-processing — with all
results delivered as pandas DataFrames.
"""
from __future__ import annotations

import pandas as pd
import pytest

from repro.bench.harness import make_connector
from repro.core import DatasetNotRegistered, DBConnector, PolyFrame
from repro.core.connector import DBConnector as ABCConnector
from tests.conftest import polyframes


class TestContract:
    def test_results_are_pandas(self, backend):
        _, conn = backend
        pf, _ = polyframes(conn)
        out = pf[["two"]].head(2)
        assert isinstance(out, pd.DataFrame)

    def test_initialize_raises_for_unknown(self, backend):
        _, conn = backend
        with pytest.raises(DatasetNotRegistered):
            conn.initialize("NoSuch", "dataset")

    def test_rules_language_matches_connector(self, backend):
        name, conn = backend
        assert conn.rules.meta("language") == conn.language == name

    def test_get_columns_reports_schema(self, backend, wdata):
        from repro.bench.harness import COLLECTION, NAMESPACE

        _, conn = backend
        cols = [c for c, _ in conn.get_columns(NAMESPACE, COLLECTION)]
        assert cols == list(wdata.columns)

    def test_abstract_base_not_instantiable(self):
        with pytest.raises(TypeError):
            ABCConnector()  # abstract methods missing

    def test_execute_pipeline_order(self):
        """execute = postprocess(send(preprocess(q))) — the paper's flow."""
        calls = []

        class Probe(DBConnector):
            language = "sparksql"

            def initialize(self, namespace, collection):
                calls.append("init")

            def preprocess(self, query, namespace, collection):
                calls.append("pre")
                return query + "/*pre*/"

            def send_query(self, query, namespace, collection):
                calls.append(("send", query.endswith("/*pre*/")))
                return pd.DataFrame([[1]])

            def postprocess(self, result):
                calls.append("post")
                return result

        probe = Probe()
        pf = PolyFrame("N", "C", probe)
        len(pf)
        assert calls == ["init", "pre", ("send", True), "post"]


SPARK_BACKED = ("sparksql", "sqlpp", "mongo", "cypher")


class TestNamespaceIsolation:
    @pytest.mark.parametrize("kind", SPARK_BACKED)
    def test_same_collection_two_namespaces(self, spark, wdata, kind):
        conn = make_connector(kind, spark)
        conn.register("A", "w", wdata.head(10))
        conn.register("B", "w", wdata.head(20))
        assert len(PolyFrame("A", "w", conn)) == 10
        assert len(PolyFrame("B", "w", conn)) == 20

    def test_duckdb_schema_isolation(self, wdata):
        from repro.backends.duck import DuckDBConnector

        conn = DuckDBConnector()
        conn.register("A", "w", wdata.head(5))
        conn.register("B", "w", wdata.head(7))
        assert len(PolyFrame("A", "w", conn)) == 5
        assert len(PolyFrame("B", "w", conn)) == 7

    @pytest.mark.parametrize("kind", ("sql",) + SPARK_BACKED)
    def test_reregistration_replaces(self, spark, wdata, kind):
        conn = make_connector(kind, spark)
        conn.register("A", "w", wdata.head(5))
        conn.register("A", "w", wdata.head(9))
        assert len(PolyFrame("A", "w", conn)) == 9


class TestOneCatalog:
    """Spark-backed connectors share the session's temp views."""

    @pytest.mark.parametrize("reader", ("sqlpp", "mongo", "cypher"))
    def test_registered_by_one_read_by_another(self, spark, wdata, reader):
        make_connector("sparksql", spark).register("Shared", "w", wdata.head(12))
        conn = make_connector(reader, spark)
        assert len(PolyFrame("Shared", "w", conn)) == 12
        cols = [c for c, _ in conn.get_columns("Shared", "w")]
        assert cols == list(wdata.columns)

    def test_mongo_out_writes_a_temp_view(self, spark, wdata):
        data = wdata.head(10)
        conn = make_connector("mongo", spark)
        conn.register("O", "w", data)
        conn.send_query(
            '[{"$match": {"$expr": {"$eq": ["$two", 0]}}}, {"$out": "evens"}]', "O", "w"
        )
        evens = PolyFrame("O", "evens", make_connector("sparksql", spark))
        assert len(evens) == int((data["two"] == 0).sum())


class TestSparkInputs:
    def test_register_accepts_spark_dataframe(self, spark, wdata):
        from repro.backends.spark import SparkConnector

        conn = SparkConnector(spark)
        conn.register("S", "w", spark.createDataFrame(wdata.head(25)))
        assert len(PolyFrame("S", "w", conn)) == 25

    def test_duckdb_accepts_spark_dataframe(self, spark, wdata):
        from repro.backends.duck import DuckDBConnector

        conn = DuckDBConnector()
        conn.register("S", "w", spark.createDataFrame(wdata.head(25)))
        assert len(PolyFrame("S", "w", conn)) == 25


class TestMongoConnectorSpecifics:
    def test_pipeline_wrapped_by_connector(self, backends):
        conn = backends["mongo"]
        prepared = conn.preprocess('{ "$match": {} }', "Bench", "wisconsin")
        assert prepared.startswith("[") and prepared.endswith("]")

    def test_id_never_reaches_user(self, backends):
        pf, _ = polyframes(backends["mongo"])
        assert "_id" not in pf[["two"]].head().columns
        assert "_id" not in pf.toPandas().columns
