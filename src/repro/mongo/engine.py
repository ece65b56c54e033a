"""Mini MongoDB aggregation-pipeline engine over Spark DataFrames.

MongoDB stand-in for the reproduction (DESIGN.md §2): PolyFrame's
``mongo.ini`` rules generate genuine aggregation-pipeline JSON (the
paper's Appendix H shapes); this engine executes that pipeline subset on
Spark DataFrames so the MongoDB code path runs end-to-end and its results
can be oracle-checked.

Supported stages: ``$match`` (empty or ``$expr``), ``$project``
(inclusion / exclusion / computed, with MongoDB's implicit ``_id``
retention), ``$addFields``, ``$group`` (keyed or global ``_id``, with
``$min/$max/$avg/$sum/$stdDevPop/$count`` accumulators), ``$sort``,
``$limit``, ``$count``, ``$lookup`` (the ``let`` + single-equality
correlated-pipeline form PolyFrame emits — executed as a Spark shuffle
join building the array-of-documents column) and ``$unwind``.

Document model: one flat Spark row per document, plus an ``_id`` column
the engine injects at scan time (PolyFrame's rules exclude it again
before returning results, keeping it available mid-pipeline "because its
presence in the pipeline enables index usage", §III-D — here it simply
mirrors MongoDB's visible behaviour). BSON null-ordering is emulated only
where the rules rely on it: a comparison against a ``null`` literal tests
missingness (``$lt null`` ≡ IS NULL, ``$gte null`` ≡ IS NOT NULL).
"""
from __future__ import annotations

from typing import Any

from pyspark.sql import Column, DataFrame, functions as F

_CMP_OPS = {"$eq", "$ne", "$gt", "$lt", "$gte", "$lte"}
_ARITH_OPS = {
    "$add": "+",
    "$subtract": "-",
    "$multiply": "*",
    "$divide": "/",
    "$mod": "%",
}


class MongoEngineError(ValueError):
    """The pipeline uses a construct outside the supported subset."""


class MongoEngine:
    """Executes aggregation pipelines against registered collections."""

    def __init__(self, registry: dict[str, DataFrame]):
        #: collection name -> Spark DataFrame (without _id; injected at scan).
        #: MongoConnector sets it to the action namespace's temp views, so
        #: ``$out`` there becomes ``createOrReplaceTempView``.
        self.registry = dict(registry)

    # ------------------------------------------------------------------
    def execute(self, pipeline: list[dict], collection: str) -> DataFrame:
        df = self._scan(collection)
        for stage in pipeline:
            df = self._apply(df, stage)
        return df

    def _scan(self, collection: str) -> DataFrame:
        try:
            base = self.registry[collection]
        except KeyError:
            raise MongoEngineError(f"unknown collection {collection!r}") from None
        return base.withColumn("_id", F.monotonically_increasing_id())

    # ------------------------------------------------------------------
    # expression evaluation
    # ------------------------------------------------------------------
    def _expr(self, e: Any, env: dict[str, Column] | None = None) -> Column:
        if isinstance(e, str):
            if e.startswith("$$"):
                name = e[2:]
                if env is None or name not in env:
                    raise MongoEngineError(f"unbound let-variable {e!r}")
                return env[name]
            if e.startswith("$"):
                return F.col(e[1:])
            return F.lit(e)
        if isinstance(e, dict):
            if len(e) != 1:
                raise MongoEngineError(f"expected single-operator expression: {e!r}")
            (op, arg), = e.items()
            return self._operator(op, arg, env)
        return F.lit(e)  # numeric / bool / None literal

    def _operator(self, op: str, arg: Any, env) -> Column:
        if op in _CMP_OPS:
            left_raw, right_raw = arg
            left = self._expr(left_raw, env)
            if right_raw is None:
                # BSON-order emulation: null/missing compare below values.
                if op in ("$lt", "$lte", "$eq"):
                    return left.isNull()
                if op in ("$gte", "$gt", "$ne"):
                    return left.isNotNull()
            right = self._expr(right_raw, env)
            return {
                "$eq": left == right,
                "$ne": left != right,
                "$gt": left > right,
                "$lt": left < right,
                "$gte": left >= right,
                "$lte": left <= right,
            }[op]
        if op in _ARITH_OPS:
            left, right = (self._expr(a, env) for a in arg)
            return {
                "$add": left + right,
                "$subtract": left - right,
                "$multiply": left * right,
                "$divide": left / right,
                "$mod": left % right,
            }[op]
        if op == "$and":
            out = self._expr(arg[0], env)
            for a in arg[1:]:
                out = out & self._expr(a, env)
            return out
        if op == "$or":
            out = self._expr(arg[0], env)
            for a in arg[1:]:
                out = out | self._expr(a, env)
            return out
        if op == "$not":
            (a,) = arg if isinstance(arg, list) else [arg]
            return ~self._expr(a, env)
        if op == "$toUpper":
            return F.upper(self._expr(arg, env))
        if op == "$toLower":
            return F.lower(self._expr(arg, env))
        if op == "$abs":
            return F.abs(self._expr(arg, env))
        if op == "$toInt":
            return self._expr(arg, env).cast("int")
        if op == "$toString":
            return self._expr(arg, env).cast("string")
        raise MongoEngineError(f"unsupported operator {op!r}")

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------
    def _apply(self, df: DataFrame, stage: dict) -> DataFrame:
        if not isinstance(stage, dict) or len(stage) != 1:
            raise MongoEngineError(f"malformed stage: {stage!r}")
        (name, spec), = stage.items()
        handler = {
            "$match": self._match,
            "$project": self._project,
            "$addFields": self._add_fields,
            "$group": self._group,
            "$sort": self._sort,
            "$limit": self._limit,
            "$count": self._count,
            "$lookup": self._lookup,
            "$unwind": self._unwind,
            "$out": self._out,
        }.get(name)
        if handler is None:
            raise MongoEngineError(f"unsupported stage {name!r}")
        return handler(df, spec)

    def _match(self, df: DataFrame, spec: dict) -> DataFrame:
        if spec == {}:
            return df
        if set(spec) == {"$expr"}:
            return df.filter(self._expr(spec["$expr"]).cast("boolean"))
        raise MongoEngineError(f"only empty/$expr $match supported: {spec!r}")

    def _project(self, df: DataFrame, spec: dict) -> DataFrame:
        if all(v == 0 for v in spec.values()):
            # exclusion projection: drop the listed fields, keep the rest
            return df.drop(*[k for k in spec if k in df.columns])
        cols: list[Column] = []
        if spec.get("_id", 1) != 0 and "_id" in df.columns:
            cols.append(F.col("_id"))  # MongoDB keeps _id unless excluded
        for key, value in spec.items():
            if key == "_id":
                continue
            if value == 1:
                cols.append(F.col(key))
            elif isinstance(value, dict):
                cols.append(self._expr(value).alias(key))
            elif value == 0:
                raise MongoEngineError(
                    "cannot mix exclusion with inclusion in $project"
                )
            else:
                raise MongoEngineError(f"bad projection value for {key!r}: {value!r}")
        return df.select(*cols)

    def _add_fields(self, df: DataFrame, spec: dict) -> DataFrame:
        for key, value in spec.items():
            df = df.withColumn(key, self._expr(value))
        return df

    def _accumulator(self, spec: dict) -> Column:
        (op, arg), = spec.items()
        if op == "$sum":
            return F.sum(self._expr(arg))
        if op == "$min":
            return F.min(self._expr(arg))
        if op == "$max":
            return F.max(self._expr(arg))
        if op == "$avg":
            return F.avg(self._expr(arg))
        if op == "$stdDevPop":
            return F.stddev_pop(self._expr(arg))
        if op == "$count":
            # PolyFrame extension (paper Fig. 3 row 6): non-null count.
            return F.count(self._expr(arg))
        raise MongoEngineError(f"unsupported accumulator {op!r}")

    def _group(self, df: DataFrame, spec: dict) -> DataFrame:
        if "_id" not in spec:
            raise MongoEngineError("$group requires _id")
        id_spec = spec["_id"]
        aggs = [
            self._accumulator(v).alias(k) for k, v in spec.items() if k != "_id"
        ]
        if id_spec == {}:
            out = df.groupBy().agg(*aggs) if aggs else df.limit(0)
            return out.select(F.lit(0).alias("_id"), *[F.col(a) for a in out.columns])
        if not isinstance(id_spec, dict):
            raise MongoEngineError(f"unsupported _id spec: {id_spec!r}")
        keys = [self._expr(v).alias(f"__k_{k}") for k, v in id_spec.items()]
        grouped = df.groupBy(*keys).agg(*aggs) if aggs else df.select(*keys).distinct()
        id_struct = F.struct(
            *[F.col(f"__k_{k}").alias(k) for k in id_spec]
        ).alias("_id")
        rest = [c for c in grouped.columns if not c.startswith("__k_")]
        return grouped.select(id_struct, *[F.col(c) for c in rest])

    def _sort(self, df: DataFrame, spec: dict) -> DataFrame:
        order = [
            F.col(k).asc() if direction == 1 else F.col(k).desc()
            for k, direction in spec.items()
        ]
        return df.orderBy(*order)

    def _limit(self, df: DataFrame, spec: int) -> DataFrame:
        return df.limit(int(spec))

    def _count(self, df: DataFrame, spec: str) -> DataFrame:
        return df.agg(F.count(F.lit(1)).alias(spec))

    def _unwind(self, df: DataFrame, spec: dict | str) -> DataFrame:
        if isinstance(spec, str):
            path, preserve = spec, False
        else:
            path, preserve = spec["path"], spec.get("preserveNullAndEmptyArrays", False)
        col = path[1:]  # "$r" -> r
        explode = F.explode_outer if preserve else F.explode
        return df.withColumn(col, explode(F.col(col)))

    def _lookup(self, df: DataFrame, spec: dict) -> DataFrame:
        foreign = self._scan(spec["from"])
        as_name = spec["as"]
        let = spec.get("let", {})
        # let-variables are evaluated against the OUTER document
        env = {name: self._expr(e) for name, e in let.items()}
        join_left: Column | None = None
        join_field: str | None = None
        for stage in spec.get("pipeline", []):
            (sname, sspec), = stage.items()
            if sname == "$match" and isinstance(sspec, dict) and "$expr" in sspec:
                corr = self._correlation(sspec["$expr"], env)
                if corr is not None:
                    join_field, join_left = corr
                    continue
            foreign = self._apply(foreign, stage)
        if join_field is None:
            raise MongoEngineError(
                "$lookup requires one correlated $match $expr $eq stage"
            )
        doc_cols = [c for c in foreign.columns]
        grouped = foreign.groupBy(
            F.col(join_field).alias("__lookup_key")
        ).agg(F.collect_list(F.struct(*doc_cols)).alias(as_name))
        joined = df.join(grouped, join_left == F.col("__lookup_key"), "left").drop(
            "__lookup_key"
        )
        return joined

    def _correlation(self, expr: dict, env: dict) -> tuple[str, Column] | None:
        """Detect ``{"$eq": ["$field", "$$var"]}`` (either operand order)."""
        if set(expr) != {"$eq"}:
            return None
        a, b = expr["$eq"]
        for field, var in ((a, b), (b, a)):
            if (
                isinstance(field, str)
                and field.startswith("$")
                and not field.startswith("$$")
                and isinstance(var, str)
                and var.startswith("$$")
            ):
                name = var[2:]
                if name in env:
                    return field[1:], env[name]
        return None

    def _out(self, df: DataFrame, spec: str) -> DataFrame:
        self.registry[spec] = df.drop("_id")
        return df
