"""In-memory span tracer for the benchmark's traced runs.

The tracer never touches the program's classes: it replaces public methods
on the *instances* the benchmark creates (connectors, their rewrite rules,
the Mongo/Cypher engines, the SparkSession, the DuckDB connection and the
Spark DataFrames those return) with wrappers that record a span per call.
Spans carry the op they belong to and their parent span, stay in memory,
and are written out once at the end of the run.

Layers follow the modules of ``src/repro``: ``core`` (query formation and
the ``DBConnector.execute`` driver), ``backends`` (connector methods),
``sqlpp`` (the transpiler, i.e. the SQL++ connector's ``preprocess``),
``mongo`` / ``cypher`` (engine ``execute``), ``spark`` (``spark.sql`` and
``toPandas``) and ``duck`` (the DuckDB connection).
"""
from __future__ import annotations

import statistics
from collections import defaultdict

SPARK_PHASES = ("parsing", "analysis", "optimization", "planning")


class Span:
    __slots__ = ("name", "layer", "backend", "op", "parent", "start", "end", "attrs")

    def __init__(self, name, layer, backend, op, parent, start):
        self.name, self.layer, self.backend = name, layer, backend
        self.op, self.parent, self.start = op, parent, start
        self.end = start
        self.attrs: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self, index: dict) -> dict:
        return {
            "id": index[id(self)],
            "parent": None if self.parent is None else index[id(self.parent)],
            "op": self.op,
            "name": self.name,
            "layer": self.layer,
            "backend": self.backend,
            "start": self.start,
            "end": self.end,
            **self.attrs,
        }


class Tracer:
    """Records spans while :attr:`active`; a pass-through otherwise."""

    def __init__(self, clock):
        self.clock = clock
        self.active = False
        self.op: int | None = None  # None: set-up, outside any op
        self.spans: list[Span] = []
        self.rule_applies: dict[int | None, int] = defaultdict(int)
        self._stack: list[Span] = []

    # -- spans -------------------------------------------------------------
    def open(self, name: str, layer: str, backend: str | None = None) -> Span:
        """Start a span; with no ``backend`` it takes the enclosing span's."""
        parent = self._stack[-1] if self._stack else None
        if backend is None:
            backend = parent.backend if parent is not None else layer
        span = Span(name, layer, backend, self.op, parent, self.clock())
        self._stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, obj, attr: str, layer: str, backend: str | None, after=None) -> None:
        """Replace ``obj.attr`` by a wrapper recording a span per call.

        ``after(span, args, result)`` runs once the span is closed, so it
        may annotate the span or wrap the returned object untimed.
        """
        inner = getattr(obj, attr)
        name = f"{layer}.{attr}"
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return inner(*args, **kwargs)
            span = tracer.open(name, layer, backend)
            try:
                result = inner(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, result)
            return result

        setattr(obj, attr, traced)

    # -- instrumenting the benchmark's instances ---------------------------
    def instrument_connector(self, conn, backend: str) -> None:
        """Wrap a connector's public calls and everything it owns."""
        rules = conn.rules
        apply = rules.apply

        def counted_apply(*args, **kwargs):
            if self.active:
                self.rule_applies[self.op] += 1
            return apply(*args, **kwargs)

        rules.apply = counted_apply
        preprocess_layer = "sqlpp" if backend == "sqlpp" else "backends"

        def note_query(span, args, result):
            span.attrs["query_chars"] = len(args[0])

        self.wrap(conn, "execute", "core", backend, after=note_query)
        self.wrap(conn, "preprocess", preprocess_layer, backend)
        for attr in ("send_query", "postprocess", "register", "initialize", "get_columns"):
            self.wrap(conn, attr, "backends", backend)
        engine = getattr(conn, "engine", None)
        if engine is not None:
            def built(span, args, result):
                if backend == "mongo":
                    span.attrs["stages"] = len(args[0])
                self.instrument_frame(result, backend)

            self.wrap(engine, "execute", backend, backend, after=built)
        if backend == "sql":
            conn.con = TracedDuckDB(conn.con, self)

    def instrument_session(self, spark) -> None:
        """Wrap ``spark.sql`` so every frame it returns is instrumented. The
        session is shared, so each call belongs to its caller's backend."""

        def made(span, args, result):
            self.instrument_frame(result, span.backend)

        self.wrap(spark, "sql", "spark", None, after=made)

    def instrument_frame(self, df, backend: str) -> None:
        def collected(span, args, result):
            span.attrs["rows"] = len(result)
            span.attrs["jdf"] = df._jdf

        self.wrap(df, "toPandas", "spark", backend, after=collected)

    # -- after each op, outside its timed span ----------------------------
    def resolve_spark_phases(self, spans: list[Span]) -> None:
        """Replace each collected frame's Java handle by Catalyst phase times
        from ``queryExecution().tracker()``."""
        for span in spans:
            jdf = span.attrs.pop("jdf", None)
            if jdf is None:
                continue
            phases = jdf.queryExecution().tracker().phases()
            for phase in SPARK_PHASES:
                found = phases.get(phase)
                span.attrs[f"{phase}_ms"] = (
                    float(found.get().durationMs()) if found.isDefined() else 0.0
                )

    def dump(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [s.to_json(index) for s in self.spans]


class TracedDuckDB:
    """Proxy for a DuckDB connection: ``execute`` and the fetches are spans.

    ``execute`` returns the proxy itself, as ``DuckDBPyConnection.execute``
    returns the connection, so ``con.execute(q).fetchdf()`` is two spans.
    """

    def __init__(self, con, tracer: Tracer):
        self._con = con
        self._tracer = tracer

    def _call(self, name: str, *args):
        tracer = self._tracer
        if not tracer.active:
            return getattr(self._con, name)(*args)
        span = tracer.open(f"duck.{name}", "duck")
        try:
            return getattr(self._con, name)(*args)
        finally:
            tracer.close(span)

    def execute(self, *args):
        self._call("execute", *args)
        return self

    def fetchdf(self):
        return self._call("fetchdf")

    def fetchone(self):
        return self._call("fetchone")

    def fetchall(self):
        return self._call("fetchall")

    def __getattr__(self, name):
        return getattr(self._con, name)


# -- per-layer metrics ----------------------------------------------------
def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per layer: a span's duration minus its children's."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] += s.seconds
    out = defaultdict(float)
    for s in spans:
        out[s.layer] += s.seconds - child[id(s)]
    return out


def _median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def layer_metrics(tracer: Tracer, ops: list, backends: list[str], spark_stats: dict) -> dict:
    """Per-layer metrics: medians per traced op, plus per-call medians for
    the connector calls that set-up also makes (register, initialize,
    get_columns).

    ``ops`` are the traced op records; ``spark_stats`` maps op id to its
    ``(jobs, tasks)`` from Spark's status tracker.
    """
    by_op: dict = defaultdict(list)
    for s in tracer.spans:
        by_op[s.op].append(s)
    per_op = defaultdict(list)  # metric name -> per-op values
    for op in ops:
        spans = [s for s in by_op.get(op.id, []) if s.name != "op"]
        b = op.backend
        executes = [s for s in spans if s.name == "core.execute"]
        in_execute = sum(s.seconds for s in executes)
        per_op["core.formation_ms"].append((op.seconds - in_execute) * 1e3)
        per_op["core.query_chars"].append(sum(s.attrs.get("query_chars", 0) for s in executes))
        per_op["core.rule_applies"].append(tracer.rule_applies.get(op.id, 0))
        sums = defaultdict(float)
        for s in spans:
            sums[s.name] += s.seconds * 1e3
        if executes:
            per_op[f"backends.execute_ms.{b}"].append(sums["core.execute"])
            key = "sqlpp.preprocess" if b == "sqlpp" else "backends.preprocess"
            per_op[f"backends.preprocess_ms.{b}"].append(sums[key])
        engine = [s for s in spans if s.name == f"{b}.execute"]
        if engine:
            per_op[f"{b}.build_ms"].append(sums[f"{b}.execute"])
            if b == "mongo":
                per_op["mongo.stages"].append(sum(s.attrs.get("stages", 0) for s in engine))
        collects = [s for s in spans if s.name == "spark.toPandas"]
        if collects:
            phase = {p: sum(s.attrs.get(f"{p}_ms", 0.0) for s in collects) for p in SPARK_PHASES}
            for p in SPARK_PHASES:
                per_op[f"spark.{p}_ms.{b}"].append(phase[p])
            per_op[f"spark.collect_ms.{b}"].append(
                sums["spark.toPandas"] - phase["optimization"] - phase["planning"]
            )
            per_op[f"spark.result_rows.{b}"].append(sum(s.attrs.get("rows", 0) for s in collects))
            jobs, tasks = spark_stats.get(op.id, (0, 0))
            per_op[f"spark.jobs.{b}"].append(jobs)
            per_op[f"spark.tasks.{b}"].append(tasks)
        if any(s.layer == "duck" for s in spans):
            per_op["duck.execute_ms"].append(sums["duck.execute"])
            per_op["duck.fetch_ms"].append(sums["duck.fetchdf"])
        for layer, seconds in self_times(by_op.get(op.id, [])).items():
            per_op[f"self_ms.{layer}"].append(seconds * 1e3)
    out = {name: _median(values) for name, values in per_op.items()}
    # connector calls made in set-up as well as inside ops: median per call
    for attr in ("register", "initialize", "get_columns"):
        for b in backends:
            calls = [
                s.seconds * 1e3
                for s in tracer.spans
                if s.name == f"backends.{attr}" and s.backend == b
            ]
            out[f"backends.{attr}_ms.{b}"] = _median(calls)
    return out


def check_self_times(tracer: Tracer, ops: list) -> list[str]:
    """Each traced op's layer self times must sum to no more than its wall
    time; returns a description of every op that breaks this."""
    by_op = defaultdict(list)
    for s in tracer.spans:
        by_op[s.op].append(s)
    bad = []
    for op in ops:
        total = sum(self_times(by_op.get(op.id, [])).values())
        if total > op.seconds + 1e-6:
            bad.append(f"op {op.id} {op.backend}/{op.name}: {total:.6f}s > {op.seconds:.6f}s")
    return bad
