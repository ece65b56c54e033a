"""Mini Cypher interpreter over Spark DataFrames (Neo4j stand-in).

PolyFrame's ``cypher.ini`` rules generate linear Cypher of exactly the
paper's Appendix-G shape: one ``MATCH`` anchoring a node variable ``t``,
a chain of ``WITH`` clauses (each consuming the previous one — the
incremental query formation), and a final ``RETURN`` (+ ``LIMIT``).
This engine executes that subset on Spark DataFrames so the Cypher code
path runs end-to-end offline (DESIGN.md §2).

Execution model: the current row stream is a Spark DataFrame whose
columns are the properties of the map/node currently bound to ``t``.
Clauses:

* ``MATCH (t: Label)``               — scan the registered label
* ``MATCH (r: Label)``               — bind a second node (paper's join,
  q10); the following ``WHERE t.a = r.b`` turns the conceptual cartesian
  product into an equi-join (what Neo4j's planner does for such patterns);
  ``r``'s properties are carried with an ``__r_`` prefix
* ``WITH t`` / ``WITH t WHERE p`` / ``WITH t ORDER BY e [DESC]``
* ``WITH t{items}`` / ``WITH DISTINCT t{items}`` — map projection
  (``.*`` keeps everything; ``'alias': expr`` computes)
* ``WITH {items} AS t``              — aggregation with Cypher's implicit
  grouping: non-aggregate items are the grouping keys
* ``RETURN t`` / ``RETURN COUNT(*) AS t`` / ``LIMIT n``

Leaf expressions are translated textually to Spark SQL (``t.attr`` →
column, ``stDevP``→``stddev_pop``, ``apoc.convert.toInteger``→``CAST``),
which keeps the interpreter small while remaining genuinely executable.
"""
from __future__ import annotations

import re

from pyspark.sql import Column, DataFrame, functions as F

from repro.sqlpp.transpile import _replace_call

_AGG_HEAD_RE = re.compile(r"^\s*(min|max|avg|count|stddev_pop|sum)\s*\(", re.IGNORECASE)


class CypherEngineError(ValueError):
    """The query uses a construct outside the supported subset."""


def _split_top_level(text: str, sep: str = ",") -> list[str]:
    """Split on ``sep`` outside quotes/parens/braces/brackets."""
    parts, depth, quote, start = [], 0, None, 0
    i = 0
    while i < len(text):
        ch = text[i]
        if quote:
            if ch == quote:
                quote = None
        elif ch in "'\"`":
            quote = ch
        elif ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
        i += 1
    parts.append(text[start:])
    return [p.strip() for p in parts if p.strip()]


def _to_sql(expr: str) -> str:
    """Translate a leaf Cypher expression into a Spark SQL expression."""
    out = _replace_call(expr, "apoc.convert.toInteger", "CAST({0} AS INT)")
    out = _replace_call(out, "apoc.convert.toString", "CAST({0} AS STRING)")
    out = re.sub(r"\bstDevP\s*\(", "stddev_pop(", out)
    out = re.sub(r"\bt\.(\w+)", r"\1", out)  # t.attr -> column attr
    out = re.sub(r"\br\.(\w+)", r"__r_\1", out)  # r.attr -> prefixed column
    return out


class CypherEngine:
    """Executes PolyFrame's linear Cypher against registered labels."""

    def __init__(self, registry: dict[str, DataFrame]):
        #: label -> Spark DataFrame; CypherConnector sets it to the action
        #: namespace's temp views.
        self.registry = dict(registry)

    # ------------------------------------------------------------------
    def execute(self, query: str) -> DataFrame:
        df: DataFrame | None = None
        pending_match: str | None = None  # label awaiting its join WHERE
        lines = [ln.strip() for ln in query.strip().splitlines() if ln.strip()]
        i = 0
        while i < len(lines):
            line = lines[i]
            # LIMIT may trail a RETURN on its own line
            if m := re.fullmatch(r"LIMIT\s+(\d+)", line, re.IGNORECASE):
                df = self._need(df).limit(int(m.group(1)))
            elif m := re.fullmatch(r"MATCH\s*\(\s*(\w+)\s*:\s*(\w+)\s*\)", line):
                var, label = m.group(1), m.group(2)
                if df is None:
                    if var != "t":
                        raise CypherEngineError("anchor variable must be 't'")
                    df = self._scan(label)
                else:
                    if var != "r":
                        raise CypherEngineError("secondary variable must be 'r'")
                    pending_match = label
            elif line.upper().startswith("WHERE "):
                pred = line[6:]
                if pending_match is not None:
                    df = self._join(self._need(df), pending_match, pred)
                    pending_match = None
                else:
                    df = self._need(df).filter(F.expr(_to_sql(pred)))
            elif line.upper().startswith("WITH "):
                df = self._with(self._need(df), line[5:].strip())
            elif line.upper().startswith("RETURN "):
                df = self._return(self._need(df), line[7:].strip())
            else:
                raise CypherEngineError(f"unsupported clause: {line!r}")
            i += 1
        return self._need(df)

    def _need(self, df: DataFrame | None) -> DataFrame:
        if df is None:
            raise CypherEngineError("query must start with MATCH")
        return df

    def _scan(self, label: str) -> DataFrame:
        try:
            return self.registry[label]
        except KeyError:
            raise CypherEngineError(f"unknown label {label!r}") from None

    # ------------------------------------------------------------------
    def _join(self, df: DataFrame, label: str, pred: str) -> DataFrame:
        """``MATCH (r: L) WHERE t.a = r.b`` — executed as an equi-join."""
        m = re.fullmatch(r"t\.(\w+)\s*=\s*r\.(\w+)", pred.strip())
        if m is None:
            raise CypherEngineError(f"join WHERE must be t.a = r.b, got {pred!r}")
        left_on, right_on = m.group(1), m.group(2)
        right = self._scan(label)
        prefixed = right.select(
            *[F.col(c).alias(f"__r_{c}") for c in right.columns]
        )
        return df.join(
            prefixed, F.col(left_on) == F.col(f"__r_{right_on}"), "inner"
        )

    def _with(self, df: DataFrame, body: str) -> DataFrame:
        distinct = False
        if body.upper().startswith("DISTINCT "):
            distinct, body = True, body[9:].strip()
        out: DataFrame
        if m := re.fullmatch(r"t\s*\{(.*)\}", body, re.DOTALL):
            out = self._map_projection(df, m.group(1))
        elif m := re.fullmatch(r"\{(.*)\}\s+AS\s+t", body, re.DOTALL | re.IGNORECASE):
            out = self._aggregate(df, m.group(1))
        elif m := re.fullmatch(
            r"t\s+ORDER\s+BY\s+(.+?)(\s+DESC)?", body, re.IGNORECASE | re.DOTALL
        ):
            col = F.expr(_to_sql(m.group(1)))
            out = df.orderBy(col.desc() if m.group(2) else col.asc())
        elif m := re.fullmatch(r"t\s+WHERE\s+(.+)", body, re.IGNORECASE | re.DOTALL):
            out = df.filter(F.expr(_to_sql(m.group(1))))
        elif body.strip() == "t":
            out = df
        else:
            raise CypherEngineError(f"unsupported WITH body: {body!r}")
        return out.distinct() if distinct else out

    def _item(self, item: str) -> tuple[str | None, str]:
        """Parse one projection item: ``'alias': expr`` / `` `alias`: expr``
        / ``.*`` (alias None)."""
        if item.strip() == ".*":
            return None, ".*"
        m = re.fullmatch(r"(?:'([^']*)'|`([^`]*)`|(\w+))\s*:\s*(.+)", item, re.DOTALL)
        if m is None:
            raise CypherEngineError(f"unsupported projection item: {item!r}")
        alias = m.group(1) or m.group(2) or m.group(3)
        return alias, m.group(4).strip()

    def _map_projection(self, df: DataFrame, items: str) -> DataFrame:
        cols: list[Column] = []
        for item in _split_top_level(items):
            alias, expr = self._item(item)
            if alias is None:  # .*
                cols.extend(F.col(c) for c in df.columns if not c.startswith("__r_"))
            elif expr == "r":
                r_cols = [c for c in df.columns if c.startswith("__r_")]
                if not r_cols:
                    raise CypherEngineError("no 'r' binding in scope")
                cols.append(
                    F.struct(
                        *[F.col(c).alias(c[len("__r_"):]) for c in r_cols]
                    ).alias(alias)
                )
            else:
                cols.append(F.expr(_to_sql(expr)).alias(alias))
        return df.select(*cols)

    def _aggregate(self, df: DataFrame, items: str) -> DataFrame:
        """``WITH {..} AS t`` — implicit grouping by non-aggregate items."""
        keys: list[tuple[str, str]] = []
        aggs: list[tuple[str, str]] = []
        for item in _split_top_level(items):
            alias, expr = self._item(item)
            if alias is None:
                raise CypherEngineError(".* is not valid in an aggregating WITH")
            sql = _to_sql(expr)
            (aggs if _AGG_HEAD_RE.match(sql) else keys).append((alias, sql))
        agg_cols = [F.expr(sql).alias(alias) for alias, sql in aggs]
        if not agg_cols:
            raise CypherEngineError("aggregating WITH needs an aggregate item")
        if keys:
            grouped = df.groupBy(
                *[F.expr(sql).alias(alias) for alias, sql in keys]
            )
        else:
            grouped = df.groupBy()
        return grouped.agg(*agg_cols)

    def _return(self, df: DataFrame, body: str) -> DataFrame:
        if body.strip() == "t":
            return df.select(*[c for c in df.columns if not c.startswith("__r_")])
        if m := re.fullmatch(
            r"COUNT\s*\(\s*\*\s*\)\s+AS\s+(\w+)", body, re.IGNORECASE
        ):
            return df.agg(F.count(F.lit(1)).alias(m.group(1)))
        raise CypherEngineError(f"unsupported RETURN body: {body!r}")
