"""The benchmark's workloads: seeded op lists and their correctness checks.

An *op* is one user-visible PolyFrame call. Each op carries a ``check``
that the runner calls on the op's result after the op's timed span has
ended; it returns ``None`` when the result is correct and a message
otherwise. Expected results come from the literal pandas form of the
expression or from DuckDB over the same pandas data, never from a
PolyFrame backend.

A workload is used in four steps: :meth:`generate` makes the data from
the seed, :meth:`expect` derives the expected results, :meth:`register`
loads the data into freshly made connectors, and :meth:`make_pass`
returns the next pass of ops, in a seeded order. Passes
are the unit of timing: a run measures whole passes, so every backend runs
the same op mix in every run.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import duckdb
import numpy as np
import pandas as pd

from repro.bench.harness import BACKENDS, COLLECTION, COLLECTION2, NAMESPACE
from repro.core import PolyFrame
from repro.wisconsin.generator import wisconsin_pdf

#: Wisconsin rows of the paper's XS dataset at the repository's 1/100 scale.
XS_ROWS = 5_000


@dataclass
class Op:
    backend: str
    name: str
    fn: Callable[[], object]
    check: Callable[[object], str | None]
    #: position in the pass before shuffling; traced runs trace an op when
    #: ``key + pass number`` is even, so over two passes every op runs once
    #: traced and once untraced.
    key: int


# -- result checks ------------------------------------------------------------
def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].reset_index(drop=True).copy()
    for c in df.select_dtypes(include="float").columns:
        df[c] = df[c].round(6)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def equal_frame(want: pd.DataFrame):
    want = _canon(want)

    def check(got) -> str | None:
        if not isinstance(got, pd.DataFrame):
            return f"expected a DataFrame, got {type(got).__name__}"
        if set(got.columns) != set(want.columns):
            return f"columns {sorted(got.columns)} != {sorted(want.columns)}"
        try:
            pd.testing.assert_frame_equal(_canon(got), want, check_dtype=False)
        except AssertionError as e:
            return f"frame differs: {str(e).splitlines()[0]}"
        return None

    return check


def equal_scalar(want):
    def check(got) -> str | None:
        return None if got == want else f"{got!r} != expected {want!r}"

    return check


def _rows(df: pd.DataFrame, cols: list[str]) -> set[tuple]:
    """Rows as tuples, with every missing value as None so they compare."""
    values = df[cols].astype(object)
    return set(values.where(values.notna(), None).itertuples(index=False, name=None))


def sample_of(legal: pd.DataFrame, n: int = 5):
    """LIMIT without ORDER BY: any ``n`` rows of ``legal`` are correct, so
    check shape, columns and membership rather than equality."""
    cols = sorted(legal.columns)
    allowed = _rows(legal, cols)

    def check(got) -> str | None:
        if not isinstance(got, pd.DataFrame):
            return f"expected a DataFrame, got {type(got).__name__}"
        if got.shape != (n, len(cols)) or sorted(got.columns) != cols:
            return f"shape {got.shape} / columns {sorted(got.columns)} not a {n}-row sample of {cols}"
        rows = _rows(got, cols)
        return None if rows <= allowed else f"rows not in the data: {sorted(rows - allowed)[:2]}"

    return check


def sample_values(legal: pd.Series, n: int = 5):
    """A one-column LIMIT sample, checked by its values only: SQL++
    ``SELECT VALUE`` results carry no attribute name, so the column's name
    differs by backend."""
    allowed = set(legal)

    def check(got) -> str | None:
        if not isinstance(got, pd.DataFrame) or got.shape != (n, 1):
            return f"expected a {n}x1 DataFrame, got {getattr(got, 'shape', type(got).__name__)}"
        values = set(got.iloc[:, 0])
        return None if values <= allowed else f"values not in the data: {sorted(values - allowed)[:2]}"

    return check


def described(data: pd.DataFrame, std_kind: str):
    """``PolyFrame.describe`` against pandas over the same data. The
    backend's ``std_kind`` (sample or population) picks the ddof."""
    numeric = data.select_dtypes(include="number")
    ddof = 1 if std_kind == "sample" else 0
    want = pd.DataFrame(
        {
            "count": numeric.count(),
            "avg": numeric.mean(),
            "std": numeric.std(ddof=ddof),
            "min": numeric.min(),
            "max": numeric.max(),
        }
    ).T

    def check(got) -> str | None:
        if not isinstance(got, pd.DataFrame):
            return f"expected a DataFrame, got {type(got).__name__}"
        if sorted(got.columns) != sorted(want.columns) or list(got.index) != list(want.index):
            return f"describe shape {got.shape} does not match pandas {want.shape}"
        got_values = got[want.columns].to_numpy(dtype=float)
        if not np.allclose(got_values, want.to_numpy(dtype=float), rtol=1e-6, equal_nan=True):
            return "describe statistics differ from pandas"
        return None

    return check


def one_hot_sample(data: pd.DataFrame, column: str, n: int = 5):
    values = sorted(data[column].dropna().unique())
    cols = sorted(f"{column}_{v}" for v in values)

    def check(got) -> str | None:
        if not isinstance(got, pd.DataFrame):
            return f"expected a DataFrame, got {type(got).__name__}"
        if got.shape != (n, len(cols)) or sorted(got.columns) != cols:
            return f"get_dummies shape {got.shape} / columns {sorted(got.columns)}"
        if not (got.sum(axis=1) == 1).all():
            return "get_dummies rows are not one-hot"
        return None

    return check


def is_frame(got) -> str | None:
    return None if isinstance(got, PolyFrame) else f"got {type(got).__name__}"


def no_check(got) -> str | None:
    return None


# -- xs_mixed -------------------------------------------------------------------
class XsMixed:
    """The 13 Table III expressions plus ``describe()`` and ``get_dummies()``
    on every backend at XS, one op per whole expression."""

    name = "xs_mixed"
    backends = BACKENDS
    collection = COLLECTION

    def __init__(self, seed: int, rows: int | None = None, corrupt: bool = False):
        self.seed = seed
        self.rows = rows or XS_ROWS
        self.corrupt = corrupt
        r = random.Random(seed)
        # literals within each attribute's range; y and z follow x through
        # the Wisconsin modulus correlations, so expr 3 is never empty
        self.x = r.randrange(10)
        self.y, self.z = self.x % 5, self.x % 2
        self.lo = r.randrange(80)
        self.hi = self.lo + 20
        self.frames: dict = {}

    def settings(self) -> dict:
        return {
            "rows": self.rows,
            "literals": {"x": self.x, "y": self.y, "z": self.z, "lo": self.lo, "hi": self.hi},
        }

    def generate(self) -> None:
        self.data = wisconsin_pdf(self.rows, seed=self.seed)

    def expect(self) -> None:
        """Expected results of every op, computed once per run."""
        df, x, y, z, lo, hi = self.data, self.x, self.y, self.z, self.lo, self.hi
        con = duckdb.connect()
        try:
            con.register("data", df)
            count = len(df) + 1 if self.corrupt else len(df)
            oracle = lambda sql: con.execute(sql).fetchdf()  # noqa: E731
            self.want = {
                "expr01_count": equal_scalar(count),
                "expr02_project": sample_of(df[["two", "four"]]),
                "expr03_filter_count": equal_scalar(
                    len(df[(df["ten"] == x) & (df["twentyPercent"] == y) & (df["two"] == z)])
                ),
                "expr04_groupby": equal_frame(oracle(
                    'SELECT "oddOnePercent", COUNT("oddOnePercent") AS "count_oddOnePercent" '
                    "FROM data GROUP BY 1"
                )),
                "expr05_map": sample_values(df["stringu1"].str.upper()),
                "expr06_max": equal_scalar(df["unique1"].max()),
                "expr07_min": equal_scalar(df["unique1"].min()),
                "expr08_groupby_max": equal_frame(oracle(
                    'SELECT "twenty", MAX("four") AS "max_four" FROM data GROUP BY 1'
                )),
                "expr09_sort": equal_frame(oracle(
                    'SELECT * FROM data ORDER BY "unique1" DESC LIMIT 5'
                )),
                "expr10_selection": sample_of(df[df["ten"] == x]),
                "expr11_range_count": equal_scalar(
                    len(df[(df["onePercent"] >= lo) & (df["onePercent"] <= hi)])
                ),
                "expr12_join_count": equal_scalar(
                    len(pd.merge(df, df, left_on="unique1", right_on="unique1"))
                ),
                "expr13_missing_count": equal_scalar(int(df["tenPercent"].isna().sum())),
                "get_dummies": one_hot_sample(df, "four"),
            }
        finally:
            con.close()

    def register(self, conns: dict) -> None:
        self.frames = {}
        for b, conn in conns.items():
            conn.register(NAMESPACE, COLLECTION, self.data)
            conn.register(NAMESPACE, COLLECTION2, self.data)
            self.frames[b] = (
                PolyFrame(NAMESPACE, COLLECTION, conn),
                PolyFrame(NAMESPACE, COLLECTION2, conn),
            )
        self.conns = conns

    def _ops(self, pf, pf2) -> dict[str, Callable[[], object]]:
        x, y, z, lo, hi = self.x, self.y, self.z, self.lo, self.hi
        return {
            "expr01_count": lambda: len(pf),
            "expr02_project": lambda: pf[["two", "four"]].head(),
            "expr03_filter_count": lambda: len(
                pf[(pf["ten"] == x) & (pf["twentyPercent"] == y) & (pf["two"] == z)]
            ),
            "expr04_groupby": lambda: pf.groupby("oddOnePercent").agg("count").toPandas(),
            "expr05_map": lambda: pf["stringu1"].map(str.upper).head(),
            "expr06_max": lambda: pf["unique1"].max(),
            "expr07_min": lambda: pf["unique1"].min(),
            "expr08_groupby_max": lambda: pf.groupby("twenty")["four"].agg("max").toPandas(),
            "expr09_sort": lambda: pf.sort_values("unique1", ascending=False).head(),
            "expr10_selection": lambda: pf[pf["ten"] == x].head(),
            "expr11_range_count": lambda: len(
                pf[(pf["onePercent"] >= lo) & (pf["onePercent"] <= hi)]
            ),
            "expr12_join_count": lambda: len(
                pf.merge(pf2, left_on="unique1", right_on="unique1")
            ),
            "expr13_missing_count": lambda: len(pf[pf["tenPercent"].isna()]),
            "describe": lambda: pf.describe(),
            "get_dummies": lambda: pf["four"].get_dummies().head(),
        }

    def warm_ops(self, rng: random.Random) -> list[Op]:
        """One whole pass: the first pass after set-up runs about 30% slower
        than the next, while the JVM compiles each op's Catalyst, codegen and
        Arrow paths."""
        return self.make_pass(rng)

    def make_pass(self, rng: random.Random) -> list[Op]:
        ops = []
        for b in self.backends:
            pf, pf2 = self.frames[b]
            std_kind = self.conns[b].rules.meta("std_kind", "sample")
            for name, fn in self._ops(pf, pf2).items():
                check = described(self.data, std_kind) if name == "describe" else self.want[name]
                ops.append(Op(b, name, fn, check, key=len(ops)))
        rng.shuffle(ops)
        return ops


# -- load_query -----------------------------------------------------------------
class LoadQuery:
    """Writes beside reads: each step registers a fresh seeded Wisconsin
    slice on one backend, then creates a frame on it and runs ``len``,
    ``head`` and ``describe``. Collection names cycle over a small fixed
    set, so every register replaces an earlier dataset."""

    name = "load_query"
    backends = BACKENDS
    names = ("slice0", "slice1", "slice2")
    collection = names[0]

    def __init__(self, seed: int, rows: int | None = None, corrupt: bool = False):
        self.seed = seed
        self.corrupt = corrupt
        # slice sizes; a pass gives every backend each size exactly once
        top = rows or 50_000
        self.ladder = (top // 10, top // 5, (top * 2) // 5, top)
        self.steps = 0

    def settings(self) -> dict:
        return {"rows": max(self.ladder), "slice_rows": list(self.ladder)}

    def generate(self) -> None:
        self.pool = wisconsin_pdf(max(self.ladder), seed=self.seed)

    def expect(self) -> None:
        """Each step's expected results depend on its slice; see ``_step``."""

    def register(self, conns: dict) -> None:
        self.conns = conns
        first = self.pool.iloc[: self.ladder[0]]
        for conn in conns.values():
            for name in self.names:
                conn.register(NAMESPACE, name, first)

    def _step(self, b: str, n: int, rng: random.Random, key: int) -> list[Op]:
        conn = self.conns[b]
        offset = rng.randrange(len(self.pool) - n + 1)
        data = self.pool.iloc[offset : offset + n]
        name = self.names[self.steps % len(self.names)]
        self.steps += 1
        frame: dict = {}
        std_kind = conn.rules.meta("std_kind", "sample")

        def create():
            frame["pf"] = PolyFrame(NAMESPACE, name, conn)
            return frame["pf"]

        return [
            Op(b, "register", lambda: conn.register(NAMESPACE, name, data), no_check, key),
            Op(b, "create", create, is_frame, key + 1),
            Op(b, "len", lambda: len(frame["pf"]), equal_scalar(n + 1 if self.corrupt else n), key + 2),
            Op(b, "head", lambda: frame["pf"].head(), lambda got: sample_of(data)(got), key + 3),
            Op(
                b,
                "describe",
                lambda: frame["pf"].describe(),
                lambda got: described(data, std_kind)(got),
                key + 4,
            ),
        ]

    def warm_ops(self, rng: random.Random) -> list[Op]:
        """The first cycle of a pass: one step on every backend."""
        return self.make_pass(rng)[: 5 * len(self.backends)]

    def make_pass(self, rng: random.Random) -> list[Op]:
        sizes = {b: rng.sample(self.ladder, len(self.ladder)) for b in self.backends}
        ops = []
        for cycle in range(len(self.ladder)):
            for b in rng.sample(self.backends, len(self.backends)):
                ops += self._step(b, sizes[b][cycle], rng, key=len(ops))
        return ops


WORKLOADS = {w.name: w for w in (XsMixed, LoadQuery)}
