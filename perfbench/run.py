"""Benchmark of PolyFrame actions on all five backends.

Usage (from the repository root)::

    python3 perfbench/run.py --workload xs_mixed --seed 1 --seconds 20 --trace 0

One Python process drives the load in a closed loop with a single client:
each op starts when the previous one has returned. Spark runs
``local[N]`` with N = min(4, nproc), 64 shuffle partitions, Arrow on and
broadcast joins off, as in the test session of ``conftest.py``.

A run sets up several times and reports the median set-up time, warms up,
then measures whole passes of the workload's ops until ``--seconds`` have
passed and at least ``MIN_OPS`` ops and ``MIN_PASSES`` passes have run.
Every op's result is checked after its timed span ends. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. The line before it
holds the run's settings. Everything the run writes goes to ``.bench_build/``
at the repository root.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build"

#: Set-up rounds per run; ``setup_s`` is their median.
SETUP_ROUNDS = 3
#: Fewest timed ops per run, so that op_p90_ms has ten samples beyond it.
MIN_OPS = 100
#: Fewest timed passes per run: every op of a pass runs at least twice.
MIN_PASSES = 2
#: No new pass starts once this much time has been measured.
MAX_TIMED_S = 100.0
DRIVER_MEMORY = "2g"
SESSION_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.ui.showConsoleProgress": "false",
}
SPARK_BACKENDS = ("sparksql", "sqlpp", "mongo", "cypher")

clock = time.perf_counter


@dataclass
class Record:
    id: int
    backend: str
    name: str
    seconds: float
    traced: bool
    raised: bool
    error: str | None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["xs_mixed", "load_query"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--rows", type=int, default=None, help="data size override (smoke tests)")
    p.add_argument(
        "--corrupt-expected",
        action="store_true",
        help="make one expected result wrong, to test the correctness gate",
    )
    return p.parse_args(argv)


def cores() -> int:
    return min(4, len(os.sched_getaffinity(0)))


def prepare_environment() -> None:
    """Keep every file Spark, the JVM and Python write inside OUT, and pin
    the JVM's launch options before pyspark is imported."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(OUT / "spark-local")
    # for every JVM spark-submit starts: no hsperfdata files under /tmp
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores()}] --driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell"
    )
    sys.path.insert(0, str(ROOT / "src"))


def start_session():
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench").config(
        "spark.sql.warehouse.dir", str(OUT / "spark-warehouse")
    )
    for key, value in SESSION_CONF.items():
        builder = builder.config(key, value)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_jvm(spark) -> None:
    """Stop Spark and the JVM it launched, and wait until the JVM exits."""
    from pyspark import SparkContext

    if spark is not None:
        spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        proc.wait(timeout=60)
    SparkContext._gateway = SparkContext._jvm = None


def peak_rss_kb(pid: int | str) -> int:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def p90(values: list[float]) -> float:
    """Harrell–Davis estimate of the 90th percentile: a weighted mean of all
    order statistics, the weights a Beta(0.9(n+1), 0.1(n+1)) distribution
    over ranks. A single order statistic jumps between op kinds where the
    latencies are sparse, as among the describes of ``load_query``: over
    three sets of ten seeds there, the spread of the nearest-rank p90 was
    10–37% of its median, and that of this estimate 7–31%."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = 0.9 * (n + 1), 0.1 * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], ordered))


class Runner:
    def __init__(self, args):
        from workloads import WORKLOADS

        self.args = args
        self.workload = WORKLOADS[args.workload](args.seed, args.rows, args.corrupt_expected)
        self.rng = random.Random(args.seed)
        self.tracer = None
        if args.trace:
            from tracing import Tracer

            self.tracer = Tracer(clock)
        self.spark = None
        self.records: list[Record] = []
        self.setup: dict[str, list[float]] = {"round": [], "session": [], "generate": []}

    # -- set-up ---------------------------------------------------------------
    def set_up_once(self) -> None:
        from repro.bench.harness import NAMESPACE, make_connector
        from repro.core import PolyFrame

        t0 = clock()
        if self.spark is not None:
            self.spark.stop()
        self.spark = start_session()
        t1 = clock()
        self.workload.generate()
        t2 = clock()
        conns = {b: make_connector(b, self.spark) for b in self.workload.backends}
        if self.tracer is not None:
            self.tracer.instrument_session(self.spark)
            for b, conn in conns.items():
                self.tracer.instrument_connector(conn, b)
            self.tracer.active = True
        self.workload.register(conns)
        for conn in conns.values():  # one throwaway action per backend
            PolyFrame(NAMESPACE, self.workload.collection, conn).head(1)
        t3 = clock()
        if self.tracer is not None:
            self.tracer.active = False
            self.tracer.resolve_spark_phases(self.tracer.spans)
        self.setup["round"].append(t3 - t0)
        self.setup["session"].append(t1 - t0)
        self.setup["generate"].append(t2 - t1)

    # -- ops ------------------------------------------------------------------
    def run_op(self, op, traced: bool) -> Record:
        tracer = self.tracer
        op_id = len(self.records)
        first_span = 0
        if tracer is not None:
            if op.backend in SPARK_BACKENDS:
                self.spark.sparkContext.setJobGroup(f"op{op_id}", op.name)
            tracer.op = op_id
            first_span = len(tracer.spans)
        t0 = clock()
        if traced:
            tracer.active = True
            root = tracer.open("op", "core", op.backend)
        try:
            result, error = op.fn(), None
        except Exception as e:  # a failed op is counted, never fatal
            result, error = None, f"{type(e).__name__}: {e}"
        if traced:
            tracer.close(root)
            tracer.active = False
        t1 = clock()
        raised = error is not None
        if traced:
            tracer.resolve_spark_phases(tracer.spans[first_span:])
        if error is None:
            error = op.check(result)
        del result
        gc.collect()  # so the check's garbage is never collected inside a later op
        return Record(op_id, op.backend, op.name, t1 - t0, traced, raised, error)

    def warm_up(self) -> float:
        """Untimed, unchecked ops before measuring; see README.md."""
        t0 = clock()
        for op in self.workload.warm_ops(self.rng):
            try:
                op.fn()
            except Exception:
                pass  # the timed ops report it
        return clock() - t0

    def measure(self) -> float:
        traced_run = self.tracer is not None
        timed = 0.0
        passes = 0
        while True:
            for op in self.workload.make_pass(self.rng):
                traced = traced_run and (op.key + passes) % 2 == 0
                record = self.run_op(op, traced)
                self.records.append(record)
                timed += record.seconds
            passes += 1
            enough = (
                timed >= self.args.seconds
                and len(self.records) >= MIN_OPS
                and passes >= MIN_PASSES
            )
            if enough or timed >= MAX_TIMED_S:
                return timed

    # -- whole run ------------------------------------------------------------
    def run(self) -> tuple[dict, dict]:
        try:
            for _ in range(SETUP_ROUNDS):
                self.set_up_once()
            self.workload.expect()  # outside the timed set-up
            warm_s = self.warm_up()
            gc.freeze()  # later collections skip everything set-up made
            timed = self.measure()
            rss_kb = peak_rss_kb("self") + peak_rss_kb(
                self.spark._jvm.java.lang.ProcessHandle.current().pid()
            )
            spark_stats = self.spark_stats() if self.tracer is not None else {}
            settings = self.settings()
        finally:
            stop_jvm(self.spark)
        setup_s = statistics.median(self.setup["round"]) + warm_s
        failed = sum(1 for r in self.records if r.error is not None)
        result = {
            "correct": failed == 0,
            "attempted": len(self.records),
            "failed": failed,
        }
        if self.tracer is None:
            metrics = self.end_to_end(setup_s)
        else:
            metrics = self.per_layer(spark_stats, warm_s)
            metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
        result["metrics"] = {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        }
        self.write_out(settings, result, timed)
        return settings, result

    def end_to_end(self, setup_s: float) -> dict:
        times = [r.seconds for r in self.records]
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "op_p90_ms": (p90(times) * 1e3, "ms"),
        }
        for b in self.workload.backends:
            mine = [r for r in self.records if r.backend == b]
            done = sum(1 for r in mine if not r.raised)
            metrics[f"{b}.ops_per_s"] = (done / sum(r.seconds for r in mine), "1/s")
        return metrics

    def per_layer(self, spark_stats: dict, warm_s: float) -> dict:
        from tracing import check_self_times, layer_metrics

        traced = [r for r in self.records if r.traced]
        untraced = [r for r in self.records if not r.traced]
        bad = check_self_times(self.tracer, traced)
        if bad:
            raise RuntimeError("layer self times exceed op wall time: " + "; ".join(bad[:3]))
        layers = layer_metrics(self.tracer, traced, list(self.workload.backends), spark_stats)
        missing = sorted(name for name, value in layers.items() if value is None)
        if missing:
            raise RuntimeError(f"traced run measured nothing for {missing}")

        def unit(name: str) -> str:
            if name.startswith(("core.query_chars", "core.rule_applies", "mongo.stages")):
                return "count"
            if name.startswith(("spark.jobs", "spark.tasks", "spark.result_rows")):
                return "count"
            return "ms"

        metrics = {name: (value, unit(name)) for name, value in sorted(layers.items())}
        rate = lambda recs: len(recs) / sum(r.seconds for r in recs)  # noqa: E731
        metrics["wisconsin.generate_s"] = (statistics.median(self.setup["generate"]), "s")
        metrics["setup.session_s"] = (statistics.median(self.setup["session"]), "s")
        metrics["setup.warmup_s"] = (warm_s, "s")
        metrics["trace.overhead_ratio"] = (rate(untraced) / rate(traced), "ratio")
        return metrics

    def spark_stats(self) -> dict[int, tuple[int, int]]:
        """Jobs and completed tasks of every traced Spark op, read from the
        status tracker once all ops are done (its listener runs behind)."""
        tracker = self.spark.sparkContext.statusTracker()
        out = {}
        for r in self.records:
            if not r.traced or r.backend not in SPARK_BACKENDS:
                continue
            jobs = tracker.getJobIdsForGroup(f"op{r.id}")
            tasks = 0
            for job in jobs:
                info = tracker.getJobInfo(job)
                for stage in info.stageIds if info else ():
                    stage_info = tracker.getStageInfo(stage)
                    tasks += stage_info.numCompletedTasks if stage_info else 0
            out[r.id] = (len(jobs), tasks)
        return out

    def settings(self) -> dict:
        import duckdb
        import numpy
        import pandas
        import pyspark

        conf = self.spark.sparkContext.getConf()
        return {
            "workload": self.args.workload,
            "workload_seed": self.args.seed,
            "data_seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "data": self.workload.settings(),
            "setup_rounds": SETUP_ROUNDS,
            "min_ops": MIN_OPS,
            "min_passes": MIN_PASSES,
            "spark": {
                "master": self.spark.sparkContext.master,
                "driver_memory": DRIVER_MEMORY,
                **{k: conf.get(k) for k in SESSION_CONF},
            },
            "versions": {
                "python": platform.python_version(),
                "java": self.spark._jvm.java.lang.System.getProperty("java.version"),
                "pyspark": pyspark.__version__,
                "duckdb": duckdb.__version__,
                "pandas": pandas.__version__,
                "numpy": numpy.__version__,
            },
            "nproc": os.cpu_count(),
            "cores_used": cores(),
        }

    def write_out(self, settings: dict, result: dict, timed: float) -> None:
        name = f"{self.args.workload}-seed{self.args.seed}-trace{self.args.trace}.json"
        doc = {
            "settings": settings,
            "result": result,
            "timed_s": timed,
            "setup": self.setup,
            "ops": [r.__dict__ for r in self.records],
        }
        if self.tracer is not None:
            doc["spans"] = self.tracer.dump()
        (OUT / name).write_text(json.dumps(doc, default=float))


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    settings, result = Runner(args).run()
    print(json.dumps({"settings": settings}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
