"""One benchmark invocation: preparation, servers, load, figures.

Imported by ``run.py`` once ``src/`` is on the path (the request
generator builds plans through the program's IR API).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import harness
import layers
import reference
import summary
import templates
from repro.datagen.cache import load_dataset
from repro.datagen.tpch import TpchConfig
from workloads import (
    CLIENTS,
    WORKLOADS,
    PreparedStream,
    RequestStream,
    query_json,
    request_line,
)

HERE = Path(__file__).resolve().parent

#: Server start-ups timed per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: A run may go on past ``--seconds`` (to reach the p95 sample count)
#: up to this multiple of it.
MAX_STRETCH = 3.0
#: Most slices a measured window is cut into (see ``Bench.end_to_end``).
MAX_SLICES = 9
#: Ad-hoc requests drawn before timing, per second of run.
ADHOC_PREPARED_PER_S = 150

END_TO_END_UNITS = {
    "qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "geomean_ms": "ms",
    "setup_s": "s",
    "server_rss_mb": "MiB",
}


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unavailable"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def warm_page_cache(entry: Path) -> int:
    """Read every file of a dataset cache entry once; returns bytes."""
    total = 0
    for path in sorted(entry.rglob("*")):
        if path.is_file():
            with open(path, "rb") as fh:
                while True:
                    chunk = fh.read(1 << 22)
                    if not chunk:
                        break
                    total += len(chunk)
    return total


def figures(ok, seconds: float) -> dict:
    """qps, p50, p95 and geomean of the answers ``ok`` over ``seconds``."""
    latencies = [r.latency_ms for r in ok]
    by_template = {}
    for r in ok:
        by_template.setdefault(r.template, []).append(r.latency_ms)
    return {
        "qps": len(ok) / seconds,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p95_ms": summary.percentile(latencies, 0.95),
        "geomean_ms": summary.geomean_of_medians(by_template),
    }


class Bench:
    """One benchmark invocation: a workload, a seed, a mode."""

    def __init__(self, args, root: Path) -> None:
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.work = root / ".perfbench"
        for sub in ("logs", "reports", "traces"):
            (self.work / sub).mkdir(parents=True, exist_ok=True)
        self.env = harness.child_env(str(root), os.environ["REPRO_CACHE_DIR"])
        self.servers = []
        #: Ad-hoc reference answers that selected nothing (should stay 0).
        self.empty_answers = 0

        # -- untimed preparation ------------------------------------------
        prep = time.perf_counter()
        db = load_dataset("tpch", TpchConfig(scale_factor=self.workload.sf))
        entry = Path(db.dataset_cache_dir) / db.dataset_fingerprint
        warmed = warm_page_cache(entry)
        # Ad-hoc answers are checked after each run against one shared
        # (small) set of widened columns; a fixed workload's answers are
        # computed here, each from a fresh set so the SF 0.5 columns
        # are never all widened at once.
        tables = reference.Tables.from_database
        self.tables = tables(db) if self.workload.adhoc else None
        self.expected = {
            t: reference.evaluate(self.tables or tables(db), t, templates.FIXED[t])
            for t in self.workload.templates
        }
        self.warmup = [
            (t, request_line(f"warm-{t}", query_json(t, templates.FIXED[t])))
            for t in self.workload.templates
        ]
        self.provenance = {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_commit": git_commit(root),
            "source_digest": source_digest(root / "src"),
            "dataset": {
                "generator": "tpch",
                "scale_factor": self.workload.sf,
                "fingerprint": db.dataset_fingerprint,
                "page_cache_warmed_bytes": warmed,
            },
            "workload": self.workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "clients": CLIENTS,
            "preparation_s": time.perf_counter() - prep,
        }
        del db

    # -- servers ----------------------------------------------------------

    def server_argv(self, traced: bool, tag: str):
        args = self.workload.server_args()
        if traced:
            out = self.work / "traces" / f"{tag}.json"
            if out.exists():
                out.unlink()
            return [sys.executable, str(HERE / "launcher.py"), str(out)] + args, out
        return [sys.executable, "-m", "repro.server"] + args, None

    def start(self, traced: bool, tag: str):
        """Spawn a server and run the warm-up pass; returns (server,
        setup seconds, trace path)."""
        argv, trace_out = self.server_argv(traced, tag)
        self.provenance["server_argv"] = [Path(argv[0]).name] + argv[1:]
        server = harness.ServerProcess(
            argv, self.env, str(self.work / "logs" / f"{tag}.log")
        )
        self.servers.append(server)
        conn = harness.Connection(server.port)
        try:
            for template, line in self.warmup:
                answer = json.loads(conn.roundtrip(line))
                if answer.get("status") != "ok":
                    raise harness.BenchError(f"warm-up {template} failed: {answer}")
                if answer.get("value") != self.expected[template]:
                    raise harness.BenchError(f"warm-up {template} answered wrongly")
        except (OSError, ValueError) as exc:
            raise harness.BenchError(f"warm-up failed: {exc!r}") from exc
        finally:
            conn.close()
        setup_s = time.perf_counter() - server.started
        return server, setup_s, trace_out

    def stop(self, server) -> None:
        self.servers.remove(server)
        server.stop()

    def stop_all(self) -> None:
        for server in list(self.servers):
            self.stop(server)

    # -- measuring ---------------------------------------------------------

    def stream(self, prefix: str, seconds: float):
        stream = RequestStream(self.workload, self.args.seed, prefix)
        prepared = (
            int(ADHOC_PREPARED_PER_S * seconds) if self.workload.adhoc else 0
        )
        return PreparedStream(stream, prepared)

    def measure(self, server, prefix: str, seconds: float) -> dict:
        stream = self.stream(prefix, seconds)
        expected = self.expected
        adhoc = self.workload.adhoc

        def want(template, key):
            return None if adhoc else expected[template]

        before = harness.scrape_stats(server.port)
        cpu_before, host_before = server.cpu_seconds(), harness.host_cpu_ticks()
        run = harness.drive(
            server.port,
            stream,
            want,
            CLIENTS,
            seconds,
            summary.samples_needed(0.95),
            seconds * MAX_STRETCH,
        )
        cpu = server.cpu_seconds() - cpu_before
        host_after = harness.host_cpu_ticks()
        after = harness.scrape_stats(server.port)
        if adhoc:
            self.check_adhoc(run.records, stream.stream.params)
        host = {k: host_after[k] - host_before[k] for k in host_after}
        return {
            "run": run,
            "server_cpu_s": cpu,
            "host_ticks": host,
            "telemetry": layers.telemetry_delta(before, after),
            "drawn_late": stream.drawn_late,
        }

    def check_adhoc(self, records, params) -> None:
        empty = 0
        for record in records:
            if record.outcome != summary.OK:
                continue
            want = reference.evaluate(self.tables, record.template, params[record.key])
            empty += reference.is_empty(want)
            record.outcome = summary.classify(
                {"status": "ok", "value": record.value}, want
            )
            record.value = None
        self.empty_answers += empty

    # -- figures -------------------------------------------------------------

    @staticmethod
    def end_to_end(run) -> dict:
        """The end-to-end figures of one measured window.

        The window is cut into up to ``MAX_SLICES`` equal time slices
        holding at least 200 answers each (10 above the p95), and every
        figure is the median of its per-slice values: a host stall
        during part of a run then moves it less. Pooled values over the
        whole window are reported alongside.
        """
        ok = [r for r in run.records if r.outcome == summary.OK]
        try:
            parts = summary.time_slices(
                [r.received for r in ok],
                run.started,
                run.elapsed,
                MAX_SLICES,
                summary.samples_needed(0.95),
            )
        except ValueError as exc:
            raise harness.BenchError(
                f"too few answers in {run.elapsed:.1f}s for a p95: {exc}"
            ) from exc
        width = run.elapsed / len(parts)
        per_slice = [figures([ok[i] for i in part], width) for part in parts]
        result = {
            name: statistics.median(f[name] for f in per_slice)
            for name in per_slice[0]
        }
        pooled = figures(ok, run.elapsed)
        by_template = {}
        for r in ok:
            by_template.setdefault(r.template, []).append(r.latency_ms)
        result.update(
            samples=len(ok),
            slices=per_slice,
            pooled=pooled,
            template_p50_ms={
                t: statistics.median(v) for t, v in sorted(by_template.items())
            },
            elapsed_s=run.elapsed,
        )
        return result

    def run_untraced(self) -> dict:
        setups = []
        server = None
        for i in range(SETUPS):
            server, setup_s, _ = self.start(False, f"{self.workload.name}-setup{i}")
            setups.append(setup_s)
            if i < SETUPS - 1:
                self.stop(server)
        measured = self.measure(server, "r", self.args.seconds)
        rss = server.peak_rss_mb()
        self.stop(server)
        e2e = self.end_to_end(measured["run"])
        e2e["setup_s"] = statistics.median(setups)
        e2e["setup_runs_s"] = setups
        e2e["server_rss_mb"] = rss
        e2e["server_cpu_ms_per_request"] = (
            1e3 * measured["server_cpu_s"] / e2e["samples"]
        )
        ticks = measured["host_ticks"]
        e2e["host_steal_frac"] = ticks["steal"] / max(sum(ticks.values()), 1)
        return {
            "records": measured["run"].records,
            "end_to_end": e2e,
            "telemetry": measured["telemetry"],
            "drawn_late": measured["drawn_late"],
        }

    def run_traced(self) -> dict:
        half = self.args.seconds / 2.0
        server, _, _ = self.start(False, f"{self.workload.name}-untraced")
        plain = self.measure(server, "u", half)
        self.stop(server)
        server, _, trace_out = self.start(True, f"{self.workload.name}-traced")
        traced = self.measure(server, "t", half)
        self.stop(server)
        with open(trace_out) as fh:
            trace = json.load(fh)
        plain_e2e = self.end_to_end(plain["run"])
        traced_e2e = self.end_to_end(traced["run"])
        result = layers.layer_metrics(
            trace,
            traced["run"].records,
            traced["telemetry"],
            traced_e2e["qps"],
            plain_e2e["qps"],
        )
        result["untraced"] = plain_e2e
        result["traced"] = traced_e2e
        result["telemetry_untraced"] = plain["telemetry"]
        result["telemetry_traced"] = traced["telemetry"]
        return {
            "records": plain["run"].records + traced["run"].records,
            "layers": result,
            "drawn_late": plain["drawn_late"] + traced["drawn_late"],
        }


def run(args, root: Path) -> int:
    """Measure, write the full report, print the result line; returns
    the exit code."""
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    bench = None
    try:
        bench = Bench(args, root)
        outcome = bench.run_traced() if args.trace else bench.run_untraced()
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        if bench is not None:
            bench.stop_all()

    counts = summary.tally(r.outcome for r in outcome["records"])
    report = {
        "provenance": bench.provenance,
        "outcomes": counts,
        "error_rate": counts["error_rate"],
        "adhoc_empty_answers": bench.empty_answers,
        "requests_drawn_in_window": outcome["drawn_late"],
    }
    if args.trace:
        report["layers"] = outcome["layers"]
        metrics = {
            name: {"value": value, "unit": layers.PER_LAYER[name][0]}
            for name, value in outcome["layers"]["metrics"].items()
        }
        if outcome["layers"]["missing_boundaries"]:
            print(
                "perfbench: boundaries missing from the program: "
                f"{outcome['layers']['missing_boundaries']}; metrics read as 0: "
                f"{outcome['layers']['missing_metrics']}",
                file=sys.stderr,
            )
    else:
        report["end_to_end"] = outcome["end_to_end"]
        report["telemetry"] = outcome["telemetry"]
        metrics = {
            name: {"value": outcome["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    path = (
        bench.work / "reports"
        / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    path.write_text(json.dumps(report, indent=1, default=str))

    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        f"{args.workload} error_rate = {counts['error_rate']:.6g} fraction "
        f"({counts['failed']} of {counts['attempted']}: "
        + ", ".join(f"{k} {counts[k]}" for k in summary.OUTCOMES)
        + ")"
    )
    print(f"report: {path.relative_to(root)}")
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }))
    return 0
