"""mild2 benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
``search``, ``search-worst``, ``oracle``, ``cli``; ``--workload all`` runs
the four in turn in this one process.  The benchmark is a closed loop in a
single thread: the next op starts when the previous one returned.  It runs
the workload's list of ops in passes, the first pass whole and then until
``--seconds`` have gone by, and checks every result.

``--trace 0`` measures the end-to-end metrics with nothing installed in the
package.  On a shared host other tenants can slow every op by up to half
for minutes at a time, and a median over one run's ops moves with them.  So
the run also times a pace probe that runs no mild2 code, at regular
intervals of op time, and reports each time scaled by the probe's time on a
quiet host over its median time in the run: the time the op would take at
the pace of a quiet host.  A slower mild2 shows in full, as the probe does
not run its code.  The probe is the kind of work that bounds the op (see
PACES): an interpreter loop for the search workloads, and for ``cli`` and
set-up an interpreter launch that imports numpy, the heaviest import of
mild2.  ``oracle`` is left unscaled: neither probe tracks its large numpy
eliminations, and scaling by either widened its spread.  Each distinct op's
time is the median of its repeats; the latency metrics are the median and
the tail over the distinct ops.  The context line gives the unscaled
figures and the pace.

``--trace 1`` repeats the first pass, alternately untraced and with
every public mild2 function wrapped in a span (tracing.py), and reports the
per-layer metrics of one traced pass plus the tracing overhead; its spans are
written to ``.bench_out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run's context (seed, machine, versions, verdict mix, sample
counts, tail percentile, layer split).  The exit code is 0 when the run
completed, also if some outputs were wrong, and 2 when this checkout holds no
mild2 sources to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
PACE_LOOP = 40_000
# Traced spans' self times must add up to the traced ops' wall time within
# this share, or within TRACE_SLACK_S per op if that is larger; the gap is
# the harness's own time around each op span.
TRACE_TOLERANCE = 0.01
TRACE_SLACK_S = 20e-6
NAMES = ("search", "search-worst", "oracle", "cli")

E2E_UNITS = {
    "setup_s": "s",
    "ok_rate": "ratio",
    "peak_rss_mib": "MiB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}
LAYER_UNITS = {
    "linking.koch_s": "s",
    "linking.eliminate_s": "s",
    "linking.eliminate_calls": "count",
    "arith.legendre_calls": "count",
    "arith.legendre_s": "s",
    "mildness.circuit_s": "s",
    "mildness.circuit_hits": "count",
    "mildness.search_s": "s",
    "mildness.partitions_tried": "count",
    "mildness.rank_criterion_calls": "count",
    "mildness.rank_criterion_s": "s",
    "mildness.gf2_reach": "ratio",
    "gf2.rank_of_rows_calls": "count",
    "gf2.rank_of_rows_s": "s",
    "gf2.pack_s": "s",
    "gf2.rank_s": "s",
    "gf2.rows": "count",
    "gf2.bytes_packed": "B",
    "gf2.useful_rows": "ratio",
    "oracle.quotient_dims_s": "s",
    "oracle.row_build_s": "s",
    "oracle.max_degree_mib": "MiB",
    "quadlie.relator_to_poly_s": "s",
    "series.s": "s",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.command_ms": "ms",
    "trace.overhead_s": "s",
}


def tail(values) -> tuple[float, float, int]:
    """The highest percentile that still has at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With fewer than eleven
    samples no percentile qualifies and the maximum is returned as the
    100th percentile with none beyond.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, 0
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def loop_pace() -> float:
    """Time of a loop of integer arithmetic in the interpreter."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PACE_LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


def launch_pace() -> float:
    """Time of an interpreter launch that imports numpy and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True, timeout=60, check=True)
    return time.perf_counter() - t0


# Pace probes: (probe, op time between two probes in s, the probe's fastest
# time on a quiet 2-CPU x86-64 host with Python 3.11 in s).
PACES = {"loop": (loop_pace, 0.1, 2.5e-3), "launch": (launch_pace, 1.0, 0.13)}
# The probe each workload's op times are scaled by; None leaves them as timed.
WORKLOAD_PACE = {"search": "loop", "search-worst": "loop", "oracle": None, "cli": "launch"}
SETUP_PACE = "launch"


def _probe_gf2_rank(args, result, parent, counters) -> None:
    # Large matrices only: rank_of_rows calls rank on the small search rows.
    if parent == "gf2.rank_of_rows":
        return
    matrix = args[0]
    counters["gf2.rows"] = counters.get("gf2.rows", 0) + matrix.shape[0]
    counters["gf2.bytes_packed"] = counters.get("gf2.bytes_packed", 0) + matrix.nbytes
    counters["gf2.rank_sum"] = counters.get("gf2.rank_sum", 0) + result
    counters["oracle.max_degree_mib"] = max(
        counters.get("oracle.max_degree_mib", 0.0), matrix.nbytes / 2**20
    )


def _probe_circuit(args, result, parent, counters) -> None:
    counters["mildness.circuit_hits"] = counters.get("mildness.circuit_hits", 0) + (result is True)


PROBES = {"gf2.rank": _probe_gf2_rank, "mildness.circuit_criterion": _probe_circuit}


class Run:
    """Outcome bookkeeping of one workload run."""

    def __init__(self, wl, pace=None):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.labels: Counter = Counter()
        self.op_seconds: list[float] = []
        # Distinct op -> its times in this run.
        self.samples: dict[object, list[float]] = {}
        # Times of the pace probe named ``pace``, one per its interval of op time.
        self.pace_kind = pace
        self.pace: list[float] = []
        self._pace_due = 0.0
        self.passes = 0

    def run_pass(self, ops, tracer=None, deadline=None):
        """Time each op, stopping early once ``deadline`` has passed; the
        results are checked afterwards, outside timing."""
        results = []
        for op in ops:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = self.wl.run(op)
                else:
                    tracer.op += 1
                    sid = tracer.begin(f"op.{self.wl.name}")
                    try:
                        result = self.wl.run(op)
                    finally:
                        tracer.finish(sid)
                error = None
            except Exception as exc:  # any failure of the library is a failed op
                result, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            results.append((op, seconds, result, error))
            if self.pace_kind is not None:
                probe, every, _ = PACES[self.pace_kind]
                self._pace_due += seconds
                while self._pace_due >= every:
                    self.pace.append(probe())
                    self._pace_due -= every
        return results

    def record(self, results) -> float:
        """Check one pass's results and book them; returns the pass time."""
        for op, seconds, result, error in results:
            if error is None:
                try:
                    error = self.wl.check(op, result)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            self.attempted += 1
            self.op_seconds.append(seconds)
            self.samples.setdefault(op, []).append(seconds)
            if error is None:
                self.labels.update(self.wl.labels(op, result))
            else:
                self.failed += 1
                self.labels["failed"] += 1
                if len(self.reasons) < 5:
                    self.reasons.append(error)
        self.passes += 1
        return sum(seconds for _, seconds, _, _ in results)


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall times of a fresh interpreter that imports mild2 and builds this
    workload's inputs and reference outputs, and the set-up pace probe's
    times taken between them."""
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import workloads;"
        " workloads.make(sys.argv[3], int(sys.argv[4]), sys.argv[1])"
    )
    argv = [sys.executable, "-c", code, str(SRC), str(HERE), name, str(seed)]
    times, pace = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=False)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {name} failed: {proc.stderr.strip()[-300:]}")
        pace.append(PACES[SETUP_PACE][0]())
    return times, pace


def peak_rss_mib(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def op_metrics(samples: dict, scale: float) -> dict:
    """Throughput, median and tail over the ops, each op at the median of its
    repeats, scaled by ``scale``."""
    per_op = [scale * statistics.median(xs) for xs in samples.values()]
    value, pct, beyond = tail(per_op)
    return {
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": 1000 * statistics.median(per_op),
        "op_tail_ms": 1000 * value,
        "tail_percentile": pct,
        "tail_beyond": beyond,
    }


def end_to_end(run: Run) -> tuple[dict, dict]:
    pace = statistics.median(run.pace) if run.pace_kind else None
    ops = op_metrics(run.samples, PACES[run.pace_kind][2] / pace if pace else 1.0)
    # Peak memory is read before the set-up probes add child processes.
    rss = peak_rss_mib(run.wl.name)
    setup, setup_pace = measure_setup(run.wl.name, run.wl.seed)
    setup_s = statistics.median(setup)
    metrics = {
        "setup_s": setup_s * PACES[SETUP_PACE][2] / statistics.median(setup_pace),
        "ok_rate": 1 - run.failed / run.attempted,
        "peak_rss_mib": rss,
        **{key: ops[key] for key in ("ops_per_s", "op_p50_ms", "op_tail_ms")},
    }
    unscaled = op_metrics(run.samples, 1.0)
    repeats = [len(xs) for xs in run.samples.values()]
    context = {
        "distinct_ops": len(repeats),
        "repeats_min_max": [min(repeats), max(repeats)],
        "tail_percentile": ops["tail_percentile"],
        "tail_beyond": ops["tail_beyond"],
        "pace": run.pace_kind,
        "pace_s": pace,
        "pace_samples": len(run.pace),
        "setup_pace_s": statistics.median(setup_pace),
        "unscaled": {
            "setup_s": setup_s,
            **{key: unscaled[key] for key in ("ops_per_s", "op_p50_ms", "op_tail_ms")},
        },
        "setup_samples_s": setup,
    }
    return metrics, context


def layer_metrics(tracer, n_traced: int, extra: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass (totals over the traced passes
    divided by their number), plus the trace's self-consistency record."""
    names = [tracer.names[i] for i in tracer.name_id]
    dur = tracer.durations()
    selfs = tracer.self_times()
    parent_name = [names[p] if p >= 0 else None for p in tracer.parent]
    total: Counter = Counter()
    calls: Counter = Counter()
    for name, d in zip(names, dur):
        total[name] += d
        calls[name] += 1
    gf2_under_qd = 0.0
    series_entry = 0.0
    small: Counter = Counter()
    for sid, name in enumerate(names):
        pname = parent_name[sid]
        if pname == "oracle.quotient_dims" and name.startswith("gf2."):
            gf2_under_qd += dur[sid]
        if name.startswith("series.") and not (pname or "").startswith("series."):
            series_entry += dur[sid]
        if pname == "gf2.rank_of_rows":
            small[name] += dur[sid]
    c = tracer.counters
    rank_calls = calls["mildness.rank_criterion"]
    rows = c.get("gf2.rows", 0)
    per = {
        "linking.koch_s": total["linking.koch_presentation"],
        "linking.eliminate_s": total["linking.eliminate_generator"],
        "linking.eliminate_calls": calls["linking.eliminate_generator"],
        "arith.legendre_calls": calls["arith.legendre"],
        "arith.legendre_s": total["arith.legendre"],
        "mildness.circuit_s": total["mildness.circuit_criterion"],
        "mildness.circuit_hits": c.get("mildness.circuit_hits", 0),
        "mildness.search_s": total["mildness.find_mild_partition"],
        "mildness.rank_criterion_calls": rank_calls,
        "mildness.rank_criterion_s": total["mildness.rank_criterion"],
        "gf2.rank_of_rows_calls": calls["gf2.rank_of_rows"],
        "gf2.rank_of_rows_s": total["gf2.rank_of_rows"],
        "gf2.pack_s": total["gf2.pack_rows"] - small["gf2.pack_rows"],
        "gf2.rank_s": total["gf2.rank"] - small["gf2.rank"],
        "gf2.rows": rows,
        "gf2.bytes_packed": c.get("gf2.bytes_packed", 0),
        "oracle.quotient_dims_s": total["oracle.quotient_dims"],
        "oracle.row_build_s": total["oracle.quotient_dims"] - gf2_under_qd,
        "quadlie.relator_to_poly_s": total["quadlie.relator_to_poly"],
        "series.s": series_entry,
    }
    metrics = {key: value / n_traced for key, value in per.items()}
    # Per-pass values already, ratios and maxima are not divided.
    metrics["mildness.partitions_tried"] = extra["partitions_tried"]
    metrics["mildness.gf2_reach"] = calls["gf2.rank_of_rows"] / rank_calls if rank_calls else 0.0
    metrics["gf2.useful_rows"] = c.get("gf2.rank_sum", 0) / rows if rows else 0.0
    metrics["oracle.max_degree_mib"] = c.get("oracle.max_degree_mib", 0.0)
    for key in ("cli.interp_ms", "cli.import_ms", "cli.command_ms", "trace.overhead_s"):
        metrics[key] = extra[key]
    self_sum = sum(selfs)
    op_sum = extra["traced_op_s"]
    allowed = max(TRACE_TOLERANCE * op_sum, TRACE_SLACK_S * extra["traced_ops"])
    consistent = abs(self_sum - op_sum) <= allowed
    context = {
        "spans": len(tracer),
        "traced_passes": n_traced,
        "self_time_sum_s": self_sum,
        "traced_op_wall_s": op_sum,
        "allowed_gap_s": allowed,
        "self_consistent": consistent,
        "counts_over_traced_passes": {
            "rank_criterion_calls": rank_calls,
            "rank_of_rows_calls": calls["gf2.rank_of_rows"],
        },
        "layer_split": {
            "gf2.rank_s/oracle.quotient_dims_s": _share(metrics["gf2.rank_s"], metrics["oracle.quotient_dims_s"]),
            "mildness.search_s/op": _share(metrics["mildness.search_s"], op_sum / n_traced),
            "linking.koch_s/op": _share(metrics["linking.koch_s"], op_sum / n_traced),
            "gf2.rank_of_rows_s/mildness.search_s": _share(metrics["gf2.rank_of_rows_s"], metrics["mildness.search_s"]),
        },
    }
    return metrics, context


def _share(part: float, whole: float):
    return part / whole if whole else None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracing import Tracer

    wl = workloads.make(name, seed, SRC)
    wl.warm_up()
    run = Run(wl, pace=None if trace else WORKLOAD_PACE[name])
    context: dict = {}
    started = time.perf_counter()
    if not trace:
        deadline = started + seconds
        run.record(run.run_pass(wl.ops))
        while time.perf_counter() < deadline:
            run.record(run.run_pass(wl.ops, deadline=deadline))
        metrics, ctx = end_to_end(run)
        context.update(ctx)
    else:
        tracer = Tracer(PROBES)
        ops = wl.ops
        untraced, traced, interp, imports = [], [], [], []
        extra = {"traced_op_s": 0.0, "traced_ops": 0}
        while True:
            untraced.append(run.record(run.run_pass(ops)))
            tracer.install()
            try:
                results = run.run_pass(ops, tracer)
            finally:
                tracer.uninstall()
            extra["partitions_tried"] = sum(
                wl.partitions(op, result) for op, _, result, error in results if error is None
            )
            traced.append(run.record(results))
            extra["traced_op_s"] += traced[-1]
            extra["traced_ops"] += len(results)
            if name == "cli":
                interp.append(wl.timed_launch(["-c", "pass"]))
                imports.append(wl.timed_launch(["-c", "import mild2.cli"]))
            if time.perf_counter() - started >= seconds:
                break
        if name == "cli":
            bare = 1000 * statistics.median(interp)
            imported = 1000 * statistics.median(imports)
            call = 1000 * statistics.median(run.op_seconds)
            extra.update({"cli.interp_ms": bare, "cli.import_ms": imported - bare, "cli.command_ms": call - imported})
        else:
            extra.update({"cli.interp_ms": 0.0, "cli.import_ms": 0.0, "cli.command_ms": 0.0})
        extra["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics, ctx = layer_metrics(tracer, len(traced), extra)
        context.update(ctx)
        context["untraced_pass_s"] = statistics.median(untraced)
        context["traced_pass_s"] = statistics.median(traced)
        spans_file = OUT / f"spans-{name}-seed{seed}.tsv.gz"
        tracer.write(spans_file)
        context["spans_file"] = str(spans_file.relative_to(ROOT))
        if not ctx["self_consistent"]:
            run.reasons.append("traced self times do not add up to the traced op wall time")
    context.update(
        {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": _numpy_version(),
            "passes": run.passes,
            "ops": run.attempted,
            "verdict_mix": dict(sorted(run.labels.items())),
            "failures": run.reasons,
        }
    )
    units = LAYER_UNITS if trace else E2E_UNITS
    correct = run.failed == 0 and (not trace or context["self_consistent"])
    return {
        "context": context,
        "result": {
            "correct": correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
        },
    }


def _numpy_version():
    numpy = sys.modules.get("numpy")
    return getattr(numpy, "__version__", None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mild2" / "__init__.py").is_file():
        print(f"error: no mild2 sources under {SRC}; run from a mild2 checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import mild2

    if Path(mild2.__file__).resolve().parent != (SRC / "mild2").resolve():
        print(f"error: imported mild2 from {mild2.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    names = NAMES if args.workload == "all" else (args.workload,)
    outcomes = {}
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds, bool(args.trace))
        outcomes[name] = outcome["result"]
        print(json.dumps({"context": outcome["context"]}), flush=True)
        if len(names) > 1:
            print(json.dumps({"workload": name, **outcome["result"]}), flush=True)
    if len(names) == 1:
        final = outcomes[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in outcomes.values()),
            "attempted": sum(r["attempted"] for r in outcomes.values()),
            "failed": sum(r["failed"] for r in outcomes.values()),
            "metrics": {
                f"{name}.{key}": value
                for name, r in outcomes.items()
                for key, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
