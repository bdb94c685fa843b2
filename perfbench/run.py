#!/usr/bin/env python3
"""End-to-end benchmark of Grade10's two CLI pipelines.

Each iteration of a workload runs `g10_run` (dataset -> engine -> sampler ->
trace dump) and then `g10_analyze` on the trace it wrote, as child processes
of this single-threaded driver, one command at a time. Every invocation is
checked against reference digests taken during set-up (see README.md).

    python3 perfbench/run.py --workload gas-wide --seed 2020 --seconds 25 --trace 0

Run it from the root of a source checkout. It builds the binaries under
`.bench_build/` and writes its scratch files and a result file with the host
context under `.bench_work/`. The last line of stdout is one JSON object:
with `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
metrics of the traced driver `g10_layer_trace`.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BUILD_DIR = ROOT / ".bench_build" / "cmake"
WORK_DIR = ROOT / ".bench_work"
BENCH_DIR = Path(__file__).resolve().parent

# Every workload runs PageRank on the same R-MAT graph (its generator seed is
# fixed); --seed drives the engine's jitter and fault schedule.
COMMON_RUN = ["--dataset", "rmat:16", "--cores", "8"]
FAULTS = "crash:w3@40%,nic:w1@10%+40%:x0.25:loss=0.3,part:w0-w5@60%+10%"

# run: g10_run flags (also understood by g10_layer_trace).
# log: the trace file g10_analyze reads in the timed loop.
# analyze: g10_analyze flags shared by the timed, reference and traced runs.
WORKLOADS = {
    "gas-wide": {
        "run": ["--engine", "gas", "--workers", "64", "--iterations", "50"],
        "log": "run.log",
        "analyze": [],
    },
    "pregel-upsample": {
        "run": ["--engine", "pregel", "--workers", "8", "--iterations", "400",
                "--monitor-ms", "10"],
        "log": "run.g10t",
        "analyze": ["--timeslice-ms", "1", "--lenient"],
    },
    "pregel-faults": {
        "run": ["--engine", "pregel", "--workers", "16", "--iterations", "60",
                "--monitor-ms", "20", "--faults", FAULTS],
        "log": "run.log",
        "analyze": ["--lenient"],
    },
}

SETUP_REPS = 3       # set-ups per run; setup_s is their median
MIN_ITERATIONS = 3   # timed iterations even when --seconds is short
MIN_PASSES = 2       # traced passes: counts must repeat across at least two
OVERHEAD_REPS = 3    # untraced g10_analyze runs the traced total is set against
ARTIFACTS = ("run.log", "run.g10t", "model.g10")

# Lint rules whose finding counts are reported per workload (others are in
# the result file). trace-sample-negative is the sampler defect README.md
# describes.
LINT_RULES = ("trace-sample-negative",)

# Layer spans of g10_layer_trace, by the CLI half they belong to. Each half
# also reports traced.<half>_total_ms and traced.<half>_other_ms.
SPANS = {
    "run": ("graph.generate_ms", "engine.run_ms", "monitor.sample_ms",
            "trace.write_text_ms", "trace.write_g10t_ms"),
    "analyze": ("trace.read_ms", "lint.preflight_ms", "grade10.trace.build_ms",
                "grade10.trace.monitor_ms", "grade10.attribution.demand_ms",
                "grade10.attribution.attribute_ms",
                "grade10.bottleneck.detect_ms", "grade10.issues.detect_ms",
                "grade10.report.render_ms"),
}
LAYER_TIMES = tuple(
    name for half, spans in SPANS.items()
    for name in spans + (f"traced.{half}_total_ms", f"traced.{half}_other_ms"))
LAYER_COUNTS = (
    "engine.phase_events", "engine.blocking_events", "engine.channel_plans",
    "engine.batch_flushes", "monitor.samples", "trace.text_bytes",
    "trace.g10t_bytes", "trace.records", "trace.blocks_read",
    "trace.blocks_skipped", "trace.blocks_decoded", "lint.findings",
    "lint.errors", "lint.warnings", "grade10.trace.instances",
    "grade10.attribution.demand_matrices", "grade10.attribution.demand_leaves",
    "grade10.attribution.entries", "grade10.issues.count",
) + tuple("lint.findings." + rule for rule in LINT_RULES)


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


class Proc:
    """Outcome of one child process: exit code, wall and CPU seconds, peak RSS."""

    def __init__(self, argv, stdout_path, stderr_path):
        out = os.open(stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        err = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        start = time.perf_counter()
        try:
            pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
                (os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)])
        finally:
            os.close(out)
            os.close(err)
        _, status, usage = os.wait4(pid, 0)
        self.wall_s = time.perf_counter() - start
        self.rc = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def outputs(trace_dir, report=None):
    """Digests of a run's artifacts and, if given, of its analysis report."""
    paths = {a: trace_dir / a for a in ARTIFACTS}
    if report is not None:
        paths["report"] = report
    return {k: digest(p) if p.exists() else None for k, p in paths.items()}


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def build():
    """Configures once and builds the two CLIs plus the traced driver."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("run from the root of a grade10 source checkout", 2)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j",
                      str(os.cpu_count() or 1), "--target", "g10_run",
                      "g10_analyze", "g10_layer_trace"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail(f"build failed; see {log_path}")
    tools = BUILD_DIR / "grade10" / "tools"
    return {"run": str(tools / "g10_run"), "analyze": str(tools / "g10_analyze"),
            "trace": str(BUILD_DIR / "g10_layer_trace")}


CALIBRATION_LOOP = "s = 0\nfor i in range(2000000):\n    s += i\n"


def calibrate():
    """Wall time of k concurrent copies of a fixed CPU loop, k = 1..nproc.

    effective_parallelism[k-1] = k * t(1) / t(k): k on an idle host with k
    free cores, lower when the host shares or throttles them.
    """
    walls = []
    for k in range(1, (os.cpu_count() or 1) + 1):
        start = time.perf_counter()
        procs = [subprocess.Popen([sys.executable, "-c", CALIBRATION_LOOP])
                 for _ in range(k)]
        for proc in procs:
            proc.wait()
        walls.append(time.perf_counter() - start)
    return {"loop_wall_s": walls,
            "effective_parallelism": [round((i + 1) * walls[0] / w, 3)
                                      for i, w in enumerate(walls)]}


def host_context(load_at_start):
    build_type = ""
    for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    # G10_THREADS, when set, is g10_analyze's default thread count.
    return {"nproc": os.cpu_count(), "build_type": build_type,
            "G10_THREADS": os.environ.get("G10_THREADS"),
            "loadavg_at_start": load_at_start, **calibrate()}


class Bench:
    def __init__(self, name, seed, bins):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.bins = bins
        self.work = fresh_dir(WORK_DIR / name)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None  # output digests, set by setup()
        self.ref_dir = self.work / "ref"

    def run_args(self):
        return self.spec["run"] + COMMON_RUN + ["--seed", str(self.seed)]

    def check(self, proc, what, expected=None, actual=None):
        """Counts one invocation; it fails on a non-zero exit or a digest
        mismatch."""
        self.attempted += 1
        problem = None
        if proc.rc != 0:
            problem = f"{what} exited {proc.rc}"
        elif expected is not None and actual != expected:
            problem = f"{what} output differs from the reference"
        if problem:
            self.failed += 1
            self.problems.append(problem)

    def g10_run(self, out):
        fresh_dir(out)
        argv = [self.bins["run"]] + self.run_args() + [
            "--trace-format", "both", "--out", str(out)]
        return Proc(argv, self.work / "run.out", self.work / "run.err")

    def g10_analyze(self, trace_dir, log, extra, report):
        argv = [self.bins["analyze"], "--model", str(trace_dir / "model.g10"),
                "--log", str(trace_dir / log)] + self.spec["analyze"] + extra
        return Proc(argv, report, self.work / "analyze.err")

    def setup(self):
        """Reference run + serial analysis of its text trace, SETUP_REPS
        times. Every repetition must reproduce the first one's digests."""
        ref = self.ref_dir
        report = self.work / "ref_report.txt"
        times = []
        for _ in range(SETUP_REPS):
            run = self.g10_run(ref)
            analyze = self.g10_analyze(ref, "run.log", ["--threads", "1"], report)
            times.append(run.wall_s + analyze.wall_s)
            if run.rc or analyze.rc:
                fail(f"reference run failed (g10_run {run.rc}, "
                     f"g10_analyze {analyze.rc}); see {self.work}")
            found = outputs(ref, report)
            self.reference = self.reference or found
            self.check(run, "set-up", self.reference, found)
        return statistics.median(times)

    def timed(self, seconds):
        out = self.work / "run"
        report = self.work / "report.txt"
        samples = {k: [] for k in ("generate_s", "generate_rss_mb", "analyze_s",
                                   "analyze_cpu_s", "analyze_rss_mb")}
        deadline = time.perf_counter() + seconds
        while len(samples["generate_s"]) < MIN_ITERATIONS or \
                time.perf_counter() < deadline:
            run = self.g10_run(out)
            found = outputs(out)
            self.check(run, "g10_run", {a: self.reference[a] for a in found},
                       found)
            analyze = self.g10_analyze(out, self.spec["log"], [], report)
            self.check(analyze, "g10_analyze", self.reference["report"],
                       outputs(out, report)["report"])
            samples["generate_s"].append(run.wall_s)
            samples["generate_rss_mb"].append(run.rss_mb)
            samples["analyze_s"].append(analyze.wall_s)
            samples["analyze_cpu_s"].append(analyze.cpu_s)
            samples["analyze_rss_mb"].append(analyze.rss_mb)
        return samples

    def traced(self, seconds):
        out = self.work / "traced"
        report = self.work / "traced_report.txt"
        argv = [self.bins["trace"]] + self.run_args() + self.spec["analyze"] + [
            "--analyze-format", "binary" if self.spec["log"] == "run.g10t" else "text",
            "--out", str(out), "--report", str(report)]
        passes = []
        deadline = time.perf_counter() + seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            fresh_dir(out)
            spans = self.work / "spans.json"
            proc = Proc(argv, spans, self.work / "traced.err")
            self.check(proc, "g10_layer_trace", self.reference,
                       outputs(out, report))
            if proc.rc == 0:
                passes.append(json.loads(spans.read_text()))
        if not passes:
            return {}, []
        counts = {k: v for k, v in passes[0].items() if not k.endswith("_ms")}
        for p in passes[1:]:
            if {k: v for k, v in p.items() if not k.endswith("_ms")} != counts:
                self.failed += 1
                self.problems.append("per-layer counts differ between passes")
        cli = []
        for _ in range(OVERHEAD_REPS):
            proc = self.g10_analyze(self.ref_dir, self.spec["log"], [], report)
            self.check(proc, "g10_analyze", self.reference["report"],
                       digest(report))
            cli.append(proc.wall_s)
        metrics = {k: statistics.median(p.get(k, 0.0) for p in passes)
                   for k in LAYER_TIMES}
        metrics.update({k: counts.get(k, 0) for k in LAYER_COUNTS})
        metrics["traced.analyze_vs_cli"] = (
            metrics["traced.analyze_total_ms"] / 1e3 / statistics.median(cli))
        return metrics, passes


UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB", "_bytes": "bytes"}


def unit(name):
    if name == "traced.analyze_vs_cli":
        return "ratio"
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)),
                "count")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    load_at_start = list(os.getloadavg())
    bins = build()
    context = host_context(load_at_start)
    bench = Bench(args.workload, args.seed, bins)
    setup_s = bench.setup()
    if args.trace:
        metrics, detail = bench.traced(args.seconds)
    else:
        detail = bench.timed(args.seconds)
        metrics = {k: statistics.median(v) for k, v in detail.items()}
        metrics["setup_s"] = setup_s

    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed,
              "metrics": {k: {"value": v, "unit": unit(k)}
                          for k, v in metrics.items()}}
    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "host": context, "setup_s": setup_s, "problems": bench.problems,
        "samples": detail, "result": result}, indent=1) + "\n")
    eff = context["effective_parallelism"]
    print(f"workload={args.workload} seed={args.seed} nproc={context['nproc']} "
          f"build={context['build_type']} load={load_at_start[0]:.2f} "
          f"effective_parallelism={eff} record={record.relative_to(ROOT)}")
    for problem in sorted(set(bench.problems)):
        print(f"FAILED: {problem}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
