"""One benchmark run: set-up, the measured passes, the oracle and digest checks.

``measure()`` is the whole run for one workload and seed. End to end, it runs
the CLI stages as child processes (``pipeline.py``); traced, it runs them in
this process with spans (``tracing.py``) and adds the microbenchmarks
(``micro.py``).
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import tempfile
import time
from importlib.metadata import PackageNotFoundError, version

import micro
import pipeline
import tracing
import workloads
from resiscan.classify import read_classification
from resiscan.seedprep import parse_prefix_list
from resiscan.targetgen import build_plan

PASSES = 2
CHEAP_STAGES = ("seed-filter", "classify", "fingerprint", "report")
MAX_ROUNDS = 16
STARTUP_REPEATS = 5
SMOKE_OVERRIDES = {"probe_timeout_s": 1.0, "grab_timeout_s": 3.0}
# Operations per microbenchmark batch and grab samples per outcome class, by scale.
MICRO_OPS = {"full": 10_000, "smoke": 500}
PLAN_TARGETS = {"full": 100_000, "smoke": 5_000}
GRAB_SAMPLES = {
    "full": {"refused": 300, "responded": 5, "timeout": 1},
    "smoke": {"refused": 20, "responded": 2, "timeout": 1},
}

median = statistics.median

# Every end-to-end figure a run prints. BENCHMARK.json gates the ones that
# hold still on a shared host; the CPU-bound rest move with the host's CPU
# speed, which swings by about a fifth for tens of seconds at a time.
END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "pipeline_cpu_s": "s",
    "peak_rss_mb": "MB",
    "scan_s": "s",
    "classify_s": "s",
    "grab_s": "s",
    "postprocess_s": "s",
}


def environment(root: str, src: str, seed: int, workload: str, scale: str) -> dict:
    """Commit (when the checkout is a git work tree), source digest, Python, nproc, versions."""
    try:
        commit = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    h = hashlib.sha256()
    for dirpath, dirs, names in os.walk(os.path.join(src, "resiscan")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    try:
        crypto = version("cryptography")
    except PackageNotFoundError:
        crypto = None
    return {
        "commit": commit,
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cryptography": crypto,
        "workload": workload,
        "seed": seed,
        "scale": scale,
    }


class Run:
    """One run's work directory, stage runner and correctness tallies."""

    def __init__(self, out: str, src: str, workload: str, seed: int, scale: str):
        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        self.scale = scale
        self.overrides = SMOKE_OVERRIDES if scale == "smoke" else {}
        self.out = out
        self.work = os.path.join(out, "work", f"{workload}-{seed}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        tmp = os.path.join(self.work, "tmp")
        os.makedirs(tmp)
        tempfile.tempdir = tmp  # the simulator's TLS certificates, when run in-process
        self.runner = pipeline.StageRunner(src, tmp)
        self.digest_file = os.path.join(out, "digests.json")
        self.digest_changes: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []
        self.scenario = None
        self.config = None

    def setup(self, into: str = "inputs") -> float:
        """Generate the scenario and write the input files under ``into``; wall seconds.

        The ``inputs`` set is the one the stages read; set-ups into other
        directories only repeat the timing.
        """
        t0 = time.perf_counter()
        scenario = workloads.build_scenario(self.workload, self.scale, self.seed)
        config = workloads.write_inputs(
            scenario, self.seed, os.path.join(self.work, into), self.overrides
        )
        elapsed = time.perf_counter() - t0
        if into == "inputs":
            self.scenario, self.config = scenario, config
        return elapsed

    def _same_digest(self, digest: str) -> bool:
        """False if an earlier pass or run of this seed in this checkout hashed differently."""
        key = f"{self.scale}/{self.workload.name}/{self.seed}"
        known = {}
        if os.path.exists(self.digest_file):
            with open(self.digest_file, encoding="utf-8") as fh:
                known = json.load(fh)
        if key not in known:
            known[key] = digest
            with open(self.digest_file, "w", encoding="utf-8") as fh:
                json.dump(known, fh, indent=1, sort_keys=True)
        elif known[key] != digest:
            self.digest_changes.append(f"{key}: {known[key][:12]} then {digest[:12]}")
            return False
        return True

    def verify(self, outdir: str, label: str) -> None:
        """Oracle check plus output-tree digest of one output tree; tallies the result."""
        check = pipeline.check_outputs(self.scenario, outdir)
        digest = pipeline.tree_digest(outdir)
        same = self._same_digest(digest)
        self.attempted += check.checked + 1
        self.failed += check.mismatches + (0 if same else 1)
        self.checks.append({"pass": label, "digest": digest, **check.detail})

    def stage(self, outdir: str, stage: str) -> pipeline.StageResult:
        """One CLI stage process; a nonzero exit is tallied and ends the run."""
        res = self.runner.run(self.config, outdir, stage, os.path.join(self.work, "stages.log"))
        self.attempted += 1
        if res.exit_code != 0:
            self.failed += 1
            raise pipeline.StageFailed(stage, res.exit_code)
        return res

    def close(self) -> None:
        tempfile.tempdir = None
        shutil.rmtree(self.work, ignore_errors=True)


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """Two full CLI passes, then rounds of the stages after scan while ``seconds`` last.

    Each pass writes a fresh output tree, so the two must hash the same. The
    rounds run the cheap stages again on the last pass's own inputs, which
    rewrites the same bytes; grab, which costs seconds, joins every other
    round that the time left still holds. Set-up is timed again after every
    pass and round, so its samples spread over the run like the stages'.
    """
    setup = [run.setup()]
    samples: dict[str, list[pipeline.StageResult]] = {s: [] for s in pipeline.STAGES}
    t_start = time.perf_counter()
    outdir = None
    for n in range(PASSES):
        if outdir is not None:
            shutil.rmtree(outdir)
        outdir = os.path.join(run.work, f"out{n}")
        for stage in pipeline.STAGES:
            samples[stage].append(run.stage(outdir, stage))
        run.verify(outdir, f"pass-{n}")
        setup.append(run.setup("setup-repeat"))

    cheap_s = median(sum(samples[s][i].wall_s for s in CHEAP_STAGES) for i in range(PASSES))
    grab_s = median(r.wall_s for r in samples["grab"])
    rounds = 0
    while rounds < MAX_ROUNDS:
        left = seconds - (time.perf_counter() - t_start)
        with_grab = rounds % 2 == 1 and left >= cheap_s + grab_s
        if left < cheap_s:
            break
        for stage in pipeline.STAGES:
            if stage in CHEAP_STAGES or (stage == "grab" and with_grab):
                samples[stage].append(run.stage(outdir, stage))
        setup.append(run.setup("setup-repeat"))
        rounds += 1
    if rounds:
        run.verify(outdir, "rounds")

    wall = {s: median(r.wall_s for r in rs) for s, rs in samples.items()}
    cpu = {s: median(r.cpu_s for r in rs) for s, rs in samples.items()}
    rss = {s: median(r.max_rss_mb for r in rs) for s, rs in samples.items()}
    metrics = {
        "setup_s": median(setup),
        "pipeline_s": sum(wall.values()),
        "pipeline_cpu_s": sum(cpu.values()),
        "peak_rss_mb": max(rss.values()),
        "scan_s": wall["scan"],
        "classify_s": wall["classify"],
        "grab_s": wall["grab"],
        "postprocess_s": wall["fingerprint"] + wall["report"],
    }
    extra = {
        "rounds": rounds,
        "cli.startup_s": median(run.runner.startup_s(STARTUP_REPEATS)),
        "stage_wall_s": wall,
        "stage_cpu_s": cpu,
        "stage_rss_mb": rss,
        "samples": {s: [[r.wall_s, r.cpu_s, r.max_rss_mb] for r in rs] for s, rs in samples.items()},
    }
    return metrics, extra


def traced(run: Run) -> tuple[dict, dict]:
    """Plain and traced in-process pipelines, then microbenchmarks and grab samples."""
    setup = run.setup()
    log = io.StringIO()
    plain_out = os.path.join(run.work, "plain")
    traced_out = os.path.join(run.work, "traced")
    plain_s = tracing.run_inprocess(run.config, plain_out, pipeline.STAGES, log)
    tracer = tracing.Tracer(run_id=f"{run.workload.name}-{run.seed}-{os.getpid()}")
    with tracing.Instrumented(tracer) as inst:
        traced_s = tracing.run_inprocess(run.config, traced_out, pipeline.STAGES, log)
    run.verify(plain_out, "inprocess-plain")
    run.verify(traced_out, "inprocess-traced")
    metrics = tracing.layer_metrics(inst)

    with open(os.path.join(traced_out, "seeds.txt"), encoding="utf-8") as fh:
        seeds = parse_prefix_list(fh.read()).prefixes
    with open(os.path.join(traced_out, "classified.csv"), encoding="utf-8") as fh:
        classified = [c.address for c in read_classification(fh)]
    with open(run.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    n = MICRO_OPS[run.scale]
    targets = [t.address for t in itertools.islice(build_plan(seeds, run.seed), n)]
    metrics["targetgen.plan_iter_targets_per_s"] = micro.plan_iteration(
        seeds, run.seed, PLAN_TARGETS[run.scale]
    )
    metrics.update(micro.token_ops(targets))
    metrics.update(micro.transport_ops(run.scenario, targets))
    metrics.update(micro.address_ops(classified, n, cfg["asn_geo"]))
    grab_times, made, wrong = micro.grab_samples(
        run.scenario, seeds, cfg["grab_timeout_s"], GRAB_SAMPLES[run.scale]
    )
    metrics.update(grab_times)
    run.attempted += made
    run.failed += wrong
    metrics["cli.startup_s"] = median(run.runner.startup_s(STARTUP_REPEATS))
    metrics["trace.pipeline_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.spans"] = len(tracer.spans)

    os.makedirs(os.path.join(run.out, "traces"), exist_ok=True)
    path = os.path.join(run.out, "traces", f"{tracer.run_id}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"self_s": tracer.self_times(), "spans": tracer.records()}, fh, indent=1)
    return metrics, {"setup_s": setup, "plain_pipeline_s": plain_s, "trace_file": path}


def measure(out: str, src: str, workload: str, seed: int, seconds: float,
            trace: bool, scale: str) -> dict:
    run = Run(out, src, workload, seed, scale)
    try:
        metrics, extra = traced(run) if trace else end_to_end(run, seconds)
    except pipeline.StageFailed as exc:
        metrics, extra = {}, {"failure": str(exc)}
    finally:
        run.close()
    return {
        "workload": workload,
        "trace": int(trace),
        "correct": run.failed == 0 and not run.digest_changes,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "error_rate": run.failed / max(1, run.attempted),
        "metrics": metrics,
        "extra": extra,
        "checks": run.checks,
        "digest_changes": run.digest_changes,
        "environment": environment(os.path.dirname(src), src, seed, workload, scale),
    }
