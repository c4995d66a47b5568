#!/usr/bin/env python3
"""Campaign benchmark for resiscan on the deterministic simulator.

    python3 perfbench/run.py --workload sparse-scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the sources are used in place from ``src/``.
A run generates the workload's deployment from ``--seed`` (``workloads.py``),
then measures one of two things:

``--trace 0`` (end to end): two full passes of the six CLI stages, each
stage a separate ``python -m resiscan`` process, one at a time; then rounds
that run the stages after ``scan`` again on the same inputs while
``--seconds`` lasts. A stage's figure is the median of its samples. Every
output tree is checked against the simulator's ground-truth oracle and must
hash the same as every other of the seed, in this run and in earlier runs in
this checkout.

``--trace 1`` (per layer): the stages run in this process through
``resiscan.cli.main``, once plain and once with spans recorded around every
layer call (``tracing.py``); then come per-operation microbenchmarks and
per-attempt grab samples (``micro.py``). The spans and their self times go
to ``perfbench/out/traces/``.

Metric names and units are those in ``BENCHMARK.json``. The last line of
standard output is one JSON object: ``correct``, ``attempted`` (oracle
checks, digest checks and stage runs), ``failed`` (mismatches, digest
changes and failed stages) and ``metrics``. Every run also appends its
metrics, ``error_rate``, ``cli.startup_s`` and the environment (commit,
source digest, Python, nproc, ``cryptography`` version, seed) to
``perfbench/out/results.jsonl``. The exit code is 0 only if the outputs were
correct.

``--workload all`` runs every workload in turn and prints each one's
metrics and result line. ``--smoke`` runs every workload in both modes at a
tiny size with short timeouts, and fails unless every metric named in
``BENCHMARK.json`` is present and the error rate is 0.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DEADLINE_S = 170  # a run must exit within 180 s


class DeadlineError(Exception):
    pass


def select_metrics(result: dict, spec: list[dict]) -> dict:
    """The BENCHMARK.json metrics, in its order, with its units; KeyError if one is missing."""
    return {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in spec}


def print_result(result: dict, selected: dict, units: dict) -> None:
    env = result["environment"]
    print(
        f"# {result['workload']} seed={env['seed']} trace={result['trace']} "
        f"scale={env['scale']} commit={env['commit'] or '-'} src={env['source_sha256'][:12]} "
        f"python={env['python']} nproc={env['nproc']} cryptography={env['cryptography']}"
    )
    for name, m in selected.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(
        f"{'error_rate':40s} {result['error_rate']:>16.6g} ratio "
        f"({result['failed']} failed of {result['attempted']} checked)"
    )
    for name, value in result["metrics"].items():
        if name not in selected:
            print(f"{name:40s} {value:>16.6g} {units[name]} (not gated in BENCHMARK.json)")
    if "cli.startup_s" not in selected and "cli.startup_s" in result["extra"]:
        print(f"{'cli.startup_s':40s} {result['extra']['cli.startup_s']:>16.6g} s")
    if "failure" in result["extra"]:
        print(f"failure: {result['extra']['failure']}")
    for change in result["digest_changes"]:
        print(f"output tree changed for the same seed: {change}")


def record(result: dict) -> None:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(result, sort_keys=True) + "\n")


def smoke(campaign, names, bench: dict) -> int:
    """Every workload, both modes, tiny size: all named metrics present, no errors."""
    problems = []
    for name in names:
        for trace, spec in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            result = campaign.measure(OUT, SRC, name, 1, 1.0, trace, "smoke")
            record(result)
            where = f"{name} trace={int(trace)}"
            missing = [m["name"] for m in spec if m["name"] not in result["metrics"]]
            if missing:
                problems.append(f"{where}: missing {missing}")
                continue
            print_result(result, select_metrics(result, spec), campaign.END_TO_END_UNITS)
            if not result["correct"]:
                problems.append(f"{where}: error_rate {result['error_rate']}")
            if trace and name == "service-rich":
                m = result["metrics"]
                if not (m["grab.timeout"] > 0 and m["grab.tls_responders"] > 0):
                    problems.append(f"{where}: no grab timeout or no TLS responder")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: FAILED" if problems else "smoke: ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-scale self-check")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "resiscan")):
        print(f"error: no resiscan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import campaign
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not args.smoke and not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"--workload must be 'all' or one of {sorted(workloads.WORKLOADS)}")
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]

    def on_deadline(signum, frame):
        raise DeadlineError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    try:
        if args.smoke:
            return smoke(campaign, workloads.WORKLOADS, bench)
        ok = True
        for name in names:
            result = campaign.measure(
                OUT, SRC, name, args.seed, args.seconds, bool(args.trace), "full"
            )
            record(result)
            ok = ok and result["correct"] and bool(result["metrics"])
            if not result["metrics"]:  # a stage failed before anything was measured
                print_result(result, {}, {})
                continue
            selected = select_metrics(result, spec)
            print_result(result, selected, campaign.END_TO_END_UNITS)
            print(json.dumps({
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": selected,
            }))
    except DeadlineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.stdout.flush()
        os._exit(3)  # grab worker threads may still be blocked in a connection
    finally:
        signal.alarm(0)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
