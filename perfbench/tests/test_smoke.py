"""Seconds-scale self-check of the campaign benchmark, so the harness cannot rot.

Runs ``perfbench/run.py --smoke``: every workload in both modes at a tiny
size, which fails unless every metric named in ``BENCHMARK.json`` comes out
with its unit and the oracle finds no error.
"""

import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py")


def test_smoke_all_workloads():
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke"], capture_output=True, text=True, timeout=175
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.rstrip().endswith("smoke: ok")
