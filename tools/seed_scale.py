"""Time the seed path at a given scale: ``seed-filter`` then ``plan``.

Usage: python tools/seed_scale.py [N]   (N distinct /48s, default 2,500,000,
the size of the paper's BGP-derived seed list)

Writes N distinct /48s under 3fff::/20, in ascending order, and one AS-map and
one connection-map row covering them all into a temporary directory. Each
stage then runs as a child process of this script, and the script prints the
child's wall time, its CPU time (user plus system) and its peak resident
memory as ``wait4`` reports it. The figures are printed, not checked; the
script exits non-zero only when a stage fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def write_inputs(root: str, n: int) -> str:
    """The config of a seed list of ``n`` /48s and its two reference tables under ``root``."""
    if not 0 < n <= 1 << 28:
        raise SystemExit(f"N must be 1 to {1 << 28} (the /48s of 3fff::/20), got {n}")
    paths = {name: os.path.join(root, name) for name in ("seeds_all.txt", "as.csv", "conn.csv")}
    with open(paths["seeds_all.txt"], "w", encoding="utf-8") as fh:
        fh.writelines(f"3fff:{i >> 16:x}:{i & 0xFFFF:x}::/48\n" for i in range(n))
    with open(paths["as.csv"], "w", encoding="utf-8") as fh:
        fh.write("3fff::/20,64500,Internet Service Provider,zz\n")
    with open(paths["conn.csv"], "w", encoding="utf-8") as fh:
        fh.write("3fff::/20,cable_dsl\n")
    config = os.path.join(root, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "seed_list": paths["seeds_all.txt"],
                "as_map": paths["as.csv"],
                "conn_map": paths["conn.csv"],
                "output_dir": os.path.join(root, "out"),
            },
            fh,
        )
    return config


def run_stage(config: str, stage: str) -> int:
    """Run one stage as a child, print its figures and return its exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    argv = [sys.executable, "-m", "resiscan", "--config", config, stage]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env)
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(
        f"{stage:<12} wall {wall:7.2f} s  cpu {usage.ru_utime + usage.ru_stime:7.2f} s  "
        f"peak {usage.ru_maxrss / 1024:7.1f} MB  exit {proc.returncode}",
        flush=True,
    )
    return proc.returncode


def main(argv: list[str]) -> int:
    n = int(argv[0]) if argv else 2_500_000
    with tempfile.TemporaryDirectory(prefix="seed_scale.") as root:
        config = write_inputs(root, n)
        print(f"{n} seeds, {os.path.getsize(os.path.join(root, 'seeds_all.txt'))} bytes", flush=True)
        for stage in ("seed-filter", "plan"):
            if run_stage(config, stage):
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
