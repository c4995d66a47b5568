"""The six CLI stages as child processes, the output-tree digest and the oracle check.

Each stage is one ``python -m resiscan --config ... <stage>`` process, run
one at a time. Wall time is taken around the child; CPU time and peak RSS
come from the child's own rusage (``os.wait4``), so nothing the benchmark
does in its own process is counted.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass

from resiscan.addrs import parse_address
from resiscan.classify import LABEL_EXTERNAL, LABEL_INTERNAL, read_classification
from resiscan.grab import read_grab_log
from resiscan.seedprep import RESIDENTIAL_CATEGORY, RESIDENTIAL_CONNECTIONS
from resiscan.services import default_services
from resiscan.simnet import expected_grab_outcomes, ground_truth

STAGES = ("seed-filter", "scan", "classify", "grab", "fingerprint", "report")


@dataclass
class StageResult:
    wall_s: float
    cpu_s: float
    max_rss_mb: float
    exit_code: int


class StageFailed(Exception):
    def __init__(self, stage: str, code: int):
        super().__init__(f"stage {stage} exited {code}")


class StageRunner:
    """Runs stage processes with the sources on PYTHONPATH and TMPDIR in the checkout."""

    def __init__(self, src_dir: str, tmp_dir: str):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, os.environ.get("PYTHONPATH")) if p
        )
        # The simulator writes its TLS certificates under TMPDIR; keep them in the checkout.
        self.env["TMPDIR"] = tmp_dir

    def run(self, config: str, outdir: str, stage: str, log_path: str) -> StageResult:
        cmd = [sys.executable, "-m", "resiscan", "--config", config, "--out", outdir, stage]
        with open(log_path, "ab") as log:
            t0 = time.perf_counter()
            child = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env)
            try:
                _pid, status, ru = os.wait4(child.pid, 0)
            except BaseException:  # the run's deadline: stop the stage, then re-raise
                child.kill()
                child.wait()
                raise
            wall = time.perf_counter() - t0
        code = os.waitstatus_to_exitcode(status)
        child.returncode = code  # reaped by wait4 already
        rss_mb = ru.ru_maxrss / 1024.0  # Linux reports KiB
        return StageResult(wall, ru.ru_utime + ru.ru_stime, rss_mb, code)

    def startup_s(self, repeats: int) -> list[float]:
        """Wall time of a stage process that does no stage work (``--help``): the start floor."""
        cmd = [sys.executable, "-m", "resiscan", "--help"]
        out = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run(cmd, env=self.env, check=True, stdout=subprocess.DEVNULL)
            out.append(time.perf_counter() - t0)
        return out


def tree_digest(root: str) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    paths = []
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            paths.append(os.path.relpath(os.path.join(dirpath, name), root))
    for rel in sorted(paths):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


@dataclass
class OracleCheck:
    checked: int
    mismatches: int
    detail: dict


def _diff(expected: dict | set, found: dict | set) -> tuple[int, int]:
    """(operations checked, mismatches) between two keyed collections."""
    keys = set(expected) | set(found)
    if isinstance(expected, dict):
        bad = sum(1 for k in keys if expected.get(k) != found.get(k))
    else:
        bad = len(set(expected) ^ set(found))
    return len(keys), bad


def check_outputs(scenario, outdir: str) -> OracleCheck:
    """Compare an output tree against ``simnet.ground_truth`` and ``expected_grab_outcomes``.

    Checked: the kept seed /48s, internal addresses with their distances,
    external (WAN) addresses with theirs, aliased /56s, and every
    (address, service) grab outcome.
    """
    residential = {
        net.prefix48
        for net in scenario.nets
        if net.category.strip().casefold() == RESIDENTIAL_CATEGORY
        and net.connection in RESIDENTIAL_CONNECTIONS
    }
    gt = ground_truth(scenario, residential)
    with open(os.path.join(outdir, "seeds.txt"), encoding="utf-8") as fh:
        kept = {parse_address(line.split("/", 1)[0]) for line in fh if line.strip()}
    with open(os.path.join(outdir, "classified.csv"), encoding="utf-8") as fh:
        classified = read_classification(fh)
    with open(os.path.join(outdir, "classify_stats.json"), encoding="utf-8") as fh:
        aliased = {parse_address(n.split("/", 1)[0]) for n in json.load(fh)["aliased_nets"]}
    with open(os.path.join(outdir, "grabs.csv"), encoding="utf-8") as fh:
        grabs = read_grab_log(fh)

    internal = {c.address: c.distance for c in classified if c.label == LABEL_INTERNAL}
    external = {c.net56: (c.address, c.distance) for c in classified if c.label == LABEL_EXTERNAL}
    expected_grabs = expected_grab_outcomes(scenario, default_services(), residential)
    found_grabs = {(parse_address(g.address), g.service): g.outcome for g in grabs}

    detail = {}
    checked = mismatches = 0
    for name, expected, found in (
        ("seeds", residential, kept),
        ("internal", gt.internal, internal),
        ("external", gt.external, external),
        ("aliased", gt.aliased, aliased),
        ("grab", expected_grabs, found_grabs),
    ):
        n, bad = _diff(expected, found)
        checked += n
        mismatches += bad
        detail[name] = {"checked": n, "mismatches": bad}
    detail["grab_outcomes"] = dict(collections.Counter(g.outcome for g in grabs))
    detail["tls_responders"] = sum(1 for g in grabs if g.tls_subject_cn)
    return OracleCheck(checked, mismatches, detail)
