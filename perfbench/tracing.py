"""Traced in-process pipeline: spans and counters at each layer boundary.

The six stages run in this process through ``resiscan.cli.main``, exactly
as the CLI runs them. For the traced run, the layer functions the CLI calls
(``probe.run_scan``, ``classify.classify_log``, ``grab.run_grab_campaign``,
...) are replaced for the duration of the run by wrappers that record a
span around each call, and ``cli.SimTransport`` is replaced by a counting
proxy. Grab connections are counted and timed by a connector wrapper handed
to ``run_grab_campaign``. Nothing under ``src/`` changes; every original is
restored when the run ends.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import statistics
import time
from dataclasses import dataclass

from resiscan import cli
from resiscan import classify as classify_mod
from resiscan import fingerprint as fingerprint_mod
from resiscan import grab as grab_mod
from resiscan import probe, report, seedprep, targetgen

from pipeline import StageFailed


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    """In-memory spans of one run.

    Layer calls come from the stage's own thread, so the open spans form one
    stack and the innermost open span is the parent of a new one.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sp = Span(len(self.spans), name, self._open[-1].span_id if self._open else None, 0.0)
        self.spans.append(sp)
        self._open.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time its children cover."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - child_time.get(s.span_id, 0.0)
        return out

    def records(self) -> list[dict]:
        return [
            {"run_id": self.run_id, "id": s.span_id, "name": s.name, "parent": s.parent,
             "start": s.start, "end": s.end}
            for s in self.spans
        ]


class TransportProxy:
    """Counts sends, polls, empty polls and polled events around a SimTransport."""

    def __init__(self, inner):
        self._inner = inner
        self.sends = 0
        self.polls = 0
        self.empty_polls = 0
        self.events = 0

    def send(self, dst, ident, seq, payload):
        self.sends += 1
        self._inner.send(dst, ident, seq, payload)

    def poll(self, max_wait):
        batch = self._inner.poll(max_wait)
        self.polls += 1
        if batch:
            self.events += len(batch)
        else:
            self.empty_polls += 1
        return batch

    def __getattr__(self, name):  # drained(), inject(), scenario
        return getattr(self._inner, name)


class ConnectorProxy:
    """Times every connect and counts refusals; safe to call from grab workers."""

    def __init__(self, inner):
        self._inner = inner
        self.connects: list[tuple[int, bool]] = []  # (ns, refused); list.append is atomic

    def __call__(self, address, port, timeout=5.0, udp=False):
        t0 = time.perf_counter_ns()
        refused = False
        try:
            return self._inner(address, port, timeout, udp=udp)
        except ConnectionRefusedError:
            refused = True
            raise
        finally:
            self.connects.append((time.perf_counter_ns() - t0, refused))


class Instrumented:
    """Installs span wrappers on the layer functions the CLI calls."""

    # (module, attribute, span name) for every layer call the stages make.
    LAYER_CALLS = (
        (seedprep, "parse_prefix_list", "seedprep.parse_prefix_list"),
        (seedprep, "load_as_map", "seedprep.load_as_map"),
        (seedprep, "load_connection_map", "seedprep.load_connection_map"),
        (seedprep, "filter_seeds", "seedprep.filter_seeds"),
        (targetgen, "build_plan", "targetgen.build_plan"),
        (probe, "run_scan", "probe.run_scan"),
        (probe, "write_response_log", "probe.write_response_log"),
        (probe, "read_response_log", "probe.read_response_log"),
        (classify_mod, "classify_log", "classify.classify_log"),
        (classify_mod, "write_classification", "classify.write_classification"),
        (classify_mod, "read_classification", "classify.read_classification"),
        (grab_mod, "run_grab_campaign", "grab.run_grab_campaign"),
        (grab_mod, "write_grab_log", "grab.write_grab_log"),
        (grab_mod, "read_grab_log", "grab.read_grab_log"),
        (fingerprint_mod, "fingerprint_records", "fingerprint.fingerprint_records"),
        (fingerprint_mod, "collect_hp_printers", "fingerprint.collect_hp_printers"),
        (fingerprint_mod, "dedupe_printers", "fingerprint.dedupe_printers"),
        (fingerprint_mod, "write_fingerprints", "fingerprint.write_fingerprints"),
        (fingerprint_mod, "read_fingerprints", "fingerprint.read_fingerprints"),
        (fingerprint_mod, "load_oui_db", "fingerprint.load_oui_db"),
        (report, "load_asn_geo", "report.load_asn_geo"),
        (report, "aggregate", "report.aggregate"),
        (report, "emit", "report.emit"),
        (cli, "load_scenario", "simnet.load_scenario"),
    )

    WRITERS = ("probe.write_response_log", "classify.write_classification", "grab.write_grab_log")

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.transport: TransportProxy | None = None
        self.connector: ConnectorProxy | None = None
        self.scan_log = None
        self.grab_records: list = []
        self.counts: dict[str, int] = {}  # records each layer call wrote or returned
        self.eui64_calls = 0
        self.eui64_ns = 0
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _wrap(self, name: str, fn):
        """A span around every call of fn; counts the records it writes or returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in self.WRITERS:
                args = (list(args[0]),) + args[1:]
                self.counts[name] = len(args[0])
            with self.tracer.span(name):
                result = fn(*args, **kwargs)
            if isinstance(result, list):
                self.counts[name] = len(result)
            return result

        return wrapper

    def __enter__(self) -> "Instrumented":
        for module, attr, name in self.LAYER_CALLS:
            self._patch(module, attr, self._wrap(name, getattr(module, attr)))
        self._patch(cli, "COMMANDS", {
            stage: self._wrap(f"cli.{stage}", fn) for stage, fn in cli.COMMANDS.items()
        })

        real_run_scan = probe.run_scan  # already span-wrapped

        def run_scan(*args, **kwargs):
            self.scan_log = real_run_scan(*args, **kwargs)
            return self.scan_log

        real_campaign = grab_mod.run_grab_campaign

        def run_grab_campaign(*args, connector, **kwargs):
            self.connector = ConnectorProxy(connector)
            self.grab_records = real_campaign(*args, connector=self.connector, **kwargs)
            return self.grab_records

        real_transport = cli.SimTransport

        def make_transport(scenario):
            self.transport = TransportProxy(real_transport(scenario))
            return self.transport

        real_eui64 = fingerprint_mod.extract_eui64

        def extract_eui64(address):
            t0 = time.perf_counter_ns()
            try:
                return real_eui64(address)
            finally:
                self.eui64_ns += time.perf_counter_ns() - t0
                self.eui64_calls += 1

        self._patch(probe, "run_scan", run_scan)
        self._patch(grab_mod, "run_grab_campaign", run_grab_campaign)
        self._patch(cli, "SimTransport", make_transport)
        self._patch(fingerprint_mod, "extract_eui64", extract_eui64)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def run_inprocess(config: str, outdir: str, stages, log) -> float:
    """Run the stages through ``cli.main`` in this process; returns wall seconds."""
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for stage in stages:
            code = cli.main(["--config", config, "--out", outdir, stage])
            if code != 0:
                raise StageFailed(stage, code)
    return time.perf_counter() - t0


def layer_metrics(inst: Instrumented) -> dict[str, float]:
    """Per-layer figures from one traced pipeline."""
    tr = inst.tracer
    med = statistics.median

    def one(name: str) -> float:
        return med(tr.durations(name))

    scan = inst.scan_log
    run_scan_s = one("probe.run_scan")
    transport = inst.transport
    conn = inst.connector
    grabs = len(inst.grab_records)
    campaign_s = one("grab.run_grab_campaign")
    responses = inst.counts["probe.write_response_log"]
    classified = inst.counts["classify.write_classification"]
    grab_rows = inst.counts["grab.write_grab_log"]
    outcomes = collections.Counter(r.outcome for r in inst.grab_records)
    return {
        "targetgen.build_plan_s": one("targetgen.build_plan"),
        "probe.send_phase_s": scan.send_duration_s,
        "probe.send_probes_per_s": scan.sent / scan.send_duration_s,
        "probe.quiescence_s": run_scan_s - scan.send_duration_s,
        "probe.sent": scan.sent,
        "probe.responses": len(scan.records),
        "probe.spurious": scan.spurious,
        "probe.log_write_records_per_s": responses / one("probe.write_response_log"),
        "probe.log_read_records_per_s": inst.counts["probe.read_response_log"]
        / one("probe.read_response_log"),
        "simnet.transport.events_per_send": transport.events / transport.sends,
        "simnet.transport.poll_calls": transport.polls,
        "simnet.transport.poll_empty_frac": transport.empty_polls / transport.polls,
        "classify.classify_log_s": one("classify.classify_log"),
        "classify.records_per_s": responses / one("classify.classify_log"),
        "classify.write_s": one("classify.write_classification"),
        "classify.read_s": one("classify.read_classification"),
        "classify.addresses": classified,
        "grab.campaign_s": campaign_s,
        "grab.attempts_per_s": grabs / campaign_s,
        "grab.refused": outcomes.get(grab_mod.OUTCOME_REFUSED, 0),
        "grab.responded": outcomes.get(grab_mod.OUTCOME_RESPONDED, 0),
        "grab.timeout": outcomes.get(grab_mod.OUTCOME_TIMEOUT, 0),
        "grab.error": outcomes.get(grab_mod.OUTCOME_ERROR, 0),
        "grab.tls_responders": sum(1 for r in inst.grab_records if r.tls_subject_cn),
        "grab.log_write_records_per_s": grab_rows / one("grab.write_grab_log"),
        "grab.log_read_records_per_s": inst.counts["grab.read_grab_log"]
        / one("grab.read_grab_log"),
        "simnet.services.connect_us": med(ns for ns, _ in conn.connects) / 1e3,
        "simnet.services.connects": len(conn.connects),
        "simnet.services.refused_frac": sum(r for _, r in conn.connects) / len(conn.connects),
        "fingerprint.records_per_s": inst.counts["grab.read_grab_log"]
        / one("fingerprint.fingerprint_records"),
        "fingerprint.eui64_per_s": inst.eui64_calls / (inst.eui64_ns / 1e9),
        "report.aggregate_s": one("report.aggregate"),
        "report.emit_s": one("report.emit"),
        "seedprep.filter_s": one("seedprep.filter_seeds"),
    }
