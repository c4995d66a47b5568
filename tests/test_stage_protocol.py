"""The stage protocol as a state machine.

Hypothesis drives sequences of stage runs (some with another ``--seed``),
failed or killed output writes, stage files deleted or replaced by hand
with well-formed ones, and reference tables made unreadable and restored,
through ``cli.main`` on a 2x2 simulated deployment.
A model predicts the output directory after every step, and the directory
must hold exactly that:

- a stage runs when every stage file its README row reads exists; then it
  exits 0 and each of its outputs equals what a clean run of it writes from
  those files alone, in a directory that holds nothing else;
- a missing input ends the stage with exit 1, naming the stage that writes
  it; an unreadable reference table (deleted, a directory in its place, or a
  byte that is not UTF-8) with exit 1, naming its path, or for the byte
  ``<what> line N`` as the README's file formats say; and a failed write
  with exit 1; either way none of its outputs is left, nor a ``.tmp``, and
  no other stage's file changes;
- a run killed mid-write leaves the outputs it finished and the ``.tmp`` of
  the one it was writing, and the stage's next run removes that ``.tmp``.

Claessen and Hughes, "QuickCheck" (ICFP 2000); Hughes, "Experiences with
QuickCheck: Testing the Hard Stuff and Staying Sane" (2016).
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import io
import json
import os
import shutil
import tempfile
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule, run_state_machine_as_test

from conftest import readme_stage_table
from resiscan import cli as cli_mod
from resiscan import csvio
from resiscan import report as report_mod

TABLE = readme_stage_table()
WRITER = {name: stage for stage, (_reads, writes) in TABLE.items() for name in writes}
STAGE_FILES = sorted(name for stage in TABLE for name in cli_mod._OUTPUTS[stage])
INPUTS = sorted({name for reads, _writes in TABLE.values() for name in reads})
PIPELINE = [("plan", "--dump", "5") if stage == "plan" else (stage,) for stage in TABLE]
# None, or (n, kill): the n-th output the run opens fails to write, or its process is killed.
FAULTS = st.none() | st.tuples(st.integers(1, 3), st.booleans())
TORN = object()  # the .tmp a killed write leaves: whatever bytes reached the file
# Each reference table's config key, by the stage that reads it,
# and what a bad row's message calls it; the raw seed list is named by its path instead.
TABLES = {
    "seed-filter": ("seed_list", "as_map", "conn_map"),
    "fingerprint": ("oui_db",),
    "report": ("asn_geo",),
}
WHAT = {
    "as_map": "as map", "conn_map": "connection map", "oui_db": "oui db", "asn_geo": "asn/geo table",
}
TABLE_KEYS = sorted(key for keys in TABLES.values() for key in keys)
UNREADABLE = ("deleted", "directory", "not UTF-8")


class Killed(BaseException):
    """The stage process was killed; ``tree`` is what it left on disk."""

    def __init__(self, tree):
        super().__init__()
        self.tree = tree


def read_tree(root: str) -> dict[str, bytes]:
    tree = {}
    for directory, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as fh:
                tree[os.path.relpath(path, root)] = fh.read()
    return tree


def write_tree(root: str, tree: dict[str, bytes]) -> None:
    for name, content in tree.items():
        path = os.path.join(root, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(content)


def run(argv) -> SimpleNamespace:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_mod.main(list(argv))
    return SimpleNamespace(code=code, err=err.getvalue())


class KilledAtSecondWrite:
    """An output file whose process is killed at its second write, or as its
    block ends if there is none: the first write is on disk, in the ``.tmp``."""

    def __init__(self, fh, root):
        self.fh, self.root, self.writes = fh, root, 0

    def write(self, text):
        self.writes += 1
        if self.writes == 2:
            self.kill()
        return self.fh.write(text)

    def kill(self):
        self.fh.flush()
        raise Killed(read_tree(self.root))


@contextlib.contextmanager
def outputs_opened(opened: list, fault=None, root=None):
    """Record the path of each output a stage opens; with a ``fault`` (n,
    kill), its n-th write fails with ENOSPC or is killed."""
    real = csvio.open_output

    @contextlib.contextmanager
    def failing(path, kill):
        with real(path) as fh:
            if kill:
                killed = KilledAtSecondWrite(fh, root)
                yield killed
                killed.kill()
            else:
                yield fh
                raise OSError(errno.ENOSPC, "injected fault")

    def open_output(path):
        opened.append(path)
        if fault is None or len(opened) != fault[0]:
            return real(path)
        return failing(path, fault[1])

    with mock.patch.object(cli_mod, "open_output", open_output), mock.patch.object(
        report_mod, "open_output", open_output
    ):
        yield


class Deployment:
    """A 2x2 deployment run through every stage, the stage files of a
    second one, and the clean runs of each stage, made once each."""

    def __init__(self, root: str):
        self.root = root
        trees = []
        for seed in ("1", "2"):
            out = os.path.join(root, f"deployment-{seed}")
            gen = run(["--seed", seed, "--out", out, "simnet-gen", "--n48", "2", "--subnets", "2"])
            assert gen.code == 0, gen.err
            for argv in PIPELINE:
                res = run(["--config", os.path.join(out, "config.json"), *argv])
                assert res.code == 0, res.err
            trees.append({n: b for n, b in read_tree(out).items() if n in STAGE_FILES})
        self.config = os.path.join(root, "deployment-1", "config.json")
        self.pristine, self.alternate = trees
        with open(self.config, encoding="utf-8") as fh:
            config = json.load(fh)
        self.tables = {}  # config key: the table's bytes
        for key in TABLE_KEYS:
            with open(config[key], "rb") as fh:
                self.tables[key] = fh.read()
        self.clean_runs: dict = {}

    def clean_run(self, argv, options, inputs: dict[str, bytes]) -> SimpleNamespace:
        """What ``argv`` writes in a directory that holds only ``inputs``."""
        key = (argv, options, tuple((n, hashlib.sha256(b).digest()) for n, b in inputs.items()))
        if key not in self.clean_runs:
            out = tempfile.mkdtemp(dir=self.root)
            write_tree(out, inputs)
            opened = []
            with outputs_opened(opened):
                res = run(["--config", self.config, "--out", out, *options, *argv])
            tree = read_tree(out)
            shutil.rmtree(out)
            outputs = {n: tree[n] for n in cli_mod._OUTPUTS[argv[0]] if n in tree}
            self.clean_runs[key] = SimpleNamespace(res=res, outputs=outputs, opens=len(opened))
        return self.clean_runs[key]


class StageProtocol(RuleBasedStateMachine):
    def __init__(self, deployment: Deployment):
        super().__init__()
        self.deployment = deployment
        self.dir = tempfile.mkdtemp(dir=deployment.root)
        self.model = dict(deployment.pristine)  # what the directory holds, file by file
        write_tree(self.dir, self.model)
        # The deployment's config, but reading its own copy of each reference table.
        self.table_dir = tempfile.mkdtemp(dir=deployment.root)
        with open(deployment.config, encoding="utf-8") as fh:
            config = json.load(fh)
        for key, content in deployment.tables.items():
            config[key] = os.path.join(self.table_dir, key)
            write_tree(self.table_dir, {key: content})
        self.config = os.path.join(self.table_dir, "config.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        self.unreadable: dict[str, str] = {}  # config key: the error reading it gives

    def teardown(self):
        shutil.rmtree(self.dir)
        shutil.rmtree(self.table_dir)

    @rule(name=st.sampled_from(INPUTS))
    def delete_stage_file(self, name):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(self.dir, name))
        self.model.pop(name, None)

    @rule(name=st.sampled_from(INPUTS), source=st.sampled_from(["pristine", "alternate"]))
    def replace_stage_file(self, name, source):
        content = getattr(self.deployment, source)[name]
        write_tree(self.dir, {name: content})
        self.model[name] = content

    def _remove_table(self, key):
        path = os.path.join(self.table_dir, key)
        if os.path.isdir(path):
            os.rmdir(path)
        elif os.path.exists(path):
            os.remove(path)
        self.unreadable.pop(key, None)
        return path

    @rule(key=st.sampled_from(TABLE_KEYS), how=st.sampled_from(UNREADABLE), line=st.integers(1, 2))
    def make_table_unreadable(self, key, how, line):
        path = self._remove_table(key)
        if how == "not UTF-8":  # a 0xff at the start of the line-th line
            lines = self.deployment.tables[key].splitlines(keepends=True)
            offset = len(b"".join(lines[: line - 1]))
            lines[line - 1] = b"\xff" + lines[line - 1]
            write_tree(self.table_dir, {key: b"".join(lines)})
            where = f"{path}:" if key == "seed_list" else WHAT[key]
            reason = f"'utf-8' codec can't decode byte 0xff in position {offset}: invalid start byte"
            self.unreadable[key] = f"error: {where} line {line}: {reason}\n"
            return
        if how == "directory":
            os.mkdir(path)
        code = errno.ENOENT if how == "deleted" else errno.EISDIR
        self.unreadable[key] = f"error: [Errno {code}] {os.strerror(code)}: {path!r}\n"

    @rule(key=st.sampled_from(TABLE_KEYS))
    def restore_table(self, key):
        self._remove_table(key)
        write_tree(self.table_dir, {key: self.deployment.tables[key]})

    def run_stage(self, argv, seed, fault):
        stage = argv[0]
        options = () if seed is None else ("--seed", str(seed))
        reads = TABLE[stage][0]
        missing = [name for name in reads if name not in self.model]
        unreadable = [self.unreadable[k] for k in TABLES.get(stage, ()) if k in self.unreadable]
        if not missing and not unreadable:
            inputs = {name: self.model[name] for name in reads}
            clean = self.deployment.clean_run(argv, options, inputs)
            assert clean.res.code == 0, clean.res.err
        for name in cli_mod._OUTPUTS[stage]:  # a run first removes its outputs and their .tmp
            self.model.pop(name, None)
            self.model.pop(f"{name}.tmp", None)
        opened = []
        try:
            with outputs_opened(opened, fault, self.dir):
                res = run(["--config", self.config, "--out", self.dir, *options, *argv])
        except Killed as killed:
            shutil.rmtree(self.dir)
            os.makedirs(self.dir)
            write_tree(self.dir, killed.tree)
            res = None
        if missing or unreadable:
            errors = unreadable + [
                f"error: no {name} at {os.path.join(self.dir, name)}; run {WRITER[name]} first\n"
                for name in missing
            ]
            assert res is not None and (res.code, res.err in errors) == (1, True), res
        elif fault is None or fault[0] > clean.opens:
            assert res.code == 0, res.err
            self.model.update(clean.outputs)
        elif fault[1]:
            assert res is None
            *finished, torn = (os.path.relpath(path, self.dir) for path in opened)
            self.model.update({name: clean.outputs[name] for name in finished})
            self.model[f"{torn}.tmp"] = TORN
        else:
            assert (res.code, res.err) == (1, "error: [Errno 28] injected fault\n")

    def _run_rule(name, *argv):
        """A rule that runs ``argv``. With a rule per stage, hypothesis runs
        each stage as often as it makes an edit, and a failing sequence
        names the stages it ran."""

        def run(self, seed, fault):
            self.run_stage(argv, seed, fault)

        run.__name__ = name
        return rule(seed=st.sampled_from([None, 2]), fault=FAULTS)(run)

    run_seed_filter = _run_rule("run_seed_filter", "seed-filter")
    run_plan = _run_rule("run_plan", "plan")
    run_plan_dump = _run_rule("run_plan_dump", "plan", "--dump", "5")
    run_scan = _run_rule("run_scan", "scan")
    run_classify = _run_rule("run_classify", "classify")
    run_grab = _run_rule("run_grab", "grab")
    run_fingerprint = _run_rule("run_fingerprint", "fingerprint")
    run_report = _run_rule("run_report", "report")

    @invariant()
    def directory_holds_the_model(self):
        tree = read_tree(self.dir)
        assert sorted(tree) == sorted(self.model)
        for name, content in self.model.items():
            assert content is TORN or tree[name] == content, name


@pytest.fixture(scope="module")
def deployment(tmp_path_factory):
    return Deployment(str(tmp_path_factory.mktemp("protocol")))


@pytest.mark.parametrize("how", UNREADABLE)
@pytest.mark.parametrize("key", TABLE_KEYS)
def test_each_table_unreadable_then_restored(deployment, key, how):
    # The two table rules, stepped by hand around a run of the stage that
    # reads the table, so each table and each way it breaks is checked.
    (stage,) = (stage for stage, keys in TABLES.items() if key in keys)
    machine = StageProtocol(deployment)
    try:
        for step in (
            lambda: machine.make_table_unreadable(key, how, 2),
            lambda: machine.run_stage((stage,), None, None),
            lambda: machine.restore_table(key),
            lambda: machine.run_stage((stage,), None, None),
        ):
            step()
            machine.directory_holds_the_model()
    finally:
        machine.teardown()


def test_stage_protocol(deployment):
    run_state_machine_as_test(
        lambda: StageProtocol(deployment),
        settings=settings(
            max_examples=60, stateful_step_count=12, derandomize=True, deadline=None,
            database=None,
        ),
    )
