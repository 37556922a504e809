"""Every file a command reads back, under every damage.

Each command of ``COMMANDS`` runs once on clean inputs while an audit hook
records the files it opens to read, ``np.load``'s included; the config file
it is given is the config tests' to damage. Each recorded file must have its
row in ``FILES``. On a fresh copy of the inputs, the file then takes each
damage of ``DAMAGES``, and of ``NPY_DAMAGES`` for an array or
``META_DAMAGES`` for a checkpoint's meta.json. The command must exit 2
(config) or 3 (data) with one line on stderr that starts with the damaged
file's full path and says what ``expected`` says, and leave the copy byte
for byte as it was; or, where ``EXIT_0`` says why, exit 0.
"""

import functools
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from mfselect import cli
from test_cli import base_config, rewind_to_round_1, write_config

pytestmark = pytest.mark.filterwarnings("error")

CSV_SOURCE = " --set dataset.blobs=null --set dataset.csv={root}/noise/dataset.csv --set noise=null"
COMMANDS = {
    "simulate": "simulate -o {root}/simulated",
    "select": "select --log {root}/sim/simulated_log.jsonl -o {root}/sel",
    "select small_loss": "select --set round.strategy=small_loss --log {root}/run/log_round1.jsonl"
                         " -o {root}/sel",
    "report": "report -o {root}/run",
    "run --resume": "run --resume -o {root}/run",
    "inject-noise": "inject-noise -o {root}/injected" + CSV_SOURCE,
    "run on a dataset.csv": "run -o {root}/csv_run" + CSV_SOURCE,
}
TRUTH = [f"run/{name}" for name in cli.TRUTH_FILES]
FILES = {  # each command's rows: the files it reads, as ``inputs`` lays them out
    "simulate": [],
    "select": ["sim/simulated_log.jsonl"],
    "select small_loss": ["run/log_round1.jsonl", "run/log_round1.losses.npy"],
    "report": ["run/state.json", "run/stats.csv", *TRUTH],
    "run --resume": ["run/state.json", "run/stats.csv", "run/selected_ids_round1.txt",
                     *(f"run/model_round1/{name}" for name in
                       ("meta.json", "params.npy", "velocity.npy"))],
    "inject-noise": ["noise/dataset.csv"],
    "run on a dataset.csv": ["noise/dataset.csv"],
}


def cut(path: Path) -> None:
    """End the file inside a record, at or before the middle: a whole-line
    prefix, or one that lacks only its line end, would still parse."""
    data = path.read_bytes()
    end = len(data) // 2 - 3
    while {*data[end - 1:end + 1]} & {*b"\r\n"}:  # a line end at the cut or just before it
        end -= 1
    assert end > 0, f"{path} has no byte inside a record"
    path.write_bytes(data[:end])


def write_huge_header(path: Path) -> None:
    """A header that claims 80 TB, and no data."""
    with path.open("wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": (10**13,)})


def write_npz(path: Path, array) -> None:
    with path.open("wb") as fh:
        np.savez(fh, array=array)


def change_rng_state(path: Path, change) -> None:
    meta = json.loads(path.read_text())
    change(meta["rng_state"]["state"])
    path.write_text(json.dumps(meta))


DAMAGES = {
    "missing": Path.unlink,
    "empty": lambda path: path.write_bytes(b""),
    "invalid UTF-8": lambda path: path.write_bytes(b"\xff" + path.read_bytes()),
    "cut": cut,
    "a directory": lambda path: (path.unlink(), path.mkdir()),
    "[1, 2]": lambda path: path.write_text("[1, 2]\n"),
    "null": lambda path: path.write_text("null\n"),
}
NPY_DAMAGES = {
    "wrong shape": lambda path: np.save(path, np.zeros(1)),
    "float32": lambda path: np.save(path, np.load(path).astype(np.float32)),
    "huge header": write_huge_header,
    "pickled object array": lambda path: np.save(path, np.load(path).astype(object),
                                                 allow_pickle=True),
    "npz archive": lambda path: write_npz(path, np.load(path)),
}
META_DAMAGES = {
    "an rng_state int of -1": lambda path: change_rng_state(
        path, lambda state: state.update(state=-1)),
    "a float inc in rng_state": lambda path: change_rng_state(
        path, lambda state: state.update(inc=float(state["inc"]))),
}

# (command, file, damage) -> why it exits 0
EXIT_0 = {
    ("run --resume", "run/state.json", "missing"): "without a checkpoint a run starts afresh",
    ("report", "run/state.json", "missing"):
        "without a checkpoint the directory reads as a select's, with no round 0",
    **{("report", name, damage): "the ground truth is a list of opaque ids, whatever they are"
       for name in TRUTH for damage in ("empty", "[1, 2]", "null")},
}
# (command, file, damage) -> what stderr says, and the file it names, where
# ``expected`` does not say it for the damage and the kind of file
ROW_MESSAGES = {
    ("select", "sim/simulated_log.jsonl", "empty"): ("log has no records", None),
    ("select small_loss", "run/log_round1.losses.npy", "missing"):
        ("the small_loss strategy needs 'losses' in every record", "run/log_round1.jsonl"),
    ("run --resume", "run/selected_ids_round1.txt", "empty"):
        ("cannot resume: the round kept no ids", None),
    # the cut id is one that noisy_ids.txt lists too, named where it is listed last
    **{("report", name, "cut"): ("appears more than once in the ground truth", TRUTH[1])
       for name in TRUTH},
}


def expected(command: str, name: str, damage: str) -> tuple[str | None, str]:
    """What stderr says after the path, if anything is pinned, and the file it names."""
    message, named = ROW_MESSAGES.get((command, name, damage), (None, None))
    if message is None and name.endswith(".npy"):
        wrong_array = damage in ("wrong shape", "float32")
        message = "must be float64" if wrong_array else "cannot read the array"
    elif message is None and damage in ("missing", "a directory", "invalid UTF-8"):
        message = ("invalid UTF-8 byte 0xff (line 1)" if damage == "invalid UTF-8"
                   else "cannot read the file")
    elif message is None and name.endswith("meta.json"):
        message = "cannot resume from a damaged model checkpoint"
    return message, named or name


def damages_of(name: str) -> dict:
    return {**DAMAGES, **(NPY_DAMAGES if name.endswith(".npy") else {}),
            **(META_DAMAGES if name.endswith("meta.json") else {})}


_reads: list[list] = []  # while ``record_reads`` runs a command, the list it fills


def _audit(event: str, args: tuple) -> None:
    if _reads and event == "open" and not isinstance(args[0], int):
        mode, flags = args[1], args[2]  # os.open gives no mode
        if (not set(mode) & set("wax+")) if mode else flags & os.O_ACCMODE == os.O_RDONLY:
            _reads[-1].append(os.fsdecode(args[0]))


@functools.cache
def _install_audit_hook() -> None:
    sys.addaudithook(_audit)  # for the rest of the process: a hook cannot be removed


def record_reads(argv) -> list[str]:
    """The paths ``cli.main(argv)``, which must exit 0, opens to read."""
    _install_audit_hook()
    _reads.append([])
    try:
        assert cli.main(argv) == 0
    finally:
        read = _reads.pop()
    return read


def tree(root: Path) -> dict:
    """Each path under ``root``: a file's sha256, a directory's None."""
    return {str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
            if path.is_file() else None for path in sorted(root.rglob("*"))}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    """The config, a simulated log in sim/, a two-round run rewound to round 1
    in run/ and a dataset.csv in noise/."""
    root = tmp_path_factory.mktemp("inputs")
    config = write_config(root, base_config(root, rounds=2, epochs=4))
    for command, out in (("simulate", "sim"), ("run", "run"), ("inject-noise", "noise")):
        assert cli.main([command, "-c", str(config), "-o", str(root / out)]) == 0
    rewind_to_round_1(root / "run")
    return root


@pytest.mark.parametrize("command", COMMANDS)
def test_each_damaged_input_exits_2_or_3_naming_it(inputs, tmp_path, capsys, command):
    root = tmp_path / "case"
    argv = [arg.format(root=root) for arg in f"{COMMANDS[command]} -c {{root}}/config.yaml".split()]
    shutil.copytree(inputs, root)
    read = {str(Path(path).relative_to(root)) for path in record_reads(argv)
            if Path(path).is_relative_to(root)} - {"config.yaml"}
    shutil.rmtree(root)
    assert read == set(FILES[command]), "a file the command reads has no row, or a row no file"
    failures = []
    for name in sorted(read):
        for damage, apply in damages_of(name).items():
            shutil.copytree(inputs, root)
            apply(root / name)
            before = tree(root)
            capsys.readouterr()
            code = cli.main(argv)
            err = capsys.readouterr().err
            if (command, name, damage) in EXIT_0:
                ok = code == 0
            else:
                message, named = expected(command, name, damage)
                kind = {2: "config", 3: "data"}.get(code)
                ok = (kind and err.startswith(f"{kind} error: {root / named}: ")
                      and err.count("\n") == 1 and "Traceback" not in err and "pickle" not in err
                      and (message is None or message in err))
                if tree(root) != before:
                    ok, err = False, err + "and the copy changed\n"
            if not ok:
                failures.append(f"{name}, {damage}: exit {code}: {err}")
            shutil.rmtree(root)
    assert not failures, "\n".join(failures)
