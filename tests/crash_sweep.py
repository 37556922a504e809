"""Crash a small ``mfselect run`` right after a rename, or right before one,
resume it, and compare the tree with an uninterrupted run's.

    python tests/crash_sweep.py [--before] [--at N ...] [--workdir DIR]

Without ``--at`` it crashes the run once at each of its renames in turn.
Each crash runs the command in a subprocess whose ``os.replace`` appends the
renamed path to a file that the process and its forked writer share, and
calls ``os._exit(9)`` right after the N-th rename; with ``--before``, right
before it, when the temp file is written but not yet renamed. ``run
--resume`` then finishes the run, without the hook, and ``diff -r`` must
find no difference from the uninterrupted run, so no temp file may be left.
Exits 1 if any crash point fails.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
RUN = ["run", "-c", str(REPO / "configs" / "benchmark.yaml"),
       "--set", "dataset.blobs.per_class=60", "--set", "round.epochs=4",
       "--set", "round.rounds=2"]

# the command, with an os.replace that records each rename and crashes after
# the N-th, or before it when CRASH_SWEEP_BEFORE is set; an N of 0 only records
HOOK = """\
import os, sys
log, crash_at = os.environ["CRASH_SWEEP_LOG"], int(os.environ["CRASH_SWEEP_AT"])
before = bool(os.environ.get("CRASH_SWEEP_BEFORE"))
real_replace = os.replace

def replace(src, dst):
    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    os.write(fd, os.fsencode(f"{dst}\\n"))  # one append: the writer child shares the file
    os.close(fd)
    with open(log, "rb") as fh:
        crash = fh.read().count(b"\\n") == crash_at
    if crash and before:
        os._exit(9)
    real_replace(src, dst)
    if crash:
        os._exit(9)

os.replace = replace
from mfselect.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run(out: Path, *extra, crash_at: int | None = None, log: Path | None = None,
        before: bool = False):
    """``mfselect run`` of the small config into ``out``; with ``crash_at``,
    through the hook into a fresh ``out``, recording renames in a fresh ``log``
    and crashing ``before`` the rename or after it."""
    if crash_at is not None:
        shutil.rmtree(out, ignore_errors=True)
        log.unlink(missing_ok=True)
    src = str(REPO / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    if crash_at is None:
        cmd = [sys.executable, "-m", "mfselect"]
    else:
        cmd = [sys.executable, "-c", HOOK]
        env.update(CRASH_SWEEP_LOG=str(log), CRASH_SWEEP_AT=str(crash_at),
                   CRASH_SWEEP_BEFORE="1" if before else "")
    return subprocess.run([*cmd, *RUN, "-o", str(out), *extra], env=env,
                          capture_output=True, text=True)


def record_renames(workdir: Path) -> list[str]:
    """Run uninterrupted into ``workdir/full`` and list its renames in order."""
    log = workdir / "renames.txt"
    done = run(workdir / "full", crash_at=0, log=log)
    if done.returncode:
        raise RuntimeError(f"the uninterrupted run exited {done.returncode}:\n{done.stderr}")
    return log.read_text().splitlines()


def crash_and_resume(workdir: Path, n: int, before: bool = False) -> tuple[int, str]:
    """Crash a run into ``workdir/crash<n>`` right after its n-th rename (right
    ``before`` it, with the temp file written), then resume it. Returns the
    crashed run's exit code (3 when the writer child died, 9 when the run's
    own process did) and what went wrong, "" if the resumed tree equals
    ``workdir/full`` (``record_renames`` made it)."""
    out = workdir / f"crash{n}"
    crashed = run(out, crash_at=n, log=workdir / f"renames{n}.txt", before=before)
    if crashed.returncode not in (3, 9):
        return crashed.returncode, f"the crashed run did not crash:\n{crashed.stderr}"
    resumed = run(out, "--resume")
    if resumed.returncode:
        return crashed.returncode, f"the resume exited {resumed.returncode}:\n{resumed.stderr}"
    diff = subprocess.run(["diff", "-r", str(workdir / "full"), str(out)],
                          capture_output=True, text=True)
    return crashed.returncode, diff.stdout + diff.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--at", type=int, nargs="*", help="crash points (default: every rename)")
    parser.add_argument("--before", action="store_true",
                        help="crash right before each rename, with the temp file written")
    parser.add_argument("--workdir", type=Path, help="where the runs go (default: a temp dir)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = args.workdir or Path(tmp)
        workdir.mkdir(parents=True, exist_ok=True)
        renames = record_renames(workdir)
        points = args.at or range(1, len(renames) + 1)
        if not all(1 <= n <= len(renames) for n in points):
            parser.error(f"--at takes points from 1 to {len(renames)}, the run's renames")
        failed = 0
        for n in points:
            status, problem = crash_and_resume(workdir, n, args.before)
            failed += bool(problem)
            name = os.path.relpath(renames[n - 1], workdir / "full")
            when = "before" if args.before else "after"
            print(f"{n:3d}/{len(renames)} {when} {name}, exit {status}: "
                  f"{'FAILED' if problem else 'resumed to the same tree'}")
            if problem:
                print(problem.rstrip())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
