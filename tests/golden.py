"""The golden certificates under ``tests/data/golden/``: the commands that write
them, a comparison that names the JSON paths that differ, and a rewrite.

Each group's commands run in one directory of its own, ``golden/<group>/``, and
name their files relatively, since provenance records a family path as given.
A group that reads a committed input has it copied in from ``tests/data/`` first
and removed after, so its directory holds only what its commands write.
After a change that is meant to change certificate bytes (a format bump),
rewrite every file with

    python tests/golden.py

so that the diff shows each changed key.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

if __name__ == "__main__":  # run as a script: import the checkout's own package
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from freelac.cli import main  # noqa: E402

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

# group -> its commands, in order, each with the exit code it must return
GROUPS = {
    "desk2": [
        (["build", "--s", "2", "--profile", "desk", "--out", "family.json"], 0),
        (["verify", "pn", "family.json", "--out", "pn.json"], 0),
        (["verify", "zs", "family.json", "--out", "zs.json"], 0),
        (["verify", "leinert", "family.json", "--out", "leinert.json"], 0),
        (["verify", "qi", "family.json", "--out", "qi.json"], 0),
        (["report", "family.json", "--out", "report.json"], 0),
    ],
    # Z_4 = 4 here, where the least witness among several maxima is chosen
    "desk4-n10": [
        # the strict count (633 > 521) rules out the n=8 factor's target, so
        # it walks the greedy path to a dead end at 5 of 6 elements, 5 nodes
        (["build", "--s", "4", "--n-max", "10", "--out", "family.json"], 2),
        (["verify", "zs", "family.json", "--out", "zs.json"], 0),
        (["verify", "zs", "family.json", "--strategy", "meet-in-middle",
          "--out", "zs-mitm.json"], 0),
        (["verify", "leinert", "family.json", "--out", "leinert.json"], 2),
        (["report", "family.json", "--out", "report.json"], 0),
    ],
    # the half-table count rules out every n^2 target, so these pin the
    # greedy walk each factor takes
    "paper": [
        (["build", "--s", "2", "--profile", "paper", "--out", "paper2.json"], 2),
        (["build", "--s", "4", "--profile", "paper", "--out", "paper4.json"], 2),
    ],
    # the rng draws: at every paper order, and from the listed candidates at
    # every desk order up to 131,101 (desk n=8 dead-ends at 6 of 8 elements)
    "seeded": [
        (["build", "--s", "2", "--profile", "paper", "--seed", "7",
          "--out", "paper2-seed7.json"], 2),
        (["build", "--s", "2", "--profile", "desk", "--seed", "5",
          "--out", "desk2-seed5.json"], 2),
    ],
    "adhoc": [
        (["verify", "leinert", "--exponents", "1,2,3,4", "--order", "17", "--s", "2",
          "--out", "leinert.json"], 2),
    ],
    # n=9 fails pn, so Z_4 = 4 is enumerated: 255,024 naive tuples and
    # 304,704 meet-in-the-middle pairs, and the report exits 2 on pn
    "enumeration": [
        (["verify", "pn", "family.json", "--out", "pn.json"], 2),
        (["verify", "zs", "family.json", "--out", "zs.json"], 0),
        (["verify", "zs", "family.json", "--strategy", "meet-in-middle",
          "--out", "zs-mitm.json"], 0),
        (["report", "family.json", "--out", "report.json"], 2),
    ],
}

# group -> {name in its directory: committed input under tests/data/}
INPUTS = {
    # build --s 4 --n-min 9 --n-max 12 with n=9's second exponent made twice its
    # first and ``chosen`` set to the exponents
    "enumeration": {"family.json": "desk4-pn-failing.json"},
}


def write_group(group: str, directory: Path) -> None:
    """Run ``group``'s commands in ``directory`` on its inputs, checking each exit code."""
    directory.mkdir(parents=True, exist_ok=True)
    inputs = INPUTS.get(group, {})
    for name, source in inputs.items():
        shutil.copyfile(DATA / source, directory / name)
    previous = os.getcwd()
    os.chdir(directory)
    try:
        for argv, expected in GROUPS[group]:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != expected:
                raise AssertionError(f"freelac {' '.join(argv)}: exit {code}, expected {expected}")
    finally:
        os.chdir(previous)
    for name in inputs:
        (directory / name).unlink()


def differing_paths(golden, written, path: str = "$"):
    """The JSON paths at which ``written`` differs from ``golden``."""
    if isinstance(golden, dict) and isinstance(written, dict):
        for key in sorted(golden.keys() | written.keys()):
            if key not in written:
                yield f"{path}.{key}: only in the golden file"
            elif key not in golden:
                yield f"{path}.{key}: only in the written file"
            else:
                yield from differing_paths(golden[key], written[key], f"{path}.{key}")
    elif isinstance(golden, list) and isinstance(written, list) and len(golden) == len(written):
        for i, (old, new) in enumerate(zip(golden, written)):
            yield from differing_paths(old, new, f"{path}[{i}]")
    elif type(golden) is not type(written) or golden != written:
        yield f"{path}: {json.dumps(golden)[:60]} -> {json.dumps(written)[:60]}"


def mismatches(group: str, directory: Path) -> list[str]:
    """How the files written for ``group`` in ``directory`` differ from its golden
    files, byte for byte; empty when they are the same."""
    golden_dir = GOLDEN / group
    names = sorted(path.name for path in golden_dir.iterdir())
    written_names = sorted(path.name for path in directory.iterdir())
    if names != written_names:
        return [f"{group}: golden files {names}, written {written_names}"]
    found = []
    for name in names:
        golden, written = (golden_dir / name).read_bytes(), (directory / name).read_bytes()
        if golden != written:
            paths = list(differing_paths(json.loads(golden), json.loads(written)))
            found += [f"{group}/{name}: {line}" for line in paths or ["bytes differ, JSON equal"]]
    return found


def rewrite() -> None:
    """Write every golden file afresh, dropping any that no command writes."""
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for group in GROUPS:
        write_group(group, GOLDEN / group)


if __name__ == "__main__":
    rewrite()
    print(f"wrote {sum(1 for _ in GOLDEN.rglob('*.json'))} golden certificates under {GOLDEN}")
