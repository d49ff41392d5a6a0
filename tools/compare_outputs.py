"""Compare what two source trees of bscahn write for the shipped configs.

Usage: python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is the root of a checkout, the directory holding `src/` and
`configs/`.  Both trees run the same twelve commands, each on its own
`configs/`: `simulate` on every `configs/*.cfg`, `elliptic` on `elliptic.cfg`
and `steady.cfg`, and the four studies (`yosida` on `elliptic.cfg`, the
others on the config of their name).  Each tree writes into its own
temporary directory.  For every command the script compares its exit code,
its stdout and stderr with the output directory and tree root masked, and
every file it wrote but `run_meta.txt`, the wall-clock sidecar.  It prints
"identical" or the largest absolute difference between the numbers of each,
and for a CSV file that differs, the largest absolute difference in each
column that moved, by its header name.  It exits 0 only if everything is
identical.  Standard library only.
"""

from __future__ import annotations

import csv
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

STUDIES = (("yosida", "elliptic.cfg"), ("contdep", "contdep.cfg"),
           ("strong", "strong.cfg"), ("regimes", "regimes.cfg"))


def commands(root: Path) -> list[tuple[list[str], str]]:
    """(arguments, config name) of each command, in a fixed order."""
    runs = [(["simulate"], p.name) for p in sorted((root / "configs").glob("*.cfg"))]
    runs += [(["elliptic"], name) for name in ("elliptic.cfg", "steady.cfg")]
    runs += [(["study", kind], name) for kind, name in STUDIES]
    return runs


def run(root: Path, args: list[str], config: str, out: Path) -> dict[str, bytes]:
    """The command's outputs by name: its exit code, masked streams and files."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "bscahn", *args, "--config", str(root / "configs" / config),
         "--out", str(out)],
        env=env, capture_output=True, cwd=out.parent,
    )

    def masked(stream: bytes) -> bytes:
        return stream.replace(str(out).encode(), b"<out>").replace(str(root).encode(), b"<tree>")

    found = {"exit code": str(proc.returncode).encode(),
             "stdout": masked(proc.stdout), "stderr": masked(proc.stderr)}
    if out.is_dir():
        found.update({p.name: p.read_bytes() for p in sorted(out.iterdir())
                      if p.name != "run_meta.txt"})
    return found


def difference(a: bytes, b: bytes) -> str:
    """'identical', the largest absolute difference of the numbers in two
    texts that differ only there, or why they cannot be compared so."""
    if a == b:
        return "identical"
    ta, tb = (re.split(r"[\s,]+", x.decode("utf-8", "replace")) for x in (a, b))
    if len(ta) != len(tb):
        return "differs in layout"
    worst = 0.0
    for x, y in zip(ta, tb):
        if x != y:
            try:
                worst = max(worst, abs(float(x) - float(y)))
            except ValueError:
                return f"differs in text ({x!r} vs {y!r})"
    return f"max absolute difference {worst:.3e}"


def column_differences(a: bytes, b: bytes) -> list[str]:
    """'<header name>: <difference>' for each column that differs between two
    CSV texts with the same header and row count; none when those differ."""
    ra, rb = (list(csv.reader(io.StringIO(x.decode("utf-8", "replace")))) for x in (a, b))
    if not ra or len(ra) != len(rb) or ra[0] != rb[0]:
        return []
    moved = []
    for name, x, y in zip(ra[0], zip(*ra[1:]), zip(*rb[1:])):
        verdict = difference(" ".join(x).encode(), " ".join(y).encode())
        if verdict != "identical":
            moved.append(f"{name}: {verdict}")
    return moved


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    all_same = True
    with tempfile.TemporaryDirectory() as tmp_parent, tempfile.TemporaryDirectory() as tmp_change:
        for i, (args, config) in enumerate(commands(parent)):
            label = f"{' '.join(args)} {config}"
            before = run(parent, args, config, Path(tmp_parent) / str(i))
            after = run(change, args, config, Path(tmp_change) / str(i))
            for name in sorted(set(before) | set(after)):
                columns = []
                if name not in before or name not in after:
                    verdict = f"only in {'change' if name in after else 'parent'}"
                else:
                    verdict = difference(before[name], after[name])
                    if name.endswith(".csv"):
                        columns = column_differences(before[name], after[name])
                all_same &= verdict == "identical"
                print(f"{label}: {name}: {verdict}")
                for moved in columns:
                    print(f"{label}: {name}: column {moved}")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
