#!/usr/bin/env python3
"""Regenerate the committed figure goldens used by the acceptance regression.

Run only after the physics criteria (1-9) pass; the goldens are derived
artifacts, never hand-edited.  From the repository root:

    PYTHONPATH=src python scripts/make_goldens.py

For every file it prints how the new golden deviates from the one it
replaces: "identical", or the largest absolute and relative deviation over
the numeric cells of a CSV (relative to the larger magnitude of the two
values), or "differs" for any other file.  Every cell whose relative
deviation exceeds LISTED_REL (a physics change rather than round-off,
unless justified against a reference) is then listed with its file, row key
(the cells left of it, by column name), old value and new value.

The bytes do not depend on the BLAS thread count, but they are tied to the
numpy/OpenBLAS build that made them; CHANGES.md records that build.
"""

import shutil
import sys
from pathlib import Path

from lasergrating.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "goldens"
LISTED_REL = 1e-12


def _cells(text: str):
    return [line.split(",") for line in text.splitlines() if not line.startswith("#")]


def deviation(old: bytes, new: bytes, name: str) -> tuple[str, list[str]]:
    """One line describing how `new` deviates from `old`, and one line per
    cell whose relative deviation exceeds LISTED_REL."""
    if old == new:
        return "identical", []
    if not name.endswith(".csv"):
        return "differs", []
    a, b = _cells(old.decode()), _cells(new.decode())
    if [len(r) for r in a] != [len(r) for r in b]:
        return "differs: table layout changed", []
    header = a[0]
    worst_abs = worst_rel = 0.0
    changed = total = 0
    listed = []
    for row_a, row_b in zip(a, b):
        for col, (x, y) in enumerate(zip(row_a, row_b)):
            try:
                u, v = float(x), float(y)
            except ValueError:
                if x != y:
                    return f"differs: text cell {x!r} -> {y!r}", []
                continue
            total += 1
            if u == v:
                continue
            changed += 1
            d = abs(u - v)
            rel = d / max(abs(u), abs(v))
            worst_abs = max(worst_abs, d)
            worst_rel = max(worst_rel, rel)
            if rel > LISTED_REL:
                key = " ".join(f"{h}={c}" for h, c in zip(header, row_a[:col]))
                listed.append(f"{name} [{key}] {header[col]}: {x} -> {y} "
                              f"(abs {d:.2g}, rel {rel:.2g})")
    return (f"{changed} of {total} values changed, max abs {worst_abs:.2g}, "
            f"max rel {worst_rel:.2g}"), listed


if __name__ == "__main__":
    report, listed = [], []
    for fig in ("1", "2", "4", "5", "6"):
        target = GOLDEN / f"figure{fig}"
        old = {}
        if target.exists():
            old = {p.name: p.read_bytes() for p in target.iterdir()}
            shutil.rmtree(target)
        target.mkdir(parents=True)
        print(f"generating golden for figure {fig}")
        rc = main(["figure", fig, "--out", str(target)])
        if rc != 0:
            sys.exit(rc)
        for path in sorted(target.iterdir()):
            line, cells = deviation(old[path.name], path.read_bytes(), path.name) \
                if path.name in old else ("new file", [])
            report.append(f"figure{fig}/{path.name}: {line}")
            listed += [f"figure{fig}/{cell}" for cell in cells]
        report += [f"figure{fig}/{name}: removed" for name in sorted(set(old) - {
            p.name for p in target.iterdir()})]
    print("deviation from the replaced goldens:")
    print("\n".join("  " + line for line in report))
    print(f"cells with relative deviation above {LISTED_REL:g}: {len(listed)}")
    print("\n".join("  " + line for line in listed))
    print("done")
