#!/usr/bin/env python3
"""Regenerate the committed figure goldens used by the acceptance regression,
and the digests of the CLI matrix checked by tier-1.

Run only after the physics criteria (1-9) pass; the goldens are derived
artifacts, never hand-edited.  From the repository root:

    PYTHONPATH=src python scripts/make_goldens.py [MATRIX_OUT]

The figure goldens are the output of `lasergrating figure N`.  The matrix
digests in tests/goldens/cli_matrix/ (one record per call of
scripts/cli_matrix.py, see its `summary`) come from MATRIX_OUT, the folder of
an earlier `scripts/cli_matrix.py MATRIX_OUT` run (of another tree, say, whose
bytes this one must reproduce), or else from a new run of this tree; each
call is reported "identical" or with its first difference from the record
it replaces.

For every file it prints how the new golden deviates from the one it
replaces: "identical", or the largest absolute and relative deviation over
the numeric cells of a CSV (relative to the larger magnitude of the two
values), or "differs" for any other file.  Every cell whose relative
deviation exceeds LISTED_REL (a physics change rather than round-off,
unless justified against a reference) is then listed with its file, row key
(the cells left of it, by column name), old value and new value.

No route calls BLAS, so the bytes depend neither on the OpenBLAS kernel nor
on its thread count, but they are tied to the numpy build that made them and
to the SIMD level numpy dispatches to on the CPU; CHANGES.md records both.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import cli_matrix
from lasergrating.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "goldens"
MATRIX = GOLDEN / "cli_matrix"
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


def matrix_goldens(out: Path) -> list[str]:
    """Replace the records in MATRIX by those of the matrix run in `out`; one
    report line per call."""
    old = {p.stem: json.loads(p.read_text()) for p in MATRIX.glob("*.json")}
    shutil.rmtree(MATRIX, ignore_errors=True)
    MATRIX.mkdir(parents=True)
    report = []
    for name, record in cli_matrix.summary(out).items():
        (MATRIX / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
        diff = cli_matrix.first_difference(old[name], record) if name in old else "new call"
        report.append(f"cli_matrix/{name}: {diff or 'identical'}")
    return report + [f"cli_matrix/{name}: removed" for name in sorted(set(old) - set(
        cli_matrix.CALLS))]


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit(__doc__)
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
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(sys.argv[1]) if len(sys.argv) == 2 else Path(tmp) / "out"
        print(f"cli matrix digests from {out}")
        if len(sys.argv) == 1 and cli_matrix.main(out) != 0:
            sys.exit(1)
        report += matrix_goldens(out)
    print("deviation from the replaced goldens:")
    print("\n".join("  " + line for line in report))
    print(f"cells with relative deviation above {LISTED_REL:g}: {len(listed)}")
    print("\n".join("  " + line for line in listed))
    print("done")
