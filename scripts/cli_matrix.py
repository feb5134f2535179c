#!/usr/bin/env python3
"""Run a fixed matrix of CLI calls and record what each one did.

    python scripts/cli_matrix.py OUT

OUT must not exist yet.  The script writes the configs of the matrix into
OUT, then runs each call in this process through `lasergrating.cli.main`,
with OUT as the working directory and stdout and stderr captured.  The
package comes from the src/ folder next to this script, put first on
sys.path; if `lasergrating` was imported from anywhere else, the script
stops before any call.  Every --config and --out path is relative, so no
manifest or message names OUT.  Call NAME writes its
files to OUT/NAME/ and its record (argv, exit code, stdout, stderr) to
OUT/NAME.json.  A call named exit-2-* must exit 2, exit-3-* 3 and any other
0; the script exits 1, naming each call that did not, after running them all.

The matrix covers every command and figure in CSV and JSON, sweeps, a
ladder kernel at eta != 1, `--ell all`, `--variant`, `--jobs`, talbot
blocks that span several pieces of the writers, runs that exit 2, and runs
that exit 3 before or after some of their numbers are ready.  To compare
two trees, run this script from each tree and apply `diff -r` to the two
OUT folders.

`summary(OUT)` reduces a run to one record per call: its argv, exit code,
stdout and stderr, the SHA-256 of every file it wrote and, for each CSV,
short digests that locate a difference (one per block of BLOCK_LINES lines,
one per column).  scripts/make_goldens.py commits these records under
tests/goldens/cli_matrix/, and a tier-1 test runs the matrix and compares its
records with them through `first_difference`.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BLOCK_LINES = 64   # CSV lines per located digest
SHORT = 8          # hex digits of a located digest

GRATING = "[grating]\nphi0 = 3.141592653589793\nn0 = 1.0\n"
KDTLI = "[interferometer]\ntalbot_parameter = 3.25\nopen_fraction = 0.42\n"
BEAM = ("[beam]\npower_watt = 1.0\nwaist_y_um = 500\nwaist_z_um = 500\nwavelength_nm = 532\n"
        "polarizability_A3 = 100\ncross_section_A2 = 10\nvelocity_mps = 100\nmass_amu = 840\n")
RABI = "[rabi]\npulse_area_pi = 2.0\ndetuning_tl = 0.0\nlifetime_tl = 1.0\n"

CONFIGS = {
    "beam.cfg": BEAM + "\n[interferometer]\nseparation_mm = 100\nopen_fraction = 0.42\n",
    "beam_kdtli.cfg": BEAM + "\n" + KDTLI.replace("3.25", "2.0"),
    "grating.cfg": GRATING + "\n" + KDTLI,
    "spread.cfg": GRATING + "\n" + KDTLI + "velocity_spread = 0.07\n",
    "talbot.cfg": "[grating]\nphi0 = 3.0\nn0 = 0.95\n\n[talbot]\nj_max = 4\nxi_points = 16\n",
    # blocks of 256 rows, wider than one piece of the writers
    "talbot_wide.cfg": "[grating]\nphi0 = 3.0\nn0 = 0.95\n\n[talbot]\nj_max = 32\n"
                       "xi_points = 256\n",
    "farfield.cfg": "[grating]\nphi0 = 2.5\nn0 = 2.0\n\n[farfield]\nscreen_max = 2.0\n"
                    "screen_points = 401\n",
    "ladder.cfg": GRATING + "\n" + KDTLI + "\n[ladder]\nenvelope = gaussian\nkernel_xi = 0.3\n",
    # eta != 1 puts z != 0 into the Gauss-Legendre rule of the ladder kernel
    "ladder_eta.cfg": GRATING + "eta_p = 1.3\neta_a = 1.7\n\n[ladder]\nenvelope = gaussian\n"
                      "kernel_xi = 0.3\n",
    "rabi.cfg": RABI + "\n[interferometer]\ntalbot_parameter = 2.0\nopen_fraction = 0.1\n",
    "rabi_profile.cfg": RABI,
    "bad_key.cfg": GRATING + "phi_0 = 7\n\n" + KDTLI,
    # exit 3 once the first table is ready: the Rabi factor FFT and the
    # ladder visibility need more than 16384 points
    "rabi_cap.cfg": RABI.replace("2.0", "20000") + "\n[interferometer]\n"
                    "talbot_parameter = 2.0\nopen_fraction = 0.1\n",
    "ladder_cap.cfg": GRATING.replace("3.141592653589793", "1e5") + "\n" + KDTLI,
    # one-point grids: a one-point screen is exit 2, a one-point q grid (D/d
    # below 1/512) exit 3
    "farfield_one_screen_point.cfg": "[grating]\nphi0 = 2.5\nn0 = 2.0\n\n[farfield]\n"
                                     "screen_points = 1\n",
    "farfield_one_q_point.cfg": "[grating]\nphi0 = 2.5\nn0 = 2.0\n\n[farfield]\n"
                                "collimator_ratio = 0.0019\n",
}

SWEEP = ["--sweep", "talbot_parameter=0.5:3:4"]
CALLS = {
    "derive-params": ["derive-params", "--config", "beam.cfg"],
    "derive-params-json": ["derive-params", "--config", "beam.cfg", "--format", "json"],
    "talbot": ["talbot", "--config", "talbot.cfg"],
    "talbot-ell-all": ["talbot", "--config", "talbot.cfg", "--ell", "all"],
    "talbot-ell-all-json": ["talbot", "--config", "talbot.cfg", "--ell", "all",
                            "--format", "json"],
    "talbot-classical": ["talbot", "--config", "talbot.cfg", "--variant", "classical"],
    "talbot-wide-ell-1": ["talbot", "--config", "talbot_wide.cfg", "--ell", "1"],
    "talbot-wide-ell-1-json": ["talbot", "--config", "talbot_wide.cfg", "--ell", "1",
                               "--format", "json"],
    "kdtli": ["kdtli", "--config", "grating.cfg"],
    "kdtli-json": ["kdtli", "--config", "grating.cfg", "--format", "json"],
    "kdtli-spread": ["kdtli", "--config", "spread.cfg"],
    "kdtli-sweep-ell-all": ["kdtli", "--config", "grating.cfg", "--ell", "all", *SWEEP],
    "kdtli-sweep-ell-all-json": ["kdtli", "--config", "grating.cfg", "--ell", "all", *SWEEP,
                                 "--format", "json"],
    "kdtli-sweep-jobs-2": ["kdtli", "--config", "grating.cfg", "--ell", "all", *SWEEP,
                           "--jobs", "2"],
    "kdtli-spread-sweep-jobs-2": ["kdtli", "--config", "spread.cfg", *SWEEP, "--jobs", "2"],
    "kdtli-classical-ell-1": ["kdtli", "--config", "grating.cfg", "--variant", "classical",
                              "--ell", "1"],
    "kdtli-beam-sweep": ["kdtli", "--config", "beam_kdtli.cfg", "--sweep",
                         "beam.velocity_mps=80:120:3"],
    "farfield": ["farfield", "--config", "farfield.cfg"],
    "farfield-json": ["farfield", "--config", "farfield.cfg", "--format", "json"],
    "farfield-ell-all": ["farfield", "--config", "farfield.cfg", "--ell", "all"],
    "farfield-ell-1-json": ["farfield", "--config", "farfield.cfg", "--ell", "1",
                            "--format", "json"],
    "farfield-classical-sum": ["farfield", "--config", "farfield.cfg", "--variant",
                               "classical", "--ell", "sum"],
    "ladder": ["ladder", "--config", "ladder.cfg"],
    "ladder-eta": ["ladder", "--config", "ladder_eta.cfg"],
    "ladder-sweep": ["ladder", "--config", "ladder.cfg", *SWEEP],
    "ladder-sweep-json": ["ladder", "--config", "ladder.cfg", *SWEEP, "--format", "json"],
    "rabi": ["rabi", "--config", "rabi.cfg"],
    "rabi-json": ["rabi", "--config", "rabi.cfg", "--format", "json"],
    "rabi-profile": ["rabi", "--config", "rabi_profile.cfg"],
    **{f"figure-{n}": ["figure", n] for n in ("1", "2", "4", "5", "6")},
    **{f"figure-{n}-json": ["figure", "--format", "json", n] for n in ("1", "2", "4", "5", "6")},
    "exit-2-jobs-0": ["kdtli", "--config", "grating.cfg", "--jobs", "0"],
    "exit-2-talbot-jobs": ["talbot", "--config", "talbot.cfg", "--jobs", "2"],
    "exit-2-bad-key": ["kdtli", "--config", "bad_key.cfg"],
    "exit-2-farfield-one-screen-point": ["farfield", "--config",
                                         "farfield_one_screen_point.cfg"],
    "exit-3-farfield-one-q-point": ["farfield", "--config", "farfield_one_q_point.cfg"],
    "exit-3-rabi-cap": ["rabi", "--config", "rabi_cap.cfg"],
    "exit-3-ladder-cap": ["ladder", "--config", "ladder_cap.cfg", "--sweep",
                          "talbot_parameter=0.5:1:3"],
}


def expected_exit(name: str) -> int:
    return {"exit-2-": 2, "exit-3-": 3}.get(name[:7], 0)


def _short(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:SHORT]


def _csv_locators(data: bytes) -> dict:
    """One short digest per block of BLOCK_LINES lines and, by column name,
    one per column over the data rows (the lines after the '#' metadata and
    the header)."""
    lines = data.splitlines(keepends=True)
    rows = [line.rstrip(b"\n").split(b",") for line in lines if not line.startswith(b"#")]
    header = [name.decode() for name in rows[0]] if rows else []
    return {"blocks": "".join(_short(b"".join(lines[i:i + BLOCK_LINES]))
                              for i in range(0, len(lines), BLOCK_LINES)),
            "columns": {name: _short(b"\n".join(row[k] if k < len(row) else b"-"
                                                for row in rows[1:]))
                        for k, name in enumerate(header)}}


def summary(out: Path) -> dict:
    """{call name: record} of a run of this script into `out`: the call's
    record (argv, exit, stdout, stderr), "files", the SHA-256 of every file
    the call wrote by its path under OUT/NAME, and "csv", the locators of
    every CSV among them."""
    records = {}
    for name in CALLS:
        record = {**json.loads((out / f"{name}.json").read_text()), "files": {}, "csv": {}}
        folder = out / name
        for path in sorted(folder.rglob("*")) if folder.is_dir() else []:
            if path.is_file():
                rel, data = path.relative_to(folder).as_posix(), path.read_bytes()
                record["files"][rel] = hashlib.sha256(data).hexdigest()
                if path.suffix == ".csv":
                    record["csv"][rel] = _csv_locators(data)
        records[name] = record
    return records


def first_difference(old: dict, new: dict):
    """None where two records of one call agree; else one line naming the
    first difference: a field of the call's record, the set of files, or
    the first differing file (by path) and, for a CSV, the lines and the
    column of its first differing cell."""
    for key in ("argv", "exit", "stdout", "stderr"):
        if old[key] != new[key]:
            return f"{key}: {old[key]!r} -> {new[key]!r}"
    if sorted(old["files"]) != sorted(new["files"]):
        return f"files: {sorted(old['files'])} -> {sorted(new['files'])}"
    rel = next((rel for rel in sorted(old["files"]) if old["files"][rel] != new["files"][rel]),
               None)
    if rel is None or rel not in old["csv"]:
        return rel and f"{rel} differs"
    a, b = old["csv"][rel], new["csv"][rel]
    block = next((k for k in range(0, max(len(a["blocks"]), len(b["blocks"])), SHORT)
                  if a["blocks"][k:k + SHORT] != b["blocks"][k:k + SHORT]), 0) // SHORT
    column = next((c for c, d in a["columns"].items() if b["columns"].get(c) != d), None)
    return (f"{rel}: first differing cell in lines {block * BLOCK_LINES + 1}-"
            f"{(block + 1) * BLOCK_LINES}" + (f", column {column!r}" if column else ""))


def _cli():
    """lasergrating.cli of the src/ folder next to this script."""
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    from lasergrating import cli
    if SRC not in Path(cli.__file__).resolve().parents:
        sys.exit(f"lasergrating was imported from {cli.__file__}, not from {SRC}")
    return cli


def run(cli, argv, cwd: Path) -> dict:
    """The record of `lasergrating *argv` run by cli.main in this process
    with `cwd` as the working directory: argv, exit code (main's return
    value, or the code of the SystemExit that argparse raises), stdout and
    stderr."""
    stdout, stderr, home = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(home)
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()}


def main(out: Path) -> int:
    """Run every call of CALLS into `out`; 1 if any exit code is not the
    expected one, else 0."""
    cli = _cli()
    out.mkdir(parents=True)
    for name, text in CONFIGS.items():
        (out / name).write_text(text)
    wrong = []
    for name, argv in CALLS.items():
        record = run(cli, [*argv, "--out", name], out)
        (out / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n")
        print(f"{record['exit']} {name}")
        if record["exit"] != expected_exit(name):
            wrong.append(f"{name} (exit {record['exit']}, expected {expected_exit(name)})")
    if wrong:
        print("unexpected exit codes: " + ", ".join(wrong), file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(Path(sys.argv[1])))
