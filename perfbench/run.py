"""Benchmark of the lasergrating CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is taken from its
src/ directory.
A run repeats whole rounds of its workload's commands (workloads.py) until
the next round would end after S seconds; it runs at least one round, and
with --trace 1 at least one untraced and one traced round.  Each command
runs as its own process with one BLAS thread; all of a round's commands
run one after another, and their outputs are checked (checks.py) after the
last one ends, outside the timed span.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  One operation is one command; it
fails when it exits non-zero or its outputs fail their check.  `correct`
is false when an operation fails that is not a known fault.

End-to-end metrics (--trace 0), medians over the run's rounds:
  wall_s       start of a round's first command to the end of its last
  cpu_s        user + system CPU of the round's processes, pool workers included
  peak_rss_mb  largest peak resident set of any process of the round (MiB),
               as each command reports it for itself and its pool workers
  setup_s      interpreter start and `import lasergrating.cli`, summed over a
               round's processes: their count times the median over the run
Per-layer metrics (--trace 1) come from the traced rounds; see README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
COMMAND_TIMEOUT = 150.0
ROUND_OVERHEAD = 0.5  # seconds to hash a round's outputs and clean up
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIB = 2.0 ** 20

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "specfun.self_s": "s", "specfun.calls": "count", "specfun.elements": "count",
    "talbot.self_s": "s", "talbot.source_calls": "count",
    "nearfield.self_s": "s", "nearfield.signals": "count",
    "dynamics.self_s": "s", "dynamics.kernel_pairs": "count",
    "dynamics.line_hit_ratio": "ratio",
    "rabi.self_s": "s", "rabi.pairs": "count",
    "ode.self_s": "s", "ode.nfev": "count", "ode.steps": "count", "ode.stored_mb": "MB",
    "farfield.self_s": "s", "farfield.densities": "count", "farfield.matrix_mb": "MB",
    "output.self_s": "s", "output.mb_per_s": "MB/s",
    "cli.self_s": "s", "cli.pool_s": "s",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# one command
# ---------------------------------------------------------------------------

def launch(op, out_dir: Path, run_dir: Path, trace_path: Path | None) -> dict:
    """Run one command to its end; its wall, CPU, peak RSS and set-up time."""
    stamp = run_dir / f"{op.name}.stamp"
    stderr_path = run_dir / f"{op.name}.stderr"
    env = {k: v for k, v in os.environ.items() if not k.startswith("PERFBENCH_")}
    env.update({k: "1" for k in BLAS_ENV})
    env.update(PYTHONPATH=str(SRC), PERFBENCH_STAMP=str(stamp))
    if trace_path is not None:
        env["PERFBENCH_TRACE"] = str(trace_path)
    cmd = [sys.executable, str(HERE / "launch.py"), *op.argv, "--out", str(out_dir)]
    with open(stderr_path, "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env,
                                cwd=ROOT)
        guard = threading.Timer(COMMAND_TIMEOUT, proc.kill)
        guard.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            guard.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        report = json.loads(stamp.read_text())
    except (OSError, ValueError):
        report = {}  # the process died before it could write its stamp
    setup = report["ready"] - start if "ready" in report else None
    peak_kib = report.get("peak_rss_kib") or usage.ru_maxrss
    return {"rc": proc.returncode, "wall_s": end - start,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": peak_kib * 1024 / MIB, "setup_s": setup,
            "stderr": stderr_path.read_text()[-2000:]}


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(out_dir)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _problems(op, out_dir: Path, res: dict, verdicts: dict) -> list:
    """Problems of one command's outputs.  The outputs of a command are
    byte-identical from run to run, so the full check runs on the first
    round only; a later round must reproduce the checked bytes."""
    if res["rc"] != 0:
        return [f"exit code {res['rc']}: {res['stderr'].strip()[-500:]}"]
    digest = _digest(out_dir)
    if op.name in verdicts:
        first, problems = verdicts[op.name]
        return problems if digest == first else \
            problems + ["outputs differ from the bytes checked in the first round"]
    try:
        problems = op.check(out_dir)
    except Exception as exc:  # a check that cannot read the outputs fails the op
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    verdicts[op.name] = (digest, problems)
    return problems


def run_round(ops, round_dir: Path, run_dir: Path, traced: bool, verdicts=None) -> dict:
    """Run every command of a round, then check their outputs."""
    shutil.rmtree(round_dir, ignore_errors=True)
    round_dir.mkdir(parents=True)
    verdicts = {} if verdicts is None else verdicts
    traces, results = [], []
    start = time.monotonic()
    for op in ops:
        trace_path = round_dir / f"{op.name}.trace.npz" if traced else None
        results.append(launch(op, round_dir / op.name, run_dir, trace_path))
        if trace_path is not None and trace_path.exists():
            traces.append(trace_path)
    wall = time.monotonic() - start
    failures = {}
    for op, res in zip(ops, results):
        problems = _problems(op, round_dir / op.name, res, verdicts)
        if problems:
            failures[op.name] = problems
    layers = layer_metrics(traces) if traced else None
    shutil.rmtree(round_dir, ignore_errors=True)
    return {"traced": traced, "wall_s": wall,
            "cpu_s": sum(r["cpu_s"] for r in results),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
            "setups": [r["setup_s"] for r in results if r["setup_s"] is not None],
            "commands": {op.name: round(r["wall_s"], 4) for op, r in zip(ops, results)},
            "failures": failures, "layers": layers}


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def layer_metrics(trace_files) -> dict:
    """Per-layer metrics summed over the processes of one round."""
    out = defaultdict(float)
    line_hits, line_calls, out_bytes, out_time = 0, 0, 0, 0.0
    for path in trace_files:
        with np.load(path) as d:
            names = [str(n) for n in d["names"]]
            name, parent, proc = d["name"], d["parent"], d["proc"]
            dur = d["end"] - d["start"]
            work = d["work"]
            extra = list(zip(d["extra_span"], d["extra_key"], d["extra_value"]))
        if name.size == 0:
            continue
        layer_of = np.array([n.split(".")[0] for n in names])
        layer = layer_of[name]
        label = np.array(names)[name]
        # self time: the span minus its children in the same process
        child = np.zeros(name.size)
        linked = parent >= 0
        same = linked & (proc[np.maximum(parent, 0)] == proc)
        np.add.at(child, parent[same], dur[same])
        self_t = dur - child
        for lay in np.unique(layer):
            mask = layer == lay
            if lay == "cli":
                mask &= label != "cli.run_pool"
            out[f"{lay}.self_s"] += float(self_t[mask].sum())
        outer = ~linked | (layer[np.maximum(parent, 0)] != layer)
        spec = (layer == "specfun") & outer
        out["specfun.calls"] += int(spec.sum())
        out["specfun.elements"] += int(work[spec].sum())
        out["talbot.source_calls"] += int((label == "talbot.source").sum())
        out["nearfield.signals"] += int(np.isin(label, ["nearfield.kdtli_signal",
                                                        "nearfield.sinusoidal_visibility"]).sum())
        out["dynamics.kernel_pairs"] += int(work[label == "dynamics.evaluator"].sum())
        out["rabi.pairs"] += int(work[label == "rabi.solve_pairs"].sum())
        out["farfield.densities"] += int((label == "farfield.farfield_density").sum())
        out["cli.pool_s"] += float(dur[label == "cli.run_pool"].sum())
        writes = (layer == "output") & np.char.startswith(label.astype(str), "output.write_")
        out_bytes += int(work[writes].sum())
        out_time += float(dur[writes].sum())
        for _, key, value in extra:
            key, value = str(key), int(value)
            if key == "line_hit":
                line_hits += value
                line_calls += 1
            elif key in ("nfev", "steps"):
                out[f"ode.{key}"] += value
            elif key == "stored_bytes":
                out["ode.stored_mb"] = max(out["ode.stored_mb"], value / MIB)
            elif key == "matrix_bytes":
                out["farfield.matrix_mb"] = max(out["farfield.matrix_mb"], value / MIB)
    out["dynamics.line_hit_ratio"] = line_hits / line_calls if line_calls else 0.0
    out["output.mb_per_s"] = out_bytes / MIB / out_time if out_time > 0 else 0.0
    return {k: float(out.get(k, 0.0)) for k in PER_LAYER if k != "trace.overhead_s"}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "configs").mkdir(parents=True)
    ops = WORKLOADS[workload](seed, run_dir / "configs")
    rounds, verdicts = [], {}
    start = time.monotonic()
    try:
        while True:
            traced = trace and len(rounds) % 2 == 1
            rounds.append(run_round(ops, run_dir / "round", run_dir, traced, verdicts))
            elapsed = time.monotonic() - start
            # a later round costs its commands and a hash of their outputs
            upcoming = statistics.median(r["wall_s"] for r in rounds) + ROUND_OVERHEAD
            if len(rounds) >= (2 if trace else 1) and elapsed + upcoming > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    known = {op.name for op in ops if op.known_fault}
    failures = [(i, name, problems) for i, r in enumerate(rounds)
                for name, problems in r["failures"].items()]
    for i, name, problems in failures:
        tag = "known fault" if name in known else "FAILED"
        print(f"round {i} {name}: {tag}: " + "; ".join(problems)[:2000], file=sys.stderr)
    untraced = [r for r in rounds if not r["traced"]]
    if trace:
        traced = [r for r in rounds if r["traced"]]
        metrics = {k: _metric(statistics.median(r["layers"][k] for r in traced), u)
                   for k, u in PER_LAYER.items() if k != "trace.overhead_s"}
        metrics["trace.overhead_s"] = _metric(
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in untraced), "s")
    else:
        setups = [s for r in rounds for s in r["setups"]]
        values = {"wall_s": statistics.median(r["wall_s"] for r in rounds),
                  "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
                  "setup_s": len(ops) * statistics.median(setups)}
        metrics = {k: _metric(values[k], u) for k, u in END_TO_END.items()}
    result = {"correct": all(name in known for _, name, _ in failures),
              "attempted": len(ops) * len(rounds), "failed": len(failures),
              "metrics": metrics}
    return result, rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lasergrating" / "cli.py").is_file():
        print(f"no lasergrating source under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    result, rounds = run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = json.dumps(result)
    details = {"workload": args.workload, "seed": args.seed, "result": result,
               "rounds": [dict({k: v for k, v in r.items() if k != "failures"},
                               failed=sorted(r["failures"])) for r in rounds]}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
