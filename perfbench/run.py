"""Benchmark for `offmenu verify`: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload pair-churn|wide-grid|mc-obedience|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; the package is imported from its
``src``.  The loop is closed with one client: each operation is one
``offmenu verify`` in a fresh process (``child.py``), started after the
previous one ended.  No threads, no parallel processes.

``--trace 0`` first times set-up (import offmenu, write and load the
scenario) in several set-up-only processes, then runs timed operations
until the next one would end after ``--seconds``.  It reports
the medians of ``setup_s``, ``wall_s``, ``cpu_s`` and ``peak_rss_mb``.

``--trace 1`` runs one untraced operation and then traced ones (at least
two, so counts can be compared) and reports the per-layer metrics named
in BENCHMARK.json as medians over the traced operations, with the tracing
overhead.  The spans go to ``perfbench/out/trace-<workload>-seed<seed>.json``.

Every operation is checked: exit code 0, every expected verdict present
and passing, and the same report.json digest in every operation of the
run.  The last line printed is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where an operation is
one verify run or one expected verdict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
MIN_TRACED = 2
DEADLINE_S = 170.0   # one invocation must end within 180 s

sys.path.insert(0, str(HERE))
from tracer import COUNTS, TABLE_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    """Nothing could be measured: set-up failed, or no operation completed."""


def child(workload: str, seed: int | None, mode: str, workdir: Path, n: int,
          timeout: float) -> dict | None:
    """Run one operation; its result dict, or None if the process failed."""
    result = workdir / f"result-{n}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--workdir", str(workdir), "--mode", mode, "--result", str(result)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
        problem = None if proc.returncode == 0 and result.exists() else (
            f"exited {proc.returncode}: " + "\n".join(proc.stderr.strip().splitlines()[-5:]))
    except subprocess.TimeoutExpired:
        problem = f"timed out after {timeout:.0f} s"
    if problem is not None:
        if mode == "setup":
            raise BenchError(f"set-up {problem}")
        print(f"  {mode} operation {n} {problem}", file=sys.stderr)
        return None
    out = json.loads(result.read_text())
    shutil.rmtree(workdir / "out", ignore_errors=True)
    return out


def run_workload(name: str, seed: int | None, seconds: float, trace: bool,
                 spec: dict) -> dict:
    workload = WORKLOADS[name]
    start = time.perf_counter()
    workdir = OUT / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # a traced run needs one set-up only to fail fast when the program is missing
        setups = [child(name, seed, "setup", workdir, n, DEADLINE_S)["setup_s"]
                  for n in range(1 if trace else SETUP_PROBES)]
        ops: list[tuple[str, dict | None]] = []
        modes = ["run"] + ["trace"] * MIN_TRACED if trace else ["run"]
        loop_start = time.perf_counter()
        durations: list[float] = []
        n = len(setups)
        while True:
            mode = modes[len(ops)] if len(ops) < len(modes) else modes[-1]
            remaining = DEADLINE_S - (time.perf_counter() - start)
            t0 = time.perf_counter()
            ops.append((mode, child(name, seed, mode, workdir, n, remaining)))
            n += 1
            if mode == modes[-1]:
                durations.append(time.perf_counter() - t0)
            now = time.perf_counter()
            guess = statistics.median(durations) if durations else now - t0
            if now - start + guess > DEADLINE_S:
                break
            if len(ops) >= len(modes) and now - loop_start + guess > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return evaluate(workload, trace, setups, ops, spec)


def evaluate(workload, trace: bool, setups: list[float],
             ops: list[tuple[str, dict | None]], spec: dict) -> dict:
    attempted = failed = 0
    digests = set()
    for n, (mode, op) in enumerate(ops, 1):
        attempted += 1 + len(workload.verdicts)
        if op is None:
            failed += 1 + len(workload.verdicts)
            digests.add(None)
            continue
        got = dict(op["verdicts"])
        missing = [v for v in workload.verdicts if not got.get(v)]
        failed += len(missing) + (op["rc"] != 0 or op["error"] is not None)
        digests.add(op["digest"])
        print(f"  {mode} {n}: wall {op['wall_s']:.3f} s, cpu {op['cpu_s']:.3f} s, "
              f"peak rss {op['peak_rss_mb']:.1f} MB, exit {op['rc']}, "
              f"verdicts {len(workload.verdicts) - len(missing)}/{len(workload.verdicts)} passed")
        if op["error"]:
            print(op["error"], file=sys.stderr)
        if missing:
            print(f"  failed or missing verdicts: {', '.join(missing)}")
    correct = failed == 0 and len(digests) == 1 and None not in digests
    done = [op for _, op in ops if op is not None]
    if done:
        report_digest(workload.name, done[0]["seed"], digests)
    untraced = [op for mode, op in ops if mode == "run" and op is not None]
    traced = [op for mode, op in ops if mode == "trace" and op is not None]
    if trace:
        values = per_layer(untraced, traced)
        write_trace(workload.name, done[0]["seed"], traced)
        wanted = spec["per_layer"]
    else:
        if not untraced:
            raise BenchError("no timed operation completed")
        setups = setups + [op["setup_s"] for op in done]
        print(f"  samples: {len(setups)} set-up, {len(untraced)} timed")
        values = {"setup_s": statistics.median(setups)}
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            values[key] = statistics.median([op[key] for op in untraced])
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def report_digest(name: str, seed: int, digests: set) -> None:
    """Print the report digest against the one recorded for this workload and seed."""
    if len(digests) != 1 or None in digests:
        print(f"  report.json digests differ between operations: {sorted(map(str, digests))}")
        return
    digest = next(iter(digests))
    recorded = json.loads((HERE / "digests.json").read_text()).get(name, {})
    expected = recorded.get(str(seed))
    if expected is None:
        note = "no digest recorded for this seed"
    elif expected == digest:
        note = "matches the recorded digest"
    else:
        note = f"differs from the recorded {expected}: the output bytes moved"
    print(f"  report.json sha256 {digest} ({note})")


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    """Medians over traced operations; counts that differ between them are flagged."""
    if not traced:
        raise BenchError("no traced operation completed")
    layers = [op["trace"]["metrics"] for op in traced]
    counts = COUNTS + TABLE_NAMES
    values = {k: (statistics.median_low if k in counts else statistics.median)(
        [m[k] for m in layers]) for k in layers[0]}
    non_repeating = 0
    for key in counts:
        seen = [m[key] for m in layers]
        if min(seen) != max(seen):
            non_repeating += 1
            print(f"  NON-REPEATING {key}: {min(seen)}..{max(seen)} over {len(seen)} traced runs "
                  f"({', '.join(map(str, seen))})")
    values["counts.non_repeating"] = non_repeating
    values["trace.wall_s"] = statistics.median([op["wall_s"] for op in traced])
    base = statistics.median([op["wall_s"] for op in untraced]) if untraced else math.nan
    values["trace.overhead_s"] = values["trace.wall_s"] - base
    print(f"  tracing overhead: traced {values['trace.wall_s']:.3f} s - untraced {base:.3f} s")
    first = traced[0]["trace"]["entries"]
    print(f"  {'span':<36}{'calls':>7}{'incl s':>9}{'self s':>9}  memo entries added (self)")
    for span, row in first.items():
        m = traced[0]["trace"]["metrics"]
        added = ", ".join(f"{k.split('.')[-1].removesuffix('_entries')} {v}"
                          for k, v in row["added_self"].items() if v)
        print(f"  {span:<36}{row['calls']:>7}{m[span + '_s']:>9.3f}{m[span + '_self_s']:>9.3f}"
              f"  {added}")
    return values


def write_trace(name: str, seed: int, traced: list[dict]) -> None:
    path = OUT / f"trace-{name}-seed{seed}.json"
    runs = [{"trace_id": k, "wall_s": op["wall_s"], **op["trace"]} for k, op in enumerate(traced)]
    path.write_text(json.dumps({"workload": name, "seed": seed,
                                "span_fields": ["id", "parent", "name", "start", "end"],
                                "runs": runs}) + "\n")
    print(f"  spans written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed written into the scenario (default: the bundled seed)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "offmenu" / "__init__.py").is_file():
        print(f"error: no offmenu package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        print(f"workload {name}, seed {args.seed if args.seed is not None else 'bundled'}, "
              f"trace {args.trace}")
        try:
            results[name] = run_workload(name, args.seed, seconds, bool(args.trace), spec)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for metric, v in results[name]["metrics"].items():
            print(f"  {metric} = {v['value']} {v['unit']}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
