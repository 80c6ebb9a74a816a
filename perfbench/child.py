"""One benchmark operation in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --workdir DIR \
        --mode setup|run|trace --result FILE

Set-up is timed from before ``import offmenu`` to after the scenario file
is written and loaded.  ``setup`` stops there.  ``run`` then times one
``offmenu verify`` through ``offmenu.cli.main`` with nothing attached;
``trace`` does the same with the span recorder installed.  The result,
including the report digest and the verdicts, goes to FILE as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Recorder
from workloads import WORKLOADS, write_scenario

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import offmenu
    import offmenu.cli  # noqa: F401  (the timed run goes through it)
    from offmenu.scenario import load_scenario

    scenario_path = write_scenario(workload, args.seed, args.workdir / "scenario.json")
    load_scenario(scenario_path)
    setup_s = time.perf_counter() - t0
    if Path(offmenu.__file__).resolve().parent != SRC / "offmenu":
        raise SystemExit(f"offmenu was imported from {offmenu.__file__}, not from {SRC}")
    result: dict = {"setup_s": setup_s,
                    "seed": json.loads(scenario_path.read_text())["seed"]}
    if args.mode != "setup":
        result.update(verify(workload, scenario_path, args.workdir / "out", args.mode == "trace"))
    args.result.write_text(json.dumps(result))
    return 0


def verify(workload, scenario_path: Path, out: Path, traced: bool) -> dict:
    from offmenu import cli

    recorder = None
    if traced:
        recorder = Recorder()
        recorder.install()
    argv = ["verify", str(scenario_path), "--out", str(out), *workload.cli_args]
    error = None
    rc = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:
        error = traceback.format_exc()
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    if recorder is not None:
        recorder.uninstall()
    report = out / "report.json"
    verdicts, digest = [], None
    if report.exists():
        body = report.read_bytes()
        digest = hashlib.sha256(body).hexdigest()
        verdicts = [[v["name"], v["passed"]] for v in json.loads(body)["verdicts"]]
    return {
        "rc": rc,
        "error": error,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest,
        "verdicts": verdicts,
        "trace": recorder.summary() if recorder is not None else None,
    }


if __name__ == "__main__":
    raise SystemExit(main())
