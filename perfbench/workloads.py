"""The benchmark's workloads: how each scenario file is made from a seed.

Every workload starts from a scenario bundled with offmenu.  The benchmark
writes the scenario it runs to a file, with the workload seed in its
``seed`` field, and hands that file to ``offmenu verify``.  The seed moves
the Monte Carlo streams (the samplers, the barrier check and the
simulation); the exact checks do not depend on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    base: str                        # bundled scenario it starts from
    cli_args: tuple[str, ...]        # extra flags after `verify <file> --out <dir>`
    verdicts: tuple[str, ...]        # verdict names that must be present and pass


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "pair-churn", "pair-churn", (),
            ("off-region-alignment", "raic", "transform-representation", "barrier",
             "fixed-point")),
        Workload(
            "wide-grid", "subscription", (),
            ("oaic", "raic", "flow-c1", "flow-c2", "flow-c3", "transform-representation",
             "envelope", "phi-uniqueness", "fixed-point")),
        # not double-well: its sampled check fails on some seeds (README, "Workloads")
        Workload(
            "mc-obedience", "g2-appendix", ("--mode", "mc", "--checks", "doic", "--samples", "2000"),
            ("oaic", "raic")),
    )
}

WIDE_POINTS = 33


def write_scenario(workload: Workload, seed: int | None, path: Path) -> Path:
    """Write the scenario the workload runs; ``seed`` None keeps the bundled seed."""
    from offmenu.scenario import bundled_scenarios

    raw = json.loads(bundled_scenarios()[workload.base].read_text())
    if workload.name == "wide-grid":
        n = WIDE_POINTS
        raw["name"] = "wide-grid"
        raw["horizon"] = 2
        raw["state_grid"] = {"lo": 0.0, "hi": 1.0, "points": n}   # the action grid follows it
        raw["shocks"] = {"values": [k / (n - 1) for k in range(n)]}
        raw["initial_states"] = [[1.0 / n] * n]
    if seed is not None:
        raw["seed"] = seed
    path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
    return path
