"""Deterministic report and table exports (JSON + CSV).

Output bytes are a pure function of the report content: keys are sorted,
floats go through repr, newlines are fixed, and nothing embeds timestamps
or environment state.  Non-finite floats in a report are written as the
strings "NaN", "Infinity" and "-Infinity", so failing reports serialize.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .histories import Node, live_cells

__all__ = [
    "report_json_bytes",
    "write_report",
    "write_csv",
    "on_rent_rows",
    "quit_frequency_rows",
    "projection_rows",
    "carrier_rows",
    "mechanism_table_rows",
]

REPORT_SCHEMA_VERSION = 1


def _clean(obj):
    if isinstance(obj, Mapping):
        return {str(k): _clean(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if hasattr(obj, "item"):  # numpy scalars
        obj = obj.item()
    if isinstance(obj, float):
        # JSON has no non-finite numbers; float() reads these strings back
        if math.isnan(obj):
            return "NaN"
        if math.isinf(obj):
            return "Infinity" if obj > 0 else "-Infinity"
        return float(obj)
    return obj


def report_json_bytes(report: Mapping) -> bytes:
    body = {"schema_version": REPORT_SCHEMA_VERSION}
    body.update(_clean(report))
    return (json.dumps(body, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def write_report(report: Mapping, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(report_json_bytes(report))
    return path


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


# -- row builders -------------------------------------------------------------


def on_rent_rows(engine, conjecture, nodes: Sequence[Node]):
    """(agent, period, history-id, state-index, on-rent) per cell."""
    for i, node in live_cells(nodes):
        for s in range(engine.game.grid(i, node.t).points):
            yield (i, node.t, node.key, s, float(engine.on_rent(i, node, s, conjecture)))


def quit_frequency_rows(chi_by_agent: Mapping[int, Mapping[int, float]],
                        empirical: Mapping[tuple[int, int], float] | None = None):
    for i in sorted(chi_by_agent):
        for k in sorted(chi_by_agent[i]):
            emp = None if empirical is None else empirical.get((i, k), 0.0)
            yield (i, k, float(chi_by_agent[i][k]), "" if emp is None else float(emp))


def projection_rows(transforms, nodes: Sequence[Node]):
    """(agent, period, history-id, state-index, up-projected index) per cell."""
    for i, node in live_cells(nodes):
        for s in range(transforms.game.grid(i, node.t).points):
            yield (i, node.t, node.key, s, transforms.project(i, node, s))


def carrier_rows(carriers, nodes: Sequence[Node]):
    """(agent, period, history-id, state-index, cutoff, carrier, max-carrier, marginal)."""
    game = carriers.game
    for i, node in live_cells(nodes):
        for s in range(game.grid(i, node.t).points):
            mg = carriers.mg(i, node, s)
            zeta = carriers.marginal_carrier(i, node, s)
            for L in range(node.t, game.horizon + 1):
                yield (i, node.t, node.key, s, L,
                       float(carriers.carrier(i, node, s, L)), float(mg), float(zeta))


def mechanism_table_rows(engine, nodes: Sequence[Node]):
    """Coupling and posted values keyed by (agent, period, history-id, action-slot)."""
    mech = engine.mechanism
    for i, node in live_cells(nodes):
        menu = engine.walker.menu(i, node)
        if mech.phi.state_dependent():
            m = engine.game.grid(i, node.t).points
            phis = sorted({float(mech.phi.value(i, node, s)) for s in range(m)})
            phi_repr = ";".join(repr(v) for v in phis)
        else:
            phi_repr = repr(float(mech.phi.value(i, node)))
        for pos, a in enumerate(menu.actions):
            rho = float(mech.rho.value_at_slot(i, node, pos, {i: a}))
            yield (i, node.t, node.key, pos, repr(float(a)), repr(rho), phi_repr)
