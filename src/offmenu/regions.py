"""State-space partitions and the monotone-environment check.

A boundary profile cuts a period grid into sub-off intervals (candidate
quit regions) and their complement on-intervals.  ``detect_monotone``
decides whether the environment is monotone (nondecreasing marginal
carrier plus first-order stochastic dominance of the dynamics, or the
mirror orientation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .carrier import CarrierTables
from .histories import Node, TreeWalker, live_cells
from .mechanism import BoundaryProfile
from .model import BaseGame, GameError, Grid

__all__ = [
    "RegionPartition",
    "PartitionSet",
    "partition_from_boundary",
    "MonotoneReport",
    "detect_monotone",
]


@dataclass(frozen=True)
class RegionPartition:
    """Grid-index view of one period's sub-off / sub-on decomposition.

    ``sub_off``/``sub_on`` are inclusive index ranges; off intervals are
    closed, the on intervals are the maximal complement runs.
    """

    points: int
    sub_off: tuple[tuple[int, int], ...]
    sub_on: tuple[tuple[int, int], ...]

    @property
    def off_indices(self) -> frozenset[int]:
        return frozenset(j for lo, hi in self.sub_off for j in range(lo, hi + 1))

    @property
    def full_cover(self) -> bool:
        return len(self.off_indices) + sum(hi - lo + 1 for lo, hi in self.sub_on) >= self.points

    def interval_of(self, j: int) -> tuple[str, int]:
        """('off', b) or ('on', e) for a grid index; on intervals cover the complement."""
        for b, (lo, hi) in enumerate(self.sub_off):
            if lo <= j <= hi:
                return ("off", b)
        for e, (lo, hi) in enumerate(self.sub_on):
            if lo <= j <= hi:
                return ("on", e)
        raise GameError(f"grid index {j} not covered by the partition")

    def intervals(self) -> list[tuple[int, int, str, int]]:
        """Every interval as (lo, hi, 'off' or 'on', its index), left to right."""
        return sorted([(lo, hi, "off", b) for b, (lo, hi) in enumerate(self.sub_off)]
                      + [(lo, hi, "on", e) for e, (lo, hi) in enumerate(self.sub_on)])

    def global_interval_index(self, j: int) -> int:
        """Position of the covering interval in left-to-right order (knowledgeable keying)."""
        for w, (lo, hi, _, _) in enumerate(self.intervals()):
            if lo <= j <= hi:
                return w
        raise GameError(f"grid index {j} not covered by the partition")


PartitionSet = Mapping[tuple[int, int], RegionPartition]


def partition_from_boundary(grid: Grid, profile: BoundaryProfile) -> RegionPartition:
    """Sub-off intervals from consecutive boundary pairs; complement runs as on-intervals."""
    sub_off: list[tuple[int, int]] = []
    last_hi = -1
    for lo_v, hi_v in profile.pairs:
        lo = grid.index_of(lo_v)
        hi = grid.index_of(hi_v)
        if hi < lo:
            raise GameError(f"disordered boundary pair ({lo_v}, {hi_v})")
        if lo <= last_hi:
            raise GameError("overlapping sub-off intervals in the boundary profile")
        sub_off.append((lo, hi))
        last_hi = hi
    sub_on: list[tuple[int, int]] = []
    covered = sorted(sub_off)
    cursor = 0
    for lo, hi in covered + [(grid.points, grid.points)]:
        if cursor < lo:
            sub_on.append((cursor, lo - 1))
        cursor = max(cursor, hi + 1)
    part = RegionPartition(grid.points, tuple(sub_off), tuple(sub_on))
    if not part.full_cover:
        raise GameError("partition does not cover the grid")
    return part


def off_regions(game: BaseGame, partitions: PartitionSet) -> dict[tuple[int, int], frozenset[int]]:
    """Per-(agent, period) off-region index sets; empty where no partition is given."""
    out: dict[tuple[int, int], frozenset[int]] = {}
    for i in game.agents():
        for t in game.periods():
            part = partitions.get((i, t))
            out[(i, t)] = part.off_indices if part is not None else frozenset()
    return out


def _cdf_matrix(walker: TreeWalker, i: int, node: Node) -> np.ndarray:
    """Rows: current state; columns: running CDF over next-period grid nodes.

    Row j's kernel reads the node's t - 1 records and then the period-t
    record of agent i playing its menu action at state j, the t records a
    transition record at the child after that action reads.
    """
    game = walker.game
    grid = game.grid(i, node.t)
    history = walker.store.history(node)
    rows = []
    for j in range(grid.points):
        record = {i: walker.own_action(i, node, j)[0]}
        probs, _ = game.kernel(i, node.t + 1, grid.value(j), history + (record,))
        rows.append(np.cumsum(probs))
    return np.array(rows)


@dataclass(frozen=True)
class MonotoneReport:
    passed: bool
    orientation: str | None  # "increasing" (nondecreasing zeta, FO-SD) or "decreasing"
    witness: dict | None


def detect_monotone(carriers: CarrierTables, nodes, tol: float = 1e-9) -> MonotoneReport:
    """Grid check of the monotone environment over the supplied nodes.

    Passes when, for one orientation consistently across all cells, the
    marginal carrier is monotone in the state and every next-period CDF
    column is counter-monotone in the current state.
    """
    game = carriers.game
    ok_inc, ok_dec = True, True
    wit_inc = wit_dec = None
    for i, node in live_cells(nodes):
        z = carriers.zeta_profile(i, node)
        for j in range(len(z) - 1):
            if z[j + 1] < z[j] - tol:
                ok_inc = False
                wit_inc = wit_inc or {"kind": "zeta", "agent": i, "node": node.key, "state": j}
            if z[j + 1] > z[j] + tol:
                ok_dec = False
                wit_dec = wit_dec or {"kind": "zeta", "agent": i, "node": node.key, "state": j}
        if node.t >= game.horizon:
            continue
        cdf = _cdf_matrix(carriers.walker, i, node)
        for j in range(cdf.shape[0] - 1):
            for col in range(cdf.shape[1]):
                if cdf[j + 1, col] > cdf[j, col] + tol:
                    ok_inc = False
                    wit_inc = wit_inc or {"kind": "cdf", "agent": i, "node": node.key,
                                          "state": j, "column": col}
                if cdf[j + 1, col] < cdf[j, col] - tol:
                    ok_dec = False
                    wit_dec = wit_dec or {"kind": "cdf", "agent": i, "node": node.key,
                                          "state": j, "column": col}
    if ok_inc:
        return MonotoneReport(True, "increasing", None)
    if ok_dec:
        return MonotoneReport(True, "decreasing", None)
    return MonotoneReport(False, None, wit_inc or wit_dec)
