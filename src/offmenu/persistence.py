"""Projection operator and the transformed (transition-then-project) process.

Each sub-off interval acts as a reflecting interval: states realized inside
it are projected to the interval's marginal-carrier maximizer (largest one
on ties), states outside are left alone.

The transformed process transitions first and projects second, step by
step; its accumulated deviation sums, per step, the maximum carrier at the
projected state minus the ordinary (non-projected) one-step expectation
from the previous projected state.  With an empty off region every
projection is the identity and the accumulated deviation is exactly zero.
The barrier diagnostics walk (or sample) the projected process and report
states inside a sub-off interval that are off its projection target.
"""

from __future__ import annotations

import numpy as np

from .carrier import CarrierTables
from .histories import Node
from .regions import PartitionSet, RegionPartition
from .sampling import PathSampler

__all__ = ["PersistenceTransforms"]


class PersistenceTransforms:
    def __init__(self, carriers: CarrierTables, partitions: PartitionSet):
        self.carriers = carriers
        self.walker = carriers.walker
        self.game = carriers.game
        self.partitions = dict(partitions)
        self._targets: dict[tuple, int] = {}
        self._delta: dict[tuple, float] = {}

    def partition(self, i: int, t: int) -> RegionPartition | None:
        return self.partitions.get((i, t))

    # -- projection targets -----------------------------------------------------

    def d_up(self, i: int, node: Node, b: int) -> int:
        """Largest marginal-carrier maximizer inside the b-th sub-off interval."""
        return self._target(i, node, "off", b)

    def d_down(self, i: int, node: Node, e: int) -> int:
        """Largest marginal-carrier minimizer inside the e-th sub-on interval."""
        return self._target(i, node, "on", e)

    def interval_targets(self, i: int, node: Node) -> list[int]:
        """Projection target of every partition interval, left to right
        (``RegionPartition.intervals`` order): ``d_up`` of an off interval,
        ``d_down`` of an on interval."""
        return [self._target(i, node, kind, k)
                for _, _, kind, k in self.partitions[(i, node.t)].intervals()]

    def _target(self, i: int, node: Node, kind: str, k: int) -> int:
        """Largest maximizer, within 1e-15 ties, of the marginal carrier over
        the k-th off interval, or of its negation over the k-th on interval."""
        key = (i, node.lump, kind, k)
        hit = self._targets.get(key)
        if hit is None:
            part = self.partitions[(i, node.t)]
            lo, hi = part.sub_off[k] if kind == "off" else part.sub_on[k]
            sign = 1.0 if kind == "off" else -1.0   # negation is exact: ties are kept
            best, hit = -np.inf, lo
            for j in range(lo, hi + 1):
                z = sign * self.carriers.marginal_carrier(i, node, j)
                if z > best + 1e-15:
                    best, hit = z, j
                elif abs(z - best) <= 1e-15:
                    hit = j
            self._targets[key] = hit
        return hit

    def project(self, i: int, node: Node, s_idx: int) -> int:
        """Up transform: off-interval states to their maximizers, identity elsewhere."""
        part = self.partitions.get((i, node.t))
        if part is None:
            return s_idx
        kind, k = part.interval_of(s_idx)
        if kind == "off":
            return self._target(i, node, kind, k)
        return s_idx

    # -- accumulated deviation ------------------------------------------------------

    def delta_bar(self, i: int, node: Node, s_idx: int) -> float:
        """Accumulated deviation of the projected process' sampled maximum carriers.

        Recursive form of the transformed-process expectation of the per-step
        deviations: maximum carrier at the projected arrival state minus the
        non-projected one-step expectation from the previous projected state.
        Zero at the final period and, exactly, whenever every projection is
        the identity.
        """
        if node.t >= self.game.horizon:
            return 0.0
        key = (i, node.lump, s_idx)
        hit = self._delta.get(key)
        if hit is not None:
            return hit
        total = 0.0
        plans = self.carriers.conjecture.plans(i, node)
        for w, child, j2 in self.walker.next_states(i, node, s_idx, plans):
            us = self.project(i, child, j2)
            total += w * (self.carriers.mg(i, child, us) + self.delta_bar(i, child, us))
        total -= self.carriers.expected_next_mg(i, node, s_idx)
        self._delta[key] = total
        return total

    def total(self, i: int, node: Node, s_idx: int) -> float:
        """Maximum carrier plus accumulated deviation: the payoff-to-go representative."""
        return self.carriers.mg(i, node, s_idx) + self.delta_bar(i, node, s_idx)

    # -- barrier diagnostics ------------------------------------------------------

    def _violates(self, i: int, node: Node, us: int) -> bool:
        """Is the projected state ``us`` inside a sub-off interval but off its target?"""
        part = self.partitions.get((i, node.t))
        if part is None:
            return False
        kind, b = part.interval_of(us)
        return kind == "off" and us != self.d_up(i, node, b)

    def barrier_violations(self, i: int, node: Node, s_idx: int) -> list[tuple[int, int, int]]:
        """Projected-process states strictly inside a sub-off interval but off its target.

        Walks the full projected tree from (s, node) to the horizon: each step
        transitions the projected state through the real dynamics and then
        applies the up transform at the arrival period, with obedient actions
        and the others following the carriers' conjecture.  Returns
        (period, node key, state) triples.
        """
        bad: list[tuple[int, int, int]] = []
        for _, plan in self.carriers.conjecture.plans(i, node):
            self._barrier_walk(i, node, s_idx, plan, bad)
        return bad

    def _barrier_walk(self, i, node, s_idx, plan, bad) -> None:
        if node.t >= self.game.horizon:
            return
        for _, child, j2 in self.walker.next_states(i, node, s_idx, ((1.0, plan),)):
            us = self.project(i, child, j2)
            if self._violates(i, child, us):
                bad.append((child.t, child.key, us))
            self._barrier_walk(i, child, us, plan, bad)

    def barrier_violations_mc(self, i: int, node: Node, s_idx: int,
                              n_paths: int, seed: int) -> int:
        """Sampled-path version of the barrier check; returns the violation count."""
        def after(child: Node, s2: int) -> tuple[int, float]:
            us = self.project(i, child, s2)
            return us, float(self._violates(i, child, us))

        paths = PathSampler(self.walker, i, node, s_idx, self.carriers.conjecture.plans(i, node),
                            max(0, self.game.horizon - node.t), after)
        count = 0
        for _, flags in paths.walk(np.random.default_rng(seed), n_paths):
            count += int(np.count_nonzero(flags))
        return count
