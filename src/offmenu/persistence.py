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

from typing import Callable

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
        self._dup: dict[tuple, int] = {}
        self._ddown: dict[tuple, int] = {}
        self._delta: dict[tuple, float] = {}

    def partition(self, i: int, t: int) -> RegionPartition | None:
        return self.partitions.get((i, t))

    # -- projection targets -----------------------------------------------------

    def d_up(self, i: int, node: Node, b: int) -> int:
        """Largest marginal-carrier maximizer inside the b-th sub-off interval."""
        key = (i, node.lump, b)
        hit = self._dup.get(key)
        if hit is None:
            part = self.partitions[(i, node.t)]
            lo, hi = part.sub_off[b]
            best, arg = -np.inf, lo
            for j in range(lo, hi + 1):
                z = self.carriers.marginal_carrier(i, node, j)
                if z > best + 1e-15 or abs(z - best) <= 1e-15:
                    if z > best + 1e-15:
                        best = z
                    arg = j
            hit = arg
            self._dup[key] = hit
        return hit

    def d_down(self, i: int, node: Node, e: int) -> int:
        """Largest marginal-carrier minimizer inside the e-th sub-on interval."""
        key = (i, node.lump, e)
        hit = self._ddown.get(key)
        if hit is None:
            part = self.partitions[(i, node.t)]
            lo, hi = part.sub_on[e]
            best, arg = np.inf, lo
            for j in range(lo, hi + 1):
                z = self.carriers.marginal_carrier(i, node, j)
                if z < best - 1e-15 or abs(z - best) <= 1e-15:
                    if z < best - 1e-15:
                        best = z
                    arg = j
            hit = arg
            self._ddown[key] = hit
        return hit

    def project(self, i: int, node: Node, s_idx: int) -> int:
        """Up transform: off-interval states to their maximizers, identity elsewhere."""
        part = self.partitions.get((i, node.t))
        if part is None:
            return s_idx
        kind, k = part.interval_of(s_idx)
        if kind == "off":
            return self.d_up(i, node, k)
        return s_idx

    # -- transformed process ------------------------------------------------------

    def uppt_expectation(self, i: int, node: Node, s_idx: int, L: int,
                         integrand: Callable[[int, int, Node, int, Node], float]) -> float:
        """E[sum over k = t+1..L of integrand(k, us_k, node_k, us_{k-1}, node_{k-1})].

        Each step transitions the (projected) state through the real dynamics
        and then applies the up transform at the arrival period; expected
        histories record obedient actions at the projected states, and other
        agents follow the conjecture the carrier tables were built with.
        """
        if L <= node.t:
            return 0.0
        total = 0.0
        for p, plan in self.carriers.conjecture.plans(i, node):
            total += p * self._uppt_walk(i, node, s_idx, L, integrand, plan)
        return total

    def _uppt_walk(self, i, node, s_idx, L, integrand, plan) -> float:
        if node.t >= L:
            return 0.0
        walker = self.walker
        a_own, a_idx = walker.own_action(i, node, s_idx)
        total = 0.0
        for w, _, br in walker.own_branches(i, node, ((1.0, plan),), a_own):
            child = walker.child_after(i, node, s_idx, a_idx, br)
            inner = 0.0
            for pp, j2 in walker.own_kernel(i, node, s_idx, child):
                us = self.project(i, child, j2)
                inner += pp * (integrand(child.t, us, child, s_idx, node)
                               + self._uppt_walk(i, child, us, L, integrand, plan))
            total += w * inner
        return total

    def _uppt_mc(self, i, node, s_idx, L, integrand, samples, seed) -> float:
        samples = max(1, samples)
        paths = PathSampler(self.walker, i, self.carriers.conjecture.plans(i, node),
                            np.random.default_rng(seed), samples * (1 + 2 * (L - node.t)))
        acc = 0.0
        for _ in range(samples):
            slot = paths.plan()
            cur, s = node, s_idx
            while cur.t < L:
                step = paths.step(slot, cur, s)
                j = paths.transition(cur, s, step)
                child = step.child
                us = step.after[j]
                if us is None:
                    us = step.after[j] = self.project(i, child, step.outcomes[j][1])
                acc += integrand(child.t, us, child, s, cur)
                cur, s = child, us
        return acc / samples

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
        walker = self.walker
        a_own, a_idx = walker.own_action(i, node, s_idx)
        total = 0.0
        plans = self.carriers.conjecture.plans(i, node)
        for w, _, br in walker.own_branches(i, node, plans, a_own):
            child = walker.child_after(i, node, s_idx, a_idx, br)
            for pp, j2 in walker.own_kernel(i, node, s_idx, child):
                us = self.project(i, child, j2)
                total += w * pp * (self.carriers.mg(i, child, us) + self.delta_bar(i, child, us))
        total -= self.carriers.expected_next_mg(i, node, s_idx)
        self._delta[key] = total
        return total

    def total(self, i: int, node: Node, s_idx: int) -> float:
        """Maximum carrier plus accumulated deviation: the payoff-to-go representative."""
        return self.carriers.mg(i, node, s_idx) + self.delta_bar(i, node, s_idx)

    # -- barrier diagnostics ------------------------------------------------------

    def barrier_violations(self, i: int, node: Node, s_idx: int) -> list[tuple[int, int, int]]:
        """Projected-process states strictly inside a sub-off interval but off its target.

        Walks the full projected tree from (s, node); any reachable projected
        state lying in a sub-off interval must equal that interval's
        projection target.  Returns (period, node key, state) triples.
        """
        bad: list[tuple[int, int, int]] = []

        def visit(k: int, us: int, nd: Node, *_prev) -> float:
            part = self.partitions.get((i, k))
            if part is not None:
                kind, b = part.interval_of(us)
                if kind == "off" and us != self.d_up(i, nd, b):
                    bad.append((k, nd.key, us))
            return 0.0

        self.uppt_expectation(i, node, s_idx, self.game.horizon, visit)
        return bad

    def barrier_violations_mc(self, i: int, node: Node, s_idx: int,
                              n_paths: int, seed: int) -> int:
        """Sampled-path version of the barrier check; returns the violation count."""
        def visit(k: int, us: int, nd: Node, *_prev) -> float:
            part = self.partitions.get((i, k))
            if part is not None:
                kind, b = part.interval_of(us)
                if kind == "off" and us != self.d_up(i, nd, b):
                    return 1.0
            return 0.0

        total = self._uppt_mc(i, node, s_idx, self.game.horizon, visit, n_paths, seed)
        return int(round(total * n_paths))
