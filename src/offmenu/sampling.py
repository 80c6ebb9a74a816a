"""Seeded path sampling by inverse CDF on a pre-drawn uniform stream.

``Generator.choice(n, p=p)`` checks ``p``, reads one ``random()`` double u
and returns ``searchsorted(cumsum(p) / cumsum(p)[-1], u, side="right")``.
The samplers make the same draws from the same stream: each distribution's
table is built and checked once, the doubles are drawn in chunks and read
in the order the per-draw ``choice`` calls read them, and a draw is one
bisection.  A given (instance, seed) therefore samples the paths that
per-draw ``choice`` calls sample.

``PathSampler`` walks one agent's paths through the tree.  Its cells are
(plan slot, node, own state, first-step flag).  A cell's step (the others'
branch table and, per drawn branch, its payload, its interned child and
the own-transition table) is built at the first draw that needs it, in the
order a per-draw loop builds it, so nodes are interned in the same order
and every node key stays the same.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Sequence

import numpy as np

from .histories import Node, OppPlan, TreeWalker

__all__ = ["CHUNK", "choice_cdf", "inverse_cdf_draws", "Step", "PathSampler"]

CHUNK = 65_536
_ATOL = math.sqrt(np.finfo(np.float64).eps)


def choice_cdf(p: np.ndarray) -> list[float]:
    """The table ``Generator.choice(len(p), p=p)`` searches, after its checks.

    Raises ``ValueError`` where ``choice`` does: a NaN sum, a negative entry,
    or a sum (Kahan-compensated, as ``choice`` sums) off 1 by more than
    sqrt(eps).
    """
    vals = p.tolist()
    total, comp = vals[0], 0.0
    for v in vals[1:]:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    if math.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if any(v < 0 for v in vals):
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _ATOL:
        raise ValueError("Probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def inverse_cdf_draws(rng: np.random.Generator, expected: int) -> Callable[[list[float]], int]:
    """``draw(cdf)``: the index ``rng.choice`` would return for the next double.

    The doubles come from ``rng.random(k)`` in chunks of at most ``CHUNK``,
    sized by ``expected`` draws; drawing past the last read only advances a
    generator the caller discards.
    """
    def doubles():
        left = expected
        while True:
            k = min(CHUNK, left) if left > 0 else CHUNK
            left -= k
            yield from rng.random(k).tolist()

    uniform = doubles().__next__
    return lambda cdf: bisect_right(cdf, uniform())


class Step:
    """One drawn branch of a cell, kept for every later draw of it.

    ``outcomes``/``cdf`` hold the own-transition table once a transition is
    drawn; ``after`` has one slot per outcome for the caller's own values.
    """

    __slots__ = ("branch", "a_idx", "value", "child", "cdf", "outcomes", "after")

    def __init__(self, branch, a_idx: int, value):
        self.branch = branch
        self.a_idx = a_idx
        self.value = value
        self.child: Node | None = None
        self.cdf: list[float] | None = None
        self.outcomes: Sequence[tuple] | None = None
        self.after: list | None = None


class PathSampler:
    """Seeded paths of agent ``i``: a plan draw, then per period a branch and a transition.

    ``payload(node, s_idx, actions)`` gives a new step's ``value``; own
    transitions come from ``TreeWalker.own_kernel``.  The first action of a
    path is ``a_pos`` on the menu when given, obedient otherwise.
    """

    def __init__(self, walker: TreeWalker, i: int, plans: Sequence[tuple[float, OppPlan]],
                 rng: np.random.Generator, expected: int, a_pos: int | None = None,
                 payload: Callable[[Node, int, dict], object] | None = None):
        self.walker = walker
        self.i = i
        self.a_pos = a_pos
        self.payload = payload
        self.plans = [plan for _, plan in plans]
        self.draw = inverse_cdf_draws(rng, expected)
        probs = np.array([p for p, _ in plans])
        self._plan_cdf = choice_cdf(probs / probs.sum())
        self._cells: dict[tuple, tuple] = {}

    def plan(self) -> int:
        """Draw a plan slot."""
        return self.draw(self._plan_cdf)

    def step(self, slot: int, node: Node, s_idx: int, first: bool = False) -> Step:
        """Draw the others' branch at a cell; ``first`` marks a path's first step."""
        first = first and self.a_pos is not None
        key = (slot, node.key, s_idx, first)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = self._cell(slot, node, s_idx, first)
        cdf, branches, steps, a_own, a_idx = cell
        b = self.draw(cdf)
        step = steps[b]
        if step is None:
            br = branches[b]
            value = None
            if self.payload is not None:
                actions = dict(br.actions)
                actions[self.i] = a_own
                value = self.payload(node, s_idx, actions)
            step = steps[b] = Step(br, a_idx, value)
        return step

    def _cell(self, slot: int, node: Node, s_idx: int, first: bool) -> tuple:
        walker, i = self.walker, self.i
        a_own, a_idx = walker.own_action(i, node, s_idx, self.a_pos if first else None)
        branches = list(walker.other_branches(i, node, self.plans[slot]))
        probs = np.array([b.prob for b in branches])
        return choice_cdf(probs / probs.sum()), branches, [None] * len(branches), a_own, a_idx

    def child(self, node: Node, s_idx: int, step: Step) -> Node:
        """The node after ``step`` (interned on first use)."""
        if step.child is None:
            step.child = self.walker.child_after(self.i, node, s_idx, step.a_idx, step.branch)
        return step.child

    def transition(self, node: Node, s_idx: int, step: Step) -> int:
        """Draw the own transition after ``step``: an index into ``step.outcomes``."""
        if step.cdf is None:
            step.outcomes = self.walker.own_kernel(self.i, node, s_idx, self.child(node, s_idx, step))
            w = np.array([o[0] for o in step.outcomes])
            step.cdf = choice_cdf(w / w.sum())
            step.after = [None] * len(step.outcomes)
        return self.draw(step.cdf)
