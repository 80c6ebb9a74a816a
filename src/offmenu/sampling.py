"""Seeded path sampling by inverse CDF on a pre-drawn uniform stream.

``Generator.choice(n, p=p)`` checks ``p``, reads one ``random()`` double u
and returns ``searchsorted(cumsum(p) / cumsum(p)[-1], u, side="right")``.
The samplers make the same draws from the same stream: each distribution's
table is built and checked once, the doubles are drawn in chunks of at most
``CHUNK`` and read in the order the per-draw ``choice`` calls read them.  A
draw's index is ``bisect_right(cdf, u)``, which is also the number of table
entries at most u.  A given (instance, seed) therefore samples the paths
that per-draw ``choice`` calls sample.

``PathSampler`` walks one agent's paths from one cell (node, own state).
Every path reads the same number w of doubles: a plan, then per period a
branch and, before the horizon, an own transition.  So path p reads doubles
[p*w, (p+1)*w) of the stream, and a block of paths is a (paths x w) slice
of it.  The sampler's cells are (plan slot, node, own state, first-step
flag).  A cell's branch table and, per drawn branch, its payload, child,
own-transition table and per-outcome ``after`` values are built at the
first draw that needs them, in the order a per-draw loop builds them, so
nodes are interned in the same order and every node key stays the same.

Builds happen in a scalar walk, one path at a time.  Once ``QUIET`` paths in
a row have built nothing, paths go in blocks that double in size, over
integer-indexed copies of the built tables: each period of a block is a
handful of whole-array operations, whatever the number of cells.  A block
stops at its first path that needs a build; that path goes back to the
scalar walk.  ``walk`` yields per-path arrays in path order, so a caller
that adds them up in that order (an accumulate, never a pairwise ``sum``)
gets the sums a per-path loop gets, bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from .histories import Node, OppPlan, TreeWalker

__all__ = ["CHUNK", "choice_cdf", "inverse_cdf_draws", "PathSampler"]

CHUNK = 65_536        # most doubles drawn from the generator at once
QUIET = 64            # scalar paths in a row that build nothing before blocks start
FIRST_BLOCK = 64      # paths in the first block; each next block doubles ...
MAX_BLOCK = 1_024     # ... up to this many paths
FLOATS = 1_024        # doubles ``inverse_cdf_draws`` turns into Python floats at once
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


def _chunk_sizes(expected: int) -> Iterator[int]:
    """Sizes of the ``rng.random`` requests for ``expected`` doubles: at most
    ``CHUNK`` each; reading past them only advances a generator the caller
    discards."""
    left = expected
    while True:
        k = min(CHUNK, left) if left > 0 else CHUNK
        left -= k
        yield k


def inverse_cdf_draws(rng: np.random.Generator, expected: int) -> Callable[[list[float]], int]:
    """``draw(cdf)``: the index ``rng.choice`` would return for the next double,
    ``expected`` draws sizing the chunks."""
    def doubles():
        for k in _chunk_sizes(expected):
            chunk = rng.random(k)
            for lo in range(0, k, FLOATS):   # a chunk of Python floats would outsize its array
                yield from chunk[lo:lo + FLOATS].tolist()

    uniform = doubles().__next__
    return lambda cdf: bisect_right(cdf, uniform())


class _Stream:
    """``rng``'s doubles, drawn in ``_chunk_sizes`` and read by position:
    ``peek`` then ``skip``."""

    def __init__(self, rng: np.random.Generator, expected: int):
        self._rng = rng
        self._sizes = _chunk_sizes(expected)
        self._buf = np.empty(0)
        self._pos = 0

    def peek(self, k: int) -> np.ndarray:
        """The next ``k`` doubles, not yet consumed."""
        while len(self._buf) - self._pos < k:
            more = self._rng.random(next(self._sizes))
            self._buf = np.concatenate((self._buf[self._pos:], more))
            self._pos = 0
        return self._buf[self._pos:self._pos + k]

    def skip(self, k: int) -> None:
        self._pos += k


def _count_le(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per path, the entries of its (``+inf``-padded) CDF row at most its double:
    ``bisect_right`` of the row."""
    return (rows <= u[:, None]).sum(axis=1)


def _matrix(flat: list[float], rows: int, width: int) -> np.ndarray:
    return np.array(flat, dtype=float).reshape(rows, width)


class PathSampler:
    """Seeded paths of agent ``i`` from (``node``, ``s_idx``): a plan draw, then
    for ``periods`` periods a branch of the others and, before the horizon,
    an own transition.

    ``payload(node, s_idx, actions, pos)`` gives a step's value, ``pos`` being
    the menu slot the agent plays (0.0 without a payload).  ``after(child,
    s2)`` gives (next own state, value) after a transition to own state
    ``s2`` at ``child``.  Own transitions are drawn from the full grid row's
    ``TreeWalker.draw_table``, read at the support of ``TreeWalker.own_kernel``.
    The first action of a path is menu slot ``a_pos`` when given, obedient
    otherwise; later actions are obedient.  ``scalar_paths`` counts the paths
    the scalar walk took.
    """

    def __init__(self, walker: TreeWalker, i: int, node: Node, s_idx: int,
                 plans: Sequence[tuple[float, OppPlan]], periods: int,
                 after: Callable[[Node, int], tuple[int, float]],
                 payload: Callable[[Node, int, dict, int], float] | None = None,
                 a_pos: int | None = None):
        self.walker = walker
        self.i = i
        self.node = node
        self.s_idx = s_idx
        self.periods = periods
        self.moves = min(periods, walker.game.horizon - node.t)   # periods with a transition
        self.after = after
        self.payload = payload
        self.a_pos = a_pos
        self.plans = [plan for _, plan in plans]
        probs = np.array([p for p, _ in plans])
        self._plan_cdf = choice_cdf(probs / probs.sum())
        self.scalar_paths = 0
        self._builds = 0
        # cells: (slot, node key, state, first) -> id; per id its context,
        # branch CDF and step id per branch (-1 until built)
        self._cell_ids: dict[tuple, int] = {}
        self._cells: list[tuple] = []
        self._bcdf: list[list[float]] = []
        self._bstep: list[list[int]] = []
        self._roots = [-1] * len(self.plans)
        # steps: per id its value, (cell, branch), child, transition CDF and
        # outcomes, and per outcome the next state (-1 until built), the
        # ``after`` value and the next cell (-1 until linked)
        self._sval: list[float] = []
        self._sfrom: list[tuple[int, int]] = []
        self._child: list[Node | None] = []
        self._tcdf: list[list[float] | None] = []
        self._tout: list[Sequence[tuple] | None] = []
        self._next: list[list[int] | None] = []
        self._aval: list[list[float] | None] = []
        self._ncell: list[list[int] | None] = []

    def walk(self, rng: np.random.Generator,
             n_paths: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(values, afters)`` for consecutive runs of the ``n_paths``
        paths, in path order.  ``values[p, k]`` is the payload of the path's
        step at period node.t + k; ``afters[p, k]`` is the ``after`` value of
        its transition from that period."""
        w = 1 + self.periods + self.moves
        stream = _Stream(rng, n_paths * w)
        done = 0
        while done < n_paths:
            # the scalar walk, until QUIET paths in a row build nothing
            vals: list[float] = []
            afts: list[float] = []
            start, quiet = done, 0
            while quiet < QUIET and done < n_paths:
                batch = min(QUIET - quiet, n_paths - done)   # paths that may end it
                u = stream.peek(batch * w).tolist()
                for d in range(0, batch * w, w):
                    built = self._builds
                    self._scalar(u, d, vals, afts)
                    quiet = 0 if self._builds != built else quiet + 1
                stream.skip(batch * w)
                done += batch
            self.scalar_paths += done - start
            yield _matrix(vals, done - start, self.periods), _matrix(afts, done - start, self.moves)
            # blocks over the built tables, until a path needs a build
            tables = self._freeze() if done < n_paths else None
            size = 0
            while done < n_paths:
                size = min(2 * size or FIRST_BLOCK, max(1, CHUNK // w), MAX_BLOCK, n_paths - done)
                got = self._block(tables, stream.peek(size * w).reshape(size, w))
                kept = len(got[0])
                stream.skip(kept * w)
                done += kept
                if kept:
                    yield got
                if kept < size:
                    break

    # -- the scalar walk: builds in per-draw order ------------------------------

    def _scalar(self, u: list[float], d: int, vals: list, afts: list) -> None:
        """Walk one path on the doubles ``u[d:d + w]``, building what it reaches
        first; append its values to ``vals`` and its ``after`` values to ``afts``."""
        slot = bisect_right(self._plan_cdf, u[d])
        if self.periods:
            c = self._roots[slot]
            if c < 0:
                c = self._roots[slot] = self._cell(slot, self.node, self.s_idx,
                                                   self.a_pos is not None)
        for k in range(self.periods):
            d += 1
            b = bisect_right(self._bcdf[c], u[d])
            st = self._bstep[c][b]
            if st < 0:
                st = self._bstep[c][b] = self._step(c, b)
            vals.append(self._sval[st])
            if k == self.moves:   # period T: no transition after it
                break
            if self._tcdf[st] is None:
                self._transition(st)
            d += 1
            j = bisect_right(self._tcdf[st], u[d])
            if self._next[st][j] < 0:
                self._after(st, j)
            afts.append(self._aval[st][j])
            if k + 1 < self.periods:
                c = self._ncell[st][j]
                if c < 0:
                    c = self._ncell[st][j] = self._cell(slot, self._child[st],
                                                        self._next[st][j], False)

    def _cell(self, slot: int, node: Node, s_idx: int, first: bool) -> int:
        self._builds += 1
        key = (slot, node.key, s_idx, first)
        c = self._cell_ids.get(key)
        if c is None:
            walker, i = self.walker, self.i
            pos = walker.own_slot(i, node, s_idx, self.a_pos if first else None)
            a_own, a_idx = walker.own_action(i, node, s_idx, pos)
            branches = list(walker.other_branches(i, node, self.plans[slot]))
            probs = np.array([b.prob for b in branches])
            c = self._cell_ids[key] = len(self._cells)
            self._cells.append((node, s_idx, branches, a_own, a_idx, pos))
            self._bcdf.append(choice_cdf(probs / probs.sum()))
            self._bstep.append([-1] * len(branches))
        return c

    def _step(self, c: int, b: int) -> int:
        self._builds += 1
        node, s_idx, branches, a_own, _, pos = self._cells[c]
        value = 0.0
        if self.payload is not None:
            actions = dict(branches[b].actions)
            actions[self.i] = a_own
            value = self.payload(node, s_idx, actions, pos)
        self._sval.append(value)
        self._sfrom.append((c, b))
        for table in (self._child, self._tcdf, self._tout, self._next, self._aval, self._ncell):
            table.append(None)
        return len(self._sval) - 1

    def _transition(self, st: int) -> None:
        """The child (interned on first use), then the own-transition table."""
        self._builds += 1
        c, b = self._sfrom[st]
        node, s_idx, branches, _, a_idx, _ = self._cells[c]
        child = self._child[st] = self.walker.child_after(self.i, node, s_idx, a_idx, branches[b])
        outcomes = self._tout[st] = self.walker.own_kernel(self.i, child, s_idx)
        cdf = self.walker.draw_table(self.i, child, s_idx)
        self._tcdf[st] = [cdf[j] for _, j in outcomes]
        self._next[st] = [-1] * len(outcomes)
        self._aval[st] = [0.0] * len(outcomes)
        self._ncell[st] = [-1] * len(outcomes)

    def _after(self, st: int, j: int) -> None:
        self._builds += 1
        self._next[st][j], self._aval[st][j] = self.after(self._child[st], self._tout[st][j][1])

    # -- the block walk: reads the built tables only -----------------------------

    def _freeze(self) -> tuple:
        """Integer-indexed arrays of the built tables; CDF rows padded with ``+inf``."""
        n_cells, n_steps = len(self._cells), len(self._sval)
        width = max(map(len, self._bcdf), default=1)
        bcdf = np.full((n_cells, width), np.inf)
        bstep = np.full((n_cells, width), -1)
        for c, (row, steps) in enumerate(zip(self._bcdf, self._bstep)):
            bcdf[c, :len(row)] = row
            bstep[c, :len(steps)] = steps
        width = max((len(r) for r in self._tcdf if r is not None), default=1)
        tcdf = np.full((n_steps, width), np.inf)
        built = np.zeros((n_steps, width), dtype=bool)
        aval = np.zeros((n_steps, width))
        ncell = np.full((n_steps, width), -1)
        for st, row in enumerate(self._tcdf):
            if row is not None:
                m = len(row)
                tcdf[st, :m] = row
                built[st, :m] = [s >= 0 for s in self._next[st]]
                aval[st, :m] = self._aval[st]
                ncell[st, :m] = self._ncell[st]
        return (np.array(self._plan_cdf), np.array(self._roots), bcdf, bstep,
                np.array(self._sval), tcdf, built, aval, ncell)

    def _block(self, tables: tuple, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Walk the paths of doubles ``u`` (paths x w) up to the first that
        needs a build; (values, afters) of the paths before it."""
        plan_cdf, roots, bcdf, bstep, sval, tcdf, built, aval, ncell = tables
        vals, afts = [], []
        c = roots[_count_le(plan_cdf[None, :], u[:, 0])]
        d = 1
        for k in range(self.periods):
            u, c = _upto(c < 0, u, c)
            b = _count_le(bcdf[c], u[:, d])
            st = bstep[c, b]
            u, st = _upto(st < 0, u, st)
            vals.append(sval[st])
            if k == self.moves:
                break
            j = _count_le(tcdf[st], u[:, d + 1])
            u, st, j = _upto(~built[st, j], u, st, j)
            afts.append(aval[st, j])
            c = ncell[st, j]
            d += 2
        n = len(u)
        return _columns(vals, n), _columns(afts, n)


def _upto(bad: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays`` cut before the first path flagged ``bad``."""
    if bad.any():
        stop = int(bad.argmax())
        return tuple(a[:stop] for a in arrays)
    return arrays


def _columns(cols: list[np.ndarray], n: int) -> np.ndarray:
    """Per-period columns, each cut to the ``n`` paths kept, as a (paths x periods) array."""
    return np.stack([col[:n] for col in cols], axis=1) if cols else np.empty((n, 0))
