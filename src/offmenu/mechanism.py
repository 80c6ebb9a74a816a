"""Delegation mechanism: task policy, coupling policy and off-switch.

A mechanism bundles a task policy (which induces per-period action menus),
a coupling policy (an extra utility flow on top of the intrinsic reward)
and an off-switch function (the posted value an agent collects when
quitting).  Off-switch values depend on the public history only; the
terminal convention assigns value 0 to quitting after the horizon.

Menus deduplicate identical action values coming from distinct states, but
the back-map retains every generating state so that disobedience can be
enumerated exhaustively as "acting as some other state".
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

from .model import Actions, BaseGame, GameError

if TYPE_CHECKING:  # pragma: no cover
    from .histories import Node

__all__ = [
    "TaskPolicy",
    "Menu",
    "CouplingPolicy",
    "ZeroCoupling",
    "TableCoupling",
    "CallableCoupling",
    "BoundaryProfile",
    "OffSwitch",
    "ZeroOffSwitch",
    "TableOffSwitch",
    "CallableOffSwitch",
    "Mechanism",
]


@dataclass(frozen=True)
class TaskPolicy:
    """Pure task policy sigma(i, t, s, history) -> action value.

    ``history_window`` is how many trailing records of ``history`` ``fn``
    reads; None (the default) means the whole history.
    """

    fn: Callable[[int, int, float, "History"], float]
    name: str = "custom"
    history_window: int | None = None

    def value(self, i: int, t: int, s: float, history) -> float:
        return self.fn(i, t, s, history)


@dataclass(frozen=True)
class Menu:
    """Deduplicated, sorted action menu with the action -> states back-map."""

    actions: tuple[float, ...]
    generating_states: tuple[tuple[int, ...], ...]  # state indices per action
    action_index_of_state: tuple[int, ...]          # menu position per state index
    grid_indices: tuple[int, ...]                   # action-grid index per menu position

    def position(self, action: float, tol: float = 1e-9) -> int:
        k = bisect.bisect_left(self.actions, action - tol)
        if k < len(self.actions) and abs(self.actions[k] - action) <= tol:
            return k
        raise GameError(f"action {action} not on the menu")


def action_menu(game: BaseGame, policy: TaskPolicy, i: int, t: int, history) -> Menu:
    """Menu induced by the task policy at (i, t, history).

    The image of sigma over the period grid, deduplicated and sorted; every
    menu action must be a value of the declared action grid.
    """
    grid = game.grid(i, t)
    agrid = game.action_grids[(i, t)]
    by_action: dict[int, list[int]] = {}
    for j in range(grid.points):
        a = policy.value(i, t, grid.value(j), history)
        if not (agrid.lo - 1e-9 <= a <= agrid.hi + 1e-9):
            raise GameError(
                f"task policy image {a} outside action bounds [{agrid.lo}, {agrid.hi}] "
                f"for agent {i}, period {t}")
        by_action.setdefault(agrid.index_of(a, tol=1e-6), []).append(j)
    slots = sorted(by_action.items())
    indices = tuple(k for k, _ in slots)
    actions = tuple(agrid.value(k) for k in indices)
    gen = tuple(tuple(js) for _, js in slots)
    pos_of_state = [0] * grid.points
    for pos, (_, js) in enumerate(slots):
        for j in js:
            pos_of_state[j] = pos
    return Menu(actions, gen, tuple(pos_of_state), indices)


# ---------------------------------------------------------------------------
# Coupling policies
# ---------------------------------------------------------------------------


class CouplingPolicy:
    """Coupling value m_{i,t} as a function of the joint action profile and history.

    ``markov`` says the value depends on the node only through its Markov
    class (``Node.lump``), so prospects may be memoized per class.
    """

    markov = False

    def value(self, i: int, node: "Node", actions: Actions) -> float:
        raise NotImplementedError


class ZeroCoupling(CouplingPolicy):
    markov = True

    def value(self, i, node, actions):
        return 0.0


@dataclass
class TableCoupling(CouplingPolicy):
    """Expected-coupling canonical representative: keyed by the agent's own action.

    ``table`` maps (agent, class id, own_action_position) -> value, where
    the position indexes the agent's menu at that node and ``class_of``
    gives the session-independent id of the node's Markov class.  Constant
    in the other agents' realized actions, which is exactly the degree of
    freedom the expectation constraint pins down.
    """

    table: Mapping[tuple[int, str, int], float]
    menu_of: Callable[[int, "Node"], Menu]
    class_of: Callable[["Node"], str]
    markov = True

    def value(self, i, node, actions):
        if i not in actions:
            raise GameError(f"agent {i} has no action in the profile")
        menu = self.menu_of(i, node)
        pos = menu.position(actions[i])
        try:
            return self.table[(i, self.class_of(node), pos)]
        except KeyError:
            raise GameError(
                f"no coupling entry for agent {i} at class {self.class_of(node)!r}, slot {pos}")


@dataclass
class CallableCoupling(CouplingPolicy):
    fn: Callable[[int, "Node", Actions], float]

    def value(self, i, node, actions):
        return self.fn(i, node, actions)


# ---------------------------------------------------------------------------
# Off-switch functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryProfile:
    """Ordered boundary sequence (l_1, r_1, ..., l_B, r_B) delimiting sub-off-regions."""

    pairs: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise GameError("boundary profile needs at least one (l, r) pair")
        flat = [x for pair in self.pairs for x in pair]
        for a, b in zip(flat, flat[1:]):
            if b < a - 1e-12:
                raise GameError(f"boundary profile not ordered: {flat}")

    @classmethod
    def from_flat(cls, seq) -> "BoundaryProfile":
        vals = list(seq)
        if len(vals) % 2 != 0:
            raise GameError("boundary profile needs an even number of entries")
        return cls(tuple((float(vals[k]), float(vals[k + 1])) for k in range(0, len(vals), 2)))


class OffSwitch:
    """Posted quit value phi(i, node); independent of the current state and action.

    ``value`` accepts an optional state index for the knowledgeable variant,
    where the principal observes which partition interval the state lies in.
    Querying past the horizon returns 0 (terminal convention), and every
    subclass must keep it: the walks after the reachable set treat period T
    as terminal and add 0 for quitting after it without building the
    successor history.  ``markov`` says the value depends on the node only
    through its Markov class.
    """

    horizon: int
    markov = False

    def value(self, i: int, node: "Node", state_index: int | None = None) -> float:
        raise NotImplementedError

    def state_dependent(self) -> bool:
        """Knowledgeable variants key their value by the state's partition interval."""
        return False

    def _terminal(self, node: "Node") -> bool:
        return node.t > self.horizon


@dataclass
class ZeroOffSwitch(OffSwitch):
    horizon: int
    markov = True

    def value(self, i, node, state_index=None):
        return 0.0


@dataclass
class TableOffSwitch(OffSwitch):
    """History-keyed off-switch values; the common cutoff-switch container.

    Keys are interned node ids by default; ``class_of`` switches to the
    session-independent id of the node's Markov class (the export format),
    which makes the values class functions.  The ``interval_of``/
    ``by_interval`` pair serves the knowledgeable variant, where the value
    is looked up per partition interval of the queried state.
    """

    horizon: int
    table: Mapping[tuple, float]
    by_interval: Mapping[tuple, float] | None = None
    interval_of: Callable[[int, int, int], int] | None = None  # (agent, period, state idx) -> w
    class_of: Callable[["Node"], str] | None = None

    @property
    def markov(self) -> bool:
        return self.class_of is not None

    def state_dependent(self) -> bool:
        return self.by_interval is not None

    def _hid(self, node):
        return node.key if self.class_of is None else self.class_of(node)

    def value(self, i, node, state_index=None):
        if self._terminal(node):
            return 0.0
        if self.by_interval is not None:
            if state_index is None:
                raise GameError("knowledgeable off-switch needs the state to locate its interval")
            w = self.interval_of(i, node.t, state_index)
            try:
                return self.by_interval[(i, self._hid(node), w)]
            except KeyError:
                raise GameError(f"no off-switch value for agent {i} at node {self._hid(node)}, "
                                f"interval {w}")
        try:
            return self.table[(i, self._hid(node))]
        except KeyError:
            raise GameError(f"no off-switch value for agent {i} at node {self._hid(node)}")


@dataclass
class CallableOffSwitch(OffSwitch):
    horizon: int
    fn: Callable[[int, "Node"], float]

    def value(self, i, node, state_index=None):
        if self._terminal(node):
            return 0.0
        return self.fn(i, node)


# ---------------------------------------------------------------------------
# Mechanism
# ---------------------------------------------------------------------------


@dataclass
class Mechanism:
    """Full mechanism: task policy, coupling policy, off-switch, boundaries.

    ``boundaries`` maps (agent, period) to the boundary profile delimiting
    the principal-desired off-region; it may be empty for an individually
    rational mechanism with no desired quitting.
    """

    sigma: TaskPolicy
    rho: CouplingPolicy
    phi: OffSwitch
    boundaries: Mapping[tuple[int, int], BoundaryProfile] | None = None
