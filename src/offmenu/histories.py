"""Public-information nodes, history interning, and opponent behavior models.

A node is the public information available at the *start* of a period,
before current states are observed and off-menu decisions are taken: the
set of agents still in the game, the previous-period states (states become
public at the end of each period) and the full action history with quit
markers.  Nodes are interned so that value tables can be memoized on a
stable integer key; identity is by action *indices*, not values.

Each node also carries the id of its Markov class (``lump``): the node
with its action history cut to the last ``window`` records, where the
window is the most any dynamics or policy closure reads.  Values that
depend on history only through the closures are class functions, so
their memo tables key on the class and each class is evaluated once.

Opponent behavior enters every expectation through a conjecture object:
either a region rule (quit on first entry into the principal-desired off
region, re-evaluated each period) or an explicit distribution over fixed
quit-period profiles.  Both reduce to a weighted list of per-branch plans.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .model import BaseGame, GameError
from .mechanism import Menu, TaskPolicy, action_menu
from .sampling import choice_cdf

__all__ = [
    "PeriodRecord",
    "Node",
    "NodeStore",
    "OppPlan",
    "RegionPlan",
    "FixedPlan",
    "Conjecture",
    "RegionConjecture",
    "ProfileConjecture",
    "TreeWalker",
    "history_window",
    "live_cells",
]


@dataclass(frozen=True)
class PeriodRecord:
    """One period's public record: who played what, and who quit."""

    participants: tuple[int, ...]
    action_indices: tuple[int, ...]  # into the per-agent action grid, aligned with participants
    quitters: tuple[int, ...]


@dataclass(frozen=True)
class Node:
    """Interned public-information state at the start of period ``t``."""

    t: int
    active: tuple[int, ...]
    prev_states: tuple[tuple[int, int], ...]  # (agent, state index at t-1); empty at t=1
    events: tuple[PeriodRecord, ...]
    key: int = field(compare=False, hash=False, default=-1)
    lump: int = field(compare=False, hash=False, default=-1)  # Markov class id

    def signature(self) -> str:
        """Session-independent history id (store keys are insertion-ordered)."""
        sig = self.__dict__.get("_sigstr")
        if sig is None:
            sig = _format_signature(self.t, self.active, self.prev_states, self.events)
            self.__dict__["_sigstr"] = sig
        return sig

    def prev_state_of(self, i: int) -> int | None:
        for j, s in self.prev_states:
            if j == i:
                return s
        return None


def _format_signature(t: int, active, prev_states, events) -> str:
    ev = ";".join(
        f"{','.join(map(str, r.participants))}:{','.join(map(str, r.action_indices))}"
        f":{','.join(map(str, r.quitters))}" for r in events)
    prev = ",".join(f"{j}={s}" for j, s in prev_states)
    return f"t{t}|a{','.join(map(str, active))}|p{prev}|e{ev}"


def history_window(game: BaseGame, sigma: TaskPolicy) -> int | None:
    """Trailing records the game's dynamics and the policy read; None for the whole history."""
    windows = (game.dynamics.history_window, sigma.history_window)
    return None if None in windows else max(windows)


class NodeStore:
    """Interner for nodes plus cached closure-facing history materialization.

    ``window`` sets the Markov classes: nodes that agree on (t, active,
    prev_states) and the last ``window`` records share a ``lump`` id.  With
    None every node is its own class (``lump == key``).
    """

    def __init__(self, game: BaseGame, window: int | None = None):
        self.game = game
        self.window = window
        self._by_sig: dict[tuple, Node] = {}
        self._nodes: list[Node] = []
        self._lumps: dict[tuple, int] = {}
        self._class_sigs: dict[int, str] = {}
        self._histories: dict[int, tuple[dict[int, float], ...]] = {}

    def root(self) -> Node:
        return self.intern(1, tuple(self.game.agents()), (), ())

    def class_key(self, t: int, active, prev_states, events) -> tuple:
        """The Markov class of a history: its events cut to the last ``window`` records."""
        if self.window is None:
            return (t, active, prev_states, events)
        return (t, active, prev_states, events[max(len(events) - self.window, 0):])

    def class_signature(self, node: Node) -> str:
        """Session-independent id of the node's Markov class, formatted as
        ``Node.signature`` with the events cut to the window."""
        sig = self._class_sigs.get(node.lump)
        if sig is None:
            sig = _format_signature(*self.class_key(node.t, node.active, node.prev_states,
                                                    node.events))
            self._class_sigs[node.lump] = sig
        return sig

    def intern(self, t: int, active, prev_states, events) -> Node:
        sig = (t, tuple(active), tuple(prev_states), tuple(events))
        node = self._by_sig.get(sig)
        if node is None:
            key = len(self._nodes)
            if self.window is None:
                lump = key
            else:
                lump = self._lumps.setdefault(self.class_key(*sig), len(self._lumps))
            node = Node(t, sig[1], sig[2], sig[3], key=key, lump=lump)
            self._by_sig[sig] = node
            self._nodes.append(node)
        return node

    def node(self, key: int) -> Node:
        return self._nodes[key]

    def __len__(self) -> int:
        return len(self._nodes)

    def history(self, node: Node) -> tuple[dict[int, float], ...]:
        """Action history as per-period {agent: action value} dicts (closure input)."""
        cached = self._histories.get(node.key)
        if cached is None:
            out = []
            for k, rec in enumerate(node.events, start=1):
                out.append({j: self.game.action_grids[(j, k)].value(a)
                            for j, a in zip(rec.participants, rec.action_indices)})
            cached = tuple(out)
            self._histories[node.key] = cached
        return cached

    def child(self, node: Node, states: Mapping[int, int], quitters: Sequence[int],
              actions_idx: Mapping[int, int]) -> Node:
        """Successor node after one period: quitters leave, stayers' actions and states go public."""
        stayers = tuple(j for j in node.active if j not in quitters)
        rec = PeriodRecord(stayers, tuple(actions_idx[j] for j in stayers), tuple(sorted(quitters)))
        prev = tuple((j, states[j]) for j in stayers)
        return self.intern(node.t + 1, stayers, prev, node.events + (rec,))

    def parents(self, node: Node) -> list[Node]:
        """Every node with an edge to ``node``, lowest key first (interned here).

        The node's last record fixes its parent's period, active set and
        history, but not the parent's previous states: every grid
        combination of those is a parent.  The set depends only on the
        node, not on what the store happens to hold.
        """
        if node.t == 1:
            return []
        rec = node.events[-1]
        t = node.t - 1
        active = tuple(sorted(set(rec.participants) | set(rec.quitters)))
        pools = [[(j, s) for s in range(self.game.grid(j, t - 1).points)]
                 for j in active] if t > 1 else []
        found = [self.intern(t, active, prev, node.events[:-1])
                 for prev in itertools.product(*pools)]
        return sorted(found, key=lambda n: n.key)


# ---------------------------------------------------------------------------
# Opponent plans and conjectures
# ---------------------------------------------------------------------------


class OppPlan:
    def quits(self, j: int, t: int, s_idx: int, node: Node) -> bool:
        raise NotImplementedError

    def signature(self) -> tuple:
        raise NotImplementedError


@dataclass(frozen=True)
class RegionPlan(OppPlan):
    """Quit on first entry into the desired off region (re-evaluated each period)."""

    regions: Mapping[tuple[int, int], frozenset[int]]

    def quits(self, j, t, s_idx, node):
        return s_idx in self.regions.get((j, t), frozenset())

    def signature(self):
        sig = self.__dict__.get("_sig")
        if sig is None:
            items = tuple(sorted((j, t, tuple(sorted(v)))
                                 for (j, t), v in self.regions.items() if v))
            sig = ("region", items)
            self.__dict__["_sig"] = sig
        return sig


@dataclass(frozen=True)
class FixedPlan(OppPlan):
    """Predetermined quit periods; T+1 (or absence) means never quit."""

    assign: Mapping[int, int]

    def quits(self, j, t, s_idx, node):
        return self.assign.get(j, 0) == t

    def signature(self):
        sig = self.__dict__.get("_sig")
        if sig is None:
            sig = ("fixed", tuple(sorted(self.assign.items())))
            self.__dict__["_sig"] = sig
        return sig


NEVER_QUIT = RegionPlan({})


class Conjecture:
    """Weighted plans describing how agents other than the evaluator behave."""

    def plans(self, i: int, node: Node) -> list[tuple[float, OppPlan]]:
        raise NotImplementedError


@dataclass(frozen=True)
class RegionConjecture(Conjecture):
    regions: Mapping[tuple[int, int], frozenset[int]]

    def plans(self, i, node):
        cached = self.__dict__.get("_plans")
        if cached is None:
            cached = [(1.0, RegionPlan(self.regions))]
            self.__dict__["_plans"] = cached
        return cached

    def plan(self) -> RegionPlan:
        return self.plans(0, None)[0][1]


@dataclass(frozen=True)
class ProfileConjecture(Conjecture):
    """Explicit distribution over others' quit-period profiles.

    ``dist`` lists (probability, {agent: quit period}) entries; agents absent
    from an assignment never quit.  Built per evaluation node, e.g. from the
    per-agent marginals iterated by the fixed-point map.
    """

    dist: tuple[tuple[float, tuple[tuple[int, int], ...]], ...]

    def plans(self, i, node):
        cache = self.__dict__.setdefault("_plans_by_agent", {})
        if i not in cache:
            out = []
            for p, asg in self.dist:
                others = tuple((j, L) for j, L in asg if j != i)
                out.append((p, FixedPlan(dict(others))))
            cache[i] = out
        return cache[i]

    @classmethod
    def from_marginals(cls, marginals: Mapping[int, Mapping[int, float]]) -> "ProfileConjecture":
        """Independent product over agents of quit-period marginals."""
        agents = sorted(marginals)
        entries: list[tuple[float, tuple[tuple[int, int], ...]]] = []
        pools = [sorted(marginals[j].items()) for j in agents]
        for combo in itertools.product(*pools):
            p = 1.0
            asg = []
            for j, (L, w) in zip(agents, combo):
                p *= w
                asg.append((j, L))
            if p > 0.0:
                entries.append((p, tuple(asg)))
        return cls(tuple(entries))


IR_CONJECTURE = RegionConjecture({})


# ---------------------------------------------------------------------------
# Tree stepping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepBranch:
    """One joint resolution of some agents' states, planned quits and obedient actions.

    ``prob`` multiplies the agents' state weights in agent order; actions are the stayers'.
    """

    prob: float
    states: tuple[tuple[int, int], ...]  # (agent, state index) for every resolved agent
    quitters: tuple[int, ...]
    actions: dict[int, float]
    actions_idx: dict[int, int]


# the one branch of an agent acting alone; readers copy its dicts, never write them
_ALONE = StepBranch(1.0, (), (), {}, {})


class TreeWalker:
    """Shared exact-mode enumeration helpers over a game/policy pair.

    Everything the equilibrium engine, the carrier tables and the persistence
    transforms agree on lives here: beliefs at a node, the one joint-step
    enumerator (``joint_steps``) every exact walk resolves a period with,
    the one own-step enumerator (``own_action`` and ``own_branches``: the
    agent's action, then the others' branches under each plan), successor
    construction, and the node closures built on one depth-first walk.
    Menus are cached per (agent, Markov class); beliefs, own transitions
    (``next_states``), shock branches and draw tables read one transition
    record per (agent, class, previous state), built from one ``kernel``
    call.  The default store's classes follow the game's and the policy's
    history window; a given store must not lump more coarsely than that.
    """

    def __init__(self, game: BaseGame, sigma: TaskPolicy, store: NodeStore | None = None):
        self.game = game
        self.sigma = sigma
        self.store = store if store is not None else NodeStore(game, history_window(game, sigma))
        self._menus: dict[tuple[int, int], Menu] = {}
        self._transitions: dict[tuple, list] = {}
        self._plan_ids: dict[tuple, int] = {}

    # -- caches --------------------------------------------------------------

    def plan_id(self, plan: OppPlan) -> int:
        """Stable small integer for memo keys; plans with one signature share one id.

        The plan keeps its id next to this walker's table, so a repeat lookup
        does not hash the signature again, and a plan that outlives its
        walker is looked up afresh by the next one.
        """
        cached = plan.__dict__.get("_plan_id")
        if cached is not None and cached[0] is self._plan_ids:
            return cached[1]
        pid = self._plan_ids.setdefault(plan.signature(), len(self._plan_ids))
        plan.__dict__["_plan_id"] = (self._plan_ids, pid)
        return pid

    def menu(self, i: int, node: Node) -> Menu:
        key = (i, node.lump)
        m = self._menus.get(key)
        if m is None:
            m = action_menu(self.game, self.sigma, i, node.t, self.store.history(node))
            self._menus[key] = m
        return m

    def belief(self, i: int, node: Node) -> tuple[tuple[float, int], ...]:
        """Distribution over agent i's period-t state given the node's public record."""
        prev = node.prev_state_of(i)
        if prev is None and node.t > 1:
            raise GameError(f"agent {i} has no public previous state at node {node.key}")
        return self.own_kernel(i, node, prev)

    def own_kernel(self, i: int, child: Node, s_own: int | None) -> tuple[tuple[float, int], ...]:
        """(prob, state) of agent i at child.t from ``s_own`` (None: initial); a class function."""
        # most reads are hits, so the hit path is the key and one get
        return (self._transitions.get((i, child.lump, s_own))
                or self._record(i, child, s_own))[0]

    def _record(self, i: int, node: Node, s_prev: int | None) -> list:
        """Agent i's transition record into node.t from grid state ``s_prev``.

        [(prob, state) pairs for beliefs and exact walks, the kernel's (weight,
        shock, state) branches, their (weight, state, d_kappa/d_s) slopes for
        impulse responses, and the draw table for ``simulate`` and the path
        samplers], from one ``kernel`` call; slopes and table are None until
        first read.  The kernel reads the history only through the node's
        Markov class, so the cache keys on (agent, class, previous state);
        None is the initial distribution, which has no branches.
        """
        key = (i, node.lump, s_prev)
        rec = self._transitions.get(key)
        if rec is None:
            if s_prev is None:
                dist = self.game.initial_dist(i)
                rec = [tuple((w, j) for j, w in enumerate(dist) if w > 0.0), (), [], None]
            else:
                s_val = self.game.grid(i, node.t - 1).value(s_prev)
                probs, branches = self.game.kernel(i, node.t, s_val, self.store.history(node))
                rec = [tuple((float(p), j) for j, p in enumerate(probs) if p > 0.0),
                       branches, None, None]
            self._transitions[key] = rec
        return rec

    def draw_table(self, i: int, node: Node, s_prev: int | None) -> list[float]:
        """``Generator.choice``'s CDF over agent i's full grid row at node.t from
        ``s_prev``: the kernel row (its branches summed per state) over its numpy
        sum, the initial row over Python's ``sum``."""
        rec = self._record(i, node, s_prev)
        if rec[3] is None:
            if s_prev is None:
                dist = self.game.initial_dist(i)
                rec[3] = choice_cdf(np.asarray(dist) / sum(dist))
            else:
                probs = np.zeros(self.game.grid(i, node.t).points)
                for w, _, j in rec[1]:
                    probs[j] += w
                rec[3] = choice_cdf(probs / probs.sum())
        return rec[3]

    def own_slot(self, i: int, node: Node, s_idx: int, a_pos: int | None = None) -> int:
        """Menu slot ``a_pos``; the obedient slot at s_idx when absent."""
        return self.menu(i, node).action_index_of_state[s_idx] if a_pos is None else a_pos

    def own_action(self, i: int, node: Node, s_idx: int,
                   a_pos: int | None = None) -> tuple[float, int]:
        """(action, action-grid index) of menu slot ``a_pos``; obedient at s_idx when absent."""
        menu = self.menu(i, node)
        pos = menu.action_index_of_state[s_idx] if a_pos is None else a_pos
        return menu.actions[pos], menu.grid_indices[pos]

    def recorded_slot(self, i: int, parent: Node, node: Node) -> int | None:
        """Menu slot at ``parent`` of agent i's action recorded on the edge to
        ``node``; None when i did not act there."""
        rec = node.events[-1]
        if i not in rec.participants:
            return None
        a_idx = rec.action_indices[rec.participants.index(i)]
        return self.menu(i, parent).grid_indices.index(a_idx)

    # -- enumeration ----------------------------------------------------------

    def joint_steps(self, node: Node, plan: OppPlan, agents: Sequence[int],
                    stays: int | None = None) -> Iterator[StepBranch]:
        """Every joint resolution of ``agents``' states, quits and obedient actions.

        States range over each agent's belief at the node; each agent quits
        where the plan says so, except ``stays``, who stays and acts
        obediently throughout.
        """
        for combo in itertools.product(*(self.belief(j, node) for j in agents)):
            prob = 1.0
            states: list[tuple[int, int]] = []
            quitters: list[int] = []
            actions: dict[int, float] = {}
            actions_idx: dict[int, int] = {}
            for j, (p, s_idx) in zip(agents, combo):
                prob *= p
                states.append((j, s_idx))
                if j != stays and plan.quits(j, node.t, s_idx, node):
                    quitters.append(j)
                else:
                    actions[j], actions_idx[j] = self.own_action(j, node, s_idx)
            yield StepBranch(prob, tuple(states), tuple(quitters), actions, actions_idx)

    def other_branches(self, i: int, node: Node, plan: OppPlan) -> Iterator[StepBranch]:
        """Joint steps of the *other* active agents; agent i's own entry is the caller's."""
        others = [j for j in node.active if j != i]
        if not others:
            yield _ALONE
            return
        yield from self.joint_steps(node, plan, others)

    def own_branches(self, i: int, node: Node, plans: Sequence[tuple[float, OppPlan]],
                     a_own: float) -> Iterator[tuple[float, dict[int, float], StepBranch]]:
        """(weight, joint actions, branch) over weighted plans, agent i playing ``a_own``.

        The weight is the plan's probability times the branch's; a single
        plan is passed as ``((1.0, plan),)``.  Successors stay the caller's
        (``child_after``), so a walk that needs none interns none.
        """
        for p, plan in plans:
            for br in self.other_branches(i, node, plan):
                actions = dict(br.actions)
                actions[i] = a_own
                yield p * br.prob, actions, br

    def child_after(self, i: int, node: Node, s_own: int, a_own_idx: int,
                    branch: StepBranch) -> Node:
        """Successor node when agent i stays and plays; others per the branch."""
        states = dict(branch.states)
        states[i] = s_own
        actions_idx = dict(branch.actions_idx)
        actions_idx[i] = a_own_idx
        return self.store.child(node, states, branch.quitters, actions_idx)

    def next_states(self, i: int, node: Node, s_idx: int, plans: Sequence[tuple[float, OppPlan]],
                    a_pos: int | None = None) -> Iterator[tuple[float, Node, int]]:
        """(w * pp, child, next own state) from (node, s_idx): agent i plays menu slot
        ``a_pos`` (obedient when absent) against the others' branches of weight w
        under ``plans``, then moves to its own next state with probability pp."""
        a_own, a_idx = self.own_action(i, node, s_idx, a_pos)
        for w, _, br in self.own_branches(i, node, plans, a_own):
            child = self.child_after(i, node, s_idx, a_idx, br)
            for pp, s2 in self.own_kernel(i, child, s_idx):
                yield w * pp, child, s2

    def own_shock_branches(self, i: int, node: Node, s_own: int, child: Node):
        """Shock-level transitions (weight, next index, d_kappa/d_s); for impulse responses."""
        rec = self._record(i, child, s_own)
        if rec[2] is None:
            s_val = self.game.grid(i, node.t).value(s_own)
            hist = self.store.history(child)
            rec[2] = [(w, j, self.game.dkappa_ds(i, child.t, s_val, hist, omega))
                      for w, omega, j in rec[1]]
        return rec[2]

    # -- reachable sets ---------------------------------------------------------

    def _closure(self, successors, start_tag, what: str, max_nodes: int,
                 seen: dict[int, Node] | None = None) -> dict[int, Node]:
        """Depth-first walk over (node, tag) states from the root, each expanded once.

        ``successors(node, tag)`` yields (child, tag) pairs; every child enters
        ``seen`` (node key -> node, returned) within the ``max_nodes`` budget.
        Period T is terminal: quitting after it pays 0 and no decision is
        taken past it, so its nodes are recorded but never expanded, and
        every walk ends at T.
        """
        root = self.store.root()
        if seen is None:
            seen = {root.key: root}
        frontier = [(root, start_tag)]
        visited = {(root.key, start_tag)}
        while frontier:
            node, tag = frontier.pop()
            if node.t == self.game.horizon:
                continue
            for child, child_tag in successors(node, tag):
                if child.key not in seen:
                    seen[child.key] = child
                    if len(seen) > max_nodes:
                        raise GameError(
                            f"{what} exceeds its budget of {max_nodes} nodes; every mode "
                            "builds it, so only a shorter horizon or fewer grid points "
                            "shrink it")
                if (child.key, child_tag) not in visited:
                    visited.add((child.key, child_tag))
                    frontier.append((child, child_tag))
        return seen

    def reachable_nodes(self, plan: OppPlan, max_nodes: int = 250_000) -> list[Node]:
        """All nodes up to period T reachable when every agent follows the plan obediently."""
        def successors(node, tag):
            for br in self.joint_steps(node, plan, node.active):
                yield self.store.child(node, dict(br.states), br.quitters, br.actions_idx), tag

        return _in_period_order(self._closure(successors, None, "reachable node set", max_nodes))

    def one_shot_closure(self, plan: OppPlan, max_nodes: int = 250_000) -> list[Node]:
        """Node coverage of one-shot-deviation evaluations from realizable cells.

        For each evaluating agent: the agent stays and acts every period (their
        committed staying plans ignore the quit rule for themselves), deviating
        from the obedient action at most once, while everyone else follows
        the plan.  This is the set of histories whose coupling and posted
        values an obedience check over positive-probability cells can
        query.  The package no longer calls it (the tables export covers
        every class of ``markov_classes``); it stays because the
        benchmark's tracer wraps it by name.  The walk's tag says whether
        the evaluator has already deviated.
        """
        seen = {n.key: n for n in self.reachable_nodes(plan, max_nodes)}
        for evaluator in self.game.agents():
            def successors(node, deviated, evaluator=evaluator):
                if evaluator not in node.active:
                    return
                menu_idx = () if deviated else self.menu(evaluator, node).grid_indices
                for br in self.joint_steps(node, plan, node.active, stays=evaluator):
                    states = dict(br.states)
                    obedient = br.actions_idx[evaluator]
                    choices = [(obedient, deviated)] + [(idx, True) for idx in menu_idx
                                                        if idx != obedient]
                    for own_idx, next_dev in choices:
                        idx = {**br.actions_idx, evaluator: own_idx}
                        yield self.store.child(node, states, br.quitters, idx), next_dev

            self._closure(successors, False, "deviation closure", max_nodes, seen)
        return _in_period_order(seen)

    def markov_classes(self, max_nodes: int = 250_000) -> list[Node]:
        """One representative node per Markov class reachable from the root.

        Each class is expanded over every quit set of its active agents that
        leaves a stayer (a class with no active agent has no cell) and every
        grid state of its stayers.  With a window of one record or more the
        stayers' menu actions are enumerated too; with window 0 they do not
        enter the class, so each stayer plays its obedient action.  Only a
        combination that opens a new class interns its successor, which then
        represents the class.  A successor's class reads only the period, the
        stayers' moves and the node's last ``window - 1`` records, so a node
        whose (period, moves, records) signature was expanded opens no new
        class and is skipped; with window None each node is its own class
        and every one is expanded.  The set depends only on the game and the
        policy, and a class function reads the same at its representative as
        at any other member.
        """
        store = self.store
        known: set[tuple] = set()
        expanded: set[tuple] = set()

        def moves(j, node):
            points = range(self.game.grid(j, node.t).points)
            if store.window == 0:
                return tuple((s, self.own_action(j, node, s)[1]) for s in points)
            return tuple((s, a) for s in points for a in self.menu(j, node).grid_indices)

        def successors(node, tag):
            own = {j: moves(j, node) for j in node.active}
            if store.window is not None:
                keep = node.events[max(len(node.events) - store.window + 1, 0):]
                sig = (node.t, tuple(own.items()), keep)
                if sig in expanded:
                    return
                expanded.add(sig)
            for r in range(len(node.active)):
                for quitters in itertools.combinations(node.active, r):
                    stayers = tuple(j for j in node.active if j not in quitters)
                    for combo in itertools.product(*(own[j] for j in stayers)):
                        prev = tuple((j, s) for j, (s, _) in zip(stayers, combo))
                        events = node.events + (
                            PeriodRecord(stayers, tuple(a for _, a in combo), quitters),)
                        cls = store.class_key(node.t + 1, stayers, prev, events)
                        if cls not in known:
                            known.add(cls)
                            yield store.intern(node.t + 1, stayers, prev, events), tag

        return _in_period_order(self._closure(successors, None, "Markov class set", max_nodes))


def live_cells(nodes: Iterable[Node]) -> Iterator[tuple[int, Node]]:
    """(agent, node) for each active agent at each node, in node order."""
    for node in nodes:
        for i in node.active:
            yield i, node


def _in_period_order(seen: Mapping[int, Node]) -> list[Node]:
    return sorted(seen.values(), key=lambda n: (n.t, n.key))
