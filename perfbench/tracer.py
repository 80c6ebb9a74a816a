"""Span recorder for the traced run, attached to offmenu from outside.

Nothing in the package is edited.  ``install`` replaces the names that
``offmenu.run`` and ``offmenu.cli`` imported, and public methods of
``Engine``, ``TreeWalker``, ``NodeStore``, ``PersistenceTransforms`` and
``BaseGame``, with wrappers that

* record a span (name, start, end, parent id) around each call of a layer
  boundary, and read the memo-table sizes at both ends of it;
* count calls of the hot per-cell methods (interning, branch enumeration,
  reward and kernel closures), which get no span because a span per call
  would cost more than the call.

The memo tables are found by wrapping the constructors of the objects
that own them.  Spans stay in memory; the caller writes them out.
"""

from __future__ import annotations

import time
from collections import Counter

# (span name, owner, attribute).  Owners are module paths or class names
# resolved in ``install``.
SPANS = (
    ("scenario.load", "offmenu.cli", "load_scenario"),
    ("run.run_scenario", "offmenu.cli", "run_scenario"),
    ("synthesis.synthesize", "offmenu.run", "synthesize_mechanism"),
    ("verify.check_doic", "offmenu.run", "check_doic"),
    ("verify.check_doic_mc", "offmenu.run", "check_doic_mc"),
    ("verify.check_payoff_flow", "offmenu.run", "check_payoff_flow"),
    ("verify.check_envelope", "offmenu.run", "check_envelope"),
    ("verify.check_phi_uniqueness", "offmenu.run", "check_phi_uniqueness"),
    ("synthesis.posted_factor_eta", "offmenu.run", "posted_factor_eta"),
    ("synthesis.solve_phi", "offmenu.run", "solve_phi_by_indifference"),
    ("regions.detect_monotone", "offmenu.run", "detect_monotone"),
    ("reports.write_csv", "offmenu.run", "write_csv"),
    ("reports.write_report", "offmenu.run", "write_report"),
    ("run.export_mechanism_tables", "offmenu.run", "export_mechanism_tables"),
    ("model.validate_full_support", "BaseGame", "validate_full_support"),
    ("histories.reachable_nodes", "TreeWalker", "reachable_nodes"),
    ("histories.one_shot_closure", "TreeWalker", "one_shot_closure"),
    ("equilibrium.fixed_point", "Engine", "om_fixed_point"),
    ("equilibrium.quit_distribution", "Engine", "quit_distribution"),
    ("equilibrium.prospect_mc", "Engine", "prospect_mc"),
    ("equilibrium.simulate", "Engine", "simulate"),
    ("persistence.barrier_exact", "PersistenceTransforms", "barrier_violations"),
    ("persistence.barrier_mc", "PersistenceTransforms", "barrier_violations_mc"),
)
SPAN_NAMES = tuple(name for name, _, _ in SPANS)

# memo table name -> (owner class, attribute holding the dict)
TABLES = (
    ("equilibrium.g_entries", "Engine", "_g"),
    ("carrier.q_entries", "CarrierTables", "_q"),
    ("carrier.mg_entries", "CarrierTables", "_mg"),
    ("carrier.m_entries", "CarrierTables", "_m"),
    ("persistence.delta_entries", "PersistenceTransforms", "_delta"),
    ("synthesis.coupling_entries", "SynthesizedCoupling", "_memo"),
    ("synthesis.cutoff_entries", "SynthesizedCutoff", "_memo"),
)
TABLE_NAMES = tuple(name for name, _, _ in TABLES)

COUNTS = ("histories.nodes_interned", "histories.intern_calls",
          "histories.other_branches_calls", "model.reward_calls", "model.kernel_calls",
          "equilibrium.prospect_mc_calls", "equilibrium.fixed_point_iters",
          "reports.bytes_written")


def _classes():
    from offmenu.carrier import CarrierTables
    from offmenu.equilibrium import Engine
    from offmenu.histories import NodeStore, TreeWalker
    from offmenu.model import BaseGame
    from offmenu.persistence import PersistenceTransforms
    from offmenu.synthesis import SynthesizedCoupling, SynthesizedCutoff

    return {c.__name__: c for c in (CarrierTables, Engine, NodeStore, TreeWalker, BaseGame,
                                     PersistenceTransforms, SynthesizedCoupling,
                                     SynthesizedCutoff)}


class Recorder:
    """Spans and counters of one traced run.

    A span is ``[id, parent id, name, start, end, sizes at start, sizes at
    end]``; sizes are the summed lengths of each memo table in ``TABLES``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._tables: list[tuple[int, dict]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def sizes(self) -> list[int]:
        out = [0] * len(TABLES)
        for k, table in self._tables:
            out[k] += len(table)
        return out

    def _span(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0, self.sizes(), None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                rec[6] = self.sizes()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import importlib

        classes = _classes()
        counts = self.counts
        hooks = {
            "equilibrium.fixed_point":
                lambda fp: counts.update({"equilibrium.fixed_point_iters": fp.iterations}),
        }
        for name in ("reports.write_csv", "reports.write_report", "run.export_mechanism_tables"):
            hooks[name] = lambda path: counts.update({"reports.bytes_written": path.stat().st_size})
        for name, owner, attr in SPANS:
            target = classes[owner] if owner in classes else importlib.import_module(owner)
            self._patch(target, attr, self._span(name, getattr(target, attr), hooks.get(name)))

        owners: dict[str, list[tuple[int, str]]] = {}
        for k, (_, owner, attr) in enumerate(TABLES):
            owners.setdefault(owner, []).append((k, attr))
        for owner, tables in owners.items():
            cls = classes[owner]
            self._patch(cls, "__init__", self._registering_init(cls.__init__, tables))

        store, walker, game = classes["NodeStore"], classes["TreeWalker"], classes["BaseGame"]
        intern = store.intern

        def counted_intern(store_self, *args):
            before = len(store_self._nodes)
            node = intern(store_self, *args)
            counts["histories.intern_calls"] += 1
            counts["histories.nodes_interned"] += len(store_self._nodes) - before
            return node

        self._patch(store, "intern", counted_intern)
        for cls, attr, key in ((walker, "other_branches", "histories.other_branches_calls"),
                               (game, "reward", "model.reward_calls"),
                               (game, "kernel", "model.kernel_calls")):
            self._patch(cls, attr, self._counted(getattr(cls, attr), key))

    def _counted(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _registering_init(self, init, tables):
        registry = self._tables

        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            for k, attr in tables:
                registry.append((k, getattr(obj, attr)))

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summary ----------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics: inclusive and self time per span name, counts, table sizes.

        Inclusive time skips a span nested inside a span of the same name, so
        recursion is not counted twice.  Self time is a span's duration minus
        the part its child spans cover.  Entries added are reported per span
        name and table, inclusive and self, in ``entries``.
        """
        by_id = {rec[0]: rec for rec in self.spans}
        child_time: Counter = Counter()
        child_added: dict[int, list[int]] = {}
        for rec in self.spans:
            parent = rec[1]
            if parent is not None:
                child_time[parent] += rec[4] - rec[3]
                acc = child_added.setdefault(parent, [0] * len(TABLES))
                for k in range(len(TABLES)):
                    acc[k] += rec[6][k] - rec[5][k]
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}_s"] = 0.0
            metrics[f"{name}_self_s"] = 0.0
        entries = {name: {"calls": 0, "added": [0] * len(TABLES),
                          "added_self": [0] * len(TABLES)} for name in SPAN_NAMES}
        for rec in self.spans:
            sid, parent, name, start, end, before, after = rec
            nested = False
            while parent is not None:
                if by_id[parent][2] == name:
                    nested = True
                    break
                parent = by_id[parent][1]
            added = [a - b for a, b in zip(after, before)]
            kids = child_added.get(sid, [0] * len(TABLES))
            row = entries[name]
            row["calls"] += 1
            metrics[f"{name}_self_s"] += (end - start) - child_time[sid]
            for k in range(len(TABLES)):
                row["added_self"][k] += added[k] - kids[k]
            if not nested:
                metrics[f"{name}_s"] += end - start
                for k in range(len(TABLES)):
                    row["added"][k] += added[k]
        for name in COUNTS:
            metrics[name] = self.counts[name]
        metrics["equilibrium.prospect_mc_calls"] = entries["equilibrium.prospect_mc"]["calls"]
        calls = self.counts["histories.intern_calls"]
        metrics["histories.intern_hit_ratio"] = (
            (calls - self.counts["histories.nodes_interned"]) / calls if calls else 0.0)
        for name, size in zip(TABLE_NAMES, self.sizes()):
            metrics[name] = size
        return {"metrics": metrics,
                "entries": {name: {"calls": row["calls"],
                                   "added": dict(zip(TABLE_NAMES, row["added"])),
                                   "added_self": dict(zip(TABLE_NAMES, row["added_self"]))}
                            for name, row in entries.items() if row["calls"]},
                "spans": [rec[:5] for rec in self.spans]}
