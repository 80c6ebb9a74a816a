"""Planted faults that each verdict must report end to end.

A verdict that cannot fail passes on every run and so shows nothing.  Each
test here runs ``run_scenario`` with one fault planted from outside the
package (monkeypatching the synthesized mechanism, the fixed point's
iteration cap or the projection targets) and asserts that the verdict named
in the test fails, while the same run without the fault passes it.
"""

from __future__ import annotations

import json

import pytest

from offmenu import equilibrium
from offmenu.persistence import PersistenceTransforms
from offmenu.run import run_scenario
from offmenu.scenario import bundled_scenarios, load_scenario
from offmenu.synthesis import SynthesizedCoupling, SynthesizedCutoff


def _verdict(name, scenario, checks):
    """The named verdict of one run of ``scenario`` with only ``checks``."""
    report = run_scenario(scenario, None, {"checks": checks}).report
    return next(v for v in report["verdicts"] if v["name"] == name)


def test_transform_representation_fails_with_a_shifted_coupling(monkeypatch):
    assert _verdict("transform-representation", "g2-appendix", ("transform",))["passed"]
    value_at_slot = SynthesizedCoupling.value_at_slot

    # every stayer is paid 0.5 more at period 2: the payoff-to-go moves, while
    # the representation, built from the carriers alone, does not
    def shifted(self, i, node, pos, actions):
        return value_at_slot(self, i, node, pos, actions) + (0.5 if node.t == 2 else 0.0)

    monkeypatch.setattr(SynthesizedCoupling, "value_at_slot", shifted)
    v = _verdict("transform-representation", "g2-appendix", ("transform",))
    assert not v["passed"] and v["worst"] > 0.1


def test_fixed_point_fails_when_capped_at_one_iteration(monkeypatch):
    v = _verdict("fixed-point", "double-well", ("fixed_point",))
    assert v["passed"] and v["details"]["iterations"] > 1
    # the first residual is above the tolerance, so one round cannot converge
    monkeypatch.setattr(equilibrium, "FIXED_POINT_MAX_ITER", 1)
    v = _verdict("fixed-point", "double-well", ("fixed_point",))
    assert not v["passed"] and v["worst"] > v["tolerance"]
    assert v["details"]["iterations"] == 1


def test_exact_off_region_alignment_fails_with_a_lowered_posted_value(monkeypatch):
    report = run_scenario("double-well", None, {"checks": ("doic",)}).report
    assert [(v["name"], v["passed"]) for v in report["verdicts"]] == [
        ("off-region-alignment", True), ("raic", True)]
    value = SynthesizedCutoff.value

    # period 1 posts 1.0 less: staying beats quitting in the desired off region
    def lowered(self, i, node, state_index=None):
        return value(self, i, node, state_index) - (1.0 if node.t == 1 else 0.0)

    monkeypatch.setattr(SynthesizedCutoff, "value", lowered)
    report = run_scenario("double-well", None, {"checks": ("doic",)}).report
    off, raic = report["verdicts"]
    assert off["name"] == "off-region-alignment" and off["mode"] == "exact"
    assert not off["passed"] and off["witness"]["period"] == 1
    # a quit value shifted at every slot alike leaves the deviation margins alone
    assert raic["passed"]


@pytest.mark.xfail(strict=True, reason=(
    "barrier cannot fail: project and d_up read the same target, so a moved "
    "target goes unseen (CHANGES.md FOUND on persistence.py barrier_violations; "
    "ROADMAP item 7)"))
def test_barrier_fails_with_a_moved_projection_target(monkeypatch):
    # double-well with one off interval of three states, so a target can move
    raw = json.loads(bundled_scenarios()["double-well"].read_text())
    raw["mechanism"] = {"variant": "horizontal", "boundaries": {"0": [[0.25, 0.75]]}}
    assert _verdict("barrier", load_scenario(raw), ("barrier",))["passed"]
    target = PersistenceTransforms._target
    moved = []

    # the off interval projects to one of its ends other than the maximizer
    def moved_target(self, i, node, kind, k):
        hit = target(self, i, node, kind, k)
        if kind != "off":
            return hit
        lo, hi = self.partitions[(i, node.t)].sub_off[k]
        moved.append((i, node.key, k))
        return lo if hit != lo else hi

    monkeypatch.setattr(PersistenceTransforms, "_target", moved_target)
    v = _verdict("barrier", load_scenario(raw), ("barrier",))
    assert moved
    assert not v["passed"]
