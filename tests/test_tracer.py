"""The benchmark's span recorder still attaches to the package.

``perfbench/tracer.py`` wraps names that ``offmenu.run`` and ``offmenu.cli``
import, and public methods of the engine classes, from outside the package.
A renamed or deleted name breaks the traced benchmark run, so this installs
the recorder, runs one small scenario under it and uninstalls it again.
"""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_records_and_uninstall_restores_every_attribute(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    from offmenu.cli import main

    owners = [importlib.import_module(m) for m in ("offmenu.run", "offmenu.cli")]
    owners += list(tracer._classes().values())
    before = [dict(vars(owner)) for owner in owners]
    rec = tracer.Recorder()
    try:
        rec.install()
        assert main(["verify", "g2-appendix", "--checks", "doic", "--samples", "50"]) == 0
    finally:
        rec.uninstall()
    capsys.readouterr()
    for owner, attrs in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(attrs), owner
        assert all(now[k] is v for k, v in attrs.items()), owner
    metrics = rec.summary()["metrics"]
    assert metrics["run.run_scenario_s"] > 0.0
    assert metrics["verify.check_doic_s"] > 0.0
    assert metrics["histories.intern_calls"] > 0
    assert metrics["equilibrium.g_entries"] > 0
