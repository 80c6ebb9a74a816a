"""Fuzzed scenario files: the CLI exits 0, 1 or 2 and never raises.

Each example starts from the bundled ``g2-appendix`` scenario on a small
grid and changes one to three entries anywhere in it: the entry is dropped
or replaced by a value of the wrong type or a non-finite number.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from offmenu.cli import main
from offmenu.scenario import bundled_scenarios

BASE = json.loads(bundled_scenarios()["g2-appendix"].read_text())
BASE.update(horizon=2, samples=50, state_grid={"lo": 0.0, "hi": 1.0, "points": 3})


def _paths(obj, prefix=()):
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


PATHS = sorted(_paths(BASE), key=repr)
REPLACEMENTS = st.sampled_from(
    ["x", "", [], {}, None, True, -1, 0, 1.5, [1.0, "a"], {"kind": 3},
     math.nan, math.inf, -math.inf])


@st.composite
def mutated_scenarios(draw):
    raw = json.loads(json.dumps(BASE))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(PATHS))
        parent = raw
        for k in path[:-1]:
            if not isinstance(parent, (dict, list)) or k not in (
                    parent if isinstance(parent, dict) else range(len(parent))):
                break
            parent = parent[k]
        else:
            if isinstance(parent, dict) and draw(st.booleans()):
                parent.pop(path[-1], None)
            elif isinstance(parent, dict) or (isinstance(parent, list)
                                              and isinstance(path[-1], int)
                                              and path[-1] < len(parent)):
                parent[path[-1]] = json.loads(json.dumps(draw(REPLACEMENTS)))
    return raw


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_scenarios(), st.sampled_from([(), ("--mode", "mc"), ("--tol", "nan")]))
def test_cli_exit_code_contract_holds_for_mutated_scenarios(raw, extra):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(raw))
        code = main(["verify", str(path), "--out", str(Path(tmp) / "out"), *extra])
    assert code in (0, 1, 2)
