"""End-to-end scenario pipeline: build, synthesize, verify, simulate, export.

The pipeline is the single code path behind the CLI subcommands.  It loads
a scenario, synthesizes the mechanism for the requested cutoff variant (or
loads it from exported tables), runs the requested checks against the exact
tree (or a sampled fallback), simulates outcomes, and writes a JSON report
plus CSV series whose bytes are fully determined by (scenario, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .equilibrium import FIXED_POINT_TOL, Engine, TreeSizeError
from .histories import RegionConjecture, TreeWalker, live_cells
from .mechanism import BoundaryProfile, Mechanism, TableCoupling, TableOffSwitch
from .model import GameError
from .regions import detect_monotone, partition_from_boundary
from .reports import (
    carrier_rows,
    mechanism_table_rows,
    on_rent_rows,
    projection_rows,
    quit_frequency_rows,
    write_csv,
    write_report,
)
from .scenario import (
    Scenario,
    check_checks,
    check_samples,
    check_seed,
    check_tolerance,
    load_scenario,
    read_json,
)
from .synthesis import (
    check_dcm_zero,
    ir_partitions,
    posted_factor_eta,
    solve_phi_by_indifference,
    synthesize_mechanism,
)
from .verify import (
    Verdict,
    check_constrained_monotone,
    check_doic,
    check_doic_mc,
    check_envelope,
    check_mso,
    check_payoff_flow,
    check_phi_uniqueness,
)

__all__ = ["PipelineResult", "run_scenario", "export_report"]


@dataclass
class PipelineResult:
    scenario: Scenario
    report: dict
    passed: bool
    artifacts: list[Path]

    engine: Engine | None = None
    carriers: object | None = None
    transforms: object | None = None
    conjecture: object | None = None
    nodes: list | None = None


def run_scenario(source, out_dir: str | Path | None = None,
                 overrides: Mapping | None = None) -> PipelineResult:
    scenario = source if isinstance(source, Scenario) else load_scenario(source)
    if overrides:
        for k, v in overrides.items():
            setattr(scenario, k, v)
    check_checks(scenario.checks)
    check_samples(scenario.samples)
    check_seed(scenario.seed)
    check_tolerance(scenario.tolerance)
    carriers = transforms = diags = None
    if scenario.variant == "tables":
        game, walker, mech, conj, partitions, variant, extras = _load_tables(scenario)
    else:
        game = scenario.build_game()
        sigma = scenario.build_policy()
        partitions = scenario.build_partitions(game)
        variant = scenario.variant
        mech, carriers, transforms, conj, diags = synthesize_mechanism(
            game, sigma, variant, partitions=None if variant == "ir" else partitions)
        walker = carriers.walker
        extras = {}
    engine = Engine(game, mech, walker=walker,
                    directive_quit=lambda i, t, s: s in conj.regions.get((i, t), frozenset()))
    nodes = engine.walker.reachable_nodes(conj.plan())
    root = engine.root()
    chi = {i: engine.quit_distribution(i, root, conj.regions) for i in game.agents()}
    tol = scenario.tolerance
    verdicts: list[Verdict] = []

    for check in scenario.checks:
        if check == "support":
            strict = game.validate_full_support(mode="strict")
            relaxed = game.validate_full_support(mode="reachable")
            extras["support"] = {"strict": strict.passed, "reachable": relaxed.passed,
                                 "strict_violations": len(strict.violations)}
        elif check == "doic":
            mode = "ir" if variant == "ir" else "off"
            if scenario.mode == "mc":
                verdicts += check_doic_mc(engine, conj, nodes, scenario.samples,
                                          scenario.seed, mode=mode, partitions=partitions,
                                          tol=tol)
            else:
                try:
                    verdicts += check_doic(engine, conj, nodes, mode=mode,
                                           partitions=partitions, tol=tol)
                except TreeSizeError as exc:
                    raise GameError(f"exact doic enumeration too large: {exc}") from exc
        elif check == "payoff_flow":
            eta = posted_factor_eta(carriers, mech, nodes, tol=tol)
            extras["eta"] = {"consistent": eta.consistent,
                             "worst_spread": eta.worst_spread,
                             "worst_spread_all_cutoffs": eta.worst_spread_all_L}
            verdicts += check_payoff_flow(engine, carriers, nodes, eta.values, tol=tol)
        elif check == "cm":
            verdicts.append(check_constrained_monotone(carriers, nodes, tol=tol))
        elif check == "envelope":
            verdicts.append(check_envelope(engine, carriers, conj, nodes))
        elif check == "mso":
            verdicts.append(check_mso(engine, conj, nodes, tol=tol))
        elif check == "phi_uniqueness":
            closed = _closed_form_phi(engine, mech, transforms, nodes)
            solved = solve_phi_by_indifference(game, mech.sigma, mech.rho, transforms, conj,
                                               nodes, variant)
            verdicts.append(check_phi_uniqueness(closed, solved))
        elif check == "dcm_zero":
            rep = check_dcm_zero(mech, transforms, nodes, tol=tol)
            verdicts.append(Verdict("dcm-zero", rep.passed, rep.worst, tol))
        elif check == "fixed_point":
            fp = engine.om_fixed_point(root, chi)
            # the necessary alignment: immediate quit mass matches chi
            match = all(abs(fp.marginals[i].get(root.t, 0.0) - chi[i].get(root.t, 0.0)) <= 1e-6
                        for i in game.agents())
            verdicts.append(Verdict("fixed-point", fp.converged and fp.residual <= FIXED_POINT_TOL,
                                    fp.residual, FIXED_POINT_TOL,
                                    details={"iterations": fp.iterations,
                                             "matches_chi": match}))
        elif check == "barrier":
            count = 0
            for i in game.agents():
                for s in range(game.grid(i, 1).points):
                    count += len(transforms.barrier_violations(i, root, s))
                count += transforms.barrier_violations_mc(
                    i, root, 0, min(scenario.samples, 10_000), scenario.seed + i)
            verdicts.append(Verdict("barrier", count == 0, float(count), 0.0))
        elif check == "transform":
            worst = 0.0
            for i, node in live_cells(nodes, game.horizon):
                for s in range(game.grid(i, node.t).points):
                    lam = engine.payoff_to_go(i, node, s, conj)
                    rep = transforms.total(i, node, transforms.project(i, node, s))
                    worst = max(worst, abs(lam - rep))
            verdicts.append(Verdict("transform-representation", worst <= tol, worst, tol))

    if carriers is not None:
        monotone = detect_monotone(carriers, nodes)
        extras["monotone_environment"] = {"passed": monotone.passed,
                                          "orientation": monotone.orientation}
        extras["synthesis"] = {"horizontal_ok": diags.horizontal_ok,
                               "horizontal_spread": diags.horizontal_spread,
                               "c1_backmap_spread": diags.c1_backmap_spread,
                               "notes": list(diags.notes)}

    sim = engine.simulate(scenario.samples, scenario.seed)
    extras["simulation"] = {"paths": sim.n_paths, "seed": sim.seed,
                            "quit_freq": {f"{i},{t}": v for (i, t), v in sim.quit_freq.items()},
                            "never_quit": {str(i): v for i, v in sim.never_quit_freq.items()},
                            "mean_payoff": {str(i): v for i, v in sim.mean_payoff.items()}}

    passed = all(v.passed for v in verdicts)
    report = {
        "scenario": scenario.name,
        "variant": scenario.variant,
        "mode": scenario.mode,
        "seed": scenario.seed,
        "passed": passed,
        "verdicts": [v.to_json() for v in verdicts],
        "chi": {str(i): {str(k): v for k, v in sorted(chi[i].items())} for i in chi},
        "extras": extras,
    }

    artifacts: list[Path] = []
    if out_dir is not None:
        out = Path(out_dir)
        artifacts.append(write_report(report, out / "report.json"))
    # a table-backed run has no carriers or transforms and writes only its report
    if out_dir is not None and carriers is not None:
        # on-rents are exact values: a sampled run does not fill the prospect table for them
        if scenario.mode != "mc":
            artifacts.append(write_csv(out / "on_rent.csv",
                                       ["agent", "period", "history_id", "state_index",
                                        "on_rent"],
                                       on_rent_rows(engine, conj, nodes)))
        artifacts.append(write_csv(out / "projections.csv",
                                   ["agent", "period", "history_id", "state_index", "projected_index"],
                                   projection_rows(transforms, nodes)))
        artifacts.append(write_csv(out / "carriers.csv",
                                   ["agent", "period", "history_id", "state_index", "cutoff",
                                    "carrier", "max_carrier", "marginal_carrier"],
                                   carrier_rows(carriers, nodes)))
        artifacts.append(write_csv(out / "quit_frequency.csv",
                                   ["agent", "period", "chi", "empirical"],
                                   quit_frequency_rows(chi, sim.quit_freq)))
        artifacts.append(write_csv(out / "mechanism.csv",
                                   ["agent", "period", "history_id", "action_slot",
                                    "action", "coupling", "posted_value"],
                                   mechanism_table_rows(engine, nodes)))
        artifacts.append(write_csv(out / "histograms.csv",
                                   ["kind", "agent", "period", "index", "count"],
                                   [("state", i, t, j, c)
                                    for (i, t, j), c in sim.state_hist.items()]
                                   + [("action", i, t, j, c)
                                      for (i, t, j), c in sim.action_hist.items()]))
        artifacts.append(export_mechanism_tables(engine, scenario,
                                                 out / "mechanism_tables.json"))
    return PipelineResult(scenario, report, passed, artifacts,
                          engine=engine, carriers=carriers, transforms=transforms,
                          conjecture=conj, nodes=nodes)


def _closed_form_phi(engine: Engine, mech, transforms, nodes) -> dict:
    out = {}
    for i, node in live_cells(nodes, engine.game.horizon):
        if mech.phi.state_dependent():
            # each interval is represented by its lowest state
            for w, (lo, _, _, _) in enumerate(transforms.partition(i, node.t).intervals()):
                out[(i, node.key, w)] = mech.phi.value(i, node, lo)
        else:
            out[(i, node.key)] = mech.phi.value(i, node)
    return out


def export_report(report_path: str | Path, fmt: str, out_dir: str | Path) -> list[Path]:
    """Re-emit an existing report deterministically as json or csv files."""
    report = read_json(report_path, "report")
    if not isinstance(report, dict):
        raise GameError(f"report {str(report_path)!r} is not a JSON object")
    out = Path(out_dir)
    if fmt == "json":
        return [write_report({k: v for k, v in report.items() if k != "schema_version"},
                             out / "report.json")]
    if fmt != "csv":
        raise GameError(f"unknown export format {fmt!r}")
    try:
        verdict_rows = [(v["name"], v["passed"], float(v["worst"]), float(v["tolerance"]),
                         v["mode"]) for v in report.get("verdicts", [])]
        chi_rows = [(i, k, float(p)) for i, row in sorted(report.get("chi", {}).items())
                    for k, p in sorted(row.items(), key=lambda kv: int(kv[0]))]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise GameError(f"report {str(report_path)!r} is malformed: {exc!r}") from exc
    return [
        write_csv(out / "verdicts.csv", ["name", "passed", "worst", "tolerance", "mode"],
                  verdict_rows),
        write_csv(out / "chi.csv", ["agent", "period", "probability"], chi_rows),
    ]


TABLES_SCHEMA_VERSION = 2


def export_mechanism_tables(engine: Engine, scenario: Scenario, path: str | Path) -> Path:
    """Write the synthesized mechanism as session-independent tables.

    The coupling and the cutoff are functions of the node's Markov class,
    so there is one row per (agent, class, menu slot or interval), keyed by
    the class signature, at every class ``TreeWalker.markov_classes``
    reaches.  That covers every history any check, the fixed point or the
    simulation can query.  Rows are sorted and written one per line; the
    file stays one JSON document.  A scenario with variant "tables" can
    verify and simulate against the file without re-running the synthesis.
    """
    import json

    walker = engine.walker
    mech = engine.mechanism
    rows = {"coupling": [], "posted": [], "posted_intervals": []}
    for i, node in live_cells(walker.markov_classes(), engine.game.horizon):
        sig = walker.store.class_signature(node)
        for pos, a in enumerate(walker.menu(i, node).actions):
            rows["coupling"].append((i, sig, pos, float(mech.rho.value(i, node, {i: a}))))
        if mech.phi.state_dependent():
            for w, v in sorted(mech.phi.per_interval_values(i, node).items()):
                rows["posted_intervals"].append((i, sig, w, float(v)))
        else:
            rows["posted"].append((i, sig, float(mech.phi.value(i, node))))
    header = {
        "boundaries": {str(k): v for k, v in scenario.boundaries.items()},
        "schema_version": TABLES_SCHEMA_VERSION,
        "source": scenario.name,
        "variant": scenario.variant,
        "window": walker.store.window,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.write("{\n")
        for k, v in header.items():
            f.write(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)},\n")
        for name, section in rows.items():
            f.write(f"{json.dumps(name)}: [")
            for k, row in enumerate(sorted(section)):
                f.write(("\n" if k == 0 else ",\n") + json.dumps(row))
            f.write("\n]" if section else "]")
            f.write("\n}\n" if name == "posted_intervals" else ",\n")
    return path


def _read_tables(path: str, window: int | None) -> dict:
    """The parts of an exported mechanism-tables file the table-backed run uses.

    The file must be of the current schema and keyed by classes of the
    scenario's own history ``window``.
    """
    body = read_json(path, "mechanism tables")
    try:
        tables = {
            "source": body.get("source"),
            "variant": body["variant"],
            "boundaries": {int(k): [(float(a), float(b)) for a, b in pairs]
                           for k, pairs in body.get("boundaries", {}).items()},
            "coupling": {(r[0], r[1], r[2]): r[3] for r in body["coupling"]},
            "posted": {(r[0], r[1]): r[2] for r in body.get("posted", [])},
            "posted_intervals": {(r[0], r[1], r[2]): r[3]
                                 for r in body.get("posted_intervals", [])},
        }
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise GameError(f"mechanism tables {path!r} are malformed: {exc!r}") from exc
    # version 1 keyed rows by full history and carried no version field
    version = body.get("schema_version", 1)
    if version != TABLES_SCHEMA_VERSION:
        raise GameError(f"mechanism tables {path!r} have schema version {version!r}; only "
                        f"version {TABLES_SCHEMA_VERSION} is read, so re-export them")
    if body.get("window") != window:
        raise GameError(f"mechanism tables {path!r} key classes by history window "
                        f"{body.get('window')!r}, but the scenario's window is {window!r}")
    return tables


def _load_tables(scenario: Scenario):
    """Rebuild a mechanism from exported tables for the shared pipeline.

    The tables cover every Markov class, so obedience checks, the fixed
    point and the simulation run as on a synthesized mechanism;
    synthesis-side checks (conservation, envelope, uniqueness, ...) need
    the synthesized carriers and are rejected here.  Returns (game, walker,
    mechanism, conjecture, partitions, the tables' variant, extras).
    """
    allowed = {"support", "doic", "fixed_point"}
    bad = [c for c in scenario.checks if c not in allowed]
    if bad:
        raise GameError(f"table-backed scenarios support checks {sorted(allowed)}, not {bad}")
    tables_path = scenario.raw.get("mechanism", {}).get("path")
    if not tables_path or not isinstance(tables_path, str):
        raise GameError("variant 'tables' needs mechanism.path")
    game = scenario.build_game()
    sigma = scenario.build_policy()
    walker = TreeWalker(game, sigma)
    tables = _read_tables(tables_path, walker.store.window)
    if tables["variant"] == "ir" or not tables["boundaries"]:
        partitions = ir_partitions(game)
        regions = {}
    else:
        partitions = {}
        for i, pairs in tables["boundaries"].items():
            prof = BoundaryProfile(tuple((a, b) for a, b in pairs))
            for t in game.periods():
                partitions[(i, t)] = partition_from_boundary(game.grid(i, t), prof)
        regions = {k: p.off_indices for k, p in partitions.items()}
    class_of = walker.store.class_signature
    rho = TableCoupling(tables["coupling"], walker.menu, class_of)

    def interval_of(i, t, s_idx):
        return partitions[(i, t)].global_interval_index(s_idx)

    if tables["posted_intervals"]:
        phi = TableOffSwitch(game.horizon, {}, tables["posted_intervals"], interval_of,
                             class_of=class_of)
    else:
        phi = TableOffSwitch(game.horizon, tables["posted"], class_of=class_of)
    extras = {"mechanism_source": tables["source"]}
    return (game, walker, Mechanism(sigma, rho, phi), RegionConjecture(regions), partitions,
            tables["variant"], extras)
