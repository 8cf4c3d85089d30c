"""``satakit sim``: replay attack scenarios in the browser simulator."""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import SataError
from . import EXIT_OK, _emit
from ._shared import files_in, write_out

if TYPE_CHECKING:  # each handler imports what it runs when it runs
    from ..sim import Outcome


def _outcome_payload(o: Outcome) -> dict:
    return {
        "reached_endpoint": o.reached_endpoint,
        "alert": o.user_visible_alert,
        "verdicts": [{"outcome": v.outcome.value, "detail": v.detail} for v in o.verdicts],
        "cache_writes": [
            {"origin": w.origin, "alt_host": w.alt_host, "expires_at": w.expires_at}
            for w in o.cache_writes
        ],
        "via_alt_service": o.via_alt_service,
        "notes": list(o.notes),
    }


def _cmd_sim_run(args) -> int:
    from .. import sim as simmod

    scenario = simmod.load_scenario(Path(args.fixture))
    if args.browser not in scenario.browsers:
        raise SataError(
            f"fixture defines no browser {args.browser!r} "
            f"(has: {', '.join(sorted(scenario.browsers)) or 'none'})"
        )
    outcomes = simmod.run_scenario(scenario, scenario.browsers[args.browser])
    payload = {
        "scenario": scenario.name,
        "browser": args.browser,
        "steps": [_outcome_payload(o) for o in outcomes],
    }
    human = "\n".join(
        f"step {i}: reached={o.reached_endpoint} alert={o.user_visible_alert}"
        for i, o in enumerate(outcomes)
    )
    _emit(args, payload, human)
    return EXIT_OK


def _cmd_sim_matrix(args) -> int:
    from .. import sim as simmod

    rows: list[dict] = []
    for path in files_in(args.fixtures, ".json"):
        scenario = simmod.load_scenario(path)
        browsers = list(scenario.browsers.values())
        rows.extend(simmod.run_matrix([scenario], browsers))
    write_out(args, json.dumps(rows, indent=2))
    if args.json:
        print(json.dumps(rows, separators=(",", ":")))
    else:
        for row in rows:
            print(
                f"{row['scenario']:32} {row['browser']:12} reached={row['reached_endpoint']:22} "
                f"alert={row['user_visible_alert']} success={row['attack_success']}"
            )
    return EXIT_OK


def add_commands(group: argparse.ArgumentParser) -> None:
    sim = group.add_subparsers(dest="sub", required=True)
    p = sim.add_parser("run", help="replay one fixture under one browser")
    p.add_argument("--fixture", required=True)
    p.add_argument("--browser", required=True, help="browser name defined in the fixture")
    p.set_defaults(func=_cmd_sim_run)
    p = sim.add_parser("matrix", help="scenario x browser outcome table")
    p.add_argument("--fixtures", required=True, help="directory of fixture JSON files")
    p.add_argument("--out", help="write the table JSON here")
    p.set_defaults(func=_cmd_sim_matrix)
