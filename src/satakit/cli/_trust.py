"""``satakit trust``: search a credential pool for a trust chain."""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import TYPE_CHECKING

from . import EXIT_DATA, EXIT_OK, _emit
from ._shared import add_now, read_creds_dir, resolve_now

if TYPE_CHECKING:  # each handler imports what it runs when it runs
    from ..trust import TrustChain


def _chain_payload(chain: TrustChain) -> dict:
    return {
        "trusted": True,
        "label": chain.label,
        "chain": [
            {
                "sattestor_domain": link.credential.sattestor_domain,
                "sattestor_onion": link.credential.sattestor_onion.label,
                "binding_index": link.binding_index,
                "label": link.label,
            }
            for link in chain.links
        ],
    }


def _cmd_trust_eval(args) -> int:
    from .. import _json
    from ..sata import parse_sata
    from ..trust import evaluate, policy_from_json

    policy = policy_from_json(_json.load(Path(args.policy).read_bytes(), "policy"))
    creds = read_creds_dir(args.creds)
    subject = parse_sata(args.subject)
    chain = evaluate(policy, creds, subject, args.label, resolve_now(args.now))
    if chain is None:
        _emit(args, {"trusted": False}, "not trusted")
        return EXIT_DATA
    _emit(args, _chain_payload(chain), f"trusted via {len(chain.links)}-link chain")
    return EXIT_OK


def add_commands(group: argparse.ArgumentParser) -> None:
    trust = group.add_subparsers(dest="sub", required=True)
    p = trust.add_parser("eval", help="search for a trust chain")
    p.add_argument("--policy", required=True, help="policy JSON file")
    p.add_argument("--creds", required=True, help="directory of .satt files")
    p.add_argument("--subject", required=True, help="subject SATA (URL or host)")
    p.add_argument("--label", required=True)
    add_now(p)
    p.set_defaults(func=_cmd_trust_eval)
