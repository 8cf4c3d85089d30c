"""``satakit satt``: issue, verify and check sattestation credentials."""

from __future__ import annotations

import argparse
from pathlib import Path

from .._json import iso_date
from . import EXIT_OK, _emit
from ._shared import add_now, print_credential, read_credential, read_key, resolve_now


def _cmd_satt_issue(args) -> int:
    from .. import _json
    from ..credential import body_from_wire, issue

    key = read_key(args.key)
    body = body_from_wire(_json.load(Path(args.body).read_bytes(), "credential"))
    return print_credential(args, issue(key, body))


def _cmd_satt_self(args) -> int:
    from ..credential import make_self_sattestation

    key = read_key(args.key)
    credential = make_self_sattestation(
        key=key,
        domain=args.domain,
        cert_fingerprints=args.fingerprint or [],
        issued=args.issued,
        refreshed_on=args.refreshed,
        refresh_rate_days=args.rate,
        labels=args.label,
    )
    return print_credential(args, credential)


def _cmd_satt_verify(args) -> int:
    from ..credential import is_self_sattestation, verify_credential

    credential = read_credential(args.file)
    verify_credential(credential)
    _emit(
        args,
        {
            "ok": True,
            "self_sattestation": is_self_sattestation(credential),
            "sattestor_domain": credential.sattestor_domain,
            "sattestor_onion": credential.sattestor_onion.label,
            "bindings": len(credential.sattestees),
        },
        f"ok: credential by {credential.sattestor_domain} verifies",
    )
    return EXIT_OK


def _cmd_satt_fresh(args) -> int:
    from ..credential import check_freshness

    credential = read_credential(args.file)
    now = resolve_now(args.now)
    check_freshness(credential, args.binding, now)
    b = credential.sattestees[args.binding]
    age = abs((now - b.refreshed_on).days)
    _emit(
        args,
        {"ok": True, "age_days": age, "refresh_rate_days": credential.refresh_rate_days},
        f"fresh: {age} days old, rate {credential.refresh_rate_days} days",
    )
    return EXIT_OK


def add_commands(group: argparse.ArgumentParser) -> None:
    satt = group.add_subparsers(dest="sub", required=True)
    p = satt.add_parser("issue", help="sign a credential body")
    p.add_argument("--key", required=True, help="file holding the 32-byte seed hex")
    p.add_argument("--body", required=True, help="JSON body file (unsigned wire form)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_satt_issue)
    p = satt.add_parser("self", help="build and sign a self-sattestation")
    p.add_argument("--key", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--fingerprint", action="append", help="cert fingerprint, repeatable")
    p.add_argument("--label", action="append")
    p.add_argument("--issued", type=iso_date, required=True)
    p.add_argument("--refreshed", type=iso_date, required=True)
    p.add_argument("--rate", type=float, default=7.0, help="refresh rate in days")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_satt_self)
    p = satt.add_parser("verify", help="verify a credential file")
    p.add_argument("--file", required=True)
    p.set_defaults(func=_cmd_satt_verify)
    p = satt.add_parser("fresh", help="check a binding's freshness")
    p.add_argument("--file", required=True)
    p.add_argument("--binding", type=int, default=0)
    add_now(p)
    p.set_defaults(func=_cmd_satt_fresh)
