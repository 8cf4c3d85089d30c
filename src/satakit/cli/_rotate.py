"""``satakit rotate``: check a key rotation and issue its pointer credential."""

from __future__ import annotations

import argparse

from .._json import iso_date
from . import EXIT_DATA, EXIT_OK, _emit
from ._shared import add_now, print_credential, read_creds_dir, read_key, resolve_now


def _cmd_rotate_check(args) -> int:
    from ..sata import parse_sata
    from ..trust import rotation_check

    old, new = parse_sata(args.old), parse_sata(args.new)
    creds = read_creds_dir(args.creds)
    result = rotation_check(old, new, creds, resolve_now(args.now))
    payload = {"ok": result.ok, "missing": list(result.missing)}
    if result.ok:
        _emit(args, payload, "rotation ok: mutual sattestations present")
        return EXIT_OK
    _emit(args, payload, f"rotation invalid: missing {', '.join(result.missing)}")
    return EXIT_DATA


def _cmd_rotate_pointer(args) -> int:
    from ..sata import parse_sata
    from ..trust import expired_rotation_form

    old, new = parse_sata(args.old), parse_sata(args.new)
    key = read_key(args.key)
    credential = expired_rotation_form(
        old,
        new,
        key,
        cert_fingerprints=args.fingerprint or [],
        issued=args.issued,
        refreshed_on=args.refreshed,
        refresh_rate_days=args.rate,
    )
    return print_credential(args, credential)


def add_commands(group: argparse.ArgumentParser) -> None:
    rotate = group.add_subparsers(dest="sub", required=True)
    p = rotate.add_parser("check", help="verify mutual rotation sattestations")
    p.add_argument("--old", required=True)
    p.add_argument("--new", required=True)
    p.add_argument("--creds", required=True)
    add_now(p)
    p.set_defaults(func=_cmd_rotate_check)
    p = rotate.add_parser("pointer", help="expired-address rotation pointer credential")
    p.add_argument("--old", required=True)
    p.add_argument("--new", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--fingerprint", action="append")
    p.add_argument("--issued", type=iso_date, required=True)
    p.add_argument("--refreshed", type=iso_date, required=True)
    p.add_argument("--rate", type=float, default=7.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rotate_pointer)
