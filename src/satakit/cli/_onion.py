"""``satakit onion``: parse, encode and generate onion addresses."""

from __future__ import annotations

import argparse
from pathlib import Path

from . import EXIT_OK, _emit


def _cmd_onion_parse(args) -> int:
    from ..onion import parse_onion

    addr = parse_onion(args.label)
    _emit(
        args,
        {
            "label": addr.label,
            "pubkey_hex": addr.pubkey.hex(),
            "checksum_ok": True,
            "version": addr.version,
        },
        f"{addr.label}  pubkey={addr.pubkey.hex()}  checksum ok",
    )
    return EXIT_OK


def _cmd_onion_encode(args) -> int:
    from ..onion import encode_onion
    from ._shared import hex_bytes

    label = encode_onion(hex_bytes(args.pubkey_hex, "public key"))
    _emit(args, {"label": label}, label)
    return EXIT_OK


def _cmd_onion_keygen(args) -> int:
    from ..onion import keygen
    from ._shared import hex_bytes

    seed = hex_bytes(args.seed, "seed") if args.seed else None
    pair = keygen(seed)
    if args.out:
        Path(args.out).write_text(pair.secret.hex() + "\n")
    _emit(
        args,
        {
            "secret_hex": pair.secret.hex(),
            "public_hex": pair.public.hex(),
            "onion_label": pair.address.label,
        },
        f"secret={pair.secret.hex()}\npublic={pair.public.hex()}\nonion={pair.address.label}",
    )
    return EXIT_OK


def add_commands(group: argparse.ArgumentParser) -> None:
    onion = group.add_subparsers(dest="sub", required=True)
    p = onion.add_parser("parse", help="validate and decode a label")
    p.add_argument("label")
    p.set_defaults(func=_cmd_onion_parse)
    p = onion.add_parser("encode", help="encode a 32-byte pubkey (hex) as a label")
    p.add_argument("pubkey_hex")
    p.set_defaults(func=_cmd_onion_encode)
    p = onion.add_parser("keygen", help="generate an ed25519 keypair")
    p.add_argument("--seed", help="32-byte hex seed for deterministic output")
    p.add_argument("--out", help="write the secret seed hex to this file")
    p.set_defaults(func=_cmd_onion_keygen)
