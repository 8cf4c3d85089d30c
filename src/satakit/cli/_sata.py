"""``satakit sata``: parse, render and rewrite SATAs."""

from __future__ import annotations

import argparse

from . import EXIT_OK, _emit


def _cmd_sata_parse(args) -> int:
    from ..sata import parse_sata

    s = parse_sata(args.url)
    _emit(
        args,
        {"domain": s.domain, "onion_label": s.onion.label, "form": s.form.value},
        f"domain={s.domain} onion={s.onion.label} form={s.form.value}",
    )
    return EXIT_OK


def _cmd_sata_render(args) -> int:
    from ..onion import parse_onion
    from ..sata import Sata, to_query_form, to_subdomain_form

    s = Sata(domain=args.domain, onion=parse_onion(args.onion))
    rendered = to_subdomain_form(s) if args.form == "subdomain" else to_query_form(s)
    _emit(args, {"rendered": rendered}, rendered)
    return EXIT_OK


def _cmd_sata_rewrite(args) -> int:
    from ..sata import securedrop_rewrite

    base, onion = securedrop_rewrite(args.hostname, args.onion)
    _emit(
        args,
        {"base_domain": base, "onion_label": onion.label if onion else None},
        f"base={base} onion={onion.label if onion else '-'}",
    )
    return EXIT_OK


def add_commands(group: argparse.ArgumentParser) -> None:
    sata = group.add_subparsers(dest="sub", required=True)
    p = sata.add_parser("parse", help="detect a SATA in a URL or hostname")
    p.add_argument("url")
    p.set_defaults(func=_cmd_sata_parse)
    p = sata.add_parser("render", help="render a SATA in either form")
    p.add_argument("--domain", required=True)
    p.add_argument("--onion", required=True, help="56-char onion label")
    p.add_argument("--form", choices=["subdomain", "query"], default="query")
    p.set_defaults(func=_cmd_sata_render)
    p = sata.add_parser("rewrite", help="strip a SecureDrop-style suffix")
    p.add_argument("hostname")
    p.add_argument("--onion", help="expected onion label from the query string")
    p.set_defaults(func=_cmd_sata_rewrite)
