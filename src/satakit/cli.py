"""satakit command-line interface.

Exit codes form the contract test harnesses rely on:

====  =======================================================
 0    success / Accept / Trusted / RotationOk
64    usage error (bad flags, missing arguments)
65    data or validation failure (any library error class;
      the class name is printed; also verdict reject-not-sata)
66    verdict reject-signature      (``verify`` command)
67    verdict reject-stale          (``verify`` command)
68    verdict reject-fingerprint    (``verify`` command)
69    verdict reject-san-missing    (``verify`` command)
74    I/O error (unreadable or missing files or directories)
====  =======================================================

Data goes to stdout (single-line JSON with ``--json``), diagnostics to
stderr.  Every time-sensitive command takes an explicit ``--now`` date;
when the ``SATAKIT_TEST_MODE`` environment variable is set the flag is
mandatory so runs stay deterministic.

Every call is a new process, so each command loads only the modules it
runs: the handlers import their satakit modules when they run, and
:func:`main` fills in only the subcommand parsers of the group it was
given.  ``onion parse`` thus loads no SATA, credential, validation, trust
or simulator code, ``verify`` loads neither the trust engine nor the
simulator, and only the ``sim`` commands load the simulator.  The module
``__getattr__`` serves the package's public names, such as
``parse_onion``, as ``satakit.cli.<name>`` on first read, for code that
reads or patches them here, as the benchmark's span tracer does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import EmptyInput, SataError, UnrepresentableField

if TYPE_CHECKING:  # each handler imports what it runs when it runs
    from .credential import Sattestation
    from .sim import Outcome
    from .trust import TrustChain
    from .validation import CertDescriptor

EXIT_OK = 0
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_IO = 74

# keyed by ``VerdictOutcome`` value, so this table loads no validation code
VERDICT_EXIT_CODES = {
    "accept": EXIT_OK,
    "reject-not-sata": 65,
    "reject-signature": 66,
    "reject-stale": 67,
    "reject-fingerprint": 68,
    "reject-san-missing": 69,
}


def __getattr__(name: str):
    """A public satakit name read as ``satakit.cli.<name>``, such as
    ``parse_onion``, from its home module; the value is kept here, so a
    later read, or a patch of this module, finds it as a plain global."""
    from . import _HOME

    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _test_mode() -> bool:
    return bool(os.environ.get("SATAKIT_TEST_MODE"))


def _add_now(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--now",
        type=date.fromisoformat,
        required=_test_mode(),
        default=None,
        help="evaluation date YYYY-MM-DD (defaults to today outside test mode)",
    )


def _resolve_now(value: date | None) -> date:
    return value if value is not None else date.today()


def _hex(text: str, what: str) -> bytes:
    """The bytes ``text`` spells in hex; other text is an :class:`UnrepresentableField`."""
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise UnrepresentableField(f"{what} is not hex: {exc}") from exc


def _read_key(path: str):
    from .onion import keygen

    text = Path(path).read_bytes().decode("ascii", "replace")  # non-ASCII is not hex either
    return keygen(_hex(text.strip(), f"key file {path!r}"))


def _read_credential(path: str) -> Sattestation:
    from .credential import from_transport_json

    return from_transport_json(Path(path).read_bytes())


def _files_in(path: str, suffix: str) -> list[Path]:
    """The files in directory ``path`` whose names end in ``suffix``, in
    name order.  A path that is not a directory raises :class:`OSError`
    (``glob`` would find nothing there and so answer with no files)."""
    return sorted(f for f in Path(path).iterdir() if f.name.endswith(suffix))


def _read_creds_dir(path: str) -> list[Sattestation]:
    """The credentials in ``path``'s ``*.satt`` files, in name order; a
    path that is not a directory is an :class:`OSError`, not an empty pool."""
    from .credential import from_transport_json

    return [from_transport_json(file.read_bytes()) for file in _files_in(path, ".satt")]


def _load_cert(path: str) -> CertDescriptor:
    from . import _json

    data = Path(path).read_bytes()
    if not data.strip():
        raise EmptyInput(f"certificate file {path!r} is empty")
    if data.lstrip().startswith(b"{"):
        return _cert_from_json(_json.load(data, "certificate"))
    return _cert_from_x509(data)


def _cert_from_json(obj: dict) -> CertDescriptor:
    """A certificate descriptor from its JSON form, each field type-checked."""
    from . import _json
    from .validation import CertDescriptor, fingerprint_cert

    der = None
    if "der_hex" in obj:
        der = _hex(_json.field(obj, "der_hex", str, what="certificate"), "certificate 'der_hex'")
    fingerprint = _json.field(obj, "fingerprint", str, "", what="certificate")
    return CertDescriptor(
        fingerprint=fingerprint or fingerprint_cert(der or b""),
        san_list=_json.field(obj, "san_list", list, [], what="certificate"),
        not_before=_json.date_field(obj, "not_before", what="certificate"),
        not_after=_json.date_field(obj, "not_after", what="certificate"),
        has_sct=_json.field(obj, "has_sct", bool, False, what="certificate"),
        der=der,
    )


def _cert_from_x509(data: bytes) -> CertDescriptor:
    from cryptography import x509
    from cryptography.hazmat.primitives import serialization

    from .validation import CertDescriptor, fingerprint_cert

    try:  # cryptography reads extensions lazily: a repeated one raises on first use
        if b"-----BEGIN" in data:
            cert = x509.load_pem_x509_certificate(data)
        else:
            cert = x509.load_der_x509_certificate(data)
        der = cert.public_bytes(serialization.Encoding.DER)
        try:
            ext = cert.extensions.get_extension_for_class(x509.SubjectAlternativeName)
            sans = tuple(ext.value.get_values_for_type(x509.DNSName))
        except x509.ExtensionNotFound:
            sans = ()
        has_sct = any(
            ext.oid.dotted_string == "1.3.6.1.4.1.11129.2.4.2" for ext in cert.extensions
        )
    except (ValueError, x509.DuplicateExtension) as exc:
        raise UnrepresentableField(
            f"certificate is not a well-formed PEM or DER file: {exc}"
        ) from exc
    not_before = getattr(cert, "not_valid_before_utc", None) or cert.not_valid_before
    not_after = getattr(cert, "not_valid_after_utc", None) or cert.not_valid_after
    return CertDescriptor(
        fingerprint=fingerprint_cert(der),
        san_list=sans,
        not_before=not_before.date(),
        not_after=not_after.date(),
        has_sct=has_sct,
        der=der,
    )


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


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(human)


def _write_out(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n")


def _print_credential(args, credential) -> int:
    """Print ``credential`` in transport form, and write it to ``--out``."""
    from .credential import to_transport_json

    text = to_transport_json(credential)
    _write_out(args, text)
    print(text)
    return EXIT_OK


# -- command handlers; each returns an exit code -----------------------------


def _cmd_onion_parse(args) -> int:
    from .onion import parse_onion

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
    from .onion import encode_onion

    label = encode_onion(_hex(args.pubkey_hex, "public key"))
    _emit(args, {"label": label}, label)
    return EXIT_OK


def _cmd_onion_keygen(args) -> int:
    from .onion import keygen

    seed = _hex(args.seed, "seed") if args.seed else None
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


def _cmd_sata_parse(args) -> int:
    from .sata import parse_sata

    s = parse_sata(args.url)
    _emit(
        args,
        {"domain": s.domain, "onion_label": s.onion.label, "form": s.form.value},
        f"domain={s.domain} onion={s.onion.label} form={s.form.value}",
    )
    return EXIT_OK


def _cmd_sata_render(args) -> int:
    from .onion import parse_onion
    from .sata import Sata, SataForm, to_query_form, to_subdomain_form

    s = Sata(
        domain=args.domain,
        onion=parse_onion(args.onion),
        form=SataForm.SUBDOMAIN if args.form == "subdomain" else SataForm.QUERY_STRING,
    )
    rendered = to_subdomain_form(s) if args.form == "subdomain" else to_query_form(s)
    _emit(args, {"rendered": rendered}, rendered)
    return EXIT_OK


def _cmd_sata_rewrite(args) -> int:
    from .sata import securedrop_rewrite

    base, onion = securedrop_rewrite(args.hostname, args.onion)
    _emit(
        args,
        {"base_domain": base, "onion_label": onion.label if onion else None},
        f"base={base} onion={onion.label if onion else '-'}",
    )
    return EXIT_OK


def _cmd_satt_issue(args) -> int:
    from . import _json
    from .credential import body_from_wire, issue

    key = _read_key(args.key)
    body = body_from_wire(_json.load(Path(args.body).read_bytes(), "credential"))
    return _print_credential(args, issue(key, body))


def _cmd_satt_self(args) -> int:
    from .credential import make_self_sattestation

    key = _read_key(args.key)
    credential = make_self_sattestation(
        key=key,
        domain=args.domain,
        cert_fingerprints=args.fingerprint or [],
        issued=args.issued,
        refreshed_on=args.refreshed,
        refresh_rate_days=args.rate,
        labels=args.label,
    )
    return _print_credential(args, credential)


def _cmd_satt_verify(args) -> int:
    from .credential import is_self_sattestation, verify_credential

    credential = _read_credential(args.file)
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
    from .credential import check_freshness

    credential = _read_credential(args.file)
    now = _resolve_now(args.now)
    check_freshness(credential, args.binding, now)
    b = credential.sattestees[args.binding]
    age = abs((now - b.refreshed_on).days)
    _emit(
        args,
        {"ok": True, "age_days": age, "refresh_rate_days": credential.refresh_rate_days},
        f"fresh: {age} days old, rate {credential.refresh_rate_days} days",
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .sata import parse_sata
    from .validation import validate_connection

    s = parse_sata(args.url)
    cert = _load_cert(args.cert)
    header = _read_credential(args.header)
    verdict = validate_connection(s, cert, header, _resolve_now(args.now))
    _emit(
        args,
        {"outcome": verdict.outcome.value, "detail": verdict.detail},
        f"{verdict.outcome.value}: {verdict.detail}",
    )
    return VERDICT_EXIT_CODES[verdict.outcome.value]


def _cmd_trust_eval(args) -> int:
    from . import _json
    from .sata import parse_sata
    from .trust import evaluate, policy_from_json

    policy = policy_from_json(_json.load(Path(args.policy).read_bytes(), "policy"))
    creds = _read_creds_dir(args.creds)
    subject = parse_sata(args.subject)
    chain = evaluate(policy, creds, subject, args.label, _resolve_now(args.now))
    if chain is None:
        _emit(args, {"trusted": False}, "not trusted")
        return EXIT_DATA
    _emit(args, _chain_payload(chain), f"trusted via {len(chain.links)}-link chain")
    return EXIT_OK


def _cmd_rotate_check(args) -> int:
    from .sata import parse_sata
    from .trust import rotation_check

    old, new = parse_sata(args.old), parse_sata(args.new)
    creds = _read_creds_dir(args.creds)
    result = rotation_check(old, new, creds, _resolve_now(args.now))
    payload = {"ok": result.ok, "missing": list(result.missing)}
    if result.ok:
        _emit(args, payload, "rotation ok: mutual sattestations present")
        return EXIT_OK
    _emit(args, payload, f"rotation invalid: missing {', '.join(result.missing)}")
    return EXIT_DATA


def _cmd_rotate_pointer(args) -> int:
    from .sata import parse_sata
    from .trust import expired_rotation_form

    old, new = parse_sata(args.old), parse_sata(args.new)
    key = _read_key(args.key)
    credential = expired_rotation_form(
        old,
        new,
        key,
        cert_fingerprints=args.fingerprint or [],
        issued=args.issued,
        refreshed_on=args.refreshed,
        refresh_rate_days=args.rate,
    )
    return _print_credential(args, credential)


def _cmd_sim_run(args) -> int:
    from . import sim as simmod

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
    from . import sim as simmod

    rows: list[dict] = []
    for path in _files_in(args.fixtures, ".json"):
        scenario = simmod.load_scenario(path)
        browsers = list(scenario.browsers.values())
        rows.extend(simmod.run_matrix([scenario], browsers))
    _write_out(args, json.dumps(rows, indent=2))
    if args.json:
        print(json.dumps(rows, separators=(",", ":")))
    else:
        for row in rows:
            print(
                f"{row['scenario']:32} {row['browser']:12} reached={row['reached_endpoint']:22} "
                f"alert={row['user_visible_alert']} success={row['attack_success']}"
            )
    return EXIT_OK


# -- the parser; each group's subcommands are added by one function ----------


def _onion_commands(group: argparse.ArgumentParser) -> None:
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


def _sata_commands(group: argparse.ArgumentParser) -> None:
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


def _satt_commands(group: argparse.ArgumentParser) -> None:
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
    p.add_argument("--issued", type=date.fromisoformat, required=True)
    p.add_argument("--refreshed", type=date.fromisoformat, required=True)
    p.add_argument("--rate", type=float, default=7.0, help="refresh rate in days")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_satt_self)
    p = satt.add_parser("verify", help="verify a credential file")
    p.add_argument("--file", required=True)
    p.set_defaults(func=_cmd_satt_verify)
    p = satt.add_parser("fresh", help="check a binding's freshness")
    p.add_argument("--file", required=True)
    p.add_argument("--binding", type=int, default=0)
    _add_now(p)
    p.set_defaults(func=_cmd_satt_fresh)


def _verify_command(p: argparse.ArgumentParser) -> None:
    p.add_argument("--url", required=True, help="the SATA being connected to")
    p.add_argument("--cert", required=True, help="PEM/DER certificate or JSON descriptor")
    p.add_argument("--header", required=True, help=".satt file with the served header")
    _add_now(p)
    p.set_defaults(func=_cmd_verify)


def _trust_commands(group: argparse.ArgumentParser) -> None:
    trust = group.add_subparsers(dest="sub", required=True)
    p = trust.add_parser("eval", help="search for a trust chain")
    p.add_argument("--policy", required=True, help="policy JSON file")
    p.add_argument("--creds", required=True, help="directory of .satt files")
    p.add_argument("--subject", required=True, help="subject SATA (URL or host)")
    p.add_argument("--label", required=True)
    _add_now(p)
    p.set_defaults(func=_cmd_trust_eval)


def _rotate_commands(group: argparse.ArgumentParser) -> None:
    rotate = group.add_subparsers(dest="sub", required=True)
    p = rotate.add_parser("check", help="verify mutual rotation sattestations")
    p.add_argument("--old", required=True)
    p.add_argument("--new", required=True)
    p.add_argument("--creds", required=True)
    _add_now(p)
    p.set_defaults(func=_cmd_rotate_check)
    p = rotate.add_parser("pointer", help="expired-address rotation pointer credential")
    p.add_argument("--old", required=True)
    p.add_argument("--new", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--fingerprint", action="append")
    p.add_argument("--issued", type=date.fromisoformat, required=True)
    p.add_argument("--refreshed", type=date.fromisoformat, required=True)
    p.add_argument("--rate", type=float, default=7.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rotate_pointer)


def _sim_commands(group: argparse.ArgumentParser) -> None:
    sim = group.add_subparsers(dest="sub", required=True)
    p = sim.add_parser("run", help="replay one fixture under one browser")
    p.add_argument("--fixture", required=True)
    p.add_argument("--browser", required=True, help="browser name defined in the fixture")
    p.set_defaults(func=_cmd_sim_run)
    p = sim.add_parser("matrix", help="scenario x browser outcome table")
    p.add_argument("--fixtures", required=True, help="directory of fixture JSON files")
    p.add_argument("--out", help="write the table JSON here")
    p.set_defaults(func=_cmd_sim_matrix)


# group -> (help, the function that fills in its parser), in help order
_GROUPS = {
    "onion": ("onion address operations", _onion_commands),
    "sata": ("SATA parsing and rendering", _sata_commands),
    "satt": ("sattestation credentials", _satt_commands),
    "verify": ("validate a SATA connection", _verify_command),
    "trust": ("contextual trust", _trust_commands),
    "rotate": ("key rotation", _rotate_commands),
    "sim": ("attack scenario simulator", _sim_commands),
}


def build_parser(group: str | None = None) -> _Parser:
    """The ``satakit`` parser.  Every group is added, but only ``group``'s
    subcommands are filled in, or every group's when ``group`` is None; a
    call parses one group, so the others' parsers would go unused."""
    parser = _Parser(prog="satakit", description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="machine-readable JSON on stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fill) in _GROUPS.items():
        p = sub.add_parser(name, help=help_text)
        if group in (None, name):
            fill(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # ``--json`` is the only top-level option and takes no value, so the
    # first word that is not an option names the group
    group = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(group).parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SataError, ValueError, KeyError) as exc:
        name = type(exc).__name__
        if args.json:
            print(json.dumps({"error": {"class": name, "detail": str(exc)}}))
        print(f"error: {name}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
