"""``satakit verify``: validate a SATA connection from its certificate and
served header."""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import EmptyInput, UnrepresentableField
from . import VERDICT_EXIT_CODES, _emit
from ._shared import add_now, hex_bytes, read_credential, resolve_now

if TYPE_CHECKING:  # each function imports what it runs when it runs
    from ..validation import CertDescriptor


def _load_cert(path: str) -> CertDescriptor:
    from .. import _json

    data = Path(path).read_bytes()
    if not data.strip():
        raise EmptyInput(f"certificate file {path!r} is empty")
    if data.lstrip().startswith(b"{"):
        return _cert_from_json(_json.load(data, "certificate"))
    return _cert_from_x509(data)


def _cert_from_json(obj: dict) -> CertDescriptor:
    """A certificate descriptor from its JSON form, each field type-checked."""
    from .. import _json
    from ..validation import CertDescriptor, fingerprint_cert

    der = None
    if "der_hex" in obj:
        der = hex_bytes(
            _json.field(obj, "der_hex", str, what="certificate"), "certificate 'der_hex'"
        )
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

    from ..validation import CertDescriptor, fingerprint_cert

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


def _cmd_verify(args) -> int:
    from ..sata import parse_sata
    from ..validation import validate_connection

    s = parse_sata(args.url)
    cert = _load_cert(args.cert)
    header = read_credential(args.header)
    verdict = validate_connection(s, cert, header, resolve_now(args.now))
    _emit(
        args,
        {"outcome": verdict.outcome.value, "detail": verdict.detail},
        f"{verdict.outcome.value}: {verdict.detail}",
    )
    return VERDICT_EXIT_CODES[verdict.outcome.value]


def add_commands(p: argparse.ArgumentParser) -> None:
    p.add_argument("--url", required=True, help="the SATA being connected to")
    p.add_argument("--cert", required=True, help="PEM/DER certificate or JSON descriptor")
    p.add_argument("--header", required=True, help=".satt file with the served header")
    add_now(p)
    p.set_defaults(func=_cmd_verify)
