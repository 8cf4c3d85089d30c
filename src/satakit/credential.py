"""Sattestation credentials: canonical serialization, issuance, verification.

A sattestation is a signed assertion by a *sattestor* (itself identified
by a SATA) binding one or more (domain, onion) pairs, optionally with
contextual labels, and, for self-sattestations only, the fingerprints of
the domain's TLS certificates.

Canonical wire form is compact JSON with a fixed key order::

    {"sattestation":{
        "sattestation_version":1,
        "sattestor_domain":"sattestora.info",
        "sattestor_onion":"<56-char label>",
        "sattestor_refresh_rate":"7 days",
        "sattestees":[
            {"domain":"domain1.info","onion":"<label>","labels":"news",
             "issued":"2020-06-01","refreshed_on":"2020-08-25"}]}}

The ed25519 signature is computed over exactly those bytes; transport form
appends a top-level ``signature`` field holding the signature as lowercase
hex.  Self-sattestations carry a ``cert_fingerprint`` list after ``labels``.
Labels travel as a single comma-separated string, which is why individual
labels may not contain commas.  There is deliberately no revocation field
anywhere: credentials are short-lived and simply re-issued.
"""

from __future__ import annotations

import json
import math
import re
from datetime import date
from functools import cached_property
from typing import Iterable

from . import _json
from ._value import Value, set_field
from .errors import (
    BadDomain,
    BadSignature,
    KeyMismatch,
    MalformedSignature,
    NoFingerprints,
    NoSuchBinding,
    Stale,
    StructuralViolation,
    TooLarge,
    UnrepresentableField,
)
from .onion import KeyPair, OnionAddress, parse_onion, sign, verify
from .sata import normalize_domain

CREDENTIAL_VERSION = 1
SATA_HEADER_NAME = "x-sata"
WELL_KNOWN_SATTESTATION_PATH = "/.well-known/sattestation"
SATT_FILE_EXTENSION = ".satt"
MAX_SELF_SATTESTATION_BYTES = 800

_RATE_RE = re.compile(r"^(\d+(?:\.\d+)?) days$")
_FINGERPRINT_RE = re.compile(r"^[0-9A-F]+$")
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")  # the only code points UTF-8 cannot encode


def format_refresh_rate(days: float) -> str:
    """Wire form of a refresh rate, e.g. ``"7 days"``, ``"3.5 days"`` or
    ``"0.0000001 days"``: the shortest decimal that reads back as ``days``,
    never in exponent form, so :func:`parse_refresh_rate` reads it."""
    if days <= 0 or days != days or days in (float("inf"),):
        raise UnrepresentableField(f"refresh rate must be positive and finite: {days!r}")
    if float(days).is_integer():
        return f"{int(days)} days"
    text = repr(float(days))
    if "e" in text:  # only below 1e-4: every float from 1e16 up is an integer
        digits, exponent = text.split("e")
        text = "0." + "0" * (-int(exponent) - 1) + digits.replace(".", "")
    return f"{text} days"


def parse_refresh_rate(text: str) -> float:
    m = _RATE_RE.match(text) if isinstance(text, str) else None
    if not m:
        raise UnrepresentableField(f"refresh rate not in '<number> days' form: {text!r}")
    return float(m.group(1))


class Binding(Value):
    """One sattestee entry: a (domain, onion) pair with its dates.

    ``cert_fingerprints`` may only be set when the enclosing credential is
    a self-sattestation.  ``onion_reachable`` is an optional hint that the
    service is reachable over onion transport; it is omitted from the
    canonical bytes when absent.  A wrong-typed field raises
    :class:`StructuralViolation`, except a domain (:class:`BadDomain`) and
    a date (:class:`UnrepresentableField`: a ``datetime`` would serialize
    with a time part).
    """

    _type_error = StructuralViolation
    _type_errors = {
        "domain": BadDomain,
        "issued": UnrepresentableField,
        "refreshed_on": UnrepresentableField,
    }

    domain: str
    onion: OnionAddress
    issued: date
    refreshed_on: date
    labels: tuple[str, ...] = ()
    cert_fingerprints: tuple[str, ...] = ()
    onion_reachable: bool | None = None

    def _check(self) -> None:
        set_field(self, "domain", normalize_domain(self.domain))
        if self.refreshed_on < self.issued:
            raise StructuralViolation(
                f"refreshed_on {self.refreshed_on} precedes issued {self.issued}"
            )
        for label in self.labels:
            if not label or "," in label or _SURROGATE_RE.search(label):
                raise StructuralViolation(
                    f"label {label!r} must be nonempty, comma-free and encodable as UTF-8"
                )
        normalized = tuple(fp.upper() for fp in self.cert_fingerprints)
        for fp in normalized:
            if not _FINGERPRINT_RE.match(fp):
                raise StructuralViolation(f"certificate fingerprint {fp!r} is not hex")
        set_field(self, "cert_fingerprints", normalized)

    def binds(self, domain: str, onion: OnionAddress) -> bool:
        return self.domain == domain.lower() and self.onion.label == onion.label


class SattestationBody(Value):
    """Everything the sattestor signs; a Sattestation is body + signature.

    Immutable, so its canonical bytes are encoded once, on first use.  A
    refresh rate with no wire form (not positive and finite) is rejected
    here, not when the bytes are first needed.  A wrong-typed field raises
    :class:`StructuralViolation`, except the domain (:class:`BadDomain`)
    and the refresh rate (:class:`UnrepresentableField`, as for one with
    no wire form).
    """

    _type_error = StructuralViolation
    _type_errors = {"sattestor_domain": BadDomain, "refresh_rate_days": UnrepresentableField}

    sattestor_domain: str
    sattestor_onion: OnionAddress
    refresh_rate_days: float
    sattestees: tuple[Binding, ...]
    version: int = CREDENTIAL_VERSION

    def _check(self) -> None:
        set_field(self, "sattestor_domain", normalize_domain(self.sattestor_domain))
        if not self.sattestees:
            raise StructuralViolation("credential must carry at least one binding")
        format_refresh_rate(self.refresh_rate_days)

    @cached_property
    def _canonical(self) -> bytes:
        wire = _body_wire(self)
        return json.dumps(wire, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


class Sattestation(Value):
    """A signed body.  Immutable, so its structure and its signature are
    each checked once, on first use.  A body that is not a
    :class:`SattestationBody` raises :class:`StructuralViolation`, a
    signature that is not bytes :class:`MalformedSignature`."""

    _type_error = StructuralViolation
    _type_errors = {"signature": MalformedSignature}

    body: SattestationBody
    signature: bytes

    def _check(self) -> None:
        if len(self.signature) != 64:
            raise MalformedSignature(f"signature must be 64 bytes, got {len(self.signature)}")

    @cached_property
    def _structural_fault(self) -> str | None:
        """The first structural invariant the credential breaks, or None."""
        if self.version != CREDENTIAL_VERSION:
            return f"unsupported credential version {self.version}"
        self_satt = is_self_sattestation(self)
        for i, b in enumerate(self.sattestees):
            if b.cert_fingerprints and not self_satt:
                return (
                    f"binding {i} carries cert fingerprints but the credential "
                    "is not a self-sattestation"
                )
        if self_satt and not self.sattestees[0].cert_fingerprints:
            return "self-sattestation must bind at least one certificate"
        return None

    @cached_property
    def _signature_ok(self) -> bool:
        return verify(self.sattestor_onion.pubkey, canonical_bytes(self), self.signature)

    # flat accessors so callers need not reach through .body
    @property
    def version(self) -> int:
        return self.body.version

    @property
    def sattestor_domain(self) -> str:
        return self.body.sattestor_domain

    @property
    def sattestor_onion(self) -> OnionAddress:
        return self.body.sattestor_onion

    @property
    def refresh_rate_days(self) -> float:
        return self.body.refresh_rate_days

    @property
    def sattestees(self) -> tuple[Binding, ...]:
        return self.body.sattestees


def is_self_sattestation(s: Sattestation) -> bool:
    """A credential about the sattestor itself: exactly one binding whose
    (domain, onion) equals the sattestor's own pair."""
    if len(s.sattestees) != 1:
        return False
    return s.sattestees[0].binds(s.sattestor_domain, s.sattestor_onion)


def _binding_wire(b: Binding) -> dict:
    out: dict = {"domain": b.domain, "onion": b.onion.label}
    if b.labels:
        out["labels"] = ",".join(b.labels)
    if b.cert_fingerprints:
        out["cert_fingerprint"] = list(b.cert_fingerprints)
    out["issued"] = b.issued.isoformat()
    out["refreshed_on"] = b.refreshed_on.isoformat()
    if b.onion_reachable is not None:
        out["onion_reachable"] = b.onion_reachable
    return out


def _body_wire(body: SattestationBody) -> dict:
    return {
        "sattestation": {
            "sattestation_version": body.version,
            "sattestor_domain": body.sattestor_domain,
            "sattestor_onion": body.sattestor_onion.label,
            "sattestor_refresh_rate": format_refresh_rate(body.refresh_rate_days),
            "sattestees": [_binding_wire(b) for b in body.sattestees],
        }
    }


def canonical_bytes(body: SattestationBody | Sattestation) -> bytes:
    """Deterministic byte sequence the signature covers.

    Compact JSON, fixed key order, dates as YYYY-MM-DD, onion addresses as
    bare 56-char labels, UTF-8.  Structurally equal bodies always produce
    identical bytes; binding order is significant.
    """
    if isinstance(body, Sattestation):
        body = body.body
    return body._canonical


def issue(sattestor_key: KeyPair, body: SattestationBody) -> Sattestation:
    """Sign a credential body with the sattestor's onion key."""
    if sattestor_key.public != body.sattestor_onion.pubkey:
        raise KeyMismatch("signing key does not match the sattestor onion address")
    signature = sign(sattestor_key, canonical_bytes(body))
    return Sattestation(body=body, signature=signature)


def verify_credential(s: Sattestation) -> None:
    """Check structural invariants, then the signature over canonical bytes.

    Both verdicts are fixed by the immutable credential object, which keeps
    them: the checks run on its first call, and a repeat call only reads
    them back (and raises afresh).

    Raises :class:`StructuralViolation` naming the failed invariant, or
    :class:`BadSignature`; returns None when the credential is sound.
    """
    fault = s._structural_fault
    if fault is not None:
        raise StructuralViolation(fault)
    if not s._signature_ok:
        raise BadSignature("signature does not verify under the sattestor onion key")


def make_self_sattestation(
    key: KeyPair,
    domain: str,
    cert_fingerprints: Iterable[str],
    issued: date,
    refreshed_on: date,
    refresh_rate_days: float,
    labels: Iterable[str] | None = None,
    onion_reachable: bool | None = None,
) -> Sattestation:
    """Build and sign a self-sattestation for ``domain`` under ``key``.

    The onion identity is derived from the key.  Transport encoding must
    stay under :data:`MAX_SELF_SATTESTATION_BYTES` (headers travel
    uncompressed); exceeding it raises :class:`TooLarge`.
    """
    onion = key.address
    binding = Binding(
        domain=domain,
        onion=onion,
        issued=issued,
        refreshed_on=refreshed_on,
        labels=() if labels is None else labels,
        cert_fingerprints=cert_fingerprints,
        onion_reachable=onion_reachable,
    )
    if not binding.cert_fingerprints:
        raise NoFingerprints("a self-sattestation needs at least one cert fingerprint")
    body = SattestationBody(
        sattestor_domain=domain,
        sattestor_onion=onion,
        refresh_rate_days=refresh_rate_days,
        sattestees=(binding,),
    )
    credential = issue(key, body)
    size = len(to_transport_json(credential).encode("utf-8"))
    if size >= MAX_SELF_SATTESTATION_BYTES:
        raise TooLarge(
            f"transport encoding is {size} bytes, bound is "
            f"{MAX_SELF_SATTESTATION_BYTES}",
            size,
        )
    return credential


def freshness_slack(refresh_rate_days: float) -> int:
    """The most whole days a binding's ``refreshed_on`` may lie from the
    date it is checked at and still be fresh.

    The rule is |now - refreshed_on| < rate, in whole days.  For an integer
    day difference d, |d| < rate exactly when |d| <= ceil(rate) - 1, so
    the slack is exact for any positive rate, whole or not.
    """
    return math.ceil(refresh_rate_days) - 1


def is_fresh(b: Binding, refresh_rate_days: float, now: date) -> bool:
    """Whether one binding is fresh at ``now``: its day distance from
    ``refreshed_on``, which equals ``issued`` when never refreshed, is
    within :func:`freshness_slack`."""
    days = abs(now.toordinal() - b.refreshed_on.toordinal())
    return days <= freshness_slack(refresh_rate_days)


def check_freshness(s: Sattestation, binding_index: int, now: date) -> None:
    """Apply :func:`is_fresh` to one binding; raise :class:`Stale` with the
    margin by which the strict bound was missed."""
    if not 0 <= binding_index < len(s.sattestees):
        raise NoSuchBinding(f"binding index {binding_index} out of range")
    b = s.sattestees[binding_index]
    if not is_fresh(b, s.refresh_rate_days, now):
        age = abs((now - b.refreshed_on).days)
        raise Stale(
            f"binding {binding_index} is {age} days old, refresh rate is "
            f"{format_refresh_rate(s.refresh_rate_days)} (strict bound)",
            margin_days=age - s.refresh_rate_days,
        )


def to_transport_json(s: Sattestation) -> str:
    """Single-line transport form: canonical body plus the signature field,
    spliced in before the body's closing brace."""
    body = canonical_bytes(s).decode("utf-8")
    return f'{body[:-1]},"signature":"{s.signature.hex()}"}}'


def _parse_binding(obj: dict) -> Binding:
    labels = _json.field(obj, "labels", str, "", what="credential")
    fingerprints = _json.field(obj, "cert_fingerprint", list, [], items=str, what="credential")
    return Binding(
        domain=_json.field(obj, "domain", str, what="credential"),
        onion=parse_onion(_json.field(obj, "onion", str, what="credential")),
        issued=_json.date_field(obj, "issued", what="credential"),
        refreshed_on=_json.date_field(obj, "refreshed_on", what="credential"),
        labels=tuple(part for part in labels.split(",") if part),
        cert_fingerprints=fingerprints,
        onion_reachable=obj.get("onion_reachable"),
    )


def body_from_wire(obj: dict) -> SattestationBody:
    """Reconstruct a body from parsed wire JSON (the inner object included).

    A missing field, or a field of the wrong JSON type, raises
    :class:`UnrepresentableField`.  An onion label is decoded once per
    process while :func:`parse_onion`'s bounded memo holds it: the
    sattestor and the binding of a self-sattestation share one decode, as
    do the headers a site serves again and again.
    """
    inner = _json.field(obj, "sattestation", dict, what="credential")
    try:
        return SattestationBody(
            sattestor_domain=_json.field(inner, "sattestor_domain", str, what="credential"),
            sattestor_onion=parse_onion(
                _json.field(inner, "sattestor_onion", str, what="credential")
            ),
            refresh_rate_days=parse_refresh_rate(
                _json.field(inner, "sattestor_refresh_rate", str, what="credential")
            ),
            sattestees=tuple(
                _parse_binding(b)
                for b in _json.field(inner, "sattestees", list, items=dict, what="credential")
            ),
            version=_json.field(inner, "sattestation_version", int, what="credential"),
        )
    except ValueError as exc:  # only normalize_domain raises it: a malformed domain name
        raise UnrepresentableField(f"bad domain in credential: {exc}") from exc


def from_transport_json(text: str | bytes) -> Sattestation:
    """Parse the transport form back into a credential.

    Malformed JSON (nesting too deep, an integer too long to convert and an
    object that repeats a key included), or a field that is missing or of
    the wrong JSON type, raises :class:`UnrepresentableField`; a missing or
    malformed signature raises
    :class:`MalformedSignature`.  Signature verification is not performed
    here; call :func:`verify_credential` after parsing.  Onion labels are
    fully validated during parsing (fail closed).
    """
    obj = _json.load(text, "credential")
    body = body_from_wire(obj)
    sig_hex = obj.get("signature")
    if not isinstance(sig_hex, str):
        raise MalformedSignature("missing or non-string signature field")
    try:
        signature = bytes.fromhex(sig_hex)
    except ValueError as exc:
        raise MalformedSignature(f"signature is not hex: {exc}") from exc
    return Sattestation(body=body, signature=signature)
