"""Browser-side SATA connection validation.

Pure functions; every check takes the evaluation date explicitly so runs
are deterministic.  All failures are returned as :class:`Verdict` values
rather than raised, and each check is evaluated in a fixed order so the
first failing check determines the verdict.
"""

from __future__ import annotations

import hashlib
from datetime import date
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Union

from ._value import Value, set_field
from .credential import (
    Sattestation,
    _require_date,
    check_freshness,
    is_self_sattestation,
    verify_credential,
)
from .errors import (
    EmptyInput,
    InvalidOnionComponent,
    NotASata,
    OnionAddressError,
    SataError,
    UnrepresentableField,
)
from .sata import Sata, expected_sans, normalize_domain, parse_sata
from .onion import OnionAddress, parse_onion

if TYPE_CHECKING:  # ``satakit verify`` never loads the trust engine
    from .trust import TrustPolicy


class VerdictOutcome(Enum):
    ACCEPT = "accept"
    REJECT_SIGNATURE = "reject-signature"
    REJECT_STALE = "reject-stale"
    REJECT_FINGERPRINT = "reject-fingerprint"
    REJECT_SAN_MISSING = "reject-san-missing"
    REJECT_NOT_SATA = "reject-not-sata"


class Verdict(Value):
    outcome: VerdictOutcome
    detail: str

    def __init__(self, outcome: VerdictOutcome, detail: str) -> None:
        set_field(self, "outcome", outcome)
        set_field(self, "detail", detail)

    def accepted(self) -> bool:
        return self.outcome is VerdictOutcome.ACCEPT


class AltSvcDecision(Enum):
    ALLOW = "allow"
    BLOCK = "block"


class CertDescriptor(Value):
    """Abstract view of a TLS certificate, enough for SATA validation.

    ``fingerprint`` is the uppercase SHA-256 hex of the DER bytes; when
    ``der`` is provided the two must agree (enforced by fixtures, not
    here, since descriptors are often built without the full DER).
    ``has_sct`` only records whether a CT signed-certificate-timestamp was
    promised; nothing here verifies SCTs.  The validity dates must be
    calendar dates and ``has_sct`` a bool, or :class:`UnrepresentableField`
    is raised.
    """

    fingerprint: str
    san_list: tuple[str, ...]
    not_before: date
    not_after: date
    has_sct: bool
    der: bytes | None

    def __init__(
        self,
        fingerprint: str,
        san_list: Iterable[str],
        not_before: date,
        not_after: date,
        has_sct: bool = False,
        der: bytes | None = None,
    ) -> None:
        if (
            not isinstance(fingerprint, str)
            or len(fingerprint) != 64
            or any(c not in "0123456789ABCDEF" for c in fingerprint.upper())
        ):
            raise UnrepresentableField(
                f"certificate fingerprint must be 64 hex chars, got {fingerprint!r}"
            )
        if isinstance(san_list, str) or not isinstance(san_list, Iterable):
            raise UnrepresentableField(
                f"certificate SANs must be a list of names, got {san_list!r}"
            )
        sans = tuple(san_list)
        if not all(isinstance(name, str) for name in sans):
            raise UnrepresentableField(f"certificate SANs must be strings, got {sans!r}")
        _require_date(not_before, "certificate not_before")
        _require_date(not_after, "certificate not_after")
        if type(has_sct) is not bool:
            raise UnrepresentableField(f"certificate has_sct must be a boolean, got {has_sct!r}")
        set_field(self, "fingerprint", fingerprint.upper())
        set_field(self, "san_list", tuple(name.lower() for name in sans))
        set_field(self, "not_before", not_before)
        set_field(self, "not_after", not_after)
        set_field(self, "has_sct", has_sct)
        set_field(self, "der", der)


def fingerprint_cert(der: bytes) -> str:
    """SHA-256 of the certificate bytes, uppercase hex."""
    if not der:
        raise EmptyInput("cannot fingerprint an empty certificate")
    return hashlib.sha256(der).hexdigest().upper()


def _origin_domain(origin: Union[Sata, str]) -> str:
    """Registered domain of an origin given as a SATA or a hostname."""
    return origin.domain if isinstance(origin, Sata) else normalize_domain(origin)


def _sans_cover(s: Sata, san_list: tuple[str, ...]) -> str | None:
    """None when the SAN requirement holds, else a description of the gap.

    The certificate must name the base domain plus either the
    subdomain-form FQDN or the bare .onion name.
    """
    sub_name, base_domain, onion_name = expected_sans(s)
    names = set(san_list)
    if base_domain not in names:
        return f"certificate SANs lack the base domain {base_domain!r}"
    if sub_name not in names and onion_name not in names:
        return (
            f"certificate SANs carry neither {sub_name!r} nor {onion_name!r}"
        )
    return None


def _self_sattestation_fault(
    header: Sattestation | None, domain: str, onion: OnionAddress, now: date
) -> Verdict | None:
    """None when ``header`` is a sound self-sattestation bound to
    (``domain``, ``onion``) and fresh at ``now``, checked in that order;
    else the first failure's verdict.  Any :class:`SataError` rejects."""
    if header is None:
        return Verdict(VerdictOutcome.REJECT_SIGNATURE, "no SATA header presented")
    try:
        verify_credential(header)
    except SataError as exc:
        return Verdict(VerdictOutcome.REJECT_SIGNATURE, str(exc))
    if not is_self_sattestation(header):
        return Verdict(
            VerdictOutcome.REJECT_SIGNATURE, "header is not a self-sattestation"
        )
    if header.sattestor_domain != domain or header.sattestor_onion.label != onion.label:
        return Verdict(
            VerdictOutcome.REJECT_SIGNATURE,
            "header signature data is not bound to this SATA "
            f"(signed for {header.sattestor_domain!r})",
        )
    try:
        check_freshness(header, 0, now)
    except SataError as exc:
        return Verdict(VerdictOutcome.REJECT_STALE, str(exc))
    return None


def validate_connection(
    s: Sata,
    cert: CertDescriptor,
    header: Sattestation | None,
    now: date,
) -> Verdict:
    """Validate a completed connection to a SATA.

    Checks, in fixed order: (0) the SATA appears in the certificate SAN
    list, (1) the header is a self-sattestation for this SATA with a valid
    signature under the public key embedded in the address, (2) the
    credential is fresh at ``now``, (3) one of the credential's cert
    fingerprints matches the served certificate.  The certificate's own
    validity window is checked last (chain building and SCT verification
    are out of scope; SCT presence is only echoed in the detail).
    """
    gap = _sans_cover(s, cert.san_list)
    if gap is not None:
        return Verdict(VerdictOutcome.REJECT_SAN_MISSING, gap)

    fault = _self_sattestation_fault(header, s.domain, s.onion, now)
    if fault is not None:
        return fault

    binding = header.sattestees[0]
    if cert.fingerprint not in binding.cert_fingerprints:
        return Verdict(
            VerdictOutcome.REJECT_FINGERPRINT,
            f"served certificate {cert.fingerprint[:12]}... not among the "
            f"{len(binding.cert_fingerprints)} signed fingerprint(s)",
        )

    if not (cert.not_before <= now <= cert.not_after):
        return Verdict(
            VerdictOutcome.REJECT_STALE,
            f"certificate outside its validity window at {now.isoformat()}",
        )

    sct = "present" if cert.has_sct else "absent"
    return Verdict(VerdictOutcome.ACCEPT, f"all checks passed (sct {sct})")


def validate_onion_location(
    origin: Union[Sata, str],
    redirect_target: str,
    origin_cert: CertDescriptor,
) -> Verdict:
    """Validate an onion-location redirect target.

    Accepted only when the target is a SATA for the origin's own
    registered domain whose expected SANs are already covered by the
    origin certificate, so the redirected connection can reuse the same
    HTTPS certificate.  Bare .onion targets, foreign-domain SATAs and
    targets that are not URLs (the site serves the header, so any input
    may arrive) are rejected.
    """
    origin_domain = _origin_domain(origin)
    try:
        target = parse_sata(redirect_target)
    except NotASata:
        return Verdict(
            VerdictOutcome.REJECT_NOT_SATA,
            f"redirect target {redirect_target!r} is not a SATA",
        )
    except InvalidOnionComponent as exc:
        return Verdict(
            VerdictOutcome.REJECT_NOT_SATA,
            f"redirect target onion component invalid: {exc}",
        )
    except SataError as exc:
        return Verdict(
            VerdictOutcome.REJECT_NOT_SATA,
            f"redirect target {redirect_target!r} is not a SATA: {exc}",
        )
    if target.domain != origin_domain:
        return Verdict(
            VerdictOutcome.REJECT_NOT_SATA,
            f"redirect target is a SATA for {target.domain!r}, "
            f"not the origin {origin_domain!r}",
        )
    gap = _sans_cover(target, origin_cert.san_list)
    if gap is not None:
        return Verdict(VerdictOutcome.REJECT_SAN_MISSING, gap)
    return Verdict(VerdictOutcome.ACCEPT, "redirect stays on the origin certificate")


def validate_alt_svc(
    origin: Union[Sata, str],
    alt_host: str,
    credentials: Iterable[Sattestation],
    policy: TrustPolicy | None = None,
    *,
    now: date,
    header: Sattestation | None = None,
) -> AltSvcDecision:
    """Decide whether an advertised alternative service may be used.

    Allowed only when the policy does not forbid credentialed alternative
    services and some credential (the served ``header``, if any, then the
    published ones) passes :func:`validate_connection`'s header check for
    the origin's registered domain and the alternative onion address.
    Only credentials issued by that (origin domain, alternative onion) pair
    are checked: any other sattestor fails the check's binding step.  The
    published ones are those the pool's index keeps for that issuer (see
    :mod:`satakit.trust`).  Everything else, an empty pool, a pool of
    ``None`` entries and an ``alt_host`` that is not a string included,
    blocks: fail closed.
    """
    if policy is not None and not policy.allow_credentialed_alt_services:
        return AltSvcDecision.BLOCK
    origin_domain = _origin_domain(origin)
    if not isinstance(alt_host, str):
        return AltSvcDecision.BLOCK
    host = alt_host.strip().lower()
    if not host.endswith(".onion"):
        return AltSvcDecision.BLOCK
    try:
        alt_onion = parse_onion(host)
    except OnionAddressError:
        return AltSvcDecision.BLOCK
    from .trust import _pool_index

    issuer = (origin_domain, alt_onion.label)
    candidates = _pool_index(credentials).issued(issuer)
    if header is not None and (header.sattestor_domain, header.sattestor_onion.label) == issuer:
        candidates = (header, *candidates)
    for cred in candidates:
        if _self_sattestation_fault(cred, origin_domain, alt_onion, now) is None:
            return AltSvcDecision.ALLOW
    return AltSvcDecision.BLOCK
