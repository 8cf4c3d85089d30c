"""SATA parsing, rendering, and the names a SATA implies for certificates.

A SATA binds a registered domain name to an onion address in one of two
interchangeable representations:

* subdomain form:    ``<label>onion.<domain>``  (the 56-char onion label
  with the literal string ``onion`` appended, a single 61-char DNS label)
* query-string form: ``https://<domain>/?onion=<label>``

Parsing fails closed: an onion-looking component that does not validate is
a hard :class:`InvalidOnionComponent` error, never a fallback to a legacy
address.
"""

from __future__ import annotations

import re
from enum import Enum
from urllib.parse import parse_qsl, urlsplit

from ._value import Value, set_field
from .errors import (
    BadDomain,
    InvalidOnionComponent,
    NotASata,
    NotSecureDropName,
    OnionAddressError,
)
from .onion import LABEL_LENGTH, OnionAddress, parse_onion

SUBDOMAIN_GLUE = "onion"
SUBDOMAIN_LABEL_LENGTH = LABEL_LENGTH + len(SUBDOMAIN_GLUE)  # 61
QUERY_PARAM = "onion"
SECUREDROP_SUFFIX = ".securedrop.tor.onion"

_DNS_LABEL_RE = re.compile(r"^[a-z0-9]([a-z0-9-]*[a-z0-9])?$")


class SataForm(Enum):
    SUBDOMAIN = "subdomain"
    QUERY_STRING = "query"


def normalize_domain(domain: str) -> str:
    """Lowercase, strip a trailing dot, and check DNS name syntax; raise
    :class:`BadDomain` otherwise."""
    if not isinstance(domain, str):
        raise BadDomain(f"domain name must be a string, got {domain!r}")
    name = domain.strip().lower().rstrip(".")
    if not name or len(name) > 253:
        raise BadDomain(f"domain name length out of range: {domain!r}")
    for part in name.split("."):
        if len(part) > 63 or not _DNS_LABEL_RE.match(part):
            raise BadDomain(f"invalid DNS label {part!r} in {domain!r}")
    return name


class Sata(Value):
    """Binding of a registered domain name to an onion address."""

    domain: str
    onion: OnionAddress
    form: SataForm

    def __init__(
        self, domain: str, onion: OnionAddress, form: SataForm = SataForm.QUERY_STRING
    ) -> None:
        set_field(self, "domain", normalize_domain(domain))
        set_field(self, "onion", onion)
        set_field(self, "form", form)

    def __str__(self) -> str:
        return f"{self.domain}[{self.onion.label[:8]}...]"


def split_url(url_or_host: str) -> tuple[str, str]:
    """(lowercased hostname, query) of a URL or bare hostname; a
    scheme-less input is treated as https.  The hostname is empty when
    there is none: each caller raises its own error for that.  A value
    that is not a string, or text that is no URL (a malformed bracketed
    host, say), raises :class:`BadDomain`."""
    if not isinstance(url_or_host, str):
        raise BadDomain(f"URL or hostname must be a string, got {url_or_host!r}")
    text = url_or_host.strip()
    if "://" not in text:
        text = "https://" + text
    try:
        parts = urlsplit(text)
        host = parts.hostname or ""
    except ValueError as exc:
        raise BadDomain(f"malformed URL {url_or_host!r}: {exc}") from None
    return host.lower(), parts.query


def query_values(query: str, name: str) -> list[str]:
    """Every value of the query parameter ``name``, in order, blanks kept."""
    return [v for k, v in parse_qsl(query, keep_blank_values=True) if k == name]


def parse_sata(url_or_host: str) -> Sata:
    """Detect and parse a SATA in an https URL or bare hostname.

    Subdomain form is detected when the leftmost DNS label is 61 chars
    ending in ``onion`` whose 56-char prefix is a valid onion label;
    query-string form when an ``onion`` query parameter carries a valid
    label.  If both forms are present they must agree.

    Raises :class:`NotASata` when no onion component is found (callers
    treat the address as legacy), :class:`InvalidOnionComponent` when
    a component is present but invalid (hard failure), and
    :class:`BadDomain` when the input is not a string or not a URL (see
    :func:`split_url`).
    """
    host, query = split_url(url_or_host)
    if not host:
        raise NotASata(f"no hostname in {url_or_host!r}")

    sub_onion: OnionAddress | None = None
    sub_domain: str | None = None
    first, _, rest = host.partition(".")
    if len(first) == SUBDOMAIN_LABEL_LENGTH and first.endswith(SUBDOMAIN_GLUE):
        if not rest:
            raise NotASata("onion-bearing label has no registered domain after it")
        try:
            sub_onion = parse_onion(first[:LABEL_LENGTH])
        except OnionAddressError as exc:
            raise InvalidOnionComponent(f"subdomain onion component invalid: {exc}") from exc
        sub_domain = rest

    query_onion: OnionAddress | None = None
    values = query_values(query, QUERY_PARAM)
    if values:
        if len(set(values)) > 1:
            raise InvalidOnionComponent("conflicting onion query parameters")
        try:
            query_onion = parse_onion(values[0])
        except OnionAddressError as exc:
            raise InvalidOnionComponent(f"onion query parameter invalid: {exc}") from exc

    if sub_onion is not None and query_onion is not None:
        if sub_onion.label != query_onion.label:
            raise InvalidOnionComponent(
                "subdomain and query-string onion components disagree"
            )

    try:
        if sub_onion is not None:
            return Sata(domain=sub_domain or "", onion=sub_onion, form=SataForm.SUBDOMAIN)
        if query_onion is not None:
            return Sata(domain=host, onion=query_onion, form=SataForm.QUERY_STRING)
    except ValueError as exc:
        # valid onion component attached to a malformed domain: fail closed
        raise InvalidOnionComponent(str(exc)) from exc
    raise NotASata(f"no onion component in {url_or_host!r}")


def to_subdomain_form(s: Sata) -> str:
    """Render as the subdomain-form FQDN, ``<label>onion.<domain>``."""
    return f"{s.onion.label}{SUBDOMAIN_GLUE}.{s.domain}"


def to_query_form(s: Sata) -> str:
    """Render as the query-string form URL."""
    return f"https://{s.domain}/?{QUERY_PARAM}={s.onion.label}"


def expected_sans(s: Sata) -> list[str]:
    """Names a certificate for this SATA is expected to carry.

    In order: the subdomain-form FQDN, the base domain, and the bare
    ``<label>.onion`` name.  Validation requires the base domain plus at
    least one of the other two.
    """
    return [to_subdomain_form(s), s.domain, s.onion.onion_name]


def securedrop_rewrite(
    hostname: str, onion_param: str | None = None
) -> tuple[str, OnionAddress | None]:
    """Recover the base domain (and expected onion) from a SecureDrop name.

    ``www.cbc.ca.securedrop.tor.onion`` yields ``www.cbc.ca``; when the
    ``onion`` query parameter was supplied it is validated and returned so
    the caller can check the served certificate and SATA header against
    the pair.  Without it the expected onion must come from a ruleset.
    A ``hostname`` that is not a string raises :class:`NotSecureDropName`.
    """
    if not isinstance(hostname, str):
        raise NotSecureDropName(f"SecureDrop name must be a string, got {hostname!r}")
    host = hostname.strip().lower()
    if not host.endswith(SECUREDROP_SUFFIX):
        raise NotSecureDropName(f"{hostname!r} does not end with {SECUREDROP_SUFFIX!r}")
    base = host[: -len(SECUREDROP_SUFFIX)]
    try:
        base = normalize_domain(base)
    except ValueError as exc:
        raise NotSecureDropName(f"no valid base domain in {hostname!r}: {exc}") from exc
    if onion_param is None:
        return base, None
    try:
        return base, parse_onion(onion_param)
    except OnionAddressError as exc:
        raise InvalidOnionComponent(f"onion parameter invalid: {exc}") from exc
