"""The navigation decision: what a browser does with one address-bar
navigation, given only explicit inputs.

:func:`navigate` takes the typed URL, the date, the browser's settings,
the installed rewrite ruleset, the pool of published sattestations, and a
``fetch`` callback that stands for the network.  It reads nothing else,
so a browser integration, a test or the simulator in :mod:`satakit.sim`
can each call it with what it holds.

Processing order: ruleset rewrite (before any network contact), cached
alternative-service lookup, connection, response headers (alt-svc store,
onion-location redirect), SATA validation when the browser is SATA-aware,
and finally the contextual trust requirement when a policy is configured.

``fetch(host)`` returns the record served at ``host``, or None when
nothing answers there.  A record has ``endpoint_id`` (who serves it),
``cert`` (a :class:`~satakit.validation.CertDescriptor`) and ``headers``,
which has ``onion_location``, ``alt_svc`` (``host`` and ``max_age`` in
seconds, or None) and ``sata_header`` (a sattestation, or None).  A
navigation asks for at most two hosts: the one it connects to, and the
target of an Onion-Location it follows.  A host nothing answers at raises
:class:`~satakit.errors.UnknownHost`.

Hostnames have one normal form, :func:`~satakit.sata.normalize_host`'s:
lowercased, without a trailing root dot.  The typed host, an Onion-Location
target and a served alternative host are put in it where they arrive, so
``fetch`` is asked only for hosts in that form.  The keys of ``he_rules``
and of the alt-svc cache are in it too, and so are a :class:`CacheWrite`'s
``origin`` and ``alt_host``: ``a.example.`` and ``a.example`` are one
origin, for the ruleset and for the alt-svc cache alike.

The browser's settings are ``sata_aware``, ``policy`` (a
:class:`~satakit.trust.TrustPolicy` or None), ``prioritize_onion`` and
``alt_svc_cache``, a mapping from an origin to the :class:`CacheWrite`
stored for it.  ``navigate`` never changes the cache: an alternative
service it stores is reported in the outcome's ``cache_writes``, for the
caller to keep.  A SATA-aware browser stores one only when
:func:`~satakit.validation.validate_alt_svc` accepts the served header or
a published credential for it, by the check a SATA connection applies.

The outcome's ``user_visible_alert`` is derived, not tracked: it holds
exactly when a verdict of the navigation is not an accept, or when the
policy requires a sattestation and none from a trusted sattestor is found.
"""

from __future__ import annotations

from datetime import date
from typing import Callable, Iterable, Mapping

from ._value import Value
from .credential import Sattestation, is_self_sattestation
from .errors import InvalidOnionComponent, NotASata, UnknownHost
from .sata import (
    QUERY_PARAM,
    SECUREDROP_SUFFIX,
    Sata,
    normalize_host,
    parse_sata,
    query_values,
    securedrop_rewrite,
    split_url,
)
from .trust import evaluate
from .validation import (
    AltSvcDecision,
    Verdict,
    VerdictOutcome,
    validate_alt_svc,
    validate_connection,
    validate_onion_location,
)


class CacheWrite(Value):
    """An alternative service stored for ``origin``: both what a navigation
    reports and the record the browser cache keeps."""

    origin: str
    alt_host: str
    expires_at: float  # fractional day ordinal


class Outcome(Value):
    """Where a navigation ended, which verdicts fired, and what it stored."""

    reached_endpoint: str
    verdicts: tuple[Verdict, ...]
    user_visible_alert: bool
    cache_writes: tuple[CacheWrite, ...]
    via_alt_service: str | None = None
    notes: tuple[str, ...] = ()


def _host_of(url: str) -> tuple[str, str]:
    """:func:`split_url`, raising :class:`UnknownHost` when there is no
    hostname, or when its normal form still ends in a dot: the name had
    two, and the second is an empty label, not a root."""
    host, query = split_url(url)
    if not host or host.endswith("."):
        raise UnknownHost(f"no hostname in {url!r}")
    return host, query


def navigate(
    requested_url: str,
    now: date,
    browser,
    fetch: Callable[[str], object],
    he_rules: Mapping[str, str],
    credentials: Iterable[Sattestation],
) -> Outcome:
    """Decide one navigation to ``requested_url`` (see the module docstring).

    ``he_rules`` maps a hostname to the onion label the installed ruleset
    rewrites it to, spelled as :attr:`~satakit.onion.OnionAddress.label`
    spells it; ``credentials`` is the published pool that alt-svc checks
    and the trust requirement read.  The ``he_rules`` keys and the keys of
    ``browser.alt_svc_cache`` are hostnames in the normal form, and
    ``fetch`` is asked only for hosts in it.
    """
    host, query = _host_of(requested_url)
    verdicts: list[Verdict] = []
    notes: list[str] = []
    write: CacheWrite | None = None

    # rewrite rulesets apply entirely in the browser, before any connection
    expected: Sata | None = None
    target_host = host
    if host in he_rules:
        target_host = he_rules[host] + ".onion"
        notes.append(f"ruleset rewrite {host} -> {target_host}")
        if browser.sata_aware and host.endswith(SECUREDROP_SUFFIX):
            onions = query_values(query, QUERY_PARAM)
            try:
                base, expected_onion = securedrop_rewrite(host, onions[0] if onions else None)
            except InvalidOnionComponent as exc:
                verdicts.append(Verdict(VerdictOutcome.REJECT_NOT_SATA, str(exc)))
            else:
                if expected_onion is not None:
                    expected = Sata(domain=base, onion=expected_onion)
    elif host.endswith(SECUREDROP_SUFFIX):
        # not a real DNS name; without a ruleset entry there is nothing to reach
        raise UnknownHost(f"no ruleset entry for {host!r}")

    origin_sata: Sata | None = None
    # a SecureDrop name's onion parameter is the rewrite's to check, above
    if browser.sata_aware and not host.endswith(SECUREDROP_SUFFIX):
        try:
            origin_sata = parse_sata(requested_url)
        except NotASata:
            pass
        except InvalidOnionComponent as exc:
            verdicts.append(Verdict(VerdictOutcome.REJECT_NOT_SATA, str(exc)))

    # cached alternative service for this origin
    via_alt: str | None = None
    entry = browser.alt_svc_cache.get(target_host)
    if entry is not None and now.toordinal() < entry.expires_at:
        notes.append(f"alt-svc cache: {target_host} -> {entry.alt_host}")
        via_alt = entry.alt_host
        target_host = entry.alt_host

    record = fetch(target_host)
    if record is None:
        raise UnknownHost(f"no site record for {target_host!r}")

    alt_svc = record.headers.alt_svc
    if alt_svc is not None and via_alt is None:
        alt_host = normalize_host(alt_svc.host)
        if browser.sata_aware and validate_alt_svc(
            origin_sata or target_host, alt_host, credentials, browser.policy,
            now=now, header=record.headers.sata_header,
        ) is AltSvcDecision.BLOCK:
            if origin_sata is not None and alt_host != origin_sata.onion.onion_name:
                notes.append(f"alt-svc {alt_host} blocked: not the SATA's onion")
            else:
                notes.append(f"alt-svc {alt_host} blocked: no trusted self-sattestation")
        else:
            write = CacheWrite(target_host, alt_host, now.toordinal() + alt_svc.max_age / 86400.0)

    loc = record.headers.onion_location
    if (
        loc is not None
        and browser.prioritize_onion
        and expected is None
        and via_alt is None
    ):
        if browser.sata_aware:
            verdicts.append(validate_onion_location(origin_sata or host, loc, record.cert))
        if not browser.sata_aware or verdicts[-1].accepted():
            target_host, _ = _host_of(loc)
            record = fetch(target_host)
            if record is None:
                raise UnknownHost(f"onion-location target {target_host!r} unknown")
            kind = "onion-location"
            if browser.sata_aware:
                expected = parse_sata(loc)
                kind = "self-authenticating onion-location"
            notes.append(f"followed {kind} to {target_host}")

    validated: Sata | None = None
    if browser.sata_aware:
        s = expected or origin_sata
        if (
            s is None
            and target_host == host
            and not host.endswith(".onion")
            and record.headers.sata_header is not None
            and is_self_sattestation(record.headers.sata_header)
            and record.headers.sata_header.sattestor_domain == host
        ):
            # the site advertises itself as a SATA: adopt it automatically
            s = Sata(domain=host, onion=record.headers.sata_header.sattestor_onion)
            notes.append("upgraded to the site's advertised SATA")
        if s is not None:
            verdicts.append(validate_connection(s, record.cert, record.headers.sata_header, now))
            if verdicts[-1].accepted():
                validated = s

    missing_sattestation = False
    if (
        browser.sata_aware
        and browser.policy is not None
        and browser.policy.require_sattestation_for
    ):
        chain = None
        if validated is not None:
            for lbl in sorted(browser.policy.require_sattestation_for):
                chain = evaluate(browser.policy, credentials, validated, lbl, now)
                if chain is not None:
                    break
        missing_sattestation = chain is None
        if missing_sattestation:
            notes.append("required sattestation from a trusted sattestor is missing")
        else:
            notes.append(f"sattested for label {chain.label!r}")

    return Outcome(
        reached_endpoint=record.endpoint_id,
        verdicts=tuple(verdicts),
        user_visible_alert=missing_sattestation or not all(v.accepted() for v in verdicts),
        cache_writes=() if write is None else (write,),
        via_alt_service=via_alt,
        notes=tuple(notes),
    )
