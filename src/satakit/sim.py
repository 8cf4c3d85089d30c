"""Deterministic, network-free simulator of onion-discovery attacks.

A :class:`World` holds the sites reachable at each hostname (with whoever
actually serves them recorded as an opaque ``endpoint_id``), the
attacker's capabilities, the installed rewrite ruleset, the pool of
published sattestations, and the browser configuration.  ``run_visit``
replays one address-bar navigation against that world and reports where
the browser ended up, which verdicts fired, and whether the user saw an
alert.  There is no wall clock and no network: identical inputs always
produce identical outcomes.

A SATA-aware browser stores an alternative service only when
:func:`satakit.validation.validate_alt_svc` accepts the served header or
a published credential for it, by the check a SATA connection applies.

Endpoint ids starting with ``attacker`` are attacker-controlled; an
attack counts as succeeding only when the browser lands on one of those
*without* a user-visible alert.

Fixture files are JSON::

    {
      "name": "...",
      "keys": {"victim": "<64 hex chars>", ...},          # ed25519 seeds
      "attacker": {"rogue_cert_for": [...], "dns_hijack": [...],
                   "onion_keys": ["{onion:attacker}"],
                   "compromised_victim_onion_key": false},
      "he_rules": {"typed.name": "{onion:attacker}"},      # installed ruleset
      "certs": {"victim-cert": {"sans": ["{sata_sans:victim.example:victim}"],
                                 "not_before": "...", "not_after": "...",
                                 "has_sct": true}},
      "credentials": {"victim-self": {"kind": "self", ...},
                       "root-about-victim": {"kind": "third_party", ...}},
      "sites": {"victim.example": {"endpoint": "origin-victim",
                                    "cert": "victim-cert",
                                    "alt_svc": {"host": "...", "max_age": 86400},
                                    "onion_location": "...",
                                    "sata_header": "victim-self"}},
      "browsers": {"legacy": {...}, "sata-aware": {...}, "sata-policy": {...}},
      "steps": [{"url": "...", "now": "YYYY-MM-DD", "sites": {...patch...}}]
    }

``{onion:NAME}`` anywhere in a string substitutes the onion label of the
named key; cert DER bytes are derived from the cert's name so fingerprints
in credentials and descriptors always agree.  A browser's ``policy`` is
the file form :func:`satakit.trust.policy_from_json` reads, except that
each root is ``{"domain", "key", "trusted_labels"}``, naming the key that
owns its onion address.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import date
from pathlib import Path
from typing import Mapping, Sequence

from . import _json
from .credential import (
    Sattestation,
    is_self_sattestation,
    make_self_sattestation,
    issue,
    Binding,
    SattestationBody,
)
from .errors import (
    InconsistentWorld,
    InvalidOnionComponent,
    NotASata,
    UnknownHost,
    UnrepresentableField,
)
from .onion import KeyPair, keygen
from .sata import (
    QUERY_PARAM,
    SECUREDROP_SUFFIX,
    Sata,
    expected_sans,
    parse_sata,
    query_values,
    securedrop_rewrite,
    split_url,
)
from .trust import TrustPolicy, evaluate, policy_from_json
from .validation import (
    AltSvcDecision,
    CertDescriptor,
    Verdict,
    VerdictOutcome,
    fingerprint_cert,
    validate_alt_svc,
    validate_connection,
    validate_onion_location,
)

ATTACKER_ENDPOINT_PREFIX = "attacker"
DEFAULT_ALT_SVC_MAX_AGE = 86400  # seconds


def is_attacker_endpoint(endpoint_id: str) -> bool:
    return endpoint_id.startswith(ATTACKER_ENDPOINT_PREFIX)


@dataclass(frozen=True)
class AltSvcHeader:
    """Advertised alternative service; ``max_age`` seconds until expiry.

    ``host`` may be a per-user mapping in tracking fixtures; it must be
    resolved to a single hostname before a visit runs.
    """

    host: str | Mapping[str, str]
    max_age: int = DEFAULT_ALT_SVC_MAX_AGE


@dataclass(frozen=True)
class SiteHeaders:
    onion_location: str | None = None
    alt_svc: AltSvcHeader | None = None
    sata_header: Sattestation | None = None


@dataclass(frozen=True)
class SiteRecord:
    endpoint_id: str
    cert: CertDescriptor
    headers: SiteHeaders = SiteHeaders()


@dataclass(frozen=True)
class AttackerCaps:
    rogue_cert_for: frozenset[str] = frozenset()
    dns_hijack: frozenset[str] = frozenset()
    onion_keys: frozenset[str] = frozenset()  # onion labels whose keys the attacker holds
    compromised_victim_onion_key: bool = False


@dataclass(frozen=True)
class CacheEntry:
    alt_host: str
    expires_at: float  # fractional day ordinal


@dataclass(frozen=True)
class BrowserConfig:
    name: str = "browser"
    sata_aware: bool = False
    policy: TrustPolicy | None = None
    prioritize_onion: bool = False
    alt_svc_cache: Mapping[str, CacheEntry] = field(default_factory=dict)


@dataclass(frozen=True)
class World:
    sites: Mapping[str, SiteRecord]
    attacker: AttackerCaps = AttackerCaps()
    browser: BrowserConfig = BrowserConfig()
    he_rules: Mapping[str, str] = field(default_factory=dict)  # hostname -> onion label
    credentials: tuple[Sattestation, ...] = ()


@dataclass(frozen=True)
class CacheWrite:
    origin: str
    alt_host: str
    expires_at: float


@dataclass(frozen=True)
class Outcome:
    reached_endpoint: str
    verdicts: tuple[Verdict, ...]
    user_visible_alert: bool
    cache_writes: tuple[CacheWrite, ...]
    via_alt_service: str | None = None
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class Step:
    url: str
    now: date
    sites_patch: Mapping[str, SiteRecord | None] | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    world: World
    steps: tuple[Step, ...]
    browsers: Mapping[str, BrowserConfig] = field(default_factory=dict)


def validate_world(world: World) -> None:
    """Check fixture consistency before a run.

    Certificates must fingerprint to their own DER bytes, the attacker may
    only serve content at an onion hostname whose key it holds (or any
    victim onion if the fixture grants the compromised-key capability), and
    it may serve a hijacked host under a certificate naming that host only
    with the rogue-cert capability.  Any other world raises
    :class:`InconsistentWorld`.
    """
    for host, record in world.sites.items():
        cert = record.cert
        if cert.der is not None and cert.fingerprint != fingerprint_cert(cert.der):
            raise InconsistentWorld(f"site {host!r}: certificate fingerprint does not match DER")
        if is_attacker_endpoint(record.endpoint_id) and host.endswith(".onion"):
            label = host[: -len(".onion")]
            if (
                label not in world.attacker.onion_keys
                and not world.attacker.compromised_victim_onion_key
            ):
                raise InconsistentWorld(
                    f"fixture gives the attacker an onion site {host!r} without "
                    "the key capability"
                )
        if (
            is_attacker_endpoint(record.endpoint_id)
            and host in world.attacker.dns_hijack
            and host.lower() in {n.lower() for n in cert.san_list}
            and host not in world.attacker.rogue_cert_for
        ):
            raise InconsistentWorld(
                f"fixture serves a hijacked {host!r} with a valid-looking cert "
                "but no rogue-cert capability"
            )


def _host_of(url: str) -> tuple[str, str]:
    """:func:`split_url`, raising :class:`UnknownHost` when there is no hostname."""
    host, query = split_url(url)
    if not host:
        raise UnknownHost(f"no hostname in {url!r}")
    return host, query


def _alt_host_str(alt: AltSvcHeader) -> str:
    if not isinstance(alt.host, str):
        raise InconsistentWorld(
            "per-user alt-svc hosts must be resolved before a visit runs"
        )
    return alt.host


def run_visit(world: World, requested_url: str, now: date) -> tuple[Outcome, World]:
    """Simulate one navigation; returns the outcome and the updated world.

    Processing order: ruleset rewrite (before any network contact), cached
    alternative-service lookup, connection, response headers (alt-svc
    store, onion-location redirect), SATA validation when the browser is
    SATA-aware, and finally the contextual trust requirement when a policy
    is configured.
    """
    browser = world.browser
    host, query = _host_of(requested_url)
    verdicts: list[Verdict] = []
    notes: list[str] = []
    cache_writes: list[CacheWrite] = []
    alert = False

    # rewrite rulesets apply entirely in the browser, before any connection
    expected: Sata | None = None
    target_host = host
    if host in world.he_rules:
        target_host = world.he_rules[host] + ".onion"
        notes.append(f"ruleset rewrite {host} -> {target_host}")
        if browser.sata_aware and host.endswith(SECUREDROP_SUFFIX):
            onions = query_values(query, QUERY_PARAM)
            try:
                base, expected_onion = securedrop_rewrite(host, onions[0] if onions else None)
            except InvalidOnionComponent as exc:
                verdicts.append(Verdict(VerdictOutcome.REJECT_NOT_SATA, str(exc)))
                alert = True
            else:
                if expected_onion is not None:
                    expected = Sata(domain=base, onion=expected_onion)
    elif host.endswith(SECUREDROP_SUFFIX):
        # not a real DNS name; without a ruleset entry there is nothing to reach
        raise UnknownHost(f"no ruleset entry for {host!r}")

    origin_sata: Sata | None = None
    if browser.sata_aware and expected is None:
        try:
            origin_sata = parse_sata(requested_url)
        except NotASata:
            origin_sata = None
        except InvalidOnionComponent as exc:
            verdicts.append(Verdict(VerdictOutcome.REJECT_NOT_SATA, str(exc)))
            alert = True

    # cached alternative service for this origin
    via_alt: str | None = None
    entry = browser.alt_svc_cache.get(target_host)
    if entry is not None and now.toordinal() < entry.expires_at:
        notes.append(f"alt-svc cache: {target_host} -> {entry.alt_host}")
        via_alt = entry.alt_host
        target_host = entry.alt_host

    record = world.sites.get(target_host)
    if record is None:
        raise UnknownHost(f"no site record for {target_host!r}")

    new_cache = dict(browser.alt_svc_cache)
    if record.headers.alt_svc is not None and via_alt is None:
        alt_host = _alt_host_str(record.headers.alt_svc)
        store = True
        if browser.sata_aware:
            store = validate_alt_svc(
                target_host, alt_host, world.credentials, browser.policy,
                now=now, header=record.headers.sata_header,
            ) is AltSvcDecision.ALLOW
            if not store:
                notes.append(f"alt-svc {alt_host} blocked: no trusted self-sattestation")
        if store:
            expires = now.toordinal() + record.headers.alt_svc.max_age / 86400.0
            new_cache[target_host] = CacheEntry(alt_host, expires)
            cache_writes.append(CacheWrite(target_host, alt_host, expires))

    loc = record.headers.onion_location
    if (
        loc is not None
        and browser.prioritize_onion
        and expected is None
        and via_alt is None
    ):
        follow = True
        if browser.sata_aware:
            v = validate_onion_location(origin_sata or host, loc, record.cert)
            verdicts.append(v)
            follow = v.accepted()
            alert = alert or not follow
        if follow:
            target_host, _ = _host_of(loc)
            record = world.sites.get(target_host)
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
            v = validate_connection(s, record.cert, record.headers.sata_header, now)
            verdicts.append(v)
            if v.accepted():
                validated = s
            else:
                alert = True

    if (
        browser.sata_aware
        and browser.policy is not None
        and browser.policy.require_sattestation_for
    ):
        chain = None
        if validated is not None:
            for lbl in sorted(browser.policy.require_sattestation_for):
                chain = evaluate(browser.policy, world.credentials, validated, lbl, now)
                if chain is not None:
                    break
        if chain is None:
            alert = True
            notes.append("required sattestation from a trusted sattestor is missing")
        else:
            notes.append(f"sattested for label {chain.label!r}")

    outcome = Outcome(
        reached_endpoint=record.endpoint_id,
        verdicts=tuple(verdicts),
        user_visible_alert=alert,
        cache_writes=tuple(cache_writes),
        via_alt_service=via_alt,
        notes=tuple(notes),
    )
    new_world = replace(world, browser=replace(browser, alt_svc_cache=new_cache))
    return outcome, new_world


def run_scenario(scenario: Scenario, browser: BrowserConfig) -> list[Outcome]:
    """Replay a scenario's scripted visits under one browser configuration."""
    world = replace(scenario.world, browser=browser)
    outcomes: list[Outcome] = []
    for step in scenario.steps:
        if step.sites_patch:
            sites = dict(world.sites)
            for hostname, rec in step.sites_patch.items():
                if rec is None:
                    sites.pop(hostname, None)
                else:
                    sites[hostname] = rec
            world = replace(world, sites=sites)
        validate_world(world)
        outcome, world = run_visit(world, step.url, step.now)
        outcomes.append(outcome)
    return outcomes


def run_matrix(
    scenarios: Sequence[Scenario], browsers: Sequence[BrowserConfig]
) -> list[dict]:
    """Cross product of scenarios and browser configurations.

    Each row reports the steady-state endpoint (after the last scripted
    visit), whether any step raised a user-visible alert, and whether the
    attack succeeded: final endpoint attacker-controlled with no alert
    anywhere.
    """
    rows: list[dict] = []
    for scenario in scenarios:
        for browser in browsers:
            outcomes = run_scenario(scenario, browser)
            any_alert = any(o.user_visible_alert for o in outcomes)
            final = outcomes[-1].reached_endpoint if outcomes else ""
            rows.append(
                {
                    "scenario": scenario.name,
                    "browser": browser.name,
                    "steps": [
                        {
                            "reached_endpoint": o.reached_endpoint,
                            "alert": o.user_visible_alert,
                        }
                        for o in outcomes
                    ],
                    "reached_endpoint": final,
                    "user_visible_alert": any_alert,
                    "attack_success": is_attacker_endpoint(final) and not any_alert,
                }
            )
    return rows


def _resolve_alt_hosts(world: World, user: str) -> World:
    """Pick the per-user alternative host wherever a fixture varies it."""
    sites = dict(world.sites)
    changed = False
    for host, record in world.sites.items():
        alt = record.headers.alt_svc
        if alt is not None and not isinstance(alt.host, str):
            resolved = AltSvcHeader(host=alt.host[user], max_age=alt.max_age)
            sites[host] = replace(record, headers=replace(record.headers, alt_svc=resolved))
            changed = True
    return replace(world, sites=sites) if changed else world


def track_alt_svc_exposure(
    world: World,
    visits: Sequence[tuple[str, date]],
    users: Sequence[str] = ("client",),
) -> dict:
    """Report which visits were served through cached alternative services.

    Replays the visit script once per simulated user.  Origins appear in
    the report only when an alternative service was actually stored or
    used for them; if different users observed different alternative
    hosts for the same origin, those origins partition the user
    population and the attacker can distinguish returning users by cache
    state alone.
    """
    origins: dict[str, dict[str, list[dict]]] = {}
    for user in users:
        w = _resolve_alt_hosts(world, user)
        for index, (url, when) in enumerate(visits):
            outcome, w = run_visit(w, url, when)
            events = []
            for write in outcome.cache_writes:
                events.append((write.origin, {"visit": index, "url": url, "stored": write.alt_host}))
            if outcome.via_alt_service is not None:
                origin, _ = _host_of(url)
                events.append(
                    (origin, {"visit": index, "url": url, "served_via": outcome.via_alt_service})
                )
            for origin, event in events:
                origins.setdefault(origin, {}).setdefault(user, []).append(event)

    distinguishable = []
    for origin, per_user in sorted(origins.items()):
        seen_hosts = {
            user: {e.get("stored") or e.get("served_via") for e in events}
            for user, events in per_user.items()
        }
        distinct = {frozenset(hosts) for hosts in seen_hosts.values()}
        if len(distinct) > 1:
            distinguishable.append(origin)
    return {
        "origins": origins,
        "distinguishable_origins": distinguishable,
        "partitions_users": bool(distinguishable),
    }


# ---------------------------------------------------------------------------
# JSON fixture loading


def _named(table: Mapping, name, what: str):
    """``table[name]``; a name the fixture does not define raises
    :class:`UnrepresentableField`."""
    if not isinstance(name, str) or name not in table:
        raise UnrepresentableField(f"fixture defines no {what} {name!r}")
    return table[name]


def _seed(name: str, seed: str) -> bytes:
    try:
        return bytes.fromhex(seed)
    except ValueError:
        raise UnrepresentableField(f"fixture key {name!r} is not a hex seed: {seed!r}") from None


def _substitute(value: str, keys: Mapping[str, KeyPair]) -> str:
    out = value
    while "{onion:" in out:
        start = out.index("{onion:")
        end = out.find("}", start)
        if end < 0:
            raise UnrepresentableField(f"fixture string has an unclosed '{{onion:': {value!r}")
        name = out[start + len("{onion:") : end]
        out = out[:start] + _named(keys, name, "key").address.label + out[end + 1 :]
    return out


def _cert_from_spec(name: str, spec: dict, keys: Mapping[str, KeyPair]) -> CertDescriptor:
    der = f"cert:{name}".encode("utf-8")
    sans: list[str] = []
    for entry in _json.field(spec, "sans", list, [], items=str, what="fixture"):
        entry = _substitute(entry, keys)
        if entry.startswith("{sata_sans:"):
            parts = entry[1:-1].split(":")
            if len(parts) != 3:
                raise UnrepresentableField(
                    f"fixture SAN is not {{sata_sans:DOMAIN:KEY}}: {entry!r}"
                )
            sata = Sata(domain=parts[1], onion=_named(keys, parts[2], "key").address)
            sans.extend(expected_sans(sata))
        else:
            sans.append(entry)
    return CertDescriptor(
        fingerprint=fingerprint_cert(der),
        san_list=tuple(sans),
        not_before=_json.date_field(spec, "not_before", what="fixture"),
        not_after=_json.date_field(spec, "not_after", what="fixture"),
        has_sct=_json.field(spec, "has_sct", bool, False, what="fixture"),
        der=der,
    )


def _credential_from_spec(
    spec: dict,
    keys: Mapping[str, KeyPair],
    certs: Mapping[str, CertDescriptor],
) -> Sattestation:
    kind = _json.field(spec, "kind", str, what="fixture")
    key = _named(keys, _json.field(spec, "key", str, what="fixture"), "key")
    rate = _json.field(spec, "refresh_rate_days", (int, float), 7, what="fixture")
    if kind == "self":
        if "cert" in spec:
            fingerprints = [_named(certs, spec["cert"], "cert").fingerprint]
        else:
            fingerprints = _json.field(spec, "fingerprints", list, items=str, what="fixture")
        return make_self_sattestation(
            key=key,
            domain=_json.field(spec, "domain", str, what="fixture"),
            cert_fingerprints=fingerprints,
            issued=_json.date_field(spec, "issued", what="fixture"),
            refreshed_on=_json.date_field(spec, "refreshed_on", what="fixture"),
            refresh_rate_days=rate,
            labels=_json.field(spec, "labels", list, None, items=str, what="fixture"),
        )
    if kind == "third_party":
        bindings = []
        for b in _json.field(spec, "bindings", list, items=dict, what="fixture"):
            bindings.append(
                Binding(
                    domain=_json.field(b, "domain", str, what="fixture"),
                    onion=_named(keys, b.get("onion_key"), "key").address,
                    issued=_json.date_field(b, "issued", what="fixture"),
                    refreshed_on=_json.date_field(b, "refreshed_on", what="fixture"),
                    labels=tuple(_json.field(b, "labels", list, [], items=str, what="fixture")),
                )
            )
        body = SattestationBody(
            sattestor_domain=_json.field(spec, "sattestor_domain", str, what="fixture"),
            sattestor_onion=key.address,
            refresh_rate_days=rate,
            sattestees=tuple(bindings),
        )
        return issue(key, body)
    raise UnrepresentableField(f"unknown credential kind {kind!r}")


def _site_from_spec(
    spec: dict,
    keys: Mapping[str, KeyPair],
    certs: Mapping[str, CertDescriptor],
    credentials: Mapping[str, Sattestation],
) -> SiteRecord:
    alt = None
    if "alt_svc" in spec:
        raw = _json.field(spec, "alt_svc", dict, what="fixture")
        host = _json.field(raw, "host", (str, dict), items=str, what="fixture")
        if isinstance(host, dict):  # per user, in tracking fixtures
            host = {user: _substitute(h, keys) for user, h in host.items()}
        else:
            host = _substitute(host, keys)
        max_age = _json.field(raw, "max_age", int, DEFAULT_ALT_SVC_MAX_AGE, what="fixture")
        alt = AltSvcHeader(host=host, max_age=max_age)
    header = None
    if "sata_header" in spec:
        header = _named(credentials, spec["sata_header"], "credential")
    onion_location = _json.field(spec, "onion_location", str, None, what="fixture")
    if onion_location is not None:
        onion_location = _substitute(onion_location, keys)
    return SiteRecord(
        endpoint_id=_json.field(spec, "endpoint", str, what="fixture"),
        cert=_named(certs, spec.get("cert"), "cert"),
        headers=SiteHeaders(
            onion_location=onion_location,
            alt_svc=alt,
            sata_header=header,
        ),
    )


def browser_from_spec(name: str, spec: dict, keys: Mapping[str, KeyPair]) -> BrowserConfig:
    policy = None
    if spec.get("policy"):
        spec_policy = _json.field(spec, "policy", dict, what="fixture")
        roots = []
        for r in _json.field(spec_policy, "roots", list, [], items=dict, what="fixture"):
            roots.append(
                {
                    "sattestor_domain": _json.field(r, "domain", str, what="fixture"),
                    "sattestor_onion": _named(keys, r.get("key"), "key").address.label,
                    "trusted_labels": _json.field(
                        r, "trusted_labels", list, items=str, what="fixture"
                    ),
                }
            )
        policy = policy_from_json({**spec_policy, "roots": roots})
    return BrowserConfig(
        name=name,
        sata_aware=_json.field(spec, "sata_aware", bool, False, what="fixture"),
        policy=policy,
        prioritize_onion=_json.field(spec, "prioritize_onion", bool, False, what="fixture"),
    )


def load_scenario(source: str | Path | dict) -> Scenario:
    """Load a scenario fixture from the path of its JSON file, or from the
    fixture already parsed.

    Malformed JSON, a fixture that is not a JSON object, a field of the
    wrong JSON type or a missing required field, or a key, cert or
    credential the fixture names but does not define raises
    :class:`UnrepresentableField`."""
    raw = source if isinstance(source, dict) else _json.load(Path(source).read_bytes(), "fixture")

    keys = {
        name: keygen(_seed(name, seed))
        for name, seed in _json.field(raw, "keys", dict, {}, items=str, what="fixture").items()
    }
    certs = {
        name: _cert_from_spec(name, spec, keys)
        for name, spec in _json.field(raw, "certs", dict, {}, items=dict, what="fixture").items()
    }
    credential_specs = _json.field(raw, "credentials", dict, {}, items=dict, what="fixture")
    credentials = {
        name: _credential_from_spec(spec, keys, certs) for name, spec in credential_specs.items()
    }
    sites = {
        _substitute(host, keys): _site_from_spec(spec, keys, certs, credentials)
        for host, spec in _json.field(raw, "sites", dict, {}, items=dict, what="fixture").items()
    }
    attacker_spec = _json.field(raw, "attacker", dict, {}, what="fixture")
    attacker = AttackerCaps(
        **{
            caps: frozenset(
                _substitute(v, keys)
                for v in _json.field(attacker_spec, caps, list, [], items=str, what="fixture")
            )
            for caps in ("rogue_cert_for", "dns_hijack", "onion_keys")
        },
        compromised_victim_onion_key=_json.field(
            attacker_spec, "compromised_victim_onion_key", bool, False, what="fixture"
        ),
    )
    he_rules = _json.field(raw, "he_rules", dict, {}, items=str, what="fixture")
    world = World(
        sites=sites,
        attacker=attacker,
        he_rules={_substitute(h, keys): _substitute(label, keys) for h, label in he_rules.items()},
        credentials=tuple(credentials[name] for name in sorted(credentials)),
    )
    steps = []
    for s in _json.field(raw, "steps", list, [], items=dict, what="fixture"):
        patch = None
        if "sites" in s:
            patch = {
                _substitute(host, keys): (
                    None if spec is None else _site_from_spec(spec, keys, certs, credentials)
                )
                for host, spec in _json.field(
                    s, "sites", dict, items=(dict, type(None)), what="fixture"
                ).items()
            }
        steps.append(
            Step(
                url=_substitute(_json.field(s, "url", str, what="fixture"), keys),
                now=_json.date_field(s, "now", what="fixture"),
                sites_patch=patch,
            )
        )
    browsers = {
        name: browser_from_spec(name, spec, keys)
        for name, spec in _json.field(raw, "browsers", dict, {}, items=dict, what="fixture").items()
    }
    return Scenario(
        name=_json.field(raw, "name", str, "scenario", what="fixture"),
        world=world,
        steps=tuple(steps),
        browsers=browsers,
    )
