"""Deterministic, network-free simulator of onion-discovery attacks: the
worlds, the fixtures that build them, and the drivers that replay them.

A :class:`World` holds the sites reachable at each hostname (with whoever
actually serves them recorded as an opaque ``endpoint_id``), the
attacker's capabilities, the installed rewrite ruleset, the pool of
published sattestations, and the browser configuration.  ``run_visit``
replays one address-bar navigation against that world and reports where
the browser ended up, which verdicts fired, and whether the user saw an
alert.  There is no wall clock and no network: identical inputs always
produce identical outcomes.

Every decision of a visit is made by :func:`satakit.browser.navigate`;
``run_visit`` is its adapter, whose ``fetch`` is ``world.sites.get``.  It
returns the world it was given, the same object, unless the visit stored
an alternative service; the browser cache of the copy it returns then
maps that origin to the visit's own :class:`~satakit.browser.CacheWrite`.
``run_scenario`` is the one loop that replays a scenario's scripted
visits through ``run_visit``, checking each step's world with
``validate_world``; ``run_matrix`` and ``track_alt_svc_exposure`` call it.

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
      "steps": [{"url": "...", "now": "YYYY-MM-DD", "sites": {...patch...}}],
      "users": {"user-a": {...patch...}, "user-b": {...patch...}}
    }

A patch maps a hostname to a site, or to null to remove that host; a
step's patch applies from that step on.  ``"users"``, which tracking
fixtures declare, gives each simulated user a patch that applies to every
step.  Only :func:`track_alt_svc_exposure` reads it: it replays the steps
once per user, and :func:`run_scenario`, so ``sim run`` and ``sim matrix``
too, refuses a scenario that has users.

Every hostname a fixture names, as a key of ``sites``, of a patch or of
``he_rules``, or in the attacker's ``rogue_cert_for`` or ``dns_hijack``,
is kept in its normal form (:func:`satakit.sata.normalize_host`):
``Victim.Example.`` and ``victim.example`` are one host, and a table that
names one host twice, in any two spellings, is refused.  Every onion label,
a value of ``he_rules`` or in the attacker's ``onion_keys``, is kept bare
and lowercase, whether or not it is written with ``.onion``.

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
from .browser import CacheWrite, Outcome, navigate
from .credential import (
    Sattestation,
    make_self_sattestation,
    issue,
    Binding,
    SattestationBody,
)
from .errors import InconsistentWorld, OnionAddressError, UnrepresentableField
from .onion import KeyPair, keygen, parse_onion
from .sata import Sata, expected_sans, normalize_host, split_url
from .trust import TrustPolicy, policy_from_json
from .validation import CertDescriptor, fingerprint_cert

# Not used here: perfbench/tracer.py BOUNDARIES lists this module as an
# importer of each, and installing the tracer raises BoundaryMissing when
# one is gone (tests/test_tracer_boundaries.py pins sim.parse_sata).
# They go when the tracer stops checking importers.
from .sata import parse_sata
from .trust import evaluate
from .validation import validate_alt_svc, validate_connection, validate_onion_location

ATTACKER_ENDPOINT_PREFIX = "attacker"
DEFAULT_ALT_SVC_MAX_AGE = 86400  # seconds


def is_attacker_endpoint(endpoint_id: str) -> bool:
    return endpoint_id.startswith(ATTACKER_ENDPOINT_PREFIX)


@dataclass(frozen=True)
class AltSvcHeader:
    """Advertised alternative service: the alternative ``host`` name and
    ``max_age`` seconds until expiry.  A tracker that gives each user
    another host is a scenario whose ``users`` patch the site per user."""

    host: str
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
class BrowserConfig:
    name: str = "browser"
    sata_aware: bool = False
    policy: TrustPolicy | None = None
    prioritize_onion: bool = False
    alt_svc_cache: Mapping[str, CacheWrite] = field(default_factory=dict)


@dataclass(frozen=True)
class World:
    sites: Mapping[str, SiteRecord]
    attacker: AttackerCaps = AttackerCaps()
    browser: BrowserConfig = BrowserConfig()
    he_rules: Mapping[str, str] = field(default_factory=dict)  # hostname -> onion label
    credentials: tuple[Sattestation, ...] = ()


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
    users: Mapping[str, Mapping[str, SiteRecord | None]] = field(default_factory=dict)


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
            and host in cert.san_list
            and host not in world.attacker.rogue_cert_for
        ):
            raise InconsistentWorld(
                f"fixture serves a hijacked {host!r} with a valid-looking cert "
                "but no rogue-cert capability"
            )


def run_visit(world: World, requested_url: str, now: date) -> tuple[Outcome, World]:
    """Simulate one navigation with :func:`satakit.browser.navigate`, which
    makes every decision; returns the outcome and the world after it.

    ``world.sites`` answers the navigation's fetches.  The returned world
    is the given ``world`` itself unless the visit stored an alternative
    service; then it is a copy whose browser cache maps the origin to the
    visit's own :class:`~satakit.browser.CacheWrite`.
    """
    outcome = navigate(
        requested_url, now, world.browser, world.sites.get, world.he_rules, world.credentials
    )
    for write in outcome.cache_writes:
        cache = {**world.browser.alt_svc_cache, write.origin: write}
        world = replace(world, browser=replace(world.browser, alt_svc_cache=cache))
    return outcome, world


def _patched(world: World, patch: Mapping[str, SiteRecord | None]) -> World:
    """``world`` with ``patch`` merged into its sites; a host patched to
    None is removed."""
    sites = {**world.sites, **patch}
    return replace(world, sites={h: rec for h, rec in sites.items() if rec is not None})


def run_scenario(scenario: Scenario, browser: BrowserConfig) -> list[Outcome]:
    """Replay a scenario's scripted visits under one browser configuration,
    checking each step's world with :func:`validate_world`.

    A scenario with ``users`` raises :class:`InconsistentWorld` before any
    visit: its sites differ per user, so only
    :func:`track_alt_svc_exposure` replays it.
    """
    if scenario.users:
        raise InconsistentWorld(
            f"scenario varies its sites per user ({', '.join(sorted(scenario.users))}); "
            "replay it with track_alt_svc_exposure"
        )
    world = replace(scenario.world, browser=browser)
    outcomes: list[Outcome] = []
    for step in scenario.steps:
        if step.sites_patch:
            world = _patched(world, step.sites_patch)
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


def track_alt_svc_exposure(scenario: Scenario, browser: BrowserConfig) -> dict:
    """Report which visits were served through cached alternative services.

    Replays the scenario's steps under ``browser`` once per user, with
    :func:`run_scenario` on the scenario patched by that user's sites; a
    scenario without users replays once, as the user ``"client"``.  So
    every step's world is checked with :func:`validate_world`.  Origins
    appear in the report only when an alternative service was actually
    stored or used for them; if different users observed different
    alternative hosts for the same origin, those origins partition the user
    population and the attacker can distinguish returning users by cache
    state alone.
    """
    origins: dict[str, dict[str, list[dict]]] = {}
    for user, patch in (scenario.users or {"client": {}}).items():
        user_scenario = replace(scenario, world=_patched(scenario.world, patch), users={})
        outcomes = run_scenario(user_scenario, browser)
        for index, (step, outcome) in enumerate(zip(scenario.steps, outcomes)):
            # both kinds of event under the typed host, a ruleset rewrite or not
            event = {"visit": index, "url": step.url}
            events = [{**event, "stored": write.alt_host} for write in outcome.cache_writes]
            if outcome.via_alt_service is not None:
                events.append({**event, "served_via": outcome.via_alt_service})
            if events:
                origin, _ = split_url(step.url)
                origins.setdefault(origin, {}).setdefault(user, []).extend(events)

    distinguishable = []
    for origin, per_user in sorted(origins.items()):
        distinct = {
            frozenset(e.get("stored") or e.get("served_via") for e in events)
            for events in per_user.values()
        }
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


def _host_table(obj: dict, name: str, keys: Mapping[str, KeyPair], value, items=dict) -> dict:
    """The table of hostnames at ``obj[name]`` (none: empty), each host
    substituted and put in its normal form, each value but null passed
    through ``value``; a host the table names twice, in any two spellings,
    raises :class:`UnrepresentableField`."""
    table: dict = {}
    for host, spec in _json.field(obj, name, dict, {}, items=items, what="fixture").items():
        host = normalize_host(_substitute(host, keys))
        if host in table:
            raise UnrepresentableField(f"fixture table {name!r} names {host!r} twice")
        table[host] = None if spec is None else value(spec)
    return table


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


def _onion_label(text: str) -> str:
    """The bare lowercase label of the onion address ``text`` spells, with
    or without its ``.onion`` suffix; an invalid address raises
    :class:`UnrepresentableField`."""
    try:
        return parse_onion(text).label
    except OnionAddressError as exc:
        raise UnrepresentableField(f"fixture onion label {text!r} is invalid: {exc}") from None


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
        san_list=sans,
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
                    labels=_json.field(b, "labels", list, [], items=str, what="fixture"),
                )
            )
        body = SattestationBody(
            sattestor_domain=_json.field(spec, "sattestor_domain", str, what="fixture"),
            sattestor_onion=key.address,
            refresh_rate_days=rate,
            sattestees=bindings,
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
        host = _substitute(_json.field(raw, "host", str, what="fixture"), keys)
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

    Every hostname the fixture names is kept in its normal form
    (:func:`~satakit.sata.normalize_host`): the keys of ``sites``, of each
    step's and each user's patch and of ``he_rules``, and the attacker's
    ``rogue_cert_for`` and ``dns_hijack``.  Every onion label it names, the
    values of ``he_rules`` and the attacker's ``onion_keys``, is kept as
    :func:`~satakit.onion.parse_onion` spells it: bare and lowercase.

    Malformed JSON, a fixture that is not a JSON object, a field of the
    wrong JSON type or a missing required field, a key, cert or credential
    the fixture names but does not define, an invalid onion label, or a
    table keyed by hostname that names one host twice, in any two
    spellings, raises :class:`UnrepresentableField`."""
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

    def site(spec: dict) -> SiteRecord:
        return _site_from_spec(spec, keys, certs, credentials)

    patch = (dict, type(None))  # a patch maps a host to null to remove it
    sites = _host_table(raw, "sites", keys, site)
    attacker_spec = _json.field(raw, "attacker", dict, {}, what="fixture")
    attacker = AttackerCaps(
        **{
            caps: frozenset(
                form(_substitute(v, keys))
                for v in _json.field(attacker_spec, caps, list, [], items=str, what="fixture")
            )
            # two sets of hostnames, and one of onion labels
            for caps, form in (
                ("rogue_cert_for", normalize_host), ("dns_hijack", normalize_host),
                ("onion_keys", _onion_label),
            )
        },
        compromised_victim_onion_key=_json.field(
            attacker_spec, "compromised_victim_onion_key", bool, False, what="fixture"
        ),
    )
    he_rules = _host_table(
        raw, "he_rules", keys, lambda label: _onion_label(_substitute(label, keys)), items=str
    )
    world = World(
        sites=sites,
        attacker=attacker,
        he_rules=he_rules,
        credentials=tuple(credentials[name] for name in sorted(credentials)),
    )
    steps = [
        Step(
            url=_substitute(_json.field(s, "url", str, what="fixture"), keys),
            now=_json.date_field(s, "now", what="fixture"),
            sites_patch=_host_table(s, "sites", keys, site, patch) if "sites" in s else None,
        )
        for s in _json.field(raw, "steps", list, [], items=dict, what="fixture")
    ]
    browsers = {
        name: browser_from_spec(name, spec, keys)
        for name, spec in _json.field(raw, "browsers", dict, {}, items=dict, what="fixture").items()
    }
    users = _json.field(raw, "users", dict, {}, what="fixture")
    return Scenario(
        name=_json.field(raw, "name", str, "scenario", what="fixture"),
        world=world,
        steps=tuple(steps),
        browsers=browsers,
        users={user: _host_table(users, user, keys, site, patch) for user in users},
    )
