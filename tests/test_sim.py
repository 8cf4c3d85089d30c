from __future__ import annotations

import dataclasses
import json
from datetime import date
from urllib.parse import urlsplit, urlunsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satakit import (
    AltSvcHeader,
    Sata,
    AttackerCaps,
    BrowserConfig,
    SiteHeaders,
    SiteRecord,
    Step,
    World,
    expected_sans,
    keygen,
    load_scenario,
    run_matrix,
    run_scenario,
    run_visit,
    to_query_form,
    track_alt_svc_exposure,
)
from satakit.cli import EXIT_DATA, main
from satakit.credential import make_self_sattestation
from satakit.errors import InconsistentWorld, SataError, UnknownHost, UnrepresentableField
from satakit.sim import _patched, is_attacker_endpoint, validate_world
from satakit.trust import TrustPolicy
from satakit.validation import VerdictOutcome

from conftest import DATA_DIR, FIXTURES_DIR, cert_for, key_for

ATTACK_FIXTURES = [
    FIXTURES_DIR / "attack1_onion_alt_svc.json",
    FIXTURES_DIR / "attack2_onion_location.json",
    FIXTURES_DIR / "attack3_securedrop_ruleset.json",
]


def load(name: str):
    path = FIXTURES_DIR / name
    return load_scenario(path if path.exists() else DATA_DIR / name)


# -- attack 1: onion alternative services ----------------------------------------


def test_attack1_legacy_served_from_cache_without_contacting_victim():
    scenario = load("attack1_onion_alt_svc.json")
    outcomes = run_scenario(scenario, scenario.browsers["legacy"])
    first, second = outcomes
    assert first.reached_endpoint == "attacker-spoof"
    assert len(first.cache_writes) == 1
    assert second.reached_endpoint == "attacker-onion"
    assert second.via_alt_service is not None  # never touched victim.example again
    assert not first.user_visible_alert and not second.user_visible_alert


def test_attack1_sata_aware_blocks_untrusted_alt_service():
    scenario = load("attack1_onion_alt_svc.json")
    outcomes = run_scenario(scenario, scenario.browsers["sata-aware"])
    first, second = outcomes
    assert first.cache_writes == ()  # blocked at store time
    assert second.reached_endpoint == "origin-victim"
    assert second.via_alt_service is None
    accepted = [v for v in second.verdicts if v.outcome is VerdictOutcome.ACCEPT]
    assert accepted, "honest origin should validate as a SATA"


def test_attack1_policy_alerts_during_spoof_window():
    scenario = load("attack1_onion_alt_svc.json")
    outcomes = run_scenario(scenario, scenario.browsers["sata-policy"])
    assert outcomes[0].user_visible_alert  # spoof cannot present a trusted sattestation
    assert outcomes[1].reached_endpoint == "origin-victim"
    assert not outcomes[1].user_visible_alert


# -- attack 2: onion location -------------------------------------------------------


def test_attack2_legacy_auto_redirects_to_attacker_onion():
    scenario = load("attack2_onion_location.json")
    (outcome,) = run_scenario(scenario, scenario.browsers["legacy"])
    assert outcome.reached_endpoint == "attacker-onion"
    assert not outcome.user_visible_alert


def test_attack2_sata_aware_rejects_bare_onion_redirect():
    scenario = load("attack2_onion_location.json")
    (outcome,) = run_scenario(scenario, scenario.browsers["sata-aware"])
    assert outcome.reached_endpoint == "attacker-lookalike"  # redirect refused
    assert outcome.user_visible_alert
    assert any(v.outcome is VerdictOutcome.REJECT_NOT_SATA for v in outcome.verdicts)


def test_attack2_sata_aware_would_accept_same_domain_sata_redirect():
    """The remediation: a SATA redirect on the same certificate is followed."""
    scenario = load("attack2_onion_location.json")
    world = scenario.world
    full_record = world.sites["full.com"]
    full_label = full_record.headers.sata_header.sattestor_onion.label
    sites = dict(world.sites)
    sites["full.com"] = dataclasses.replace(
        full_record,
        headers=dataclasses.replace(
            full_record.headers,
            onion_location=f"https://full.com/?onion={full_label}",
        ),
    )
    world = dataclasses.replace(
        world, sites=sites, browser=scenario.browsers["sata-aware"]
    )
    outcome, _ = run_visit(world, "https://full.com/", date(2020, 9, 1))
    assert outcome.reached_endpoint == "origin-full"
    assert not outcome.user_visible_alert
    assert any(v.accepted() for v in outcome.verdicts)
    assert outcome.notes == ("followed self-authenticating onion-location to full.com",)


def test_onion_location_cannot_move_a_sata_to_the_hijackers_onion():
    """A DNS hijack plus a rogue certificate naming the SATA SANs of both
    the victim's onion V and the attacker's own onion A: the attacker
    redirects a navigation to the victim's SATA towards A, and signs its
    certificate for (victim.example, A).  The redirect leaves V, so a
    SATA-aware browser alerts."""
    victim = Sata("victim.example", key_for("victim.example").address)
    attacker_key = key_for("attacker-onion")
    attacker = Sata("victim.example", attacker_key.address)
    cert = cert_for("rogue-victim", [*expected_sans(victim), *expected_sans(attacker)])
    header = make_self_sattestation(
        key=attacker_key, domain="victim.example", cert_fingerprints=[cert.fingerprint],
        issued=date(2020, 8, 31), refreshed_on=date(2020, 8, 31), refresh_rate_days=7,
    )
    world = World(
        sites={"victim.example": SiteRecord("attacker-spoof", cert, SiteHeaders(
            onion_location=to_query_form(attacker), sata_header=header,
        ))},
        attacker=AttackerCaps(
            rogue_cert_for=frozenset({"victim.example"}),
            dns_hijack=frozenset({"victim.example"}),
            onion_keys=frozenset({attacker.onion.label}),
        ),
        browser=BrowserConfig(name="sata-aware", sata_aware=True, prioritize_onion=True),
    )
    validate_world(world)
    outcome, _ = run_visit(world, to_query_form(victim), date(2020, 9, 1))
    assert outcome.user_visible_alert
    assert outcome.verdicts[0].outcome is VerdictOutcome.REJECT_NOT_SATA
    assert not any(v.accepted() for v in outcome.verdicts)


def test_alt_svc_cannot_move_a_sata_to_the_hijackers_onion():
    """The same hijack through an alternative service: the spoofed origin
    advertises the attacker's onion A and serves, and publishes, a sound
    self-sattestation for (victim.example, A).  A navigation to the
    victim's SATA stores nothing, so A never reaches the cache as a
    tracking handle; the bare hostname, which commits to no onion, stores
    it."""
    victim = Sata("victim.example", key_for("victim.example").address)
    attacker_key = key_for("attacker-onion")
    attacker = Sata("victim.example", attacker_key.address)
    cert = cert_for("rogue-victim", [*expected_sans(victim), *expected_sans(attacker)])
    header = make_self_sattestation(
        key=attacker_key, domain="victim.example", cert_fingerprints=[cert.fingerprint],
        issued=date(2020, 8, 31), refreshed_on=date(2020, 8, 31), refresh_rate_days=7,
    )
    alt_host = attacker.onion.onion_name
    world = World(
        sites={
            "victim.example": SiteRecord("attacker-spoof", cert, SiteHeaders(
                alt_svc=AltSvcHeader(host=alt_host), sata_header=header,
            )),
            alt_host: SiteRecord("attacker-onion", cert),
        },
        attacker=AttackerCaps(
            rogue_cert_for=frozenset({"victim.example"}),
            dns_hijack=frozenset({"victim.example"}),
            onion_keys=frozenset({attacker.onion.label}),
        ),
        browser=BrowserConfig(name="sata-aware", sata_aware=True),
        credentials=(header,),
    )
    validate_world(world)
    outcome, after = run_visit(world, to_query_form(victim), date(2020, 9, 1))
    assert outcome.cache_writes == () and after is world
    assert f"alt-svc {alt_host} blocked: not the SATA's onion" in outcome.notes
    assert f"alt-svc {alt_host} blocked: no trusted self-sattestation" not in outcome.notes
    assert outcome.user_visible_alert  # the header is not the victim's
    outcome, after = run_visit(world, "https://victim.example/", date(2020, 9, 1))
    assert [write.alt_host for write in outcome.cache_writes] == [alt_host]


def test_onion_location_to_an_unknown_host_raises():
    scenario = load("attack2_onion_location.json")
    sites = dict(scenario.world.sites)
    sites["full.com"] = dataclasses.replace(
        sites["full.com"],
        headers=dataclasses.replace(
            sites["full.com"].headers, onion_location="http://gone.example/"
        ),
    )
    world = dataclasses.replace(
        scenario.world, sites=sites, browser=scenario.browsers["legacy"]
    )
    with pytest.raises(UnknownHost, match="onion-location target 'gone.example' unknown"):
        run_visit(world, "https://full.com/", date(2020, 9, 1))


# -- attack 3: compromised SecureDrop ruleset ---------------------------------------


def test_attack3_legacy_never_reaches_correct_destination():
    scenario = load("attack3_securedrop_ruleset.json")
    (outcome,) = run_scenario(scenario, scenario.browsers["legacy"])
    assert outcome.reached_endpoint == "attacker-securedrop"
    assert not outcome.user_visible_alert


def test_attack3_sata_aware_checks_cert_against_rewritten_pair():
    scenario = load("attack3_securedrop_ruleset.json")
    (outcome,) = run_scenario(scenario, scenario.browsers["sata-aware"])
    assert outcome.reached_endpoint == "attacker-securedrop"
    assert outcome.user_visible_alert
    assert any(
        v.outcome is VerdictOutcome.REJECT_SAN_MISSING for v in outcome.verdicts
    )


def test_attack3_honest_ruleset_validates_end_to_end():
    scenario = load("attack3_securedrop_ruleset.json")
    world = scenario.world
    honest_label = world.he_rules["www.cbc.ca.securedrop.tor.onion"]
    # point the ruleset at the real SecureDrop onion instead of the attacker's
    cbcsd_label = next(h for h in world.sites if h.endswith(".onion") and
                       world.sites[h].endpoint_id == "origin-securedrop")[: -len(".onion")]
    assert honest_label != cbcsd_label
    world = dataclasses.replace(
        world,
        he_rules={"www.cbc.ca.securedrop.tor.onion": cbcsd_label},
        browser=scenario.browsers["sata-aware"],
    )
    outcome, _ = run_visit(
        world,
        f"https://www.cbc.ca.securedrop.tor.onion/?onion={cbcsd_label}",
        date(2020, 9, 1),
    )
    assert outcome.reached_endpoint == "origin-securedrop"
    assert not outcome.user_visible_alert


@pytest.mark.parametrize("browser", ["legacy", "sata-aware", "sata-policy"])
def test_a_ruleset_key_in_capitals_rewrites_as_written_in_lowercase(browser):
    raw = json.loads((FIXTURES_DIR / "attack3_securedrop_ruleset.json").read_text())
    lowercase = load_scenario(raw)
    raw["he_rules"] = {"WWW.CBC.CA.SecureDrop.Tor.Onion": "{onion:attacker}"}
    capitals = load_scenario(raw)
    assert capitals.world.he_rules == lowercase.world.he_rules
    expected = run_scenario(lowercase, lowercase.browsers[browser])
    assert run_scenario(capitals, capitals.browsers[browser]) == expected


def test_a_plain_ruleset_key_in_capitals_still_reaches_the_onion():
    raw = {
        "keys": {"onion": "77" * 32},
        "certs": {"c": {"sans": ["typed.example", "{onion:onion}.onion"],
                        "not_before": "2020-01-01", "not_after": "2021-01-01"}},
        "he_rules": {"Typed.Example": "{onion:onion}"},
        "sites": {"typed.example": {"endpoint": "origin-clear", "cert": "c"},
                  "{onion:onion}.onion": {"endpoint": "origin-onion", "cert": "c"}},
        "steps": [{"url": "https://typed.example/", "now": "2020-09-01"}],
    }
    (outcome,) = run_scenario(load_scenario(raw), BrowserConfig())
    assert outcome.reached_endpoint == "origin-onion"
    assert outcome.notes[0].startswith("ruleset rewrite typed.example -> ")


def test_attack3_bad_onion_parameter_is_rejected_once():
    """The SecureDrop rewrite owns a SecureDrop name's ``onion`` parameter:
    a bad one is one verdict, not a second one from SATA parsing."""
    scenario = load("attack3_securedrop_ruleset.json")
    world = dataclasses.replace(scenario.world, browser=scenario.browsers["sata-aware"])
    outcome, _ = run_visit(
        world, "https://www.cbc.ca.securedrop.tor.onion/?onion=notalabel", date(2020, 9, 1)
    )
    (verdict,) = outcome.verdicts
    assert verdict.outcome is VerdictOutcome.REJECT_NOT_SATA
    assert verdict.detail.startswith("onion parameter invalid: ")
    assert outcome.user_visible_alert


# -- golden matrix -------------------------------------------------------------------


def test_attack_matrix_matches_hand_derived_golden():
    rows = []
    for path in ATTACK_FIXTURES:
        scenario = load_scenario(path)
        rows.extend(run_matrix([scenario], list(scenario.browsers.values())))
    golden = json.loads((DATA_DIR / "attack_matrix_golden.json").read_text())
    assert rows == golden


def test_matrix_legacy_rows_all_silently_hijacked():
    rows = []
    for path in ATTACK_FIXTURES:
        scenario = load_scenario(path)
        rows.extend(run_matrix([scenario], [scenario.browsers["legacy"]]))
    assert all(r["attack_success"] for r in rows)


def test_matrix_policy_rows_never_silently_hijacked():
    rows = []
    for path in ATTACK_FIXTURES:
        scenario = load_scenario(path)
        rows.extend(run_matrix([scenario], [scenario.browsers["sata-policy"]]))
    assert not any(r["attack_success"] for r in rows)


def test_fail_closed_end_to_end_property():
    """Against policy browsers, no fixture without a compromised victim onion
    key may end in silent attacker success at any step."""
    for path in ATTACK_FIXTURES:
        scenario = load_scenario(path)
        assert not scenario.world.attacker.compromised_victim_onion_key
        outcomes = run_scenario(scenario, scenario.browsers["sata-policy"])
        for outcome in outcomes:
            if is_attacker_endpoint(outcome.reached_endpoint):
                assert outcome.user_visible_alert, (
                    f"{scenario.name}: silent attacker success at {outcome}"
                )


def test_matrix_is_deterministic():
    def run_all():
        rows = []
        for path in ATTACK_FIXTURES:
            scenario = load_scenario(path)
            rows.extend(run_matrix([scenario], list(scenario.browsers.values())))
        return rows

    assert run_all() == run_all()


def test_empty_matrix():
    assert run_matrix([], []) == []


def test_run_visit_is_pure():
    scenario = load("attack1_onion_alt_svc.json")
    world = dataclasses.replace(scenario.world, browser=scenario.browsers["legacy"])
    when = date(2020, 9, 1)
    out1, _ = run_visit(world, "https://victim.example/", when)
    out2, _ = run_visit(world, "https://victim.example/", when)
    assert out1 == out2


# -- alt-svc cache details ------------------------------------------------------------


def test_cache_expiry_honored():
    scenario = load("attack1_onion_alt_svc.json")
    world = dataclasses.replace(scenario.world, browser=scenario.browsers["legacy"])
    out1, world = run_visit(world, "https://victim.example/", date(2020, 9, 1))
    assert out1.cache_writes
    # far beyond the 172800 s lifetime: entry expired, back to direct fetch
    out2, _ = run_visit(world, "https://victim.example/", date(2020, 9, 10))
    assert out2.via_alt_service is None


@pytest.mark.parametrize("source", ["served", "published", "neither", "forbidden"])
def test_sata_aware_store_gate(source):
    """A SATA-aware browser stores an alternative service when the header
    the origin served, or any published credential, is a self-sattestation
    binding the origin to the alternative onion, and the policy allows it."""
    alt = key_for("shop-alt")
    alt_host = f"{alt.address.label}.onion"
    cert = cert_for("shop", ["shop.example"])
    binding = make_self_sattestation(
        key=alt, domain="shop.example", cert_fingerprints=[cert.fingerprint],
        issued=date(2020, 8, 31), refreshed_on=date(2020, 8, 31), refresh_rate_days=7,
    )
    unrelated = make_self_sattestation(
        key=key_for("elsewhere"), domain="elsewhere.example",
        cert_fingerprints=[cert.fingerprint],
        issued=date(2020, 8, 31), refreshed_on=date(2020, 8, 31), refresh_rate_days=7,
    )
    headers = SiteHeaders(
        alt_svc=AltSvcHeader(host=alt_host),
        sata_header=binding if source == "served" else unrelated,
    )
    policy = None
    if source == "forbidden":
        policy = TrustPolicy(roots=(), allow_credentialed_alt_services=False)
    world = World(
        sites={"shop.example": SiteRecord("origin-shop", cert, headers)},
        browser=BrowserConfig(sata_aware=True, policy=policy),
        credentials=(unrelated, binding) if source in ("published", "forbidden") else (unrelated,),
    )
    outcome, _ = run_visit(world, "https://shop.example/", date(2020, 9, 1))
    stored = [w.alt_host for w in outcome.cache_writes]
    blocked = f"alt-svc {alt_host} blocked: no trusted self-sattestation"
    if source in ("served", "published"):
        assert stored == [alt_host] and blocked not in outcome.notes
    else:
        assert stored == [] and blocked in outcome.notes


def test_cache_write_records_expiry():
    scenario = load("attack1_onion_alt_svc.json")
    world = dataclasses.replace(scenario.world, browser=scenario.browsers["legacy"])
    outcome, _ = run_visit(world, "https://victim.example/", date(2020, 9, 1))
    (write,) = outcome.cache_writes
    assert write.origin == "victim.example"
    assert write.expires_at == date(2020, 9, 1).toordinal() + 2.0


def test_a_stored_alternative_service_is_read_back_as_its_own_cache_write():
    scenario = load("attack1_onion_alt_svc.json")
    world = dataclasses.replace(scenario.world, browser=scenario.browsers["legacy"])
    outcome, after = run_visit(world, "https://victim.example/", date(2020, 9, 1))
    (write,) = outcome.cache_writes
    assert after is not world and world.browser.alt_svc_cache == {}
    assert after.browser.alt_svc_cache == {"victim.example": write}
    assert after.browser.alt_svc_cache["victim.example"] is write
    again, _ = run_visit(after, "https://victim.example/", date(2020, 9, 2))
    assert again.via_alt_service == write.alt_host


@pytest.mark.parametrize(
    "fixture,browser,url",
    [
        ("attack1_onion_alt_svc.json", "sata-aware", "https://victim.example/"),
        ("attack2_onion_location.json", "legacy", "https://full.com/"),
        ("attack2_onion_location.json", "sata-aware", "https://full.com/"),
    ],
)
def test_a_visit_that_stores_nothing_returns_the_world_it_was_given(fixture, browser, url):
    scenario = load(fixture)
    world = dataclasses.replace(scenario.world, browser=scenario.browsers[browser])
    outcome, after = run_visit(world, url, date(2020, 9, 1))
    assert outcome.cache_writes == ()
    assert after is world


def _every_outcome():
    """(case, outcome) for each step of every fixture under each of its
    browsers; the tracking fixture runs once per user it declares, patched
    by that user's sites as the tracking report patches it."""
    for path in [*sorted(FIXTURES_DIR.glob("*.json")), DATA_DIR / "tracking_alt_svc.json"]:
        scenario = load_scenario(path)
        for user, patch in (scenario.users or {None: {}}).items():
            patched = dataclasses.replace(scenario, world=_patched(scenario.world, patch), users={})
            for name, browser in scenario.browsers.items():
                for index, outcome in enumerate(run_scenario(patched, browser)):
                    yield f"{path.stem}:{user}:{name}:{index}", outcome


def test_the_alert_is_raised_exactly_by_a_rejected_verdict_or_a_missing_sattestation():
    missing = "required sattestation from a trusted sattestor is missing"
    seen = set()
    cases = set()
    for case, outcome in _every_outcome():
        rejected = not all(v.accepted() for v in outcome.verdicts)
        expected = rejected or missing in outcome.notes
        assert outcome.user_visible_alert is expected, case
        seen.add((rejected, missing in outcome.notes))
        cases.add(case)
    assert {f"tracking_alt_svc:{user}:legacy:1" for user in ("user-a", "user-b")} <= cases
    # every way to raise the alert, and visits without one, are exercised
    assert seen >= {(False, False), (True, False), (False, True), (True, True)}, seen


# -- one hostname normal form ---------------------------------------------------------

SPELLED_SCENARIOS = {
    path.stem: load_scenario(path)
    for path in [*sorted(FIXTURES_DIR.glob("*.json")), DATA_DIR / "tracking_alt_svc.json"]
}


def _respelled(url: str, capitals: int, dot: bool) -> str:
    """``url`` with its host's character ``i`` in capitals where bit ``i``
    of ``capitals`` is set, and with a trailing root dot when ``dot``."""
    parts = urlsplit(url)
    host = "".join(c.upper() if capitals >> i & 1 else c for i, c in enumerate(parts.hostname))
    return urlunsplit(parts._replace(netloc=host + "." * dot))


def _decided(scenario) -> dict:
    """(browser, user, step) -> what the visit decided, for every step of
    ``scenario`` under each of its browsers and for each of its users."""
    decided = {}
    for user, patch in (scenario.users or {None: {}}).items():
        patched = dataclasses.replace(scenario, world=_patched(scenario.world, patch), users={})
        for name, browser in scenario.browsers.items():
            for index, o in enumerate(run_scenario(patched, browser)):
                decided[name, user, index] = (
                    o.reached_endpoint, o.verdicts, o.user_visible_alert,
                    o.cache_writes, o.via_alt_service,
                )
    return decided


def _filed(scenario) -> dict:
    """Each browser's tracking report, its events without the typed URL."""
    filed = {}
    for name, browser in scenario.browsers.items():
        report = track_alt_svc_exposure(scenario, browser)
        filed[name] = (
            {
                origin: {
                    user: [{k: v for k, v in e.items() if k != "url"} for e in events]
                    for user, events in per_user.items()
                }
                for origin, per_user in report["origins"].items()
            },
            report["distinguishable_origins"],
        )
    return filed


AS_WRITTEN = {
    stem: (_decided(scenario), _filed(scenario)) for stem, scenario in SPELLED_SCENARIOS.items()
}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_step_host_in_any_spelling_decides_as_written(data):
    """Capitals anywhere in a step's host, and a trailing root dot, change
    no outcome and file every visit under the same origin."""
    stem = data.draw(st.sampled_from(sorted(SPELLED_SCENARIOS)))
    scenario = SPELLED_SCENARIOS[stem]
    spellings = data.draw(
        st.lists(
            st.tuples(st.integers(0, 2**64 - 1), st.booleans()),
            min_size=len(scenario.steps),
            max_size=len(scenario.steps),
        )
    )
    steps = tuple(
        dataclasses.replace(step, url=_respelled(step.url, *spelling))
        for step, spelling in zip(scenario.steps, spellings)
    )
    respelled = dataclasses.replace(scenario, steps=steps)
    assert (_decided(respelled), _filed(respelled)) == AS_WRITTEN[stem]


def test_the_respelled_hosts_reach_every_kind_of_decision():
    """The property above replays visits that store and use an alternative
    service, and that alert, and its tracking reports file events."""
    decided = [d for decisions, _ in AS_WRITTEN.values() for d in decisions.values()]
    assert any(cache_writes for _, _, _, cache_writes, _ in decided)
    assert any(via is not None for *_, via in decided)
    assert any(alert for _, _, alert, _, _ in decided)
    assert any(filed for _, reports in AS_WRITTEN.values() for filed, _ in reports.values())


def _spelled_twice(table: str) -> dict:
    """Attack 1's fixture with one host named twice in ``table``."""
    raw = json.loads((FIXTURES_DIR / "attack1_onion_alt_svc.json").read_text())
    site = raw["sites"]["victim.example"]
    if table == "he_rules":
        raw["he_rules"] = {"victim.example": "{onion:attacker}", "Victim.Example.": "{onion:root}"}
    elif table == "sites":
        raw["sites"]["VICTIM.example."] = site
    elif table == "step":
        raw["steps"][1]["sites"]["victim.example."] = site
    else:
        raw["users"] = {"user-a": {"victim.example": site, "Victim.Example": None}}
    return raw


@pytest.mark.parametrize("table", ["he_rules", "sites", "step", "users"])
def test_a_host_named_twice_in_a_fixture_table_is_refused(table):
    with pytest.raises(UnrepresentableField, match="names 'victim.example' twice"):
        load_scenario(_spelled_twice(table))


def test_fixture_hosts_are_kept_in_their_normal_form():
    raw = json.loads((FIXTURES_DIR / "attack1_onion_alt_svc.json").read_text())
    raw["sites"]["Victim.Example."] = raw["sites"].pop("victim.example")
    raw["attacker"]["rogue_cert_for"] = ["VICTIM.EXAMPLE."]
    raw["attacker"]["dns_hijack"] = [" victim.Example"]
    raw["steps"][1]["sites"] = {"victim.EXAMPLE.": raw["steps"][1]["sites"]["victim.example"]}
    scenario = load_scenario(raw)
    plain = load("attack1_onion_alt_svc.json")
    assert set(scenario.world.sites) == set(plain.world.sites)
    assert list(scenario.steps[1].sites_patch) == ["victim.example"]
    caps = scenario.world.attacker
    assert caps.rogue_cert_for == caps.dns_hijack == {"victim.example"}
    for name, browser in scenario.browsers.items():
        assert run_scenario(scenario, browser) == run_scenario(plain, plain.browsers[name])


def test_a_hijack_spelled_in_capitals_still_needs_the_rogue_cert():
    raw = json.loads((FIXTURES_DIR / "attack1_onion_alt_svc.json").read_text())
    raw["attacker"]["dns_hijack"] = ["Victim.Example."]
    raw["attacker"]["rogue_cert_for"] = []
    raw["certs"]["rogue-victim-cert"]["sans"] = ["Victim.Example"]
    scenario = load_scenario(raw)
    with pytest.raises(InconsistentWorld, match="no rogue-cert capability"):
        validate_world(scenario.world)


def _onion_labels_respelled(raw: dict, spell) -> dict:
    """``raw`` with each onion label its ``he_rules`` values and attacker
    ``onion_keys`` name written out through ``spell``, not as ``{onion:NAME}``."""
    keys = {name: keygen(bytes.fromhex(seed)) for name, seed in raw["keys"].items()}

    def respelled(value: str) -> str:
        assert value.startswith("{onion:") and value.endswith("}"), value
        return spell(keys[value[len("{onion:") : -1]].address.label)

    attacker = raw["attacker"]
    attacker["onion_keys"] = [respelled(v) for v in attacker["onion_keys"]]
    raw["he_rules"] = {host: respelled(v) for host, v in raw.get("he_rules", {}).items()}
    return raw


@pytest.mark.parametrize(
    "spell",
    [str.upper, lambda label: label + ".onion", lambda label: f" {label.upper()}.Onion"],
    ids=["capitals", "suffix", "capitals-suffix-padded"],
)
def test_fixture_onion_labels_in_any_spelling_replay_as_written(spell):
    respelled = 0
    for stem, scenario in SPELLED_SCENARIOS.items():
        path = FIXTURES_DIR / f"{stem}.json"
        raw = json.loads((path if path.exists() else DATA_DIR / f"{stem}.json").read_text())
        raw = _onion_labels_respelled(raw, spell)
        respelled += len(raw["attacker"]["onion_keys"]) + len(raw["he_rules"])
        loaded = load_scenario(raw)
        assert loaded.world == scenario.world
        validate_world(loaded.world)
        assert _decided(loaded) == AS_WRITTEN[stem][0]
    assert respelled == 4  # three attackers' keys and attack 3's ruleset entry


@pytest.mark.parametrize("table", ["he_rules", "onion_keys"])
@pytest.mark.parametrize("label", ["abc", "a" * 56, "not an onion.onion"])
def test_an_invalid_fixture_onion_label_is_unrepresentable(capsys, tmp_path, table, label):
    raw = json.loads((FIXTURES_DIR / "attack3_securedrop_ruleset.json").read_text())
    if table == "he_rules":
        raw["he_rules"] = {"www.cbc.ca.securedrop.tor.onion": label}
    else:
        raw["attacker"]["onion_keys"] = [label]
    with pytest.raises(UnrepresentableField, match="fixture onion label"):
        load_scenario(raw)
    (tmp_path / "bad.json").write_text(json.dumps(raw))
    code = main(["--json", "sim", "run", "--fixture", str(tmp_path / "bad.json"),
                 "--browser", "legacy"])
    assert code == EXIT_DATA
    assert json.loads(capsys.readouterr().out)["error"]["class"] == "UnrepresentableField"


# -- user tracking via alternative services --------------------------------------------


def test_tracking_report_distinguishes_users():
    scenario = load("tracking_alt_svc.json")
    report = track_alt_svc_exposure(scenario, scenario.browsers["legacy"])
    assert report["partitions_users"] is True
    assert report["distinguishable_origins"] == ["tracker.example"]
    per_user = report["origins"]["tracker.example"]
    assert set(per_user) == {"user-a", "user-b"}
    served_a = [e["served_via"] for e in per_user["user-a"] if "served_via" in e]
    served_b = [e["served_via"] for e in per_user["user-b"] if "served_via" in e]
    assert served_a and served_b and served_a != served_b


def test_a_tracker_behind_a_ruleset_rewrite_is_one_origin():
    # the tracker serves its per-user alt-svc at an onion the ruleset sends
    # typed.example to: what is stored and what is reused file under one host
    raw = json.loads((DATA_DIR / "tracking_alt_svc.json").read_text())
    raw["keys"]["tracker"] = "77" * 32
    for patch in raw["users"].values():
        patch["{onion:tracker}.onion"] = patch.pop("tracker.example")
    raw["he_rules"] = {"typed.example": "{onion:tracker}"}
    for step in raw["steps"]:
        step["url"] = "https://typed.example/"
    scenario = load_scenario(raw)
    report = track_alt_svc_exposure(scenario, scenario.browsers["legacy"])
    assert report["distinguishable_origins"] == ["typed.example"]
    events = report["origins"]["typed.example"]["user-a"]
    assert ["stored" in events[0], "served_via" in events[1]] == [True, True]


def test_tracking_report_empty_when_blocking_enabled():
    scenario = load("tracking_alt_svc.json")
    report = track_alt_svc_exposure(scenario, scenario.browsers["sata-aware"])
    assert report["origins"] == {}
    assert report["partitions_users"] is False


def test_tracking_report_empty_without_alt_svc_headers():
    scenario = load("attack2_onion_location.json")
    scenario = dataclasses.replace(scenario, steps=(Step("https://full.com/", date(2020, 9, 1)),))
    report = track_alt_svc_exposure(scenario, scenario.browsers["legacy"])
    assert report["origins"] == {}


def test_a_scenario_without_users_is_tracked_as_one_client():
    scenario = load("attack1_onion_alt_svc.json")
    report = track_alt_svc_exposure(scenario, scenario.browsers["legacy"])
    assert set(report["origins"]["victim.example"]) == {"client"}
    assert report["partitions_users"] is False


def test_tracking_cache_expiry_between_visits():
    scenario = load("tracking_alt_svc.json")
    first, second = scenario.steps
    scenario = dataclasses.replace(
        scenario,
        steps=(first, dataclasses.replace(second, now=date(2020, 9, 10))),
        users={"user-a": scenario.users["user-a"]},
    )
    report = track_alt_svc_exposure(scenario, scenario.browsers["legacy"])
    events = report["origins"]["tracker.example"]["user-a"]
    assert not any("served_via" in e for e in events)  # expired before reuse


@pytest.mark.parametrize("browser", ["legacy", "sata-aware"])
def test_the_tracking_report_refuses_a_world_the_matrix_refuses(browser):
    raw = json.loads((DATA_DIR / "tracking_alt_svc.json").read_text())
    raw["sites"]["{onion:alt_a}.onion"]["endpoint"] = "attacker-alt-a"
    scenario = load_scenario(raw)
    with pytest.raises(InconsistentWorld, match="without the key capability"):
        track_alt_svc_exposure(scenario, scenario.browsers[browser])


@pytest.mark.parametrize(
    "replay", [run_scenario, lambda s, b: run_matrix([s], [b])], ids=["run_scenario", "run_matrix"]
)
def test_a_scenario_with_users_is_replayed_only_by_the_tracking_report(replay):
    scenario = load("tracking_alt_svc.json")
    with pytest.raises(
        InconsistentWorld,
        match=r"per user \(user-a, user-b\); replay it with track_alt_svc_exposure",
    ):
        replay(scenario, scenario.browsers["legacy"])


# -- rotation attack realism ------------------------------------------------------------


def test_compromised_key_rotation_validates_but_gains_no_trust():
    """An attacker holding the victim onion key and a rogue cert can perform
    a mutually-sattested rotation, but third-party trust still does not
    answer for the successor address."""
    from datetime import date as _date

    from conftest import key_for, sata_for, third_party
    from satakit import evaluate, rotation_check
    from satakit.trust import TrustPolicy, TrustRoot

    old = sata_for("victim.example", "victim-compromised")
    new = sata_for("victim.example", "attacker-successor")
    caps = AttackerCaps(
        rogue_cert_for=frozenset({"victim.example"}),
        onion_keys=frozenset({new.onion.label}),
        compromised_victim_onion_key=True,
    )
    cert = cert_for("rogue", ["victim.example"])
    world = World(
        sites={f"{new.onion.label}.onion": SiteRecord(endpoint_id="attacker-successor", cert=cert)},
        attacker=caps,
    )
    validate_world(world)  # permitted only because the key is compromised

    old_to_new = third_party(
        "victim.example", "victim-compromised",
        [("victim.example", "attacker-successor", ["successor"])],
    )
    new_to_old = third_party(
        "victim.example", "attacker-successor",
        [("victim.example", "victim-compromised", ["predecessor"])],
    )
    when = _date(2020, 9, 1)
    assert rotation_check(old, new, [old_to_new, new_to_old], when).ok

    root = sata_for("root.example", "root")
    root_about_old = third_party(
        "root.example", "root", [("victim.example", "victim-compromised", ["news"])]
    )
    policy = TrustPolicy(
        roots=(TrustRoot(sattestor=root, trusted_labels=frozenset({"news"})),)
    )
    creds = [old_to_new, new_to_old, root_about_old]
    assert evaluate(policy, creds, new, "news", when) is None


# -- world validation -------------------------------------------------------------------


def test_validate_world_rejects_inconsistent_fingerprint():
    cert = cert_for("site", ["site.example"])
    broken = cert.replace(fingerprint="0" * 64)
    world = World(sites={"site.example": SiteRecord(endpoint_id="origin", cert=broken)})
    with pytest.raises(ValueError, match="fingerprint"):
        validate_world(world)


def test_validate_world_rejects_attacker_onion_without_key():
    from conftest import key_for

    label = key_for("victim-onion").address.label
    cert = cert_for("attacker", [f"{label}.onion"])
    world = World(
        sites={f"{label}.onion": SiteRecord(endpoint_id="attacker-x", cert=cert)},
        attacker=AttackerCaps(onion_keys=frozenset()),
    )
    with pytest.raises(ValueError, match="key capability"):
        validate_world(world)


def _inconsistent_worlds() -> dict[str, World]:
    label = key_for("victim-onion").address.label
    good = cert_for("site", ["site.example"])
    return {
        "fingerprint": World(
            sites={
                "site.example": SiteRecord(
                    endpoint_id="origin", cert=good.replace(fingerprint="0" * 64)
                )
            }
        ),
        "key capability": World(
            sites={
                f"{label}.onion": SiteRecord(
                    endpoint_id="attacker-x", cert=cert_for("attacker", [f"{label}.onion"])
                )
            }
        ),
        "rogue-cert capability": World(
            sites={"site.example": SiteRecord(endpoint_id="attacker-x", cert=good)},
            attacker=AttackerCaps(dns_hijack=frozenset({"site.example"})),
        ),
    }


@pytest.mark.parametrize("fault", ["fingerprint", "key capability", "rogue-cert capability"])
def test_an_inconsistent_world_is_a_sata_error(fault):
    with pytest.raises(InconsistentWorld, match=fault) as caught:
        validate_world(_inconsistent_worlds()[fault])
    assert isinstance(caught.value, SataError)
    assert isinstance(caught.value, ValueError)


def test_validate_world_allows_it_with_compromised_key():
    from conftest import key_for

    label = key_for("victim-onion").address.label
    cert = cert_for("attacker", [f"{label}.onion"])
    world = World(
        sites={f"{label}.onion": SiteRecord(endpoint_id="attacker-x", cert=cert)},
        attacker=AttackerCaps(compromised_victim_onion_key=True),
    )
    validate_world(world)


def test_unknown_host():
    world = World(sites={})
    with pytest.raises(UnknownHost):
        run_visit(world, "https://nowhere.example/", date(2020, 9, 1))


def test_securedrop_name_without_ruleset_is_unreachable():
    world = World(sites={}, browser=BrowserConfig(sata_aware=True))
    with pytest.raises(UnknownHost):
        run_visit(world, "https://x.example.securedrop.tor.onion/", date(2020, 9, 1))
