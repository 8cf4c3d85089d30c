from __future__ import annotations

import dataclasses
import json
from datetime import date

import pytest

from satakit import (
    AltSvcHeader,
    AttackerCaps,
    BrowserConfig,
    SiteHeaders,
    SiteRecord,
    World,
    load_scenario,
    run_matrix,
    run_scenario,
    run_visit,
    track_alt_svc_exposure,
)
from satakit.credential import make_self_sattestation
from satakit.errors import InconsistentWorld, SataError, UnknownHost
from satakit.sim import is_attacker_endpoint, validate_world
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


# -- user tracking via alternative services --------------------------------------------


def test_tracking_report_distinguishes_users():
    scenario = load("tracking_alt_svc.json")
    world = dataclasses.replace(scenario.world, browser=scenario.browsers["legacy"])
    visits = [("https://tracker.example/", date(2020, 9, 1)),
              ("https://tracker.example/", date(2020, 9, 2))]
    report = track_alt_svc_exposure(world, visits, users=("user-a", "user-b"))
    assert report["partitions_users"] is True
    assert report["distinguishable_origins"] == ["tracker.example"]
    per_user = report["origins"]["tracker.example"]
    assert set(per_user) == {"user-a", "user-b"}
    served_a = [e["served_via"] for e in per_user["user-a"] if "served_via" in e]
    served_b = [e["served_via"] for e in per_user["user-b"] if "served_via" in e]
    assert served_a and served_b and served_a != served_b


def test_tracking_report_empty_when_blocking_enabled():
    scenario = load("tracking_alt_svc.json")
    world = dataclasses.replace(scenario.world, browser=scenario.browsers["sata-aware"])
    visits = [("https://tracker.example/", date(2020, 9, 1)),
              ("https://tracker.example/", date(2020, 9, 2))]
    report = track_alt_svc_exposure(world, visits, users=("user-a", "user-b"))
    assert report["origins"] == {}
    assert report["partitions_users"] is False


def test_tracking_report_empty_without_alt_svc_headers():
    scenario = load("attack2_onion_location.json")
    world = dataclasses.replace(scenario.world, browser=scenario.browsers["legacy"])
    report = track_alt_svc_exposure(
        world, [("https://full.com/", date(2020, 9, 1))], users=("user-a",)
    )
    assert report["origins"] == {}


def test_tracking_cache_expiry_between_visits():
    scenario = load("tracking_alt_svc.json")
    world = dataclasses.replace(scenario.world, browser=scenario.browsers["legacy"])
    visits = [("https://tracker.example/", date(2020, 9, 1)),
              ("https://tracker.example/", date(2020, 9, 10))]
    report = track_alt_svc_exposure(world, visits, users=("user-a",))
    events = report["origins"]["tracker.example"]["user-a"]
    assert not any("served_via" in e for e in events)  # expired before reuse


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


def test_per_user_alt_host_must_be_resolved():
    header = AltSvcHeader(host={"user-a": "a.onion"})
    cert = cert_for("t", ["t.example"])
    world = World(
        sites={
            "t.example": SiteRecord(
                endpoint_id="origin", cert=cert, headers=SiteHeaders(alt_svc=header)
            )
        }
    )
    with pytest.raises(ValueError, match="resolved"):
        run_visit(world, "https://t.example/", date(2020, 9, 1))
