"""The navigation decision, called without a simulator world.

``navigate`` reaches the network only through ``fetch(host)``.  A fake
``fetch`` that records the hosts it is asked for shows which hosts a
navigation contacts: none before a ruleset rewrite, only the alternative
host for a fresh cached alt-svc, and an Onion-Location target only when
the redirect is followed.  Given ``world.sites.get``, ``navigate``
decides every fixture step as ``run_visit`` does.
"""

from __future__ import annotations

import dataclasses
from datetime import date

import pytest

import satakit.sim
from satakit import load_scenario, navigate, run_scenario, run_visit

from conftest import FIXTURES_DIR

DAY = date(2020, 9, 1)


def _asking(world):
    """(a fetch answering from ``world.sites``, the hosts it was asked for)."""
    asked: list[str] = []

    def fetch(host):
        asked.append(host)
        return world.sites.get(host)

    return fetch, asked


def _navigate(world, browser, url, when=DAY):
    fetch, asked = _asking(world)
    outcome = navigate(url, when, browser, fetch, world.he_rules, world.credentials)
    return outcome, asked


@pytest.mark.parametrize("browser", ["legacy", "sata-aware", "sata-policy"])
def test_a_ruleset_rewrite_asks_only_for_the_rewritten_onion(browser):
    scenario = load_scenario(FIXTURES_DIR / "attack3_securedrop_ruleset.json")
    world = scenario.world
    (rewritten,) = world.he_rules.values()
    _, asked = _navigate(world, scenario.browsers[browser], scenario.steps[0].url)
    assert asked == [f"{rewritten}.onion"]


def test_a_fresh_cached_alt_svc_asks_only_for_the_alternative_host():
    scenario = load_scenario(FIXTURES_DIR / "attack1_onion_alt_svc.json")
    legacy = scenario.browsers["legacy"]
    first, asked = _navigate(scenario.world, legacy, "https://victim.example/")
    assert asked == ["victim.example"]
    (write,) = first.cache_writes
    cached = dataclasses.replace(legacy, alt_svc_cache={write.origin: write})
    second, asked = _navigate(scenario.world, cached, "https://victim.example/", date(2020, 9, 2))
    assert asked == [write.alt_host]
    assert second.via_alt_service == write.alt_host and second.cache_writes == ()


def test_a_rejected_onion_location_asks_for_one_host():
    scenario = load_scenario(FIXTURES_DIR / "attack2_onion_location.json")
    outcome, asked = _navigate(scenario.world, scenario.browsers["sata-aware"], "https://fuii.com/")
    assert not outcome.verdicts[-1].accepted()
    assert asked == ["fuii.com"]


def test_a_legacy_browser_asks_for_the_origin_then_the_onion_location_target():
    scenario = load_scenario(FIXTURES_DIR / "attack2_onion_location.json")
    legacy = scenario.browsers["legacy"]
    assert legacy.prioritize_onion
    outcome, asked = _navigate(scenario.world, legacy, "https://fuii.com/")
    target = scenario.world.sites["fuii.com"].headers.onion_location
    assert asked == ["fuii.com", target.split("//")[1].rstrip("/")]
    assert outcome.reached_endpoint == scenario.world.sites[asked[1]].endpoint_id


@pytest.mark.parametrize("path", sorted(FIXTURES_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_navigate_decides_every_fixture_step_as_run_visit(path, monkeypatch):
    scenario = load_scenario(path)
    checked = []

    def checking_run_visit(world, url, now):
        outcome, after = run_visit(world, url, now)
        decided = navigate(url, now, world.browser, world.sites.get, world.he_rules, world.credentials)
        assert decided == outcome, (world.browser.name, len(checked))
        checked.append(url)
        return outcome, after

    monkeypatch.setattr(satakit.sim, "run_visit", checking_run_visit)
    for browser in scenario.browsers.values():
        run_scenario(scenario, browser)
    assert len(checked) == len(scenario.browsers) * len(scenario.steps)
