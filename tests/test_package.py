"""The public ``satakit`` names: resolved lazily, unchanged in number and
identity."""

from __future__ import annotations

import sys

import pytest

import satakit

PUBLIC_NAMES = {
    "AltSvcDecision", "AltSvcHeader", "AttackerCaps", "Binding", "BrowserConfig",
    "CertDescriptor", "ChainLink", "KeyPair", "OnionAddress", "Outcome",
    "RotationResult", "Sata", "SataError", "SataForm", "Sattestation",
    "SattestationBody", "Scenario", "SiteHeaders", "SiteRecord", "Step",
    "TrustChain", "TrustPolicy", "TrustRoot", "Verdict", "VerdictOutcome", "World",
    "canonical_bytes", "check_freshness", "encode_onion", "evaluate", "expected_sans",
    "expired_rotation_form", "fingerprint_cert", "from_transport_json",
    "is_self_sattestation", "issue", "keygen", "load_scenario",
    "make_self_sattestation", "navigate", "parse_onion", "parse_sata", "rotation_check",
    "run_matrix", "run_scenario", "run_visit", "securedrop_rewrite", "sign",
    "to_query_form", "to_subdomain_form", "to_transport_json",
    "track_alt_svc_exposure", "validate_alt_svc", "validate_connection",
    "validate_onion_location", "verify", "verify_credential",
}


def test_all_lists_the_public_names_once():
    assert sorted(satakit.__all__) == sorted(PUBLIC_NAMES)


def test_each_name_is_its_defining_submodules_object():
    for name in satakit.__all__:
        value = getattr(satakit, name)
        assert value.__module__.startswith("satakit."), name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_dir_and_star_import_cover_every_name():
    assert PUBLIC_NAMES <= set(dir(satakit))
    namespace: dict = {}
    exec("from satakit import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(satakit, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        satakit.no_such_name
    assert not hasattr(satakit, "Simulator")
