from __future__ import annotations

from datetime import date, datetime

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import satakit.validation as validation_module
from satakit import (
    AltSvcDecision,
    Sata,
    Sattestation,
    expected_sans,
    fingerprint_cert,
    make_self_sattestation,
    to_query_form,
    validate_alt_svc,
    validate_connection,
    validate_onion_location,
)
from satakit.credential import from_transport_json, to_transport_json
from satakit.errors import EmptyInput, UnrepresentableField
from satakit.trust import TrustPolicy
from satakit.validation import CertDescriptor, VerdictOutcome

from conftest import TODAY, cert_for, key_for, third_party
from oracles import SHA256_ABC, alt_svc_every_credential

FP_A = "632B119944" + "A" * 54
FP_B = "23964A1368" + "B" * 54


def test_all_pass_accepts(bank_sata, bank_cert, bank_header):
    verdict = validate_connection(bank_sata, bank_cert, bank_header, TODAY)
    assert verdict.outcome is VerdictOutcome.ACCEPT
    assert "sct present" in verdict.detail


def test_missing_san_rejected(bank_sata, bank_header):
    bare_cert = cert_for("bank-bare", ["bank.example"])  # base only, no SATA names
    verdict = validate_connection(bank_sata, bare_cert, bank_header, TODAY)
    assert verdict.outcome is VerdictOutcome.REJECT_SAN_MISSING


def test_missing_base_domain_san_rejected(bank_sata, bank_header):
    sans = expected_sans(bank_sata)
    cert = cert_for("bank-nobase", [sans[0], sans[2]])  # SATA names but no base
    verdict = validate_connection(bank_sata, cert, bank_header, TODAY)
    assert verdict.outcome is VerdictOutcome.REJECT_SAN_MISSING


def test_onion_san_alone_satisfies_the_alternative(bank_sata, bank_header, bank_cert):
    sans = expected_sans(bank_sata)
    cert = bank_cert.replace(san_list=(sans[1], sans[2]))
    verdict = validate_connection(bank_sata, cert, bank_header, TODAY)
    assert verdict.outcome is VerdictOutcome.ACCEPT


def test_tampered_signature_rejected(bank_sata, bank_cert, bank_header):
    sig = bytearray(bank_header.signature)
    sig[3] ^= 0x20
    broken = Sattestation(body=bank_header.body, signature=bytes(sig))
    verdict = validate_connection(bank_sata, bank_cert, broken, TODAY)
    assert verdict.outcome is VerdictOutcome.REJECT_SIGNATURE


def test_header_for_another_sata_rejected(bank_sata, bank_cert):
    other_key = key_for("other.example")
    foreign = make_self_sattestation(
        key=other_key,
        domain="other.example",
        cert_fingerprints=[bank_cert.fingerprint],
        issued=date(2020, 8, 31),
        refreshed_on=date(2020, 8, 31),
        refresh_rate_days=7,
    )
    verdict = validate_connection(bank_sata, bank_cert, foreign, TODAY)
    assert verdict.outcome is VerdictOutcome.REJECT_SIGNATURE
    assert "other.example" in verdict.detail


def test_missing_header_rejected(bank_sata, bank_cert):
    verdict = validate_connection(bank_sata, bank_cert, None, TODAY)
    assert verdict.outcome is VerdictOutcome.REJECT_SIGNATURE


def test_stale_header_rejected(bank_sata, bank_cert, bank_key):
    old = make_self_sattestation(
        key=bank_key,
        domain="bank.example",
        cert_fingerprints=[bank_cert.fingerprint],
        issued=date(2020, 8, 22),
        refreshed_on=date(2020, 8, 22),  # 10 days before TODAY, rate 7
        refresh_rate_days=7,
    )
    verdict = validate_connection(bank_sata, bank_cert, old, TODAY)
    assert verdict.outcome is VerdictOutcome.REJECT_STALE


def test_fingerprint_mismatch_rejected(bank_sata, bank_cert, bank_key):
    header = make_self_sattestation(
        key=bank_key,
        domain="bank.example",
        cert_fingerprints=[FP_A],
        issued=date(2020, 8, 31),
        refreshed_on=date(2020, 8, 31),
        refresh_rate_days=7,
    )
    cert = bank_cert.replace(fingerprint=FP_B)
    verdict = validate_connection(bank_sata, cert, header, TODAY)
    assert verdict.outcome is VerdictOutcome.REJECT_FINGERPRINT


def test_any_listed_fingerprint_matches(bank_sata, bank_cert, bank_key):
    header = make_self_sattestation(
        key=bank_key,
        domain="bank.example",
        cert_fingerprints=[FP_A, bank_cert.fingerprint],
        issued=date(2020, 8, 31),
        refreshed_on=date(2020, 8, 31),
        refresh_rate_days=7,
    )
    assert validate_connection(bank_sata, bank_cert, header, TODAY).accepted()


def test_cert_outside_validity_window_rejected(bank_sata, bank_cert, bank_header):
    expired = bank_cert.replace(not_after=date(2020, 8, 1))
    verdict = validate_connection(bank_sata, expired, bank_header, TODAY)
    assert verdict.outcome is VerdictOutcome.REJECT_STALE
    assert "certificate" in verdict.detail


def test_check_order_is_deterministic(bank_sata, bank_cert, bank_key):
    """With several checks broken at once, the earliest one wins."""
    stale_and_wrong_fp = make_self_sattestation(
        key=bank_key,
        domain="bank.example",
        cert_fingerprints=[FP_A],
        issued=date(2020, 8, 1),
        refreshed_on=date(2020, 8, 1),
        refresh_rate_days=7,
    )
    bare_cert = cert_for("bank-bare", ["unrelated.example"])
    v = validate_connection(bank_sata, bare_cert, stale_and_wrong_fp, TODAY)
    assert v.outcome is VerdictOutcome.REJECT_SAN_MISSING
    v = validate_connection(bank_sata, bank_cert, stale_and_wrong_fp, TODAY)
    assert v.outcome is VerdictOutcome.REJECT_STALE


def test_validation_is_pure(bank_sata, bank_cert, bank_header):
    first = validate_connection(bank_sata, bank_cert, bank_header, TODAY)
    second = validate_connection(bank_sata, bank_cert, bank_header, TODAY)
    assert first == second


# -- onion-location ------------------------------------------------------------


def test_onion_location_same_domain_sata_accepted(bank_sata, bank_cert):
    verdict = validate_onion_location("bank.example", to_query_form(bank_sata), bank_cert)
    assert verdict.outcome is VerdictOutcome.ACCEPT


def test_onion_location_bare_onion_rejected(bank_cert, bank_key):
    target = f"http://{bank_key.address.label}.onion/"
    verdict = validate_onion_location("bank.example", target, bank_cert)
    assert verdict.outcome is VerdictOutcome.REJECT_NOT_SATA


def test_onion_location_foreign_domain_rejected(bank_cert):
    other = Sata(domain="other.example", onion=key_for("other.example").address)
    verdict = validate_onion_location("bank.example", to_query_form(other), bank_cert)
    assert verdict.outcome is VerdictOutcome.REJECT_NOT_SATA


def test_onion_location_same_domain_but_uncovered_cert(bank_sata):
    cert = cert_for("bank-minimal", ["bank.example"])
    verdict = validate_onion_location("bank.example", to_query_form(bank_sata), cert)
    assert verdict.outcome is VerdictOutcome.REJECT_SAN_MISSING


def test_onion_location_invalid_component_rejected(bank_cert):
    bad = "https://bank.example/?onion=" + "a" * 56
    verdict = validate_onion_location("bank.example", bad, bank_cert)
    assert verdict.outcome is VerdictOutcome.REJECT_NOT_SATA


@pytest.mark.parametrize("target", ["http://[::1", 5], ids=["unclosed bracket", "not a str"])
def test_onion_location_target_that_is_not_a_url_rejected(bank_cert, target):
    """The site serves the header, so a malformed target is a verdict, not an error."""
    verdict = validate_onion_location("bank.example", target, bank_cert)
    assert verdict.outcome is VerdictOutcome.REJECT_NOT_SATA
    assert repr(target) in verdict.detail


# -- alternative services --------------------------------------------------------


def _alt_self_satt(origin_domain: str, alt_key_name: str, fingerprint: str):
    return make_self_sattestation(
        key=key_for(alt_key_name),
        domain=origin_domain,
        cert_fingerprints=[fingerprint],
        issued=date(2020, 8, 31),
        refreshed_on=date(2020, 8, 31),
        refresh_rate_days=7,
    )


def test_alt_svc_with_valid_self_sattestation_allowed():
    alt_key = key_for("bank-alt")
    cred = _alt_self_satt("bank.example", "bank-alt", FP_A)
    decision = validate_alt_svc(
        "bank.example", f"{alt_key.address.label}.onion", [cred], None, now=TODAY
    )
    assert decision is AltSvcDecision.ALLOW


def test_alt_svc_without_credential_blocked():
    alt_key = key_for("bank-alt")
    decision = validate_alt_svc(
        "bank.example", f"{alt_key.address.label}.onion", (), None, now=TODAY
    )
    assert decision is AltSvcDecision.BLOCK


def test_alt_svc_credential_for_other_domain_blocked():
    alt_key = key_for("bank-alt")
    cred = _alt_self_satt("other.example", "bank-alt", FP_A)
    decision = validate_alt_svc(
        "bank.example", f"{alt_key.address.label}.onion", [cred], None, now=TODAY
    )
    assert decision is AltSvcDecision.BLOCK


def test_alt_svc_credential_for_other_onion_blocked():
    cred = _alt_self_satt("bank.example", "bank-alt", FP_A)
    other = key_for("unrelated-onion")
    decision = validate_alt_svc(
        "bank.example", f"{other.address.label}.onion", [cred], None, now=TODAY
    )
    assert decision is AltSvcDecision.BLOCK


def test_alt_svc_stale_credential_blocked():
    alt_key = key_for("bank-alt")
    cred = make_self_sattestation(
        key=alt_key,
        domain="bank.example",
        cert_fingerprints=[FP_A],
        issued=date(2020, 8, 1),
        refreshed_on=date(2020, 8, 1),
        refresh_rate_days=7,
    )
    decision = validate_alt_svc(
        "bank.example", f"{alt_key.address.label}.onion", [cred], None, now=TODAY
    )
    assert decision is AltSvcDecision.BLOCK


def test_alt_svc_non_onion_host_blocked():
    cred = _alt_self_satt("bank.example", "bank-alt", FP_A)
    for alt_host in ("cdn.example", None, 5):  # the header is the site's: any value may come
        decision = validate_alt_svc("bank.example", alt_host, [cred], None, now=TODAY)
        assert decision is AltSvcDecision.BLOCK


def test_alt_svc_policy_can_forbid_all():
    alt_key = key_for("bank-alt")
    cred = _alt_self_satt("bank.example", "bank-alt", FP_A)
    policy = TrustPolicy(roots=(), allow_credentialed_alt_services=False)
    decision = validate_alt_svc(
        "bank.example", f"{alt_key.address.label}.onion", [cred], policy, now=TODAY
    )
    assert decision is AltSvcDecision.BLOCK


def test_alt_svc_blocks_on_each_sata_error():
    alt_key = key_for("bank-alt")
    host = f"{alt_key.address.label}.onion"
    cred = _alt_self_satt("bank.example", "bank-alt", FP_A)
    flipped = cred.replace(
        signature=bytes([cred.signature[0] ^ 1]) + cred.signature[1:]
    )
    unpinned = Sattestation(  # a self-sattestation binding no certificate
        body=cred.body.replace(
            sattestees=(cred.sattestees[0].replace(cert_fingerprints=()),),
        ),
        signature=cred.signature,
    )
    # a rate with no wire form cannot be parsed, so it never reaches here
    for rate in ("0", "9" * 400):  # 400 digits parse as inf
        with pytest.raises(UnrepresentableField):
            from_transport_json(to_transport_json(cred).replace('"7 days"', f'"{rate} days"'))
    bad_checksum = "a" * 56 + ".onion"
    cases = [(bad_checksum, cred), (host, flipped), (host, unpinned)]
    for alt_host, satt in cases:
        decision = validate_alt_svc("bank.example", alt_host, [satt], None, now=TODAY)
        assert decision is AltSvcDecision.BLOCK


@pytest.mark.parametrize("name", ["parse_onion", "verify_credential", "check_freshness"])
def test_alt_svc_lets_other_errors_through(monkeypatch, name):
    """Only SataError means a bad input; a fault in the code is not a BLOCK."""
    alt_key = key_for("bank-alt")
    cred = _alt_self_satt("bank.example", "bank-alt", FP_A)

    def broken(*_args, **_kwargs):
        raise RuntimeError(name)

    monkeypatch.setattr(validation_module, name, broken)
    with pytest.raises(RuntimeError, match=name):
        validate_alt_svc(
            "bank.example", f"{alt_key.address.label}.onion", [cred], None, now=TODAY
        )


def test_alt_svc_parses_the_alt_host_once_per_pool(monkeypatch):
    alt_key = key_for("bank-alt")
    host = f"{alt_key.address.label}.onion"
    good = _alt_self_satt("bank.example", "bank-alt", FP_A)
    junk = [_alt_self_satt(f"other{i}.example", f"other-{i}", FP_A) for i in range(8)]
    calls = []
    real = validation_module.parse_onion

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(validation_module, "parse_onion", counting)
    for pool, expected in [
        ((), AltSvcDecision.BLOCK),
        ([good], AltSvcDecision.ALLOW),
        (junk, AltSvcDecision.BLOCK),
        (junk + [good], AltSvcDecision.ALLOW),
    ]:
        calls.clear()
        assert validate_alt_svc("bank.example", host, pool, None, now=TODAY) is expected
        assert calls == [host]


def test_alt_svc_junk_before_a_good_credential_allows():
    alt_key = key_for("bank-alt")
    good = _alt_self_satt("bank.example", "bank-alt", FP_A)
    flipped = good.replace(
        signature=bytes([good.signature[0] ^ 1]) + good.signature[1:]
    )
    host = f"{alt_key.address.label}.onion"
    for junk in (None, flipped):
        pool = iter([junk, good])  # any iterable, consumed once
        assert validate_alt_svc("bank.example", host, pool, None, now=TODAY) is (
            AltSvcDecision.ALLOW
        )


def test_connection_and_alt_svc_share_one_header_check(monkeypatch, bank_sata, bank_cert):
    alt_key = key_for("bank-alt")
    cred = _alt_self_satt("bank.example", "bank-alt", FP_A)
    seen = []

    def refuse(header, domain, onion, now):
        seen.append((header, domain, onion.label, now))
        return validation_module.Verdict(VerdictOutcome.REJECT_SIGNATURE, "refused")

    monkeypatch.setattr(validation_module, "_self_sattestation_fault", refuse)
    verdict = validate_connection(bank_sata, bank_cert, cred, TODAY)
    assert verdict.detail == "refused"
    host = f"{alt_key.address.label}.onion"
    assert validate_alt_svc("bank.example", host, [cred], now=TODAY) is AltSvcDecision.BLOCK
    assert seen == [
        (cred, "bank.example", bank_sata.onion.label, TODAY),
        (cred, "bank.example", alt_key.address.label, TODAY),
    ]


HEADER_MUTATIONS = (
    "flip_signature", "other_domain", "other_key", "third_party", "no_fingerprints"
)


def _mutated_header(mutations: frozenset, age_days: int, cert: CertDescriptor):
    """A header for bank.example at the bank-alt onion, with some of
    :data:`HEADER_MUTATIONS` applied and refreshed ``age_days`` ago."""
    domain = "other.example" if "other_domain" in mutations else "bank.example"
    key_name = "unrelated-onion" if "other_key" in mutations else "bank-alt"
    refreshed = date.fromordinal(TODAY.toordinal() - age_days)
    if "third_party" in mutations:
        header = third_party(
            "root.example", "root.example", [(domain, key_name, ["news"])],
            issued=refreshed, refreshed_on=refreshed,
        )
    else:
        header = make_self_sattestation(
            key=key_for(key_name),
            domain=domain,
            cert_fingerprints=[cert.fingerprint],
            issued=refreshed,
            refreshed_on=refreshed,
            refresh_rate_days=7,
        )
        if "no_fingerprints" in mutations:  # signed over the pinned body
            unpinned = header.sattestees[0].replace(cert_fingerprints=())
            header = Sattestation(
                body=header.body.replace(sattestees=(unpinned,)),
                signature=header.signature,
            )
    if "flip_signature" in mutations:
        header = header.replace(
            signature=bytes([header.signature[0] ^ 1]) + header.signature[1:]
        )
    return header


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    mutations=st.frozensets(st.sampled_from(HEADER_MUTATIONS)),
    age_days=st.integers(min_value=-9, max_value=9),
)
def test_alt_svc_allows_exactly_the_headers_a_connection_accepts(mutations, age_days):
    """Served-header equivalence: the alt-svc gate and connection
    validation reach one verdict on a header, given a certificate that
    covers the SATA and pins the header's fingerprint."""
    alt_key = key_for("bank-alt")
    s = Sata(domain="bank.example", onion=alt_key.address)
    cert = cert_for("bank-alt-cert", list(expected_sans(s)))
    header = _mutated_header(mutations, age_days, cert)
    accepted = validate_connection(s, cert, header, TODAY).accepted()
    host = f"{alt_key.address.label}.onion"
    decision = validate_alt_svc("bank.example", host, [header], now=TODAY)
    assert (decision is AltSvcDecision.ALLOW) == accepted
    assert accepted == (not mutations and abs(age_days) < 7)


def _pool_entries() -> list:
    """Credentials an alt-svc pool may hold: self-sattestations of the
    right and of other (domain, onion) pairs, third-party sattestations of
    the right pair, flipped signatures, stale ones, and ``None``."""
    entries: list = [None]
    for domain in ("bank.example", "other.example"):
        for key_name in ("bank-alt", "bank", "unrelated-onion"):
            good = _alt_self_satt(domain, key_name, FP_A)
            stale = make_self_sattestation(
                key=key_for(key_name), domain=domain, cert_fingerprints=[FP_A],
                issued=date(2020, 8, 10), refreshed_on=date(2020, 8, 10), refresh_rate_days=7,
            )
            flipped = good.replace(
                signature=bytes([good.signature[0] ^ 1]) + good.signature[1:]
            )
            entries += [good, stale, flipped]
    entries.append(third_party("bank.example", "root", [("bank.example", "bank-alt", ["news"])]))
    entries.append(third_party("root.example", "bank-alt", [("bank.example", "bank-alt", [])]))
    # issued by the right pair, but about someone else: not a self-sattestation
    entries.append(third_party("bank.example", "bank-alt", [("other.example", "bank", ["news"])]))
    return entries


POOL_ENTRIES = _pool_entries()
ORIGINS = (
    "bank.example",
    "Bank.Example.",
    "other.example",
    Sata(domain="bank.example", onion=key_for("bank").address),
    Sata(domain="bank.example", onion=key_for("bank-alt").address),
)
ALT_HOSTS = (
    f"{key_for('bank-alt').address.label}.onion",
    f" {key_for('bank-alt').address.label.upper()}.ONION ",
    f"{key_for('bank').address.label}.onion",
    f"{key_for('unrelated-onion').address.label}.onion",
    "a" * 56 + ".onion",
    "cdn.example",
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    picks=st.lists(st.integers(0, len(POOL_ENTRIES) - 1), max_size=8),
    origin=st.sampled_from(ORIGINS),
    alt_host=st.sampled_from(ALT_HOSTS),
    forbid=st.booleans(),
)
def test_alt_svc_decides_as_the_check_of_every_credential(picks, origin, alt_host, forbid):
    """Skipping credentials of other sattestors changes no decision."""
    pool = [POOL_ENTRIES[i] for i in picks]
    policy = TrustPolicy(roots=(), allow_credentialed_alt_services=not forbid)
    want = alt_svc_every_credential(origin, alt_host, pool, policy, now=TODAY)
    assert validate_alt_svc(origin, alt_host, iter(pool), policy, now=TODAY) is want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    picks=st.lists(st.integers(0, len(POOL_ENTRIES) - 1), max_size=8),
    served=st.sampled_from(POOL_ENTRIES),
    origin=st.sampled_from(ORIGINS),
    alt_host=st.sampled_from(ALT_HOSTS),
)
# POOL_ENTRIES[1], the one allowing entry, served alone and published alone
@example(picks=[], served=POOL_ENTRIES[1], origin="bank.example", alt_host=ALT_HOSTS[0])
@example(picks=[1], served=None, origin="bank.example", alt_host=ALT_HOSTS[0])
def test_alt_svc_served_header_counts_as_the_pool_s_first_entry(picks, served, origin, alt_host):
    """Passing the served header apart decides as gluing it to the pool's
    front; ``None`` (no header served) is among the entries drawn."""
    pool = [POOL_ENTRIES[i] for i in picks]
    glued = validate_alt_svc(origin, alt_host, (served, *pool), now=TODAY)
    assert validate_alt_svc(origin, alt_host, pool, now=TODAY, header=served) is glued


def test_alt_svc_pool_entries_reach_both_decisions():
    """The differential pools hold an allowing credential and every kind
    of blocking one, for the pair (bank.example, bank-alt)."""
    host = ALT_HOSTS[0]
    decisions = [
        alt_svc_every_credential("bank.example", host, [entry], now=TODAY)
        for entry in POOL_ENTRIES
    ]
    assert decisions.count(AltSvcDecision.ALLOW) == 1
    assert validate_alt_svc("bank.example", host, [None], now=TODAY) is AltSvcDecision.BLOCK


def test_alt_svc_checks_only_the_origin_and_alt_onion_issuer(monkeypatch):
    host = ALT_HOSTS[0]
    checked = []
    real = validation_module._self_sattestation_fault

    def recording(header, domain, onion, now):
        checked.append(header)
        return real(header, domain, onion, now)

    monkeypatch.setattr(validation_module, "_self_sattestation_fault", recording)
    assert validate_alt_svc("bank.example", host, POOL_ENTRIES, now=TODAY) is AltSvcDecision.ALLOW
    assert checked and all(
        (c.sattestor_domain, c.sattestor_onion.label) == ("bank.example", key_for("bank-alt").address.label)
        for c in checked
    )


# -- fingerprints ------------------------------------------------------------------


def test_fingerprint_cert_known_vector():
    assert fingerprint_cert(b"abc") == SHA256_ABC


def test_fingerprint_cert_deterministic():
    assert fingerprint_cert(b"12345") == fingerprint_cert(b"12345")


def test_fingerprint_cert_empty_input():
    with pytest.raises(EmptyInput):
        fingerprint_cert(b"")


def test_cert_descriptor_normalizes():
    cert = CertDescriptor(
        fingerprint=SHA256_ABC.lower(),
        san_list=("Bank.Example",),
        not_before=date(2020, 1, 1),
        not_after=date(2021, 1, 1),
    )
    assert cert.fingerprint == SHA256_ABC
    assert cert.san_list == ("bank.example",)


def test_cert_descriptor_rejects_bad_fingerprint():
    with pytest.raises(UnrepresentableField):
        CertDescriptor(
            fingerprint="zz",
            san_list=("bank.example",),
            not_before=date(2020, 1, 1),
            not_after=date(2021, 1, 1),
        )


@pytest.mark.parametrize("fingerprint", ["f" * 63, "F" * 65, "g" * 64, 5, None, b"ab" * 32])
def test_cert_descriptor_fingerprint_faults_are_sata_errors(fingerprint):
    with pytest.raises(UnrepresentableField, match="fingerprint"):
        CertDescriptor(
            fingerprint=fingerprint,
            san_list=("bank.example",),
            not_before=date(2020, 1, 1),
            not_after=date(2021, 1, 1),
        )


@pytest.mark.parametrize(
    "san_list",
    ["bank.example", (5,), None],
    ids=["a plain string", "a non-string name", "no list at all"],
)
def test_cert_descriptor_san_list_faults_are_sata_errors(san_list):
    with pytest.raises(UnrepresentableField, match="SANs"):
        CertDescriptor(
            fingerprint=SHA256_ABC,
            san_list=san_list,
            not_before=date(2020, 1, 1),
            not_after=date(2021, 1, 1),
        )


@pytest.mark.parametrize(
    "field,value",
    [
        ("not_before", "2020-01-01"),
        ("not_after", "2021-01-01"),
        ("not_after", datetime(2021, 1, 1, 12, 0)),
        ("has_sct", "yes"),
        ("has_sct", 1),
    ],
)
def test_cert_descriptor_field_type_faults_are_sata_errors(field, value):
    # a date given as text would reach validate_connection and fail there
    # as a bare TypeError
    fields = dict(not_before=date(2020, 1, 1), not_after=date(2021, 1, 1), has_sct=True)
    fields[field] = value
    with pytest.raises(UnrepresentableField, match=field):
        CertDescriptor(fingerprint=SHA256_ABC, san_list=("bank.example",), **fields)


def test_cert_descriptor_takes_any_iterable_of_names():
    cert = CertDescriptor(
        fingerprint=SHA256_ABC,
        san_list=(name for name in ["Bank.Example", "www.bank.example"]),
        not_before=date(2020, 1, 1),
        not_after=date(2021, 1, 1),
    )
    assert cert.san_list == ("bank.example", "www.bank.example")


def test_alt_svc_skips_entries_that_are_not_credentials():
    junk = [None, "junk", 5, b"\x00" * 64, object()]
    for host in ALT_HOSTS:
        for origin in ORIGINS:
            want = validate_alt_svc(origin, host, POOL_ENTRIES[1:], now=TODAY)
            noisy = list(POOL_ENTRIES[1:])
            for k, entry in enumerate(junk):
                noisy.insert((7 * k) % (len(noisy) + 1), entry)
            assert validate_alt_svc(origin, host, noisy, now=TODAY) is want
