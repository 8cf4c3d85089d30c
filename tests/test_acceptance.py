"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; ``-v`` alone already gives one pass/fail line per criterion via the
test names.  Expected values were produced by the independent oracles in
``oracles.py`` before the implementation, and the attack matrix golden was
derived by hand-tracing the three discovery attacks and their remediations
before the simulator existed.
"""

from __future__ import annotations

import json
import random
import time
from datetime import date

import pytest

from satakit import (
    Sata,
    Sattestation,
    encode_onion,
    evaluate,
    from_transport_json,
    keygen,
    load_scenario,
    make_self_sattestation,
    parse_onion,
    rotation_check,
    run_matrix,
    to_transport_json,
    track_alt_svc_exposure,
    validate_connection,
    verify_credential,
)
from satakit.credential import MAX_SELF_SATTESTATION_BYTES, check_freshness
from satakit.errors import (
    BadChecksum,
    BadLength,
    BadSignature,
    BadVersion,
    Stale,
    StructuralViolation,
)
from satakit.onion import BASE32_ALPHABET
from satakit.trust import TrustPolicy, TrustRoot, delegation_label
from satakit.validation import VerdictOutcome

from conftest import DATA_DIR, FIXTURES_DIR, TODAY, cert_for, key_for, sata_for, third_party
from oracles import PAPER_ADDRESSES, oracle_onion_valid, oracle_trusted
from test_credential import FP1, paper_shaped_self_sattestation
from trustgraphs import ALL_LABELS, NOW, assert_chain_well_formed, node_sata, random_graph


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:2d} PASS  {text}")


def test_criterion_01_paper_address_conformance():
    started = time.monotonic()
    recorded = []
    for name, info in PAPER_ADDRESSES.items():
        printed = info["printed"]
        assert len(printed) == info["printed_length"]
        if info["printed_length"] == 56:
            # checksum verdict comes from the oracle, not assumption
            assert oracle_onion_valid(printed) == info["checksum_ok"]
        if info["checksum_ok"]:
            addr = parse_onion(printed)
            assert encode_onion(addr.pubkey) == printed  # byte-identical
            recorded.append((name, "printed form parses, checksum ok"))
        else:
            # the CBC SecureDrop address is printed with 57 characters; the
            # oracle-confirmed single-character repair must parse instead
            with pytest.raises(BadLength):
                parse_onion(printed)
            repaired = info["repaired"]
            assert oracle_onion_valid(repaired) == info["repaired_checksum_ok"]
            addr = parse_onion(repaired)
            assert encode_onion(addr.pubkey) == repaired
            recorded.append((name, "printed form 57 chars (recorded); repair parses"))
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s, bound is 1s"
    assert len(recorded) == 4
    _report(1, f"4 paper addresses checked against the oracle in {elapsed:.2f}s")


def test_criterion_02_roundtrip_and_tamper():
    started = time.monotonic()
    rng = random.Random(0xACC2)
    for _ in range(1000):
        pubkey = keygen(rng.randbytes(32)).public
        assert parse_onion(encode_onion(pubkey)).pubkey == pubkey

    credential = paper_shaped_self_sattestation()
    transport = to_transport_json(credential)
    label = credential.sattestor_onion.label
    assert transport.count(label) == 2  # sattestor and self-binding
    rejected = 0
    for pos in range(56):
        for replacement in BASE32_ALPHABET:
            if replacement == label[pos]:
                continue
            mutated_label = label[:pos] + replacement + label[pos + 1 :]
            mutated = transport.replace(label, mutated_label)
            try:
                verify_credential(from_transport_json(mutated))
            except (BadChecksum, BadVersion, BadSignature, StructuralViolation):
                rejected += 1
            else:  # pragma: no cover - would be a security failure
                pytest.fail(f"mutation at {pos} -> {replacement!r} accepted")
    assert rejected == 56 * 31
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s, bound is 10s"
    _report(2, f"1000 roundtrips + {rejected} label mutations rejected in {elapsed:.1f}s")


def test_criterion_03_credential_size_bound():
    credential = paper_shaped_self_sattestation()  # 1 binding, 2 fingerprints, 1 label
    text = to_transport_json(credential)
    golden = (DATA_DIR / "self_sattestation_golden.satt").read_text().strip()
    assert text == golden
    size = len(text.encode("utf-8"))
    assert size == 666  # exact size frozen in the golden test
    assert size < MAX_SELF_SATTESTATION_BYTES
    _report(3, f"paper-shaped self-sattestation is {size} bytes (< 800)")


def test_criterion_04_freshness_semantics():
    def dated(refreshed: date, rate: float) -> Sattestation:
        return make_self_sattestation(
            key=key_for("fresh.example"),
            domain="fresh.example",
            cert_fingerprints=[FP1],
            issued=refreshed,
            refreshed_on=refreshed,
            refresh_rate_days=rate,
        )

    now = date(2020, 9, 8)
    # exactly at the rate: strict "<" rejects
    with pytest.raises(Stale) as err:
        check_freshness(dated(date(2020, 9, 1), 7.0), 0, now)
    assert err.value.margin_days == 0.0
    check_freshness(dated(date(2020, 9, 2), 7.0), 0, now)  # 6 days: fresh

    # the short-lived self-sattestation rate
    check_freshness(dated(date(2020, 9, 5), 3.5), 0, now)  # 3 days < 3.5
    with pytest.raises(Stale):
        check_freshness(dated(date(2020, 9, 4), 3.5), 0, now)  # 4 days > 3.5

    # the example third-party rate
    check_freshness(dated(now, 7.0), 0, now)  # same day
    with pytest.raises(Stale):
        check_freshness(dated(date(2020, 8, 25), 7.0), 0, now)  # 14 days
    _report(4, "strict boundary at the rate; 3.5-day and 7-day rates behave")


def test_criterion_05_validation_fail_closed():
    key = key_for("pipeline.example")
    subject = Sata(domain="pipeline.example", onion=key.address)
    from satakit import expected_sans

    cert = cert_for("pipeline", expected_sans(subject), has_sct=True)
    header = make_self_sattestation(
        key=key,
        domain="pipeline.example",
        cert_fingerprints=[cert.fingerprint],
        issued=date(2020, 8, 31),
        refreshed_on=date(2020, 8, 31),
        refresh_rate_days=7,
    )
    assert validate_connection(subject, cert, header, TODAY).accepted()

    broken_san = cert_for("pipeline-bare", ["unrelated.example"])
    v = validate_connection(subject, broken_san, header, TODAY)
    assert v.outcome is VerdictOutcome.REJECT_SAN_MISSING

    sig = bytearray(header.signature)
    sig[10] ^= 0x01
    broken_sig = Sattestation(body=header.body, signature=bytes(sig))
    v = validate_connection(subject, cert, broken_sig, TODAY)
    assert v.outcome is VerdictOutcome.REJECT_SIGNATURE

    stale = make_self_sattestation(
        key=key,
        domain="pipeline.example",
        cert_fingerprints=[cert.fingerprint],
        issued=date(2020, 8, 1),
        refreshed_on=date(2020, 8, 1),
        refresh_rate_days=7,
    )
    v = validate_connection(subject, cert, stale, TODAY)
    assert v.outcome is VerdictOutcome.REJECT_STALE

    wrong_fp = make_self_sattestation(
        key=key,
        domain="pipeline.example",
        cert_fingerprints=["0" * 64],
        issued=date(2020, 8, 31),
        refreshed_on=date(2020, 8, 31),
        refresh_rate_days=7,
    )
    v = validate_connection(subject, cert, wrong_fp, TODAY)
    assert v.outcome is VerdictOutcome.REJECT_FINGERPRINT
    _report(5, "4/4 broken checks map to their own reject verdicts")


def test_criterion_06_trust_engine_vs_oracle():
    started = time.monotonic()
    graphs = 0
    queries = 0
    for seed in range(500):
        rng = random.Random(1_000 + seed)
        n, policy, creds, oracle_roots, oracle_links = random_graph(rng)
        graphs += 1
        for node in range(n):
            subject = node_sata(node)
            subject_identity = (subject.domain, subject.onion.label)
            for label in ALL_LABELS:
                queries += 1
                chain = evaluate(policy, creds, subject, label, NOW)
                expected = oracle_trusted(
                    oracle_roots, oracle_links, subject_identity, label,
                    policy.max_chain_depth,
                )
                assert (chain is not None) == expected, (
                    f"seed {seed}: disagreement on {subject_identity} {label!r}"
                )
                if chain is not None:
                    assert_chain_well_formed(policy, chain, subject, label)
    elapsed = time.monotonic() - started
    assert graphs == 500
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s, bound is 60s"
    _report(6, f"{graphs} graphs / {queries} queries agree with the oracle in {elapsed:.1f}s")


def test_criterion_07_consortium_chain():
    bsa = sata_for("bsa.example", "bsa")
    live = sata_for("live.com", "live")
    delegation = third_party(
        "bsa.example",
        "bsa",
        [("microsoft.example", "microsoft", [delegation_label("microsoft")])],
    )
    terminal = third_party(
        "microsoft.example", "microsoft", [("live.com", "live", ["microsoft"])]
    )
    policy = TrustPolicy(
        roots=(
            TrustRoot(
                sattestor=bsa, trusted_labels=frozenset({delegation_label("microsoft")})
            ),
        ),
        max_chain_depth=3,
    )
    chain = evaluate(policy, [delegation, terminal], live, "microsoft", TODAY)
    assert chain is not None and len(chain.links) == 2

    assert evaluate(policy, [terminal], live, "microsoft", TODAY) is None

    shallow = TrustPolicy(roots=policy.roots, max_chain_depth=1)
    assert evaluate(shallow, [delegation, terminal], live, "microsoft", TODAY) is None
    _report(7, "2-link consortium chain; broken without delegation or depth")


def test_criterion_08_rotation():
    old = sata_for("rotating.example", "rot-old")
    new = sata_for("rotating.example", "rot-new")
    old_to_new = third_party(
        "rotating.example", "rot-old", [("rotating.example", "rot-new", ["successor"])]
    )
    new_to_old = third_party(
        "rotating.example", "rot-new", [("rotating.example", "rot-old", ["predecessor"])]
    )
    assert rotation_check(old, new, [old_to_new, new_to_old], TODAY).ok
    one_way = rotation_check(old, new, [old_to_new], TODAY)
    assert not one_way.ok and one_way.missing == ("new-to-old",)

    root = sata_for("root.example", "root")
    root_about_old = third_party(
        "root.example", "root", [("rotating.example", "rot-old", ["news"])]
    )
    policy = TrustPolicy(
        roots=(TrustRoot(sattestor=root, trusted_labels=frozenset({"news"})),)
    )
    creds = [old_to_new, new_to_old, root_about_old]
    assert evaluate(policy, creds, old, "news", TODAY) is not None
    assert evaluate(policy, creds, new, "news", TODAY) is None
    _report(8, "mutual rotation ok; one-way invalid; trust does not propagate")


def test_criterion_09_attack_matrix_golden():
    started = time.monotonic()
    rows = []
    for path in sorted(FIXTURES_DIR.glob("*.json")):
        scenario = load_scenario(path)
        rows.extend(run_matrix([scenario], list(scenario.browsers.values())))
    golden = json.loads((DATA_DIR / "attack_matrix_golden.json").read_text())
    assert rows == golden
    assert len(rows) == 9
    legacy = [r for r in rows if r["browser"] == "legacy"]
    assert len(legacy) == 3 and all(r["attack_success"] for r in legacy)
    policy_rows = [r for r in rows if r["browser"] == "sata-policy"]
    assert len(policy_rows) == 3 and not any(r["attack_success"] for r in policy_rows)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 9 took {elapsed:.2f}s, bound is 5s"
    _report(9, f"9-row matrix matches the hand-derived golden in {elapsed:.2f}s")


def test_criterion_10_tracking_report():
    scenario = load_scenario(DATA_DIR / "tracking_alt_svc.json")
    report = track_alt_svc_exposure(scenario, scenario.browsers["legacy"])
    assert report["partitions_users"] is True
    assert report["distinguishable_origins"] == ["tracker.example"]

    report = track_alt_svc_exposure(scenario, scenario.browsers["sata-aware"])
    assert report["origins"] == {} and report["partitions_users"] is False
    _report(10, "distinct alt hosts partition users; blocking empties the report")
