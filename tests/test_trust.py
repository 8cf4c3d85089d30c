from __future__ import annotations

import random
import time
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satakit import (
    Binding,
    Sata,
    Sattestation,
    SattestationBody,
    evaluate,
    expired_rotation_form,
    issue,
    keygen,
    rotation_check,
    to_subdomain_form,
    verify_credential,
)
from satakit.errors import DomainMismatch, KeyMismatch, UnrepresentableField
from satakit.trust import (
    TrustPolicy,
    TrustRoot,
    delegation_label,
    delegation_scope,
    policy_from_json,
    rotation_pointer_label,
    usable_links,
)

from conftest import TODAY, key_for, sata_for, third_party
from oracles import oracle_trusted
from trustgraphs import (
    ALL_LABELS,
    NOW,
    PLAIN_LABELS,
    assert_chain_well_formed,
    node_key,
    node_sata,
    random_graph,
)

FP = "632B119944" + "A" * 54


# -- delegation label grammar ---------------------------------------------------


def test_delegation_label_roundtrip():
    assert delegation_label("microsoft") == "sattestor(microsoft)"
    assert delegation_scope("sattestor(microsoft)") == "microsoft"
    assert delegation_scope("news") is None
    assert delegation_scope("sattestor()") is None


def test_rotation_pointer_label_shape():
    new = sata_for("site.example", "site-new")
    label = rotation_pointer_label(new)
    assert label == "sattestor({" + to_subdomain_form(new) + "})"
    assert delegation_scope(label) == "{" + to_subdomain_form(new) + "}"


# -- consortium delegation chain --------------------------------------------------


def consortium_setup():
    """Industry-consortium root delegating a company label down to a member site."""
    bsa = sata_for("bsa.example", "bsa")
    microsoft = sata_for("microsoft.example", "microsoft")
    live = sata_for("live.com", "live")
    creds = [
        third_party(
            "bsa.example",
            "bsa",
            [("microsoft.example", "microsoft", [delegation_label("microsoft")])],
        ),
        third_party("microsoft.example", "microsoft", [("live.com", "live", ["microsoft"])]),
    ]
    policy = TrustPolicy(
        roots=(TrustRoot(sattestor=bsa, trusted_labels=frozenset({delegation_label("microsoft")})),),
        max_chain_depth=3,
    )
    return policy, creds, live


def test_consortium_chain_found():
    policy, creds, live = consortium_setup()
    chain = evaluate(policy, creds, live, "microsoft", TODAY)
    assert chain is not None
    assert len(chain.links) == 2
    assert chain.links[0].credential.sattestor_domain == "bsa.example"
    assert chain.links[1].credential.sattestor_domain == "microsoft.example"
    assert_chain_well_formed(policy, chain, live, "microsoft")


def test_consortium_chain_broken_without_delegation():
    policy, creds, live = consortium_setup()
    assert evaluate(policy, creds[1:], live, "microsoft", TODAY) is None


def test_consortium_chain_broken_without_terminal():
    policy, creds, live = consortium_setup()
    assert evaluate(policy, creds[:1], live, "microsoft", TODAY) is None


def test_consortium_chain_blocked_by_depth_budget():
    policy, creds, live = consortium_setup()
    shallow = TrustPolicy(roots=policy.roots, max_chain_depth=1)
    assert evaluate(shallow, creds, live, "microsoft", TODAY) is None


def test_direct_root_sattestation_single_link():
    root = sata_for("root.example", "root")
    subject = sata_for("paper.example", "paper")
    creds = [third_party("root.example", "root", [("paper.example", "paper", ["news"])])]
    policy = TrustPolicy(
        roots=(TrustRoot(sattestor=root, trusted_labels=frozenset({"news"})),)
    )
    chain = evaluate(policy, creds, subject, "news", TODAY)
    assert chain is not None and len(chain.links) == 1
    assert_chain_well_formed(policy, chain, subject, "news")


def test_delegation_grants_only_its_scope():
    policy, creds, live = consortium_setup()
    # the chain exists for "microsoft" but must not leak into other labels
    assert evaluate(policy, creds, live, "news", TODAY) is None
    microsoft = sata_for("microsoft.example", "microsoft")
    # the delegation label itself is queryable for the delegatee
    chain = evaluate(policy, creds, microsoft, delegation_label("microsoft"), TODAY)
    assert chain is not None and len(chain.links) == 1


def test_unverifiable_credentials_are_excluded_not_fatal():
    policy, creds, live = consortium_setup()
    forged = third_party(
        "bsa.example", "not-the-bsa-key", [("live.com", "live", ["microsoft"])]
    )
    # wrong key: the sattestor_onion will not match bsa's, so it is just noise
    chain = evaluate(policy, creds + [forged], live, "microsoft", TODAY)
    assert chain is not None


def test_stale_credentials_are_excluded():
    policy, creds, live = consortium_setup()
    stale = [
        third_party(
            "bsa.example",
            "bsa",
            [("microsoft.example", "microsoft", [delegation_label("microsoft")])],
            refreshed_on=date(2020, 8, 1),
            issued=date(2020, 8, 1),
        ),
        creds[1],
    ]
    assert evaluate(policy, stale, live, "microsoft", TODAY) is None


def test_shortest_chain_preferred():
    root = sata_for("root.example", "root")
    subject = sata_for("leaf.example", "leaf")
    long_way = [
        third_party(
            "root.example", "root", [("mid.example", "mid", [delegation_label("news")])]
        ),
        third_party("mid.example", "mid", [("leaf.example", "leaf", ["news"])]),
    ]
    direct = third_party("root.example", "root", [("leaf.example", "leaf", ["news"])])
    policy = TrustPolicy(
        roots=(
            TrustRoot(
                sattestor=root,
                trusted_labels=frozenset({"news", delegation_label("news")}),
            ),
        )
    )
    chain = evaluate(policy, long_way + [direct], subject, "news", TODAY)
    assert chain is not None and len(chain.links) == 1


def test_monotonicity_adding_credentials_never_revokes():
    rng = random.Random(0xABCD)
    checked = 0
    while checked < 40:
        n, policy, creds, _, _ = random_graph(rng)
        subject = node_sata(rng.randrange(n))
        label = rng.choice(PLAIN_LABELS)
        if evaluate(policy, creds, subject, label, NOW) is None:
            continue
        _, _, extra, _, _ = random_graph(rng)
        assert evaluate(policy, creds + extra, subject, label, NOW) is not None
        checked += 1


def test_evaluate_agrees_with_enumeration_oracle_sample():
    rng = random.Random(0x0DDB)
    for _ in range(120):
        n, policy, creds, oracle_roots, oracle_links = random_graph(rng)
        for node in range(n):
            subject = node_sata(node)
            subject_identity = (subject.domain, subject.onion.label)
            for label in ALL_LABELS:
                chain = evaluate(policy, creds, subject, label, NOW)
                expected = oracle_trusted(
                    oracle_roots,
                    oracle_links,
                    subject_identity,
                    label,
                    policy.max_chain_depth,
                )
                assert (chain is not None) == expected, (
                    f"disagreement on {subject_identity} label={label!r}"
                )
                if chain is not None:
                    assert_chain_well_formed(policy, chain, subject, label)


# -- rotation ----------------------------------------------------------------------


def rotation_setup():
    old = sata_for("rotating.example", "rot-old")
    new = sata_for("rotating.example", "rot-new")
    old_to_new = third_party(
        "rotating.example", "rot-old", [("rotating.example", "rot-new", ["successor"])]
    )
    new_to_old = third_party(
        "rotating.example", "rot-new", [("rotating.example", "rot-old", ["predecessor"])]
    )
    return old, new, old_to_new, new_to_old


def test_rotation_mutual_ok():
    old, new, a, b = rotation_setup()
    result = rotation_check(old, new, [a, b], TODAY)
    assert result.ok and result.missing == ()


def test_rotation_one_direction_invalid():
    old, new, a, b = rotation_setup()
    only_old = rotation_check(old, new, [a], TODAY)
    assert not only_old.ok and only_old.missing == ("new-to-old",)
    only_new = rotation_check(old, new, [b], TODAY)
    assert not only_new.ok and only_new.missing == ("old-to-new",)


def test_rotation_domain_mismatch():
    old = sata_for("rotating.example", "rot-old")
    elsewhere = sata_for("elsewhere.example", "rot-new")
    with pytest.raises(DomainMismatch):
        rotation_check(old, elsewhere, [], TODAY)


def test_expired_rotation_form_single_pointer_label():
    old, new, _, _ = rotation_setup()
    cred = expired_rotation_form(
        old,
        new,
        key_for("rot-old"),
        cert_fingerprints=[FP],
        issued=date(2020, 8, 31),
        refreshed_on=date(2020, 8, 31),
        refresh_rate_days=7,
    )
    verify_credential(cred)
    assert cred.sattestees[0].labels == (rotation_pointer_label(new),)


def test_expired_rotation_form_key_mismatch():
    old, new, _, _ = rotation_setup()
    with pytest.raises(KeyMismatch):
        expired_rotation_form(
            old,
            new,
            key_for("rot-new"),
            cert_fingerprints=[FP],
            issued=date(2020, 8, 31),
            refreshed_on=date(2020, 8, 31),
            refresh_rate_days=7,
        )


def test_rotation_pointer_grants_no_ordinary_label():
    old, new, _, _ = rotation_setup()
    pointer = expired_rotation_form(
        old,
        new,
        key_for("rot-old"),
        cert_fingerprints=[FP],
        issued=date(2020, 8, 31),
        refreshed_on=date(2020, 8, 31),
        refresh_rate_days=7,
    )
    policy = TrustPolicy(
        roots=(
            TrustRoot(
                sattestor=old,
                trusted_labels=frozenset({"news", delegation_label("news")}),
            ),
        )
    )
    for label in PLAIN_LABELS:
        assert evaluate(policy, [pointer], old, label, TODAY) is None
        assert evaluate(policy, [pointer], new, label, TODAY) is None


def test_trust_does_not_propagate_after_rotation():
    old, new, a, b = rotation_setup()
    root = sata_for("root.example", "root")
    root_about_old = third_party(
        "root.example", "root", [("rotating.example", "rot-old", ["news"])]
    )
    policy = TrustPolicy(
        roots=(TrustRoot(sattestor=root, trusted_labels=frozenset({"news"})),)
    )
    creds = [a, b, root_about_old]
    assert rotation_check(old, new, creds, TODAY).ok
    # old is trusted, new is not, despite the valid rotation
    assert evaluate(policy, creds, old, "news", TODAY) is not None
    assert evaluate(policy, creds, new, "news", TODAY) is None


def test_fresh_sattestation_of_new_address_restores_trust():
    old, new, a, b = rotation_setup()
    root = sata_for("root.example", "root")
    root_about_new = third_party(
        "root.example", "root", [("rotating.example", "rot-new", ["news"])]
    )
    policy = TrustPolicy(
        roots=(TrustRoot(sattestor=root, trusted_labels=frozenset({"news"})),)
    )
    with_rotation = evaluate(policy, [a, b, root_about_new], new, "news", TODAY)
    assert with_rotation is not None
    # rotation credentials are orthogonal: trust works without them too
    without_rotation = evaluate(policy, [root_about_new], new, "news", TODAY)
    assert without_rotation is not None


_ROTATED_KEYS = [keygen(bytes([0x80 + i]) * 32) for i in range(6)]


def _naming_old(issuer: int, old: Sata, labels_per_binding) -> Sattestation:
    """A credential by graph node ``issuer`` whose every binding names ``old``."""
    body = SattestationBody(
        sattestor_domain=node_sata(issuer).domain,
        sattestor_onion=node_sata(issuer).onion,
        refresh_rate_days=7,
        sattestees=tuple(
            Binding(domain=old.domain, onion=old.onion, issued=NOW, refreshed_on=NOW,
                    labels=tuple(labels))
            for labels in labels_per_binding
        ),
    )
    return issue(node_key(issuer), body)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    target=st.integers(0, 5),
    label=st.sampled_from(PLAIN_LABELS),
    rotated=st.booleans(),
    extra=st.lists(
        st.tuples(
            st.integers(0, 7),
            st.lists(
                st.lists(st.sampled_from(PLAIN_LABELS), min_size=1, max_size=3, unique=True),
                min_size=1,
                max_size=3,
            ),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_credentials_naming_old_never_change_trust_in_new(seed, target, label, rotated, extra):
    """Old trust never carries over to a rotated address: adding credentials
    whose every binding names ``old`` with a plain label leaves the chain
    ``evaluate`` returns for ``new`` unchanged.  ``old`` shares ``new``'s
    domain (rotation keeps it), so bindings must match on the full (domain,
    onion) pair; with ``rotated`` the pool also holds an old-to-new
    rotation credential, so plain labels must not delegate either.  Issuers are
    drawn from the roots first, so that the added bindings are reached."""
    n, policy, creds, _, _ = random_graph(random.Random(seed))
    j = target % n
    new = node_sata(j)
    old = Sata(domain=new.domain, onion=_ROTATED_KEYS[j].address)
    if rotated:
        old_to_new = SattestationBody(
            sattestor_domain=old.domain,
            sattestor_onion=old.onion,
            refresh_rate_days=7,
            sattestees=(
                Binding(domain=new.domain, onion=new.onion, issued=NOW, refreshed_on=NOW,
                        labels=tuple(PLAIN_LABELS)),
            ),
        )
        creds = creds + [issue(_ROTATED_KEYS[j], old_to_new)]
    issuers = [k for k in range(n) if any(r.sattestor == node_sata(k) for r in policy.roots)]
    issuers += range(n)
    naming_old = [_naming_old(issuers[i % len(issuers)], old, labels) for i, labels in extra]
    before = evaluate(policy, creds, new, label, NOW)
    assert evaluate(policy, creds + naming_old, new, label, NOW) == before


# -- plumbing ------------------------------------------------------------------------


def test_usable_links_filters_tampered_and_stale():
    policy, creds, live = consortium_setup()
    from satakit import Sattestation

    tampered = Sattestation(
        body=creds[0].body.replace(sattestor_domain="evil.example"),
        signature=creds[0].signature,
    )
    links = usable_links([tampered, creds[1]], TODAY)
    assert all(cred.sattestor_domain != "evil.example" for cred, _ in links)


def test_policy_from_json_roundtrip():
    root_key = key_for("root")
    obj = {
        "roots": [
            {
                "sattestor_domain": "root.example",
                "sattestor_onion": root_key.address.label,
                "trusted_labels": ["news"],
            }
        ],
        "max_chain_depth": 2,
        "require_sattestation_for": ["news"],
    }
    policy = policy_from_json(obj)
    assert policy.max_chain_depth == 2
    assert policy.roots[0].sattestor.domain == "root.example"
    assert policy.require_sattestation_for == frozenset({"news"})


def test_policy_from_json_leaves_defaults_to_the_policy():
    assert policy_from_json({}) == TrustPolicy(roots=())
    assert policy_from_json({"max_chain_depth": 5}) == TrustPolicy(roots=(), max_chain_depth=5)


def test_policy_depth_must_be_positive():
    with pytest.raises(ValueError):
        TrustPolicy(roots=(), max_chain_depth=0)


@pytest.mark.parametrize(
    "fields",
    [
        {"require_sattestation_for": "news"},
        {"roots": "abc"},
        {"roots": ["root.example"]},
        {"max_chain_depth": 2.5},
        {"max_chain_depth": "3"},
        {"max_chain_depth": None},
        {"max_chain_depth": True},
        {"allow_credentialed_alt_services": "no"},
        {"roots": 5},
        {"require_sattestation_for": 5},
        {"require_sattestation_for": ["news", 5]},
    ],
    ids=["labels string", "roots string", "root not a TrustRoot", "float depth",
         "text depth", "no depth", "bool depth", "text flag", "roots not a list",
         "labels not a list", "label not a string"],
)
def test_policy_rejects_fields_of_the_wrong_type(fields):
    # each of these used to be accepted as something else, or to fail later
    # with a bare TypeError
    with pytest.raises(UnrepresentableField):
        TrustPolicy(**{"roots": (), **fields})


def test_trust_root_rejects_a_bare_string_for_its_labels():
    # a string is an iterable of characters: "news" would trust n, e, w, s
    with pytest.raises(UnrepresentableField, match="trusted labels"):
        TrustRoot(sattestor=sata_for("root.example"), trusted_labels="news")


@pytest.mark.parametrize(
    "labels", [5, ["news", 5], [["news"]]], ids=["a number", "a number label", "a list label"]
)
def test_trust_root_rejects_labels_that_are_not_strings(labels):
    with pytest.raises(UnrepresentableField, match="trusted labels"):
        TrustRoot(sattestor=sata_for("root.example"), trusted_labels=labels)


@pytest.mark.parametrize("pool", ["empty", "frontier empty at depth 2"])
def test_evaluate_stops_when_no_state_is_left(pool):
    """A depth budget far beyond the pool costs nothing: the search ends at
    the first depth that reaches no new state.  Looping on over empty
    frontiers to this depth takes about 37 s, 37 times the 1 s allowed
    here; the search itself needs a few milliseconds."""
    news = delegation_label("news")
    root = TrustRoot(sattestor=sata_for("root.example", "root"), trusted_labels={"news", news})
    policy = TrustPolicy(roots=(root,), max_chain_depth=100_000_000)
    creds = []
    if pool != "empty":
        creds = [
            third_party("root.example", "root", [("mid.example", "mid", [news])]),
            third_party("mid.example", "mid", [("other.example", "other", ["news"])]),
        ]
    start = time.perf_counter()
    assert evaluate(policy, creds, sata_for("subject.example", "subject"), "news", TODAY) is None
    assert time.perf_counter() - start < 1.0
