"""The decision path's value types behave as the frozen dataclasses they
replaced: equality by class and fields, a hash that agrees with it, no
assignment or deletion, a ``Name(field=value, ...)`` repr, and a
``replace()`` that rebuilds through ``__init__`` so every check runs again.

The reprs are compared with ``value_repr_golden.json``, recorded from the
dataclass versions.  The one deliberate difference is ``KeyPair``: its repr
no longer shows the secret seed.
"""

from __future__ import annotations

import json
from datetime import date

import pytest

from satakit import (
    Binding,
    CertDescriptor,
    ChainLink,
    KeyPair,
    OnionAddress,
    RotationResult,
    Sata,
    SataForm,
    Sattestation,
    SattestationBody,
    TrustChain,
    TrustPolicy,
    TrustRoot,
    Verdict,
    VerdictOutcome,
)
from satakit.errors import (
    BadChecksum,
    BadDomain,
    BadLength,
    MalformedSignature,
    StructuralViolation,
    UnrepresentableField,
)

from conftest import DATA_DIR, key_for, seed_for

REPR_GOLDEN = json.loads((DATA_DIR / "value_repr_golden.json").read_text())

ONION = key_for("value.example").address
OTHER_ONION = key_for("other.example").address
SATA = Sata(domain="value.example", onion=ONION, form=SataForm.SUBDOMAIN)
BINDING = Binding(
    domain="value.example",
    onion=ONION,
    issued=date(2020, 8, 25),
    refreshed_on=date(2020, 8, 31),
    labels=("news",),
    cert_fingerprints=("ab12",),
    onion_reachable=True,
)
BODY = SattestationBody(
    sattestor_domain="root.example",
    sattestor_onion=OTHER_ONION,
    refresh_rate_days=7.0,
    sattestees=(BINDING,),
)
CREDENTIAL = Sattestation(body=BODY, signature=b"\x01" * 64)
ROOT = TrustRoot(sattestor=SATA, trusted_labels=frozenset({"news"}))
LINK = ChainLink(credential=CREDENTIAL, binding_index=0, label="news")

# type -> (constructor keywords, a valid change, (an invalid change, its error) or None)
CASES = {
    OnionAddress: (
        {"pubkey": ONION.pubkey, "checksum": ONION.checksum, "version": 3, "label": ONION.label},
        {"pubkey": OTHER_ONION.pubkey, "checksum": OTHER_ONION.checksum,
         "label": OTHER_ONION.label},
        ({"checksum": b"\x00\x00"}, BadChecksum),
    ),
    KeyPair: (
        {"secret": seed_for("value.example"), "public": None},
        {"secret": seed_for("other.example"), "public": None},
        ({"secret": b"\x05"}, BadLength),
    ),
    Sata: (
        {"domain": "Value.Example.", "onion": ONION, "form": SataForm.SUBDOMAIN},
        {"domain": "other.example"},
        ({"domain": "not a domain"}, BadDomain),
    ),
    Binding: (
        {"domain": "value.example", "onion": ONION, "issued": date(2020, 8, 25),
         "refreshed_on": date(2020, 8, 31), "labels": ["news"], "cert_fingerprints": ["ab12"],
         "onion_reachable": True},
        {"labels": ("bank",)},
        ({"refreshed_on": date(2020, 8, 24)}, StructuralViolation),
    ),
    SattestationBody: (
        {"sattestor_domain": "root.example", "sattestor_onion": OTHER_ONION,
         "refresh_rate_days": 7.0, "sattestees": [BINDING], "version": 1},
        {"refresh_rate_days": 3.5},
        ({"sattestees": ()}, StructuralViolation),
    ),
    Sattestation: (
        {"body": BODY, "signature": b"\x01" * 64},
        {"signature": b"\x02" * 64},
        ({"signature": b"\x01"}, MalformedSignature),
    ),
    Verdict: (
        {"outcome": VerdictOutcome.ACCEPT, "detail": "all checks passed (sct absent)"},
        {"outcome": VerdictOutcome.REJECT_STALE},
        None,
    ),
    CertDescriptor: (
        {"fingerprint": "ab" * 32, "san_list": ["Value.example"], "not_before": date(2020, 1, 1),
         "not_after": date(2021, 1, 1), "has_sct": True, "der": b"cert:value"},
        {"has_sct": False},
        ({"fingerprint": "zz"}, UnrepresentableField),
    ),
    TrustRoot: (
        {"sattestor": SATA, "trusted_labels": {"news"}},
        {"trusted_labels": frozenset({"bank"})},
        None,
    ),
    TrustPolicy: (
        {"roots": [ROOT], "max_chain_depth": 2, "require_sattestation_for": {"bank.example"},
         "allow_credentialed_alt_services": False},
        {"max_chain_depth": 3},
        ({"max_chain_depth": 0}, ValueError),
    ),
    ChainLink: (
        {"credential": CREDENTIAL, "binding_index": 0, "label": "news"},
        {"label": "bank"},
        None,
    ),
    TrustChain: (
        {"links": (LINK,), "subject": SATA, "label": "news"},
        {"label": "bank"},
        None,
    ),
    RotationResult: (
        {"ok": False, "missing": ("old-to-new",)},
        {"ok": True, "missing": ()},
        None,
    ),
}


def _expected_repr(value) -> str:
    recorded = REPR_GOLDEN[type(value).__name__]
    if isinstance(value, KeyPair):  # the dataclass repr leaked the secret seed
        secret = f"secret={value.secret!r}, "
        assert secret in recorded
        return recorded.replace(secret, "")
    return recorded


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_value_type_parity(cls):
    kwargs, change, invalid = CASES[cls]
    value, same = cls(**kwargs), cls(*kwargs.values())
    assert value == same and hash(value) == hash(same) and value is not same
    assert not value != same

    twin = type("Twin", (cls,), {})(**kwargs)
    assert value != twin and twin != value and not value == twin

    changed = value.replace(**change)
    assert type(changed) is cls and changed != value

    copy = value.replace()
    assert type(copy) is cls and copy == value and hash(copy) == hash(value)

    name = next(iter(kwargs))
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) is before

    if invalid is not None:
        changes, error = invalid
        with pytest.raises(error):
            value.replace(**changes)

    assert repr(value) == _expected_repr(value)
