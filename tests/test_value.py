"""The decision path's value types behave as the frozen dataclasses they
replaced: equality by class and fields, a hash that agrees with it, no
assignment or deletion, a ``Name(field=value, ...)`` repr, and a
``replace()`` that rebuilds through ``__init__`` so every check runs again.
The input types also refuse a wrong-typed field with a ``SataError``.

The reprs are compared with ``value_repr_golden.json``, recorded from the
dataclass versions.  The one deliberate difference is ``KeyPair``: its repr
no longer shows the secret seed.
"""

from __future__ import annotations

import json
from datetime import date, datetime
from typing import Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from satakit._value import Value
from satakit.errors import (
    BadChecksum,
    BadDomain,
    BadLength,
    MalformedSignature,
    SataError,
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


# type -> (its fields in constructor order, the defaults of those that may be left out)
SIGNATURES = {
    OnionAddress: (("pubkey", "checksum", "version", "label"), {}),
    KeyPair: (("secret", "public"), {"public": None}),
    Sata: (("domain", "onion", "form"), {"form": SataForm.QUERY_STRING}),
    Binding: (
        ("domain", "onion", "issued", "refreshed_on", "labels", "cert_fingerprints",
         "onion_reachable"),
        {"labels": (), "cert_fingerprints": (), "onion_reachable": None},
    ),
    SattestationBody: (
        ("sattestor_domain", "sattestor_onion", "refresh_rate_days", "sattestees", "version"),
        {"version": 1},
    ),
    Sattestation: (("body", "signature"), {}),
    Verdict: (("outcome", "detail"), {}),
    CertDescriptor: (
        ("fingerprint", "san_list", "not_before", "not_after", "has_sct", "der"),
        {"has_sct": False, "der": None},
    ),
    TrustRoot: (("sattestor", "trusted_labels"), {}),
    TrustPolicy: (
        ("roots", "max_chain_depth", "require_sattestation_for",
         "allow_credentialed_alt_services"),
        {"max_chain_depth": 3, "require_sattestation_for": frozenset(),
         "allow_credentialed_alt_services": True},
    ),
    ChainLink: (("credential", "binding_index", "label"), {}),
    TrustChain: (("links", "subject", "label"), {}),
    RotationResult: (("ok", "missing"), {"missing": ()}),
}


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_constructor_takes_the_fields_in_order_with_their_defaults(cls):
    """Positional arguments follow the declared fields, and a field left
    out takes its default, as if it had been passed."""
    order, defaults = SIGNATURES[cls]
    assert cls._fields == order
    kwargs = CASES[cls][0]
    assert cls(*(kwargs[name] for name in order)) == cls(**kwargs)
    required = {name: kwargs[name] for name in order if name not in defaults}
    least = cls(*required.values())
    assert least == cls(**required) == cls(**required, **defaults)
    for name, default in defaults.items():
        if (cls, name) != (KeyPair, "public"):  # derived from the secret when omitted
            assert getattr(least, name) == default
    with pytest.raises(TypeError):
        cls(*list(required.values())[:-1])
    with pytest.raises(TypeError):
        cls(*(kwargs[name] for name in order), None)


def test_a_value_type_may_not_write_its_own_init():
    """Its fields are its parameters; an ``__init__`` would never run."""
    with pytest.raises(TypeError, match="_check"):
        type("Manual", (Value,), {"__annotations__": {"x": "int"}, "__init__": lambda self, x: None})


# the types built from outside input; the other value types only satakit builds
INPUT_TYPES = (
    OnionAddress, KeyPair, Sata, Binding, SattestationBody, Sattestation, CertDescriptor,
    TrustRoot, TrustPolicy,
)
# an argument whose type is wider than its field's: the public key is derived when omitted
ARGUMENT_TYPES = {(KeyPair, "public"): Union[bytes, None]}


class _Text(str):
    """A ``str`` subclass, which no ``str`` field takes."""


class _Bytes(bytes):
    """A ``bytes`` subclass, which no ``bytes`` field takes."""


# the subclass instances hold content their base type's fields would take
SAMPLES = (
    5, True, 2.5, "zz", "", b"\x00" * 64, None, object(), date(2020, 1, 1),
    datetime(2020, 1, 1, 12, 0), ("zz",), (5,), [None], frozenset({"zz"}), ONION, SATA,
    BINDING, ROOT, SataForm.SUBDOMAIN, _Text("news"), _Bytes(b"\x01" * 64),
)


def _fits(kind, value) -> bool:
    """Whether ``value`` may stand for a field annotated ``kind``: the
    annotation rule of :mod:`satakit._value`, written out on its own."""
    origin = get_origin(kind)
    if origin in (tuple, frozenset):
        if isinstance(value, str):
            return False
        try:
            items = list(value)
        except TypeError:
            return False
        return all(_fits(get_args(kind)[0], item) for item in items)
    if get_args(kind):  # X | None
        return any(_fits(part, value) for part in get_args(kind))
    if kind is float:
        return type(value) in (int, float)
    return type(value) is kind


def _wrong(kind) -> st.SearchStrategy:
    """Values that do not fit ``kind``; for a tuple or set, also a bare
    string and lists holding one item of a wrong type among good ones."""
    wrong = st.sampled_from(SAMPLES).filter(lambda value: not _fits(kind, value))
    if get_origin(kind) in (tuple, frozenset):
        item = get_args(kind)[0]
        good = st.sampled_from(SAMPLES).filter(lambda value: _fits(item, value))
        items = st.tuples(st.lists(good, max_size=2), _wrong(item), st.lists(good, max_size=2))
        wrong = st.one_of(wrong, st.text(min_size=1), items.map(lambda t: [*t[0], t[1], *t[2]]))
    return wrong


def _subclassed(value):
    """``value`` as an instance of a new subclass of its type, a list or
    set with each item so; None when its type, or an item's, takes none."""
    kind = type(value)
    if kind in (list, set):
        items = [_subclassed(item) for item in value]
        return kind(items) if items and None not in items else None
    if kind in (str, bytes, int, float):
        return type("Sub", (kind,), {})(value)
    if kind is date:
        return type("Sub", (date,), {})(value.year, value.month, value.day)
    return None


@pytest.mark.parametrize("cls", INPUT_TYPES, ids=lambda cls: cls.__name__)
def test_a_subclass_of_a_field_type_is_refused(cls):
    """Field types are exact: the valid value itself, as an instance of a
    subclass of its type, raises a ``SataError``."""
    kwargs = CASES[cls][0]
    changed = {name: _subclassed(value) for name, value in kwargs.items()}
    changed = {name: value for name, value in changed.items() if value is not None}
    assert changed
    for name, value in changed.items():
        assert value == kwargs[name]
        with pytest.raises(SataError):
            cls(**{**kwargs, name: value})


@st.composite
def _wrong_field(draw):
    cls = draw(st.sampled_from(INPUT_TYPES))
    hints = get_type_hints(cls)
    name = draw(st.sampled_from(cls._fields))
    kind = ARGUMENT_TYPES.get((cls, name), hints[name])
    return cls, name, draw(_wrong(kind))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_wrong_field())
def test_a_wrong_typed_field_raises_a_sata_error(case):
    cls, name, value = case
    kwargs = {**CASES[cls][0], name: value}
    with pytest.raises(SataError):
        cls(**kwargs)

