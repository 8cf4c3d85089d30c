from __future__ import annotations

import json
import math
import random
from datetime import date, datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satakit import (
    Binding,
    Sata,
    Sattestation,
    SattestationBody,
    canonical_bytes,
    check_freshness,
    from_transport_json,
    is_self_sattestation,
    issue,
    keygen,
    make_self_sattestation,
    to_transport_json,
    verify_credential,
)
from satakit.credential import (
    MAX_SELF_SATTESTATION_BYTES,
    SATA_HEADER_NAME,
    SATT_FILE_EXTENSION,
    WELL_KNOWN_SATTESTATION_PATH,
    format_refresh_rate,
    is_fresh,
    parse_refresh_rate,
)
from satakit.errors import (
    BadSignature,
    InvalidOnionComponent,
    KeyMismatch,
    MalformedSignature,
    NoFingerprints,
    SataError,
    Stale,
    StructuralViolation,
    TooLarge,
    UnrepresentableField,
)

from conftest import DATA_DIR, key_for, third_party

FP1 = "632B119944" + "A" * 54
FP2 = "23964A1368" + "B" * 54


def fig1_body() -> SattestationBody:
    """Two third-party bindings with the news/union labels and dates."""
    sattestor = key_for("sattestora.info")
    return SattestationBody(
        sattestor_domain="sattestora.info",
        sattestor_onion=sattestor.address,
        refresh_rate_days=7,
        sattestees=(
            Binding(
                domain="domain1.info",
                onion=key_for("domain1.info").address,
                issued=date(2020, 6, 1),
                refreshed_on=date(2020, 8, 25),
                labels=("news",),
            ),
            Binding(
                domain="domain2.info",
                onion=key_for("domain2.info").address,
                issued=date(2020, 6, 1),
                refreshed_on=date(2020, 8, 25),
                labels=("union",),
            ),
        ),
    )


def paper_shaped_self_sattestation() -> Sattestation:
    return make_self_sattestation(
        key=key_for("sattestora.info"),
        domain="sattestora.info",
        cert_fingerprints=[FP1, FP2],
        issued=date(2020, 6, 1),
        refreshed_on=date(2020, 8, 25),
        refresh_rate_days=7,
        labels=["news"],
    )


# -- canonical serialization --------------------------------------------------


def test_canonical_bytes_golden():
    cred = issue(key_for("sattestora.info"), fig1_body())
    golden = (DATA_DIR / "fig1_credential.satt").read_text().strip()
    assert to_transport_json(cred) == golden
    assert canonical_bytes(cred) == canonical_bytes(fig1_body())


def test_canonical_bytes_single_line_fixed_key_order():
    blob = canonical_bytes(fig1_body()).decode()
    assert "\n" not in blob and ": " not in blob
    inner = json.loads(blob)["sattestation"]
    assert list(inner) == [
        "sattestation_version",
        "sattestor_domain",
        "sattestor_onion",
        "sattestor_refresh_rate",
        "sattestees",
    ]
    assert list(inner["sattestees"][0]) == [
        "domain",
        "onion",
        "labels",
        "issued",
        "refreshed_on",
    ]
    assert inner["sattestor_refresh_rate"] == "7 days"
    assert inner["sattestees"][0]["issued"] == "2020-06-01"


def test_canonical_bytes_deterministic():
    assert canonical_bytes(fig1_body()) == canonical_bytes(fig1_body())


def test_canonical_bytes_binding_order_significant():
    body = fig1_body()
    reordered = body.replace(sattestees=tuple(reversed(body.sattestees)))
    assert canonical_bytes(body) != canonical_bytes(reordered)


def test_binding_rejects_non_date():
    # the Binding owns the date rule; the serializer formats what it kept
    binding = fig1_body().sattestees[0]
    for field in ("issued", "refreshed_on"):
        for value in ("2020-06-01", datetime(2020, 6, 1, 12, 0)):
            with pytest.raises(UnrepresentableField, match=field):
                binding.replace(**{field: value})


def test_refresh_rate_wire_forms():
    assert format_refresh_rate(7) == "7 days"
    assert format_refresh_rate(3.5) == "3.5 days"
    assert parse_refresh_rate("7 days") == 7.0
    assert parse_refresh_rate("3.5 days") == 3.5
    with pytest.raises(UnrepresentableField):
        parse_refresh_rate("weekly")
    with pytest.raises(UnrepresentableField):
        format_refresh_rate(-1)


# -- issuance and verification -------------------------------------------------


def test_issue_then_verify():
    cred = issue(key_for("sattestora.info"), fig1_body())
    verify_credential(cred)  # does not raise


def test_issue_key_mismatch():
    with pytest.raises(KeyMismatch):
        issue(key_for("someone-else"), fig1_body())


def test_tampered_binding_fails_verification():
    cred = issue(key_for("sattestora.info"), fig1_body())
    tampered_binding = cred.sattestees[0].replace(domain="evil.info")
    tampered = Sattestation(
        body=cred.body.replace(
            sattestees=(tampered_binding, cred.sattestees[1])
        ),
        signature=cred.signature,
    )
    with pytest.raises(BadSignature):
        verify_credential(tampered)


def test_signature_from_wrong_key_rejected():
    body = fig1_body()
    cred = issue(key_for("sattestora.info"), body)
    other = issue(
        key_for("other-sattestor"),
        body.replace(sattestor_onion=key_for("other-sattestor").address),
    )
    forged = Sattestation(body=body, signature=other.signature)
    with pytest.raises(BadSignature):
        verify_credential(forged)


def test_self_sattestation_detection():
    assert is_self_sattestation(paper_shaped_self_sattestation())
    assert not is_self_sattestation(issue(key_for("sattestora.info"), fig1_body()))


def test_fingerprints_on_non_self_credential_rejected():
    key = key_for("sattestora.info")
    binding = Binding(
        domain="domain1.info",  # not the sattestor's own domain
        onion=key_for("domain1.info").address,
        issued=date(2020, 6, 1),
        refreshed_on=date(2020, 8, 25),
        cert_fingerprints=(FP1,),
    )
    body = SattestationBody(
        sattestor_domain="sattestora.info",
        sattestor_onion=key.address,
        refresh_rate_days=7,
        sattestees=(binding,),
    )
    with pytest.raises(StructuralViolation):
        verify_credential(issue(key, body))


def test_multi_binding_with_fingerprints_rejected():
    key = key_for("sattestora.info")
    own = Binding(
        domain="sattestora.info",
        onion=key.address,
        issued=date(2020, 6, 1),
        refreshed_on=date(2020, 8, 25),
        cert_fingerprints=(FP1,),
    )
    extra = Binding(
        domain="domain1.info",
        onion=key_for("domain1.info").address,
        issued=date(2020, 6, 1),
        refreshed_on=date(2020, 8, 25),
    )
    body = SattestationBody(
        sattestor_domain="sattestora.info",
        sattestor_onion=key.address,
        refresh_rate_days=7,
        sattestees=(own, extra),
    )
    with pytest.raises(StructuralViolation):
        verify_credential(issue(key, body))


def test_self_shaped_credential_without_fingerprints_rejected():
    key = key_for("sattestora.info")
    body = SattestationBody(
        sattestor_domain="sattestora.info",
        sattestor_onion=key.address,
        refresh_rate_days=7,
        sattestees=(
            Binding(
                domain="sattestora.info",
                onion=key.address,
                issued=date(2020, 6, 1),
                refreshed_on=date(2020, 8, 25),
            ),
        ),
    )
    with pytest.raises(StructuralViolation):
        verify_credential(issue(key, body))


def test_refreshed_before_issued_rejected():
    with pytest.raises(StructuralViolation):
        Binding(
            domain="domain1.info",
            onion=key_for("domain1.info").address,
            issued=date(2020, 8, 25),
            refreshed_on=date(2020, 6, 1),
        )


def test_labels_with_commas_rejected():
    with pytest.raises(StructuralViolation):
        Binding(
            domain="domain1.info",
            onion=key_for("domain1.info").address,
            issued=date(2020, 6, 1),
            refreshed_on=date(2020, 8, 25),
            labels=("news,union",),
        )


@pytest.mark.parametrize("field,value", [("labels", "news"), ("cert_fingerprints", "ABCD")])
def test_binding_rejects_a_bare_string_for_a_list(field, value):
    # a string is an iterable of characters: "news" would be four labels
    with pytest.raises(StructuralViolation, match=field):
        Binding(
            domain="domain1.info",
            onion=key_for("domain1.info").address,
            issued=date(2020, 6, 1),
            refreshed_on=date(2020, 8, 25),
            **{field: value},
        )


@pytest.mark.parametrize(
    "fingerprints,labels", [("AB", ["bank"]), (["AB"], "bank")], ids=["fingerprints", "labels"]
)
def test_self_sattestation_rejects_a_bare_string_for_a_list(fingerprints, labels):
    with pytest.raises(StructuralViolation, match="must be a list of strings"):
        make_self_sattestation(
            key=key_for("bank.example"),
            domain="bank.example",
            cert_fingerprints=fingerprints,
            issued=date(2020, 6, 1),
            refreshed_on=date(2020, 8, 25),
            refresh_rate_days=7,
            labels=labels,
        )


def _binding(**changes) -> Binding:
    fields = dict(
        domain="domain1.info",
        onion=key_for("domain1.info").address,
        issued=date(2020, 6, 1),
        refreshed_on=date(2020, 8, 25),
    )
    return Binding(**{**fields, **changes})


@pytest.mark.parametrize(
    "build,error",
    [
        (lambda: _binding(labels=[5]), StructuralViolation),
        (lambda: _binding(cert_fingerprints=[5]), StructuralViolation),
        (lambda: _binding(labels=None), StructuralViolation),
        (lambda: _binding(onion="x"), StructuralViolation),
        (lambda: SattestationBody("domain1.info", "x", 7, [_binding()]), StructuralViolation),
        (lambda: Sata("domain1.info", onion="abc"), InvalidOnionComponent),
    ],
    ids=[
        "binding-label-not-a-string",
        "binding-fingerprint-not-a-string",
        "binding-labels-none",
        "binding-onion-not-an-address",
        "body-sattestor-onion-not-an-address",
        "sata-onion-not-an-address",
    ],
)
def test_value_types_reject_fields_of_the_wrong_type(build, error):
    # each used to pass construction, or fail with a bare TypeError or
    # AttributeError, and break later in canonical_bytes, issue or rendering
    with pytest.raises(error):
        build()


def _wire_with(field: str, raw: str) -> str:
    """fig1's transport form with the first binding's ``field`` set to the
    raw JSON text ``raw``, signed by its sattestor."""
    wire = json.loads(to_transport_json(issue(key_for("sattestora.info"), fig1_body())))
    wire["sattestation"]["sattestees"][0][field] = "@RAW@"
    return json.dumps(wire).replace('"@RAW@"', raw)


@pytest.mark.parametrize(
    "field,raw", [("labels", r'"\ud800"'), ("onion_reachable", r'"\ud800"'), ("onion_reachable", "1")]
)
def test_wire_binding_without_canonical_form_rejected(field, raw):
    """A lone surrogate has no UTF-8 form, so no canonical bytes: it must
    fail as a SataError where the binding is built, not later as a
    UnicodeEncodeError in every trust query over its pool."""
    with pytest.raises(StructuralViolation):
        from_transport_json(_wire_with(field, raw))


# any code point, lone surrogates (category Cs) drawn often
ANY_CHARACTER = st.characters(exclude_categories=()) | st.characters(categories=["Cs"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(label=st.text(ANY_CHARACTER))
def test_binding_label_builds_only_with_canonical_bytes(label):
    body = fig1_body()
    try:
        binding = body.sattestees[0].replace(labels=(label,))
    except SataError:
        return
    canonical_bytes(body.replace(sattestees=(binding,)))


# -- self-sattestations ---------------------------------------------------------


def test_self_sattestation_paper_shape():
    cred = paper_shaped_self_sattestation()
    wire = json.loads(to_transport_json(cred))
    sattestees = wire["sattestation"]["sattestees"]
    assert len(sattestees) == 1
    only = sattestees[0]
    assert only["domain"] == "sattestora.info"
    assert only["cert_fingerprint"] == [FP1, FP2]
    assert only["onion"] == wire["sattestation"]["sattestor_onion"]
    verify_credential(cred)


def test_self_sattestation_golden_size():
    cred = paper_shaped_self_sattestation()
    golden = (DATA_DIR / "self_sattestation_golden.satt").read_text().strip()
    text = to_transport_json(cred)
    assert text == golden
    assert len(text.encode()) == 666  # frozen; must stay under the 800 bound
    assert len(text.encode()) < MAX_SELF_SATTESTATION_BYTES


def test_self_sattestation_no_fingerprints():
    with pytest.raises(NoFingerprints):
        make_self_sattestation(
            key=key_for("sattestora.info"),
            domain="sattestora.info",
            cert_fingerprints=[],
            issued=date(2020, 6, 1),
            refreshed_on=date(2020, 8, 25),
            refresh_rate_days=7,
        )


def test_self_sattestation_too_large():
    rng = random.Random(9)
    fingerprints = [
        "".join(rng.choice("0123456789ABCDEF") for _ in range(64)) for _ in range(40)
    ]
    with pytest.raises(TooLarge) as err:
        make_self_sattestation(
            key=key_for("sattestora.info"),
            domain="sattestora.info",
            cert_fingerprints=fingerprints,
            issued=date(2020, 6, 1),
            refreshed_on=date(2020, 8, 25),
            refresh_rate_days=7,
        )
    assert err.value.size > MAX_SELF_SATTESTATION_BYTES


def test_onion_reachable_flag_roundtrips_and_is_optional():
    key = key_for("sattestora.info")
    with_flag = make_self_sattestation(
        key=key,
        domain="sattestora.info",
        cert_fingerprints=[FP1],
        issued=date(2020, 6, 1),
        refreshed_on=date(2020, 8, 25),
        refresh_rate_days=7,
        onion_reachable=True,
    )
    without = make_self_sattestation(
        key=key,
        domain="sattestora.info",
        cert_fingerprints=[FP1],
        issued=date(2020, 6, 1),
        refreshed_on=date(2020, 8, 25),
        refresh_rate_days=7,
    )
    assert '"onion_reachable":true' in to_transport_json(with_flag)
    assert "onion_reachable" not in to_transport_json(without)
    assert from_transport_json(to_transport_json(with_flag)).sattestees[0].onion_reachable


# -- freshness -------------------------------------------------------------------


def _dated_self_satt(refreshed_on: date, rate: float, issued: date | None = None):
    return make_self_sattestation(
        key=key_for("sattestora.info"),
        domain="sattestora.info",
        cert_fingerprints=[FP1],
        issued=issued or refreshed_on,
        refreshed_on=refreshed_on,
        refresh_rate_days=rate,
    )


def test_freshness_same_day_ok():
    now = date(2020, 9, 1)
    check_freshness(_dated_self_satt(now, 7), 0, now)


def test_freshness_exact_boundary_is_stale():
    now = date(2020, 9, 8)
    cred = _dated_self_satt(date(2020, 9, 1), 7)
    with pytest.raises(Stale) as err:
        check_freshness(cred, 0, now)
    assert err.value.margin_days == 0.0


def test_freshness_fractional_rate():
    cred = _dated_self_satt(date(2020, 9, 1), 3.5)
    check_freshness(cred, 0, date(2020, 9, 4))  # 3 days old, under 3.5
    with pytest.raises(Stale):
        check_freshness(cred, 0, date(2020, 9, 5))  # 4 days old


def test_freshness_uses_refreshed_on_not_issued():
    cred = _dated_self_satt(
        date(2020, 8, 31), 7, issued=date(2020, 6, 1)
    )
    check_freshness(cred, 0, date(2020, 9, 1))


def test_freshness_future_dated_counts_absolute_difference():
    cred = _dated_self_satt(date(2020, 9, 30), 7)
    with pytest.raises(Stale):
        check_freshness(cred, 0, date(2020, 9, 1))


def test_freshness_index_out_of_range():
    cred = _dated_self_satt(date(2020, 9, 1), 7)
    with pytest.raises(IndexError):
        check_freshness(cred, 5, date(2020, 9, 1))


_LAST_DAY = date.max.toordinal()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    rate=st.one_of(
        st.integers(1, 10**9),
        st.floats(min_value=1e-6, max_value=1e300, allow_nan=False, allow_infinity=False),
        st.sampled_from([0.5, 1.0, 3.5, 7.0, 7 + 1e-9, 7 - 1e-9, 2.0**-30]),
    ),
    today=st.one_of(st.integers(1, _LAST_DAY), st.sampled_from([1, 2, _LAST_DAY - 1, _LAST_DAY])),
    near_edge=st.booleans(),
    step=st.integers(-2, 2),
    offset=st.integers(-(10**6), 10**6),
    sign=st.sampled_from([-1, 1]),
)
def test_fresh_window_is_the_strict_day_bound(rate, today, near_edge, step, offset, sign):
    """A binding is fresh exactly for the refresh dates d days from ``now``
    with |d| < rate, the rule as written; dates near the bound are tried
    most."""
    now = date.fromordinal(today)
    if near_edge:
        offset = sign * (min(math.ceil(rate), _LAST_DAY) + step)
    refreshed = today + offset
    if not 1 <= refreshed <= _LAST_DAY:
        return
    binding = Binding(
        domain="fresh.example",
        onion=key_for("fresh.example").address,
        issued=date.min,
        refreshed_on=date.fromordinal(refreshed),
    )
    assert is_fresh(binding, rate, now) is (abs(offset) < rate)


# -- sign/verify closure property -------------------------------------------------


def test_sign_verify_closure_and_mutation_detection():
    rng = random.Random(0xC10)
    label_pool = ["news", "union", "bank", "journalism"]
    for i in range(200):
        key = keygen(rng.randbytes(32))
        n_bindings = rng.randint(1, 3)
        self_satt = rng.random() < 0.4 and n_bindings == 1
        domain = f"site{i}.example"
        bindings = []
        for j in range(n_bindings):
            if self_satt:
                b_domain, b_onion = domain, key.address
                fps = (FP1,)
            else:
                b_domain, b_onion = f"dep{j}-{i}.example", keygen(rng.randbytes(32)).address
                fps = ()
            bindings.append(
                Binding(
                    domain=b_domain,
                    onion=b_onion,
                    issued=date(2020, 6, 1),
                    refreshed_on=date(2020, 8, 25),
                    labels=tuple(rng.sample(label_pool, rng.randint(0, 2))),
                    cert_fingerprints=fps,
                )
            )
        body = SattestationBody(
            sattestor_domain=domain,
            sattestor_onion=key.address,
            refresh_rate_days=rng.choice([3.5, 7, 14]),
            sattestees=tuple(bindings),
        )
        cred = issue(key, body)
        verify_credential(cred)

        # one random byte flipped in the signature must be caught
        sig = bytearray(cred.signature)
        sig[rng.randrange(64)] ^= 0xFF
        with pytest.raises(BadSignature):
            verify_credential(Sattestation(body=body, signature=bytes(sig)))


def test_transport_mutation_of_any_byte_rejected():
    cred = paper_shaped_self_sattestation()
    text = to_transport_json(cred)
    rng = random.Random(4)
    for _ in range(60):
        pos = rng.randrange(len(text))
        old = text[pos]
        new = rng.choice([c for c in "abcdef0123456789xyz" if c != old])
        mutated = text[:pos] + new + text[pos + 1 :]
        try:
            parsed = from_transport_json(mutated)
        except Exception:
            continue  # structurally broken: also a rejection
        if to_transport_json(parsed) == text:
            continue  # mutation did not survive reserialization (e.g. case-folded hex)
        with pytest.raises((BadSignature, StructuralViolation)):
            verify_credential(parsed)


# -- transport form ---------------------------------------------------------------


def test_transport_roundtrip():
    cred = issue(key_for("sattestora.info"), fig1_body())
    again = from_transport_json(to_transport_json(cred))
    assert again == cred
    verify_credential(again)


def test_transport_signature_is_lowercase_hex():
    cred = paper_shaped_self_sattestation()
    sig = json.loads(to_transport_json(cred))["signature"]
    assert sig == cred.signature.hex()
    assert sig == sig.lower() and len(sig) == 128


def test_transport_rejects_short_signature():
    cred = paper_shaped_self_sattestation()
    wire = json.loads(to_transport_json(cred))
    wire["signature"] = wire["signature"][:20]
    with pytest.raises(MalformedSignature):
        from_transport_json(json.dumps(wire))


def test_transport_rejects_bad_json():
    with pytest.raises(UnrepresentableField):
        from_transport_json("{not json")


@pytest.mark.parametrize("value", [5, None, bytearray(b"{}"), ["{}"]])
def test_transport_rejects_a_value_that_is_not_text(value):
    with pytest.raises(UnrepresentableField, match="not JSON text"):
        from_transport_json(value)


def test_transport_rejects_a_bare_string_for_the_fingerprint_list():
    """The encoder writes ``cert_fingerprint`` as a list only.  Read as a
    list of one, a bare string would verify over the re-encoded list,
    bytes that were never received."""
    text = to_transport_json(
        make_self_sattestation(
            key=key_for("sattestora.info"),
            domain="sattestora.info",
            cert_fingerprints=[FP1],
            issued=date(2020, 6, 1),
            refreshed_on=date(2020, 8, 25),
            refresh_rate_days=7,
        )
    )
    listed = f'"cert_fingerprint":["{FP1}"]'
    assert listed in text
    verify_credential(from_transport_json(text))
    with pytest.raises(UnrepresentableField, match="'cert_fingerprint'"):
        from_transport_json(text.replace(listed, f'"cert_fingerprint":"{FP1}"'))


def test_transport_rejects_missing_fields():
    with pytest.raises(UnrepresentableField):
        from_transport_json('{"sattestation":{}}')


def _set(wire: dict, path: tuple, value) -> None:
    for key in path[:-1]:
        wire = wire[key]
    wire[path[-1]] = value


def _string_paths(node, path=()):
    """Path to every string value in a parsed wire credential."""
    if isinstance(node, str):
        yield path
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _string_paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _string_paths(value, path + (index,))


WIRE_CREDENTIALS = [
    json.loads(to_transport_json(paper_shaped_self_sattestation())),
    json.loads(to_transport_json(issue(key_for("sattestora.info"), fig1_body()))),
]
STRING_FIELDS = [(i, path) for i, wire in enumerate(WIRE_CREDENTIALS) for path in _string_paths(wire)]
NON_STRING_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(field=st.sampled_from(STRING_FIELDS), value=NON_STRING_JSON)
def test_wire_string_field_of_another_json_type_rejected(field, value):
    index, path = field
    wire = json.loads(json.dumps(WIRE_CREDENTIALS[index]))
    _set(wire, path, value)
    with pytest.raises(SataError):
        from_transport_json(json.dumps(wire))


@pytest.mark.parametrize(
    "path,value",
    [
        (("sattestor_domain",), 5),
        (("sattestor_onion",), 5),
        (("sattestees", 0, "domain"), 5),
        (("sattestees", 0, "onion"), [5]),
        (("sattestor_domain",), "a..example"),
        (("sattestees", 0, "domain"), "a..example"),
    ],
)
def test_wire_domain_and_onion_of_wrong_type_or_form_rejected(path, value):
    wire = json.loads(json.dumps(WIRE_CREDENTIALS[0]))
    _set(wire["sattestation"], path, value)
    with pytest.raises(UnrepresentableField):
        from_transport_json(json.dumps(wire))


@pytest.mark.parametrize("value", [True, 1.0, "1", None, [1]])
def test_wire_version_must_be_an_integer(value):
    """``true == 1.0 == 1`` in Python, so only the JSON type tells them apart."""
    wire = json.loads(json.dumps(WIRE_CREDENTIALS[0]))
    wire["sattestation"]["sattestation_version"] = value
    with pytest.raises(UnrepresentableField, match="'sattestation_version'"):
        from_transport_json(json.dumps(wire))
    wire["sattestation"]["sattestation_version"] = 1
    verify_credential(from_transport_json(json.dumps(wire)))


def test_transport_decodes_each_onion_label_once():
    """A self-sattestation's sattestor and binding share one decode, and a
    header parsed again decodes nothing: decodes are misses of
    ``parse_onion``'s memo."""
    from satakit.onion import _decode

    header = to_transport_json(paper_shaped_self_sattestation())
    _decode.cache_clear()
    from_transport_json(header)
    assert _decode.cache_info().misses == 1
    from_transport_json(header)
    assert _decode.cache_info().misses == 1
    _decode.cache_clear()
    from_transport_json(to_transport_json(issue(key_for("sattestora.info"), fig1_body())))
    assert _decode.cache_info().misses == 3


def test_no_revocation_fields_anywhere():
    openings = [
        to_transport_json(issue(key_for("sattestora.info"), fig1_body())),
        to_transport_json(paper_shaped_self_sattestation()),
    ]
    for text in openings:
        lowered = text.lower()
        for banned in ("crl", "ocsp", "revocation", "revoked"):
            assert banned not in lowered


def test_external_interface_constants():
    assert SATA_HEADER_NAME == "x-sata"
    assert WELL_KNOWN_SATTESTATION_PATH == "/.well-known/sattestation"
    assert SATT_FILE_EXTENSION == ".satt"


def test_header_value_is_single_line_and_fits(tmp_path):
    """A self-sattestation must be usable verbatim as an HTTP header value."""
    cred = paper_shaped_self_sattestation()
    value = to_transport_json(cred)
    assert "\n" not in value and "\r" not in value
    header_line = f"{SATA_HEADER_NAME}: {value}"
    assert len(header_line.encode()) < MAX_SELF_SATTESTATION_BYTES + len(SATA_HEADER_NAME) + 2
    # and the file form: one credential per .satt file
    path = tmp_path / ("sattestora.info-1" + SATT_FILE_EXTENSION)
    path.write_text(value + "\n")
    assert from_transport_json(path.read_text()) == cred


def test_well_known_document_is_a_json_array():
    """Third-party credentials are served as a JSON array at the well-known path."""
    creds = [
        issue(key_for("sattestora.info"), fig1_body()),
        third_party("root.example", "root", [("domain1.info", "domain1.info", ["news"])]),
    ]
    document = "[" + ",".join(to_transport_json(c) for c in creds) + "]"
    parsed = json.loads(document)
    assert len(parsed) == 2
    for entry in parsed:
        verify_credential(from_transport_json(json.dumps(entry)))
