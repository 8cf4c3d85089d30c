from __future__ import annotations

import random
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satakit import (
    Binding,
    Sata,
    SataForm,
    expected_sans,
    keygen,
    parse_onion,
    parse_sata,
    securedrop_rewrite,
    to_query_form,
    to_subdomain_form,
)
from satakit.errors import (
    BadDomain,
    InvalidOnionComponent,
    NotASata,
    NotSecureDropName,
    SataError,
)
from satakit.sata import normalize_domain

from oracles import CBC_LABEL, SELFAUTH_LABEL

SELFAUTH_SUBDOMAIN_URL = f"https://{SELFAUTH_LABEL}onion.selfauth.site"
SELFAUTH_QUERY_URL = f"https://selfauth.site/?onion={SELFAUTH_LABEL}"


def test_parse_subdomain_form():
    s = parse_sata(SELFAUTH_SUBDOMAIN_URL)
    assert s.domain == "selfauth.site"
    assert s.form is SataForm.SUBDOMAIN
    assert s.onion.label == SELFAUTH_LABEL


def test_parse_query_form():
    s = parse_sata(SELFAUTH_QUERY_URL)
    assert s.domain == "selfauth.site"
    assert s.form is SataForm.QUERY_STRING
    assert s.onion.label == SELFAUTH_LABEL


def test_parse_plain_domain_is_not_a_sata():
    with pytest.raises(NotASata):
        parse_sata("https://example.com/")


def test_parse_bare_hostname():
    s = parse_sata(f"{SELFAUTH_LABEL}onion.selfauth.site")
    assert s.form is SataForm.SUBDOMAIN


def test_mutated_query_label_fails_closed():
    # flip one character of a known-good label so the checksum breaks
    bad = ("j" if SELFAUTH_LABEL[0] != "j" else "k") + SELFAUTH_LABEL[1:]
    with pytest.raises(InvalidOnionComponent):
        parse_sata(f"https://selfauth.site/?onion={bad}")


def test_mutated_subdomain_label_fails_closed():
    bad = ("j" if SELFAUTH_LABEL[0] != "j" else "k") + SELFAUTH_LABEL[1:]
    with pytest.raises(InvalidOnionComponent):
        parse_sata(f"https://{bad}onion.selfauth.site/")


def test_conflicting_forms_fail_closed():
    other = keygen(b"\x42" * 32).address.label
    with pytest.raises(InvalidOnionComponent):
        parse_sata(f"https://{SELFAUTH_LABEL}onion.selfauth.site/?onion={other}")


def test_agreeing_forms_parse_as_subdomain():
    s = parse_sata(f"https://{SELFAUTH_LABEL}onion.selfauth.site/?onion={SELFAUTH_LABEL}")
    assert s.form is SataForm.SUBDOMAIN
    assert s.domain == "selfauth.site"


def test_conflicting_repeated_query_params_fail_closed():
    other = keygen(b"\x42" * 32).address.label
    with pytest.raises(InvalidOnionComponent):
        parse_sata(f"https://selfauth.site/?onion={SELFAUTH_LABEL}&onion={other}")


def test_render_both_forms(selfauth_sata):
    assert to_subdomain_form(selfauth_sata) == f"{SELFAUTH_LABEL}onion.selfauth.site"
    assert to_query_form(selfauth_sata) == SELFAUTH_QUERY_URL


def test_render_parse_roundtrip(selfauth_sata):
    reparsed = parse_sata(to_query_form(selfauth_sata))
    assert reparsed.domain == selfauth_sata.domain
    assert reparsed.onion.label == selfauth_sata.onion.label
    reparsed = parse_sata("https://" + to_subdomain_form(selfauth_sata))
    assert reparsed.domain == selfauth_sata.domain
    assert reparsed.onion.label == selfauth_sata.onion.label


def test_form_equivalence_on_random_satas():
    rng = random.Random(77)
    for i in range(50):
        onion = keygen(rng.randbytes(32)).address
        s = Sata(domain=f"site{i}.example", onion=onion)
        a = parse_sata(to_query_form(s))
        b = parse_sata("https://" + to_subdomain_form(s))
        assert (a.domain, a.onion.label) == (b.domain, b.onion.label) == (
            s.domain,
            s.onion.label,
        )


def test_subdomain_leftmost_label_is_61_chars():
    rng = random.Random(78)
    for _ in range(20):
        onion = keygen(rng.randbytes(32)).address
        rendered = to_subdomain_form(Sata(domain="x.example", onion=onion))
        first = rendered.split(".")[0]
        assert len(first) == 61


def test_uppercase_domain_normalized():
    s = Sata(domain="SelfAuth.SITE", onion=parse_onion(SELFAUTH_LABEL))
    assert s.domain == "selfauth.site"
    assert to_query_form(s).startswith("https://selfauth.site/")


def test_expected_sans_order_and_content(selfauth_sata):
    sans = expected_sans(selfauth_sata)
    assert sans == [
        f"{SELFAUTH_LABEL}onion.selfauth.site",
        "selfauth.site",
        f"{SELFAUTH_LABEL}.onion",
    ]


def test_expected_sans_disjoint_for_different_onions():
    a = Sata(domain="site.example", onion=keygen(b"\x01" * 32).address)
    b = Sata(domain="site.example", onion=keygen(b"\x02" * 32).address)
    sans_a, sans_b = expected_sans(a), expected_sans(b)
    assert sans_a[0] != sans_b[0]
    assert sans_a[2] != sans_b[2]
    assert sans_a[1] == sans_b[1]


def test_expected_sans_cbc_securedrop():
    s = Sata(domain="www.cbc.ca", onion=parse_onion(CBC_LABEL))
    assert f"{CBC_LABEL}.onion" in expected_sans(s)


def test_securedrop_rewrite_cbc():
    base, onion = securedrop_rewrite("www.cbc.ca.securedrop.tor.onion", CBC_LABEL)
    assert base == "www.cbc.ca"
    assert onion is not None and onion.label == CBC_LABEL


def test_securedrop_rewrite_requires_suffix():
    with pytest.raises(NotSecureDropName):
        securedrop_rewrite("www.cbc.ca")


@pytest.mark.parametrize("hostname", [5, None, b"www.cbc.ca.securedrop.tor.onion"])
def test_securedrop_rewrite_rejects_a_name_that_is_not_a_string(hostname):
    with pytest.raises(NotSecureDropName, match="must be a string"):
        securedrop_rewrite(hostname)


def test_securedrop_rewrite_without_param():
    base, onion = securedrop_rewrite("www.cbc.ca.securedrop.tor.onion")
    assert base == "www.cbc.ca"
    assert onion is None


def test_securedrop_rewrite_invalid_param_fails_closed():
    with pytest.raises(InvalidOnionComponent):
        securedrop_rewrite("www.cbc.ca.securedrop.tor.onion", "not-an-onion")


def test_never_not_a_sata_when_an_onion_component_is_present():
    """Anywhere the parser looks, an onion-shaped component either parses or
    fails closed; it never downgrades to the legacy NotASata signal."""
    rng = random.Random(99)
    for _ in range(30):
        label = keygen(rng.randbytes(32)).address.label
        mutated = ("x" if label[5] != "x" else "y").join([label[:5], label[6:]])
        candidates = [
            f"https://site.example/?onion={label}",
            f"https://{label}onion.site.example/",
            f"https://site.example/?onion={mutated}",
            f"https://{mutated}onion.site.example/",
        ]
        for url in candidates:
            try:
                parse_sata(url)
            except InvalidOnionComponent:
                pass  # fail closed is the required behavior for broken labels
            except NotASata:  # pragma: no cover - forbidden downgrade
                pytest.fail(f"NotASata for onion-bearing URL {url!r}")


@pytest.mark.parametrize(
    "domain", ["a..example", "", "-bank.example", "x" * 64 + ".example", 5, None, b"bank.example"]
)
def test_bad_domain_is_a_sata_error_and_a_value_error(domain):
    with pytest.raises(BadDomain) as raised:
        normalize_domain(domain)
    assert isinstance(raised.value, SataError) and isinstance(raised.value, ValueError)


def test_sata_and_binding_reject_bad_domains_with_sata_errors():
    onion = keygen(b"\x11" * 32).address
    with pytest.raises(SataError):
        Sata(domain="a..example", onion=onion)
    with pytest.raises(SataError):
        Binding(
            domain=5,
            onion=onion,
            issued=date(2020, 8, 1),
            refreshed_on=date(2020, 8, 1),
        )


def test_bad_domains_keep_their_translations():
    """Callers that turn a malformed domain into their own error still do."""
    label = keygen(b"\x12" * 32).address.label
    with pytest.raises(InvalidOnionComponent):
        parse_sata(f"https://{label}onion.a..example/")
    with pytest.raises(NotSecureDropName):
        securedrop_rewrite("a..b.securedrop.tor.onion")


@pytest.mark.parametrize(
    "value", ["https://[zz]/?onion=abc", "https://[::1/", "[zz]", 5, None, b"https://x.example/"]
)
def test_text_that_is_no_url_raises_bad_domain(value):
    """A malformed bracketed host, or a value that is not a string, is a
    :class:`BadDomain`, which is a ``SataError`` and a ``ValueError``."""
    with pytest.raises(BadDomain) as raised:
        parse_sata(value)
    assert isinstance(raised.value, SataError) and isinstance(raised.value, ValueError)


_URL_PARTS = st.sampled_from(
    [
        "https://", "http://", "://", "[", "]", "::1", "zz", "/", "?", "#", "@", ":", ":99",
        "&", "=", "onion=", "onion", ".", "..", "-", "%", "%41", " ", "\t", "\n", "\x00",
        "site.example", "\uff0f", "\u2100", "\u0130", SELFAUTH_LABEL, "a" * 56,
    ]
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.text(), st.lists(st.one_of(_URL_PARTS, st.text(max_size=3))).map("".join)))
def test_any_text_ends_in_a_sata_or_a_sata_error(text):
    try:
        got = parse_sata(text)
    except SataError:
        return
    assert isinstance(got, Sata)
