from __future__ import annotations

import base64
import hashlib
import random

import pytest

from satakit import encode_onion, keygen, parse_onion, sign, verify
from satakit.errors import (
    BadAlphabet,
    BadChecksum,
    BadLength,
    BadVersion,
    KeyMismatch,
    MalformedSignature,
    SataError,
)
from satakit.onion import BASE32_ALPHABET, KeyPair

from oracles import (
    FACEBOOK_LABEL,
    PAPER_ADDRESSES,
    RFC8032_VECTOR_1,
    SELFAUTH_LABEL,
    ZERO_PUBKEY_LABEL,
    oracle_onion_label,
    oracle_onion_valid,
)


def test_parse_facebook_address():
    addr = parse_onion(FACEBOOK_LABEL)
    assert addr.label == FACEBOOK_LABEL
    assert addr.version == 3
    assert len(addr.pubkey) == 32
    assert encode_onion(addr.pubkey) == FACEBOOK_LABEL


def test_parse_selfauth_address():
    addr = parse_onion(SELFAUTH_LABEL)
    assert len(addr.label) == 56


def test_parse_accepts_onion_suffix_and_uppercase():
    addr = parse_onion(FACEBOOK_LABEL.upper() + ".ONION")
    assert addr.label == FACEBOOK_LABEL


def test_parse_too_short():
    with pytest.raises(BadLength) as err:
        parse_onion("abc")
    assert err.value.length == 3


def test_parse_bad_alphabet_reports_position():
    label = FACEBOOK_LABEL[:10] + "1" + FACEBOOK_LABEL[11:]
    with pytest.raises(BadAlphabet) as err:
        parse_onion(label)
    assert err.value.position == 10


def test_parse_bad_checksum():
    pubkey = bytes(32)
    raw = pubkey + b"\xff\xff" + b"\x03"
    label = base64.b32encode(raw).decode().lower()
    with pytest.raises(BadChecksum):
        parse_onion(label)


def test_parse_rejects_wrong_version_even_with_consistent_checksum():
    pubkey = bytes(range(32))
    checksum = hashlib.sha3_256(b".onion checksum" + pubkey + b"\x02").digest()[:2]
    label = base64.b32encode(pubkey + checksum + b"\x02").decode().lower()
    with pytest.raises(BadVersion) as err:
        parse_onion(label)
    assert err.value.version == 2


def test_encode_zero_pubkey_matches_oracle():
    assert encode_onion(bytes(32)) == ZERO_PUBKEY_LABEL


def test_encode_distinct_pubkeys_distinct_labels():
    assert encode_onion(bytes(32)) != encode_onion(b"\x01" + bytes(31))


def test_encode_rejects_wrong_length():
    with pytest.raises(BadLength):
        encode_onion(b"\x00" * 31)


def test_roundtrip_random_pubkeys():
    rng = random.Random(0x5A7A)
    for _ in range(1000):
        pubkey = rng.randbytes(32)
        addr = parse_onion(encode_onion(pubkey))
        assert addr.pubkey == pubkey


def test_checksum_sensitivity_single_substitution_each_position():
    for pos in range(56):
        original = FACEBOOK_LABEL[pos]
        replacement = BASE32_ALPHABET[
            (BASE32_ALPHABET.index(original) + 1) % len(BASE32_ALPHABET)
        ]
        mutated = FACEBOOK_LABEL[:pos] + replacement + FACEBOOK_LABEL[pos + 1 :]
        with pytest.raises((BadChecksum, BadAlphabet, BadVersion)):
            parse_onion(mutated)


def test_paper_addresses_against_oracle():
    """Checksum validity per printed string is recorded, not assumed."""
    for name, info in PAPER_ADDRESSES.items():
        printed = info["printed"]
        assert len(printed) == info["printed_length"]
        if info["printed_length"] == 56:
            assert oracle_onion_valid(printed) == info["checksum_ok"]
        if info["checksum_ok"]:
            addr = parse_onion(printed)
            assert addr.label == printed
        elif info["printed_length"] != 56:
            with pytest.raises(BadLength):
                parse_onion(printed)
        if "repaired" in info:
            assert oracle_onion_valid(info["repaired"]) == info["repaired_checksum_ok"]
            assert parse_onion(info["repaired"]).label == info["repaired"]


def test_encode_agrees_with_oracle_on_random_keys():
    rng = random.Random(1)
    for _ in range(50):
        pubkey = rng.randbytes(32)
        assert encode_onion(pubkey) == oracle_onion_label(pubkey)


def test_keygen_deterministic_and_distinct():
    a = keygen(bytes(32))
    b = keygen(bytes(32))
    c = keygen(b"\x01" + bytes(31))
    assert a == b
    assert a.public != c.public


def test_keygen_zero_seed_matches_reference_derivation():
    pair = keygen(bytes(32))
    assert pair.public.hex() == (
        "3b6a27bcceb6a42d62a3a8d02a6f0d73653215771de243a63ac048a18b59da29"
    )


def test_keygen_rejects_short_seed():
    with pytest.raises(BadLength):
        keygen(b"\x00" * 16)


def test_keypair_rejects_a_public_key_the_seed_does_not_derive():
    seed, other = b"\x03" * 32, keygen(b"\x04" * 32).public
    with pytest.raises(KeyMismatch) as raised:
        KeyPair(secret=seed, public=other)
    assert isinstance(raised.value, SataError) and not isinstance(raised.value, KeyError)
    assert KeyPair(secret=seed, public=keygen(seed).public) == keygen(seed)


def test_sign_verify_roundtrip():
    pair = keygen(b"\x07" * 32)
    message = b"attested bytes"
    signature = sign(pair, message)
    assert verify(pair.public, message, signature)
    other = keygen(b"\x08" * 32)
    assert not verify(other.public, message, signature)


def test_single_bit_flip_breaks_verification():
    pair = keygen(b"\x07" * 32)
    message = b"attested bytes"
    signature = sign(pair, message)
    flipped_sig = bytes([signature[0] ^ 1]) + signature[1:]
    assert not verify(pair.public, message, flipped_sig)
    flipped_msg = bytes([message[0] ^ 1]) + message[1:]
    assert not verify(pair.public, flipped_msg, signature)


def test_rfc8032_vector_1():
    vec = RFC8032_VECTOR_1
    pair = keygen(bytes.fromhex(vec["seed"]))
    assert pair.public.hex() == vec["public"]
    signature = sign(pair, vec["message"])
    assert signature.hex() == vec["signature"]
    assert verify(pair.public, vec["message"], signature)


def test_verify_rejects_malformed_signature_length():
    pair = keygen(b"\x07" * 32)
    with pytest.raises(MalformedSignature):
        verify(pair.public, b"m", b"\x00" * 63)
