from __future__ import annotations

import base64
import hashlib
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satakit import encode_onion, keygen, parse_onion, sign, verify
from satakit.errors import (
    BadAlphabet,
    BadChecksum,
    BadLength,
    BadVersion,
    KeyMismatch,
    MalformedSignature,
    OnionAddressError,
    SataError,
)
from satakit.onion import (
    BASE32_ALPHABET, PARSE_MEMO_SIZE, VERIFY_MEMO_SIZE, KeyPair, OnionAddress, _decode,
    _verified, address_for,
)

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


@pytest.mark.parametrize("version", [-1, 256, 300, 2**70])
def test_a_version_that_fits_in_no_byte_raises_bad_version(version):
    """Checked before the checksum, which is derived over the version byte."""
    addr = address_for(bytes(range(32)))
    with pytest.raises(BadVersion) as err:
        OnionAddress(addr.pubkey, addr.checksum, version, addr.label)
    assert err.value.version == version


def test_a_flipped_version_character_is_still_a_bad_checksum():
    label = encode_onion(bytes(range(32)))
    assert label[-1] == "d"  # the low five bits of version 3
    with pytest.raises(BadChecksum):
        parse_onion(label[:-1] + "e")  # version 4, checksummed as version 3


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


# -- the parse memo ------------------------------------------------------------


def _outcome(text):
    """What ``parse_onion(text)`` gives: the address, or the error's class and text."""
    try:
        return parse_onion(text)
    except OnionAddressError as exc:
        return type(exc), str(exc)


_NOT_BASE32 = "0189-._é"


@st.composite
def _label_inputs(draw):
    """(input text, the bare label inside it): a valid label, perhaps mutated
    by one character, then perhaps recased, suffixed and padded."""
    bare = oracle_onion_label(draw(st.binary(min_size=32, max_size=32)))
    pos = draw(st.integers(0, len(bare) - 1))
    char = draw(st.sampled_from(BASE32_ALPHABET + _NOT_BASE32))
    bare = draw(
        st.sampled_from(
            [
                bare,
                bare[:pos] + char + bare[pos + 1 :],  # substitution
                bare[:pos] + bare[pos + 1 :],  # deletion
                bare[:pos] + char + bare[pos:],  # insertion
            ]
        )
    )
    text = draw(st.sampled_from([bare, bare.upper(), bare.swapcase().title()]))
    text += draw(st.sampled_from(["", ".onion", ".ONION"]))
    pad = draw(st.sampled_from(["", " ", "\t", "\n "]))
    return pad + text + pad[::-1], bare


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_label_inputs())
def test_parse_agrees_with_oracle_and_repeats_itself(case):
    text, bare = case
    first, second = _outcome(text), _outcome(text)
    if oracle_onion_valid(bare):
        assert second is first  # the memo's instance
        assert first.label == bare.lower() == oracle_onion_label(first.pubkey)
    else:
        assert isinstance(first, tuple), first
        assert second == first  # same class, same text: errors are never kept


def _distinct_labels(count, seed):
    rng = random.Random(seed)
    return [encode_onion(rng.randbytes(32)) for _ in range(count)]


def test_memo_holds_at_most_its_bound():
    assert _decode.cache_info().maxsize == PARSE_MEMO_SIZE == 4096
    _decode.cache_clear()
    labels = _distinct_labels(PARSE_MEMO_SIZE + 200, seed=12)
    for label in labels:
        parse_onion(label)
    info = _decode.cache_info()
    assert info.misses == len(labels)
    assert info.currsize == PARSE_MEMO_SIZE
    parse_onion(labels[-1])  # recently used: kept
    parse_onion(labels[0])  # least recently used: dropped, decoded again
    assert _decode.cache_info().misses == len(labels) + 1


def test_invalid_labels_are_never_kept():
    pubkey = bytes(range(32))
    checksum = hashlib.sha3_256(b".onion checksum" + pubkey + b"\x02").digest()[:2]
    invalid = [
        "abc",
        FACEBOOK_LABEL[:10] + "1" + FACEBOOK_LABEL[11:],
        "a" * 56,
        base64.b32encode(pubkey + checksum + b"\x02").decode().lower(),
    ]
    _decode.cache_clear()
    for label in invalid * 2:
        with pytest.raises(OnionAddressError):
            parse_onion(label)
    info = _decode.cache_info()
    assert info.currsize == 0 and info.hits == 0 and info.misses == 2 * len(invalid)


@pytest.mark.parametrize("value", [5, None, b"abc", FACEBOOK_LABEL.encode(), [FACEBOOK_LABEL]])
def test_parse_rejects_a_non_string_before_the_memo(value):
    before = _decode.cache_info()
    with pytest.raises(BadAlphabet, match="must be a string"):
        parse_onion(value)
    after = _decode.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_threads_parsing_one_label_list_agree():
    labels = _distinct_labels(300, seed=13)
    labels += [label.upper() + ".onion" for label in labels[:50]]
    labels += ["a" * 56, "abc", labels[0][:-1] + "1"]
    expected = [_outcome(label) for label in labels]

    def parse_all(order_seed):
        order = list(range(len(labels)))
        random.Random(order_seed).shuffle(order)
        got = [None] * len(labels)
        for _ in range(3):
            for i in order:
                got[i] = _outcome(labels[i])
        return got

    _decode.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(parse_all, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 4 and all(r == expected for r in results)
    assert _decode.cache_info().currsize == sum(not isinstance(o, tuple) for o in expected)


# -- the verify memo -----------------------------------------------------------


def _checked(pubkey, message, signature):
    """What ``verify`` gives for the triple: its verdict, or the error's class."""
    try:
        return verify(pubkey, message, signature)
    except Exception as exc:
        return type(exc)


def _oracle_checked(pubkey, message, signature):
    """cryptography's own verdict on the triple, with no memo in between."""
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric import ed25519

    try:
        ed25519.Ed25519PublicKey.from_public_bytes(pubkey).verify(signature, message)
    except InvalidSignature:
        return False
    except Exception as exc:
        return type(exc)
    return True


def _byte_changed(data: bytes, pos: int, mask: int) -> bytes:
    return data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1 :]


_SIGNERS = [keygen(bytes([0x60 + i]) * 32) for i in range(3)]


@st.composite
def _verified_then_checked(draw):
    """(valid, checked): a triple that verifies, and the triple checked after
    it: the same one, one of its parts with one byte changed, or random bytes."""
    pair = draw(st.sampled_from(_SIGNERS))
    message = draw(st.binary(min_size=1, max_size=300))
    valid = (pair.public, message, sign(pair, message))
    change = draw(st.sampled_from(["none", "pubkey", "message", "signature", "random"]))
    if change == "none":
        return valid, valid
    if change == "random":
        return valid, (
            draw(st.binary(min_size=32, max_size=32)),
            draw(st.binary(max_size=300)),
            draw(st.binary(min_size=64, max_size=64)),
        )
    part = ("pubkey", "message", "signature").index(change)
    data = valid[part]
    pos = draw(st.integers(0, len(data) - 1))
    changed = list(valid)
    changed[part] = _byte_changed(data, pos, draw(st.integers(1, 255)))
    return valid, tuple(changed)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_verified_then_checked())
def test_verify_agrees_with_cryptography_once_the_valid_triple_is_kept(case):
    valid, checked = case
    assert verify(*valid) is True  # now in the memo
    expected = _oracle_checked(*checked)
    assert _checked(*checked) == expected
    assert _checked(*checked) == expected  # and again, memo or not
    assert verify(*valid) is True


def test_triples_that_do_not_verify_are_never_kept(ed25519_verifications):
    pair, other = keygen(b"\x09" * 32), keygen(b"\x0a" * 32)
    message = b"attested bytes"
    signature = sign(pair, message)
    invalid = [
        (other.public, message, signature),
        (pair.public, _byte_changed(message, 3, 0x20), signature),
        (pair.public, message, _byte_changed(signature, 40, 0x01)),
        (pair.public, message, bytes(64)),
    ]
    _verified.clear()
    for triple in invalid * 2:
        assert verify(*triple) is False
    assert len(_verified) == 0
    assert len(ed25519_verifications) == 2 * len(invalid)  # each checked afresh
    with pytest.raises(MalformedSignature):
        verify(pair.public, message, signature[:63])
    assert len(ed25519_verifications) == 2 * len(invalid)  # refused before the memo
    assert verify(pair.public, message, signature) and verify(pair.public, message, signature)
    assert len(_verified) == 1
    assert len(ed25519_verifications) == 2 * len(invalid) + 1


def test_verify_memo_holds_at_most_its_bound(ed25519_verifications):
    assert VERIFY_MEMO_SIZE == 4096
    pair = keygen(b"\x0b" * 32)
    messages = [i.to_bytes(4, "big") for i in range(VERIFY_MEMO_SIZE + 200)]
    triples = [(pair.public, m, sign(pair, m)) for m in messages]
    _verified.clear()
    for triple in triples:
        assert verify(*triple)
    assert len(_verified) == VERIFY_MEMO_SIZE
    assert len(ed25519_verifications) == len(triples)
    oldest_kept = 200
    assert verify(*triples[oldest_kept])  # a hit, and now the most recently used
    assert len(ed25519_verifications) == len(triples)
    assert verify(*triples[0])  # dropped: verified again, dropping the next oldest
    assert len(ed25519_verifications) == len(triples) + 1
    assert verify(*triples[oldest_kept])  # kept, as it was used
    assert len(ed25519_verifications) == len(triples) + 1
    assert verify(*triples[oldest_kept + 1])  # dropped for triples[0]
    assert len(ed25519_verifications) == len(triples) + 2
    assert len(_verified) == VERIFY_MEMO_SIZE


def test_threads_verifying_shared_and_distinct_triples_agree():
    pairs = [keygen(bytes([0x70 + i]) * 32) for i in range(4)]

    def triples(tag: str) -> list[tuple]:
        made = []
        for i, pair in enumerate(pairs):
            message = f"{tag}-{i}".encode()
            signature = sign(pair, message)
            made.append((pair.public, message, signature))
            made.append((pair.public, message, _byte_changed(signature, i, 0x80)))
            made.append((pairs[i - 1].public, message, signature))
        return made

    shared = triples("shared")
    own = [triples(f"worker-{worker}") for worker in range(4)]
    everything = shared + [t for worker in own for t in worker]
    expected = {t: _oracle_checked(*t) for t in everything}

    def verify_all(worker):
        order = shared + own[worker]
        random.Random(worker).shuffle(order)
        return [(t, _checked(*t)) for _ in range(3) for t in order]

    _verified.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(verify_all, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 4
    assert all(got == expected[t] for result in results for t, got in result)
    assert len(_verified) == sum(verdict is True for verdict in expected.values())


def test_keypair_derives_its_address_on_first_use_and_keeps_it():
    pair = keygen(b"\x05" * 32)
    assert "address" not in vars(pair)  # not derived when the key is built
    address = pair.address
    assert address == address_for(pair.public)
    assert pair.address is address
    assert pair == keygen(b"\x05" * 32)  # the kept address is no field
