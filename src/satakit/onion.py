"""v3 onion address encoding/decoding and the ed25519 operations used elsewhere.

An onion address label is::

    label = base32(PUBKEY | CHECKSUM | VERSION)          # 56 chars, lowercase
    CHECKSUM = SHA3-256(".onion checksum" | PUBKEY | VERSION)[:2]

where PUBKEY is a 32-byte ed25519 public key and VERSION is the single
byte 0x03.  A label authenticates its address because it re-encodes from
its own public key; :class:`OnionAddress` construction is the one place
that is checked.  All values are immutable after construction.

A process decodes each label once: :func:`parse_onion` keeps the
addresses it returns in a memo keyed by the input string, bounded at
:data:`PARSE_MEMO_SIZE` entries with the least recently used dropped
first.  Sharing one :class:`OnionAddress` between callers is safe because
it is immutable; an invalid label is never kept, so it raises afresh on every
call.  The memo is :func:`functools.lru_cache`, whose bookkeeping is
thread-safe; two threads that miss on one label at once at worst decode
it twice, to equal values.  Every other operation here is a pure
function, so concurrent use needs no locking.

Only signing and verifying need cryptography's ed25519 code, and with it
its OpenSSL bindings.  The first :class:`KeyPair` or :func:`verify` call
loads it and binds its names as globals of this module, so later calls
pay no import; a process that only parses and encodes addresses, such
as ``satakit onion parse`` or ``satakit sata parse``, never loads it.
"""

from __future__ import annotations

import base64
import hashlib
import os
from functools import cached_property, lru_cache

from ._value import Value, set_field
from .errors import (
    BadAlphabet,
    BadChecksum,
    BadLength,
    BadVersion,
    KeyMismatch,
    MalformedSignature,
    OnionAddressError,
)

ONION_SUFFIX = ".onion"
LABEL_LENGTH = 56
ONION_VERSION = 3
CHECKSUM_PREFIX = b".onion checksum"
BASE32_ALPHABET = "abcdefghijklmnopqrstuvwxyz234567"
PARSE_MEMO_SIZE = 4096  # labels parse_onion keeps decoded, about 400 bytes each

_ALPHABET_SET = frozenset(BASE32_ALPHABET)
_ed25519_loaded = False


def _load_ed25519() -> None:
    """Bind cryptography's ed25519 names as globals of this module."""
    global _ed25519_loaded, Ed25519PrivateKey, Ed25519PublicKey, InvalidSignature
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric.ed25519 import (
        Ed25519PrivateKey,
        Ed25519PublicKey,
    )

    _ed25519_loaded = True


def __getattr__(name: str):
    """An ed25519 name read from outside before first use, such as by a
    test that patches it, is loaded then."""
    if name not in ("Ed25519PrivateKey", "Ed25519PublicKey", "InvalidSignature"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_ed25519()
    return globals()[name]


def _checksum(pubkey: bytes, version: int = ONION_VERSION) -> bytes:
    return hashlib.sha3_256(CHECKSUM_PREFIX + pubkey + bytes([version])).digest()[:2]


def _label(pubkey: bytes, checksum: bytes, version: int) -> str:
    return base64.b32encode(pubkey + checksum + bytes([version])).decode("ascii").lower()


class OnionAddress(Value):
    """Decoded v3 onion identity.

    ``label`` is the bare 56-character lowercase form; the ``.onion``
    suffix is never stored.  Construction checks, in order, the public
    key length, that the version fits in a byte, the checksum over that
    byte, the version, and that the label re-encodes from those fields, so
    an inconsistent instance cannot exist.  A wrong-typed field raises
    :class:`OnionAddressError`.
    """

    _type_error = OnionAddressError

    pubkey: bytes
    checksum: bytes
    version: int
    label: str

    def _check(self) -> None:
        pubkey, checksum, version = self.pubkey, self.checksum, self.version
        if len(pubkey) != 32:
            raise BadLength(f"pubkey must be 32 bytes, got {len(pubkey)}", len(pubkey))
        if not 0 <= version <= 255:  # no version byte to derive a checksum over
            raise BadVersion(f"unsupported onion address version {version}", version)
        expected = _checksum(pubkey, version)
        if checksum != expected:
            raise BadChecksum(f"checksum {checksum.hex()} does not match derived {expected.hex()}")
        if version != ONION_VERSION:
            raise BadVersion(f"unsupported onion address version {version}", version)
        label = self.label.lower()
        if label != _label(pubkey, checksum, version):
            raise BadChecksum("label does not re-encode from its own public key")
        set_field(self, "label", label)

    @property
    def onion_name(self) -> str:
        """The label with the ``.onion`` suffix, e.g. for SAN comparison."""
        return self.label + ONION_SUFFIX

    def __str__(self) -> str:
        return self.label


class KeyPair(Value):
    """ed25519 keypair; ``secret`` is the 32-byte seed.

    The private key is built from the seed once, here: it derives
    ``public`` when that is omitted, checks it when given, and is kept as
    ``private`` for :func:`sign`, so signing never re-derives it.
    ``private`` is not part of the value, and the repr shows only
    ``public``, so a key pair that reaches a log or a traceback does not
    leak its key.  A wrong-typed field raises :class:`OnionAddressError`.
    """

    _type_error = OnionAddressError

    secret: bytes
    public: bytes | None = None

    def _check(self) -> None:
        if len(self.secret) != 32:
            raise BadLength(f"secret seed must be 32 bytes, got {len(self.secret)}")
        if not _ed25519_loaded:
            _load_ed25519()
        private = Ed25519PrivateKey.from_private_bytes(self.secret)
        derived = private.public_key().public_bytes_raw()
        if self.public is not None and self.public != derived:
            raise KeyMismatch("public key is not derivable from the secret seed")
        set_field(self, "public", derived)
        set_field(self, "private", private)

    def __repr__(self) -> str:
        return f"KeyPair(public={self.public!r})"

    @cached_property
    def address(self) -> OnionAddress:
        """Onion address owned by this keypair, derived on first use and
        then kept: a key that never needs its address never pays for it."""
        return address_for(self.public)


def encode_onion(pubkey: bytes) -> str:
    """Encode a 32-byte ed25519 public key as a 56-character onion label.

    Total over 32-byte inputs; checksum and version byte are computed here.
    """
    if len(pubkey) != 32:
        raise BadLength(f"pubkey must be 32 bytes, got {len(pubkey)}", len(pubkey))
    return _label(pubkey, _checksum(pubkey), ONION_VERSION)


def address_for(pubkey: bytes) -> OnionAddress:
    """OnionAddress for a public key without going through string parsing."""
    checksum = _checksum(pubkey)
    return OnionAddress(
        pubkey=pubkey,
        checksum=checksum,
        version=ONION_VERSION,
        label=_label(pubkey, checksum, ONION_VERSION),
    )


def parse_onion(label: str) -> OnionAddress:
    """Parse and fully validate an onion label.

    Accepts the bare 56-character label or the label with a ``.onion``
    suffix; uppercase input is normalized.  Raises, in check order:

    * :class:`BadAlphabet` the input is not a string,
    * :class:`BadLength`   wrong label length,
    * :class:`BadAlphabet` character outside RFC 4648 lowercase base32
      (position reported),
    * :class:`BadChecksum` embedded checksum does not match the one
      derived from the decoded public key and version byte,
    * :class:`BadVersion`  decoded version byte is not 3.

    The checksum is verified over the *decoded* version byte, so a flip
    inside the version characters surfaces as :class:`BadChecksum`.  These
    last two are :class:`OnionAddress`'s own checks.

    A valid input string is decoded once per process: its address is kept
    in a bounded memo (see the module docstring), and a repeat call
    returns the same immutable instance while the memo holds it.  Errors are
    never kept: an invalid input raises the same class and text on every
    call.
    """
    if not isinstance(label, str):
        raise BadAlphabet(f"onion label must be a string, got {type(label).__name__}")
    return _decode(label)


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def _decode(label: str) -> OnionAddress:
    """:func:`parse_onion` for a string, memoized by that string."""
    text = label.strip().lower()
    if text.endswith(ONION_SUFFIX):
        text = text[: -len(ONION_SUFFIX)]
    if len(text) != LABEL_LENGTH:
        raise BadLength(
            f"onion label must be {LABEL_LENGTH} characters, got {len(text)}", len(text)
        )
    for pos, ch in enumerate(text):
        if ch not in _ALPHABET_SET:
            raise BadAlphabet(
                f"character {ch!r} at position {pos} is not in the base32 alphabet", pos
            )
    raw = base64.b32decode(text.upper())
    assert len(raw) == 35  # 56 base32 chars decode to exactly 35 bytes
    return OnionAddress(pubkey=raw[:32], checksum=raw[32:34], version=raw[34], label=text)


def keygen(seed: bytes | None = None) -> KeyPair:
    """Deterministic ed25519 keypair from a 32-byte seed (random if omitted)."""
    if seed is None:
        seed = os.urandom(32)
    return KeyPair(secret=seed)


def sign(pair: KeyPair, message: bytes) -> bytes:
    """ed25519 signature (64 bytes) over ``message`` with ``pair``'s key."""
    return pair.private.sign(message)


def verify(pubkey: bytes, message: bytes, signature: bytes) -> bool:
    """True iff ``signature`` is a valid ed25519 signature by ``pubkey``.

    Raises :class:`MalformedSignature` for a wrong-length signature rather
    than silently returning False: length errors are caller bugs.
    """
    if len(pubkey) != 32:
        raise BadLength(f"pubkey must be 32 bytes, got {len(pubkey)}")
    if len(signature) != 64:
        raise MalformedSignature(f"signature must be 64 bytes, got {len(signature)}")
    if not _ed25519_loaded:
        _load_ed25519()
    try:
        Ed25519PublicKey.from_public_bytes(pubkey).verify(signature, message)
    except InvalidSignature:
        return False
    return True
