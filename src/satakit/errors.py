"""Exception hierarchy shared across the toolkit.

Every failure mode callers may want to distinguish gets its own class.
All of them derive from :class:`SataError` so blanket handling stays easy.
"""

from __future__ import annotations


class SataError(Exception):
    """Base class for every error raised by this package."""


class OnionAddressError(SataError):
    """Base class for v3 onion address decoding failures."""


class BadLength(OnionAddressError):
    def __init__(self, message: str, length: int | None = None):
        super().__init__(message)
        self.length = length


class BadAlphabet(OnionAddressError):
    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class BadVersion(OnionAddressError):
    def __init__(self, message: str, version: int | None = None):
        super().__init__(message)
        self.version = version


class BadChecksum(OnionAddressError):
    pass


class MalformedSignature(SataError):
    """Signature input is not 64 bytes (or not valid hex in transport form)."""


class NotASata(SataError):
    """The input carries no onion component at all.

    A signal rather than a hard failure: callers treat such addresses as
    legacy, non-self-authenticating ones.
    """


class InvalidOnionComponent(SataError):
    """An onion-looking component is present but fails validation.

    Hard error; parsers fail closed rather than degrade to a legacy address.
    """


class NotSecureDropName(SataError):
    """Hostname does not end in the SecureDrop rewrite suffix."""


class BadDomain(SataError, ValueError):
    """A domain name that is not a string or breaks DNS name syntax.

    Also a ``ValueError``, which callers that translate a bad domain into
    their own error class catch.
    """


class UnrepresentableField(SataError):
    """A credential field cannot be canonically serialized (or parsed)."""


class KeyMismatch(SataError):
    """The signing key does not match the identity it is supposed to speak for."""


class BadSignature(SataError):
    """Credential signature does not verify over the canonical bytes."""


class StructuralViolation(SataError):
    """A credential violates a structural invariant; message names it."""


class TooLarge(SataError):
    def __init__(self, message: str, size: int | None = None):
        super().__init__(message)
        self.size = size


class NoFingerprints(SataError):
    """A self-sattestation requires at least one certificate fingerprint."""


class Stale(SataError):
    """Credential is outside its refresh window.

    ``margin_days`` is how far past the (strict) freshness bound the
    reference date is; 0.0 means it missed exactly on the boundary.
    """

    def __init__(self, message: str, margin_days: float = 0.0):
        super().__init__(message)
        self.margin_days = margin_days


class NoSuchBinding(SataError, IndexError):
    """A binding index outside the credential's binding list."""


class EmptyInput(SataError):
    pass


class DomainMismatch(SataError):
    """Rotation endpoints must share the same registered domain."""


class UnknownHost(SataError):
    """Simulated visit to a hostname with no site record."""


class InconsistentWorld(SataError, ValueError):
    """A simulated world that contradicts itself: a certificate that does
    not fingerprint to its own DER bytes, or an attacker serving what its
    capabilities do not allow.

    Also a ``ValueError``, which callers that catch a bad world as one
    still catch.
    """
