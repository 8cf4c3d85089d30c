"""Independent oracles and the expected values frozen from them.

Everything in this module but the last section was computed before (and
apart from) the main implementation, using only the standard library, so
tests can check the package against a second, independently written
route.  The last two sections keep former query paths as differential
oracles, and only they import from satakit: the trust engine's exhaustive
path search, which the breadth-first search replaced, for the exact chain
chosen; and the rotation and alt-svc checks as they were before they read
the pool index.
"""

from __future__ import annotations

import base64
import hashlib

# ---------------------------------------------------------------------------
# Onion label oracle: base32(pubkey || SHA3-256(".onion checksum" ||
# pubkey || version)[0..2] || version), version byte 0x03.


def oracle_onion_label(pubkey: bytes) -> str:
    checksum = hashlib.sha3_256(b".onion checksum" + pubkey + b"\x03").digest()[:2]
    return base64.b32encode(pubkey + checksum + b"\x03").decode("ascii").lower()


def oracle_onion_valid(label: str) -> bool:
    """Whether a 56-char label passes the v3 checksum and version rules."""
    label = label.lower()
    if len(label) != 56 or any(c not in "abcdefghijklmnopqrstuvwxyz234567" for c in label):
        return False
    raw = base64.b32decode(label.upper())
    pubkey, checksum, version = raw[:32], raw[32:34], raw[34]
    derived = hashlib.sha3_256(
        b".onion checksum" + pubkey + bytes([version])
    ).digest()[:2]
    return checksum == derived and version == 3


# Frozen oracle outputs -------------------------------------------------------

# base32 of 32 zero bytes plus derived checksum/version.
ZERO_PUBKEY_LABEL = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaam2dqd"

# The four onion addresses printed in the source material, concatenated
# across their line breaks exactly as printed, with the oracle's verdicts
# recorded (not assumed).  The CBC SecureDrop address is 57 characters as
# printed, which cannot be a valid label; removing the spurious 'a' at
# index 47 is the unique single-character deletion that satisfies the
# checksum, so that repaired form is recorded alongside.
PAPER_ADDRESSES = {
    "facebook": {
        "printed": "facebookwkhpilnemxj7asaniu7vnjjbiltxjqhye3mhbshg7kx5tfyd",
        "printed_length": 56,
        "checksum_ok": True,
    },
    "selfauth": {
        "printed": "ixxuq4b4bsr3aggbokovydiiys7rolq4ewqjva67qfpmp3y55jsxi5yd",
        "printed_length": 56,
        "checksum_ok": True,
    },
    "qubes": {
        "printed": "sik5nlgfc5qylnnsr57qrbm64zbdx6t4lreyhpon3ychmxmiem7tioad",
        "printed_length": 56,
        "checksum_ok": True,
    },
    "cbc_securedrop": {
        "printed": "gppg43zz5d2yfuom3yfmxnnokn3zj4mekt55onlng3zs653aty4fio6qd",
        "printed_length": 57,
        "checksum_ok": False,
        "repaired": "gppg43zz5d2yfuom3yfmxnnokn3zj4mekt55onlng3zs653ty4fio6qd",
        "repaired_checksum_ok": True,
    },
}

SELFAUTH_LABEL = PAPER_ADDRESSES["selfauth"]["printed"]
FACEBOOK_LABEL = PAPER_ADDRESSES["facebook"]["printed"]
CBC_LABEL = PAPER_ADDRESSES["cbc_securedrop"]["repaired"]

# RFC 8032 ed25519 test vector 1 (empty message).
RFC8032_VECTOR_1 = {
    "seed": "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
    "public": "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
    "message": b"",
    "signature": (
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
        "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
    ),
}

# FIPS 180-2 SHA-256 test vector for the three-byte message "abc".
SHA256_ABC = "BA7816BF8F01CFEA414140DE5DAE2223B00361A396177A9CB410FF61F20015AD"


# ---------------------------------------------------------------------------
# Trust chain oracle: exhaustive enumeration of label-respecting paths.
#
# Works over plain tuples so it shares no machinery with the engine under
# test.  A link is (issuer_identity, bound_identity, labels); identities
# are any hashable values.  Grammar: the first link must be issued by a
# root and carry a label the root is trusted for; a "sattestor(X)" label
# hands {X, "sattestor(X)"} authority to the bound identity for the next
# link; a chain completes when a link carries the queried label and binds
# the subject.  Chains use at most max_depth links.


def _oracle_scope(label: str) -> str | None:
    if label.startswith("sattestor(") and label.endswith(")") and len(label) > 11:
        return label[10:-1]
    return None


def oracle_trusted(roots, links, subject, label, max_depth) -> bool:
    found = False

    def extend(issuer, allowed, used):
        nonlocal found
        if found or used >= max_depth:
            return
        for iss, bound, labels in links:
            if iss != issuer:
                continue
            for lab in labels:
                if lab not in allowed:
                    continue
                if lab == label and bound == subject:
                    found = True
                    return
                scope = _oracle_scope(lab)
                if scope is not None:
                    extend(bound, {scope, f"sattestor({scope})"}, used + 1)
                    if found:
                        return

    for root_identity, root_labels in roots:
        extend(root_identity, set(root_labels), 0)
        if found:
            break
    return found


# ---------------------------------------------------------------------------
# Exhaustive chain search: the engine's former ``evaluate``, kept as it was,
# over its own filter of usable links.
#
# It lists every label-respecting path, depth by depth, and keeps no
# visited set, so its work grows as fan-out^depth.  At the first depth with
# a complete chain it returns the smallest by step-key tuple; ``min`` keeps
# the first generated on ties.  The breadth-first search in satakit.trust
# must return exactly this chain.  Its filter of usable links shares
# nothing with the engine's: it checks each signature with
# ``satakit.onion.verify``, and the structural and freshness rules itself.

from satakit.credential import canonical_bytes  # noqa: E402
from satakit.errors import UnrepresentableField  # noqa: E402
from satakit.onion import verify  # noqa: E402
from satakit.trust import ChainLink, TrustChain  # noqa: E402


def oracle_well_formed(cred) -> bool:
    """Version 1; cert fingerprints on the one binding of a
    self-sattestation and on no other binding."""
    if cred.version != 1:
        return False
    bindings = cred.sattestees
    is_self = len(bindings) == 1 and (
        (bindings[0].domain, bindings[0].onion.label)
        == (cred.sattestor_domain, cred.sattestor_onion.label)
    )
    if is_self != bool(bindings[0].cert_fingerprints):
        return False
    return not any(b.cert_fingerprints for b in bindings[1:])


def _oracle_sound(cred) -> bool:
    """Well formed, with canonical bytes and a valid signature over them."""
    if not oracle_well_formed(cred):
        return False
    try:
        message = canonical_bytes(cred)
    except UnrepresentableField:
        return False
    return verify(cred.sattestor_onion.pubkey, message, cred.signature)


def oracle_sound(credentials):
    """The credentials that verify, sorted by (sattestor domain, sattestor
    onion, canonical bytes)."""
    return sorted(
        (cred for cred in credentials if _oracle_sound(cred)),
        key=lambda c: (c.sattestor_domain, c.sattestor_onion.label, canonical_bytes(c)),
    )


def oracle_links(sound, now):
    """(credential, binding index) pairs of ``sound`` fresh at ``now``."""
    return [
        (cred, idx)
        for cred in sound
        for idx, b in enumerate(cred.sattestees)
        if abs((now - b.refreshed_on).days) < cred.refresh_rate_days
    ]


def _identity_of_credential(cred) -> tuple[str, str]:
    return (cred.sattestor_domain, cred.sattestor_onion.label)


def exhaustive_evaluate(policy, links, subject, label):
    """The chain for (subject, label) over ``links`` from :func:`oracle_links`."""
    by_issuer = {}
    for cred, idx in links:
        by_issuer.setdefault(_identity_of_credential(cred), []).append((cred, idx))

    # merge roots sharing an identity so their label sets union
    allowed_at_root = {}
    for root in policy.roots:
        allowed_at_root.setdefault(
            (root.sattestor.domain, root.sattestor.onion.label), set()
        ).update(root.trusted_labels)

    # frontier entries: (sort_key, chain links, issuer identity, allowed labels)
    frontier = [
        ((), (), ident, frozenset(allowed))
        for ident, allowed in sorted(allowed_at_root.items())
    ]
    for _depth in range(policy.max_chain_depth):
        complete = []
        next_frontier = []
        for key, chain, issuer, allowed in frontier:
            for cred, idx in by_issuer.get(issuer, ()):
                binding = cred.sattestees[idx]
                for lab in binding.labels:
                    if lab not in allowed:
                        continue
                    step_key = key + (
                        (cred.sattestor_domain, cred.sattestor_onion.label, idx, lab),
                    )
                    link = ChainLink(cred, idx, lab)
                    if lab == label and binding.binds(subject.domain, subject.onion):
                        complete.append((step_key, chain + (link,)))
                    scope = _oracle_scope(lab)
                    if scope is not None:
                        next_allowed = frozenset({scope, f"sattestor({scope})"})
                        next_issuer = (binding.domain, binding.onion.label)
                        next_frontier.append(
                            (step_key, chain + (link,), next_issuer, next_allowed)
                        )
        if complete:
            _, best = min(complete, key=lambda item: item[0])
            return TrustChain(links=best, subject=subject, label=label)
        frontier = next_frontier
    return None


# ---------------------------------------------------------------------------
# Rotation and alt-svc checks over the whole pool, as they were before
# they read the pool index.

import satakit.validation as validation_module  # noqa: E402
from satakit.credential import Sattestation  # noqa: E402
from satakit.onion import parse_onion  # noqa: E402
from satakit.sata import Sata  # noqa: E402
from satakit.errors import OnionAddressError  # noqa: E402
from satakit.validation import AltSvcDecision  # noqa: E402


def rotation_over_links(old, new, links):
    """The former ``rotation_check``, over (credential, binding index)
    pairs that verify and are fresh: (ok, missing directions)."""

    def attests(issuer, target):
        return any(
            _identity_of_credential(cred) == (issuer.domain, issuer.onion.label)
            and cred.sattestees[idx].binds(target.domain, target.onion)
            for cred, idx in links
        )

    missing = [name for name, (a, b) in (("old-to-new", (old, new)), ("new-to-old", (new, old)))
               if not attests(a, b)]
    return (not missing, tuple(missing))


def alt_svc_every_credential(origin, alt_host, credentials, policy=None, *, now):
    """``validate_alt_svc`` as it was before it skipped other sattestors:
    the served-header check runs on every credential of the pool.  A SATA
    origin blocks every onion other than its own."""
    if policy is not None and not policy.allow_credentialed_alt_services:
        return AltSvcDecision.BLOCK
    origin_domain = validation_module._origin_domain(origin)
    host = alt_host.strip().lower()
    if host.endswith("."):  # one root dot: RFC 1034's absolute form of the same name
        host = host[:-1]
    if not host.endswith(".onion"):
        return AltSvcDecision.BLOCK
    try:
        alt_onion = parse_onion(host)
    except OnionAddressError:
        return AltSvcDecision.BLOCK
    if isinstance(origin, Sata) and alt_onion.label != origin.onion.label:
        return AltSvcDecision.BLOCK
    for cred in credentials:
        if not isinstance(cred, Sattestation):
            continue
        if validation_module._self_sattestation_fault(cred, origin_domain, alt_onion, now) is None:
            return AltSvcDecision.ALLOW
    return AltSvcDecision.BLOCK
