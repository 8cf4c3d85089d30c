"""The benchmark's own encoder for onion labels and sattestation wire bytes.

Expected results are computed here, from the format the paper and the
``satakit.credential`` docstring describe, and never by calling satakit.
A write op passes only when satakit's output equals these bytes exactly;
a read op's header is built here, so a disagreement about the canonical
form shows up as a failed read.
"""

from __future__ import annotations

import base64
import hashlib
import json
from datetime import date

from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

BASE32 = "abcdefghijklmnopqrstuvwxyz234567"


def onion_label(pubkey: bytes) -> str:
    checksum = hashlib.sha3_256(b".onion checksum" + pubkey + b"\x03").digest()[:2]
    return base64.b32encode(pubkey + checksum + b"\x03").decode("ascii").lower()


def label_is_valid(label: str) -> bool:
    if len(label) != 56 or any(c not in BASE32 for c in label):
        return False
    raw = base64.b32decode(label.upper())
    return raw[34] == 3 and onion_label(raw[:32]) == label


class Key:
    """An ed25519 identity: seed, public key and onion label."""

    def __init__(self, seed: bytes):
        self.seed = seed
        self.private = Ed25519PrivateKey.from_private_bytes(seed)
        self.public = self.private.public_key().public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        )
        self.label = onion_label(self.public)


def subdomain_host(label: str, domain: str) -> str:
    return f"{label}onion.{domain}"


def sata_sans(label: str, domain: str) -> list[str]:
    return [subdomain_host(label, domain), domain, label + ".onion"]


def rate_text(days: float) -> str:
    return f"{int(days)} days" if float(days).is_integer() else f"{float(days)} days"


def binding(
    domain: str,
    label: str,
    issued: date,
    refreshed_on: date,
    labels: tuple[str, ...] = (),
    fingerprints: tuple[str, ...] = (),
) -> dict:
    out: dict = {"domain": domain, "onion": label}
    if labels:
        out["labels"] = ",".join(labels)
    if fingerprints:
        out["cert_fingerprint"] = list(fingerprints)
    out["issued"] = issued.isoformat()
    out["refreshed_on"] = refreshed_on.isoformat()
    return out


def body(sattestor_domain: str, sattestor_label: str, rate_days: float, bindings: list) -> dict:
    return {
        "sattestation": {
            "sattestation_version": 1,
            "sattestor_domain": sattestor_domain,
            "sattestor_onion": sattestor_label,
            "sattestor_refresh_rate": rate_text(rate_days),
            "sattestees": bindings,
        }
    }


def compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def signed_wire(key: Key, body_obj: dict) -> dict:
    """``body_obj`` plus the ``signature`` field over its canonical bytes."""
    signature = key.private.sign(compact(body_obj).encode("utf-8"))
    wire = dict(body_obj)
    wire["signature"] = signature.hex()
    return wire


def transport(key: Key, body_obj: dict) -> str:
    return compact(signed_wire(key, body_obj))


def self_sattestation(
    key: Key,
    domain: str,
    fingerprints: tuple[str, ...],
    issued: date,
    refreshed_on: date,
    rate_days: float = 7,
    labels: tuple[str, ...] = (),
) -> str:
    b = binding(domain, key.label, issued, refreshed_on, labels, fingerprints)
    return transport(key, body(domain, key.label, rate_days, [b]))
