from __future__ import annotations

import hashlib
import sys
from datetime import date
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from satakit import (
    Binding,
    CertDescriptor,
    KeyPair,
    Sata,
    SattestationBody,
    fingerprint_cert,
    issue,
    keygen,
    make_self_sattestation,
)

DATA_DIR = Path(__file__).parent / "data"
FIXTURES_DIR = DATA_DIR / "fixtures"

TODAY = date(2020, 9, 1)


def seed_for(name: str) -> bytes:
    return hashlib.sha256(b"satakit-test:" + name.encode()).digest()


def key_for(name: str) -> KeyPair:
    return keygen(seed_for(name))


def sata_for(domain: str, key_name: str | None = None) -> Sata:
    return Sata(domain=domain, onion=key_for(key_name or domain).address)


def cert_for(tag: str, sans: list[str], *, has_sct: bool = False) -> CertDescriptor:
    der = f"cert:{tag}".encode()
    return CertDescriptor(
        fingerprint=fingerprint_cert(der),
        san_list=tuple(sans),
        not_before=date(2020, 1, 1),
        not_after=date(2021, 1, 1),
        has_sct=has_sct,
        der=der,
    )


def third_party(
    sattestor_domain: str,
    sattestor_key: str,
    bindings: list[tuple[str, str, list[str]]],
    *,
    issued: date = date(2020, 8, 25),
    refreshed_on: date = date(2020, 8, 31),
    rate: float = 7.0,
):
    """Signed third-party credential; bindings are (domain, key_name, labels)."""
    key = key_for(sattestor_key)
    body = SattestationBody(
        sattestor_domain=sattestor_domain,
        sattestor_onion=key.address,
        refresh_rate_days=rate,
        sattestees=tuple(
            Binding(
                domain=dom,
                onion=key_for(kname).address,
                issued=issued,
                refreshed_on=refreshed_on,
                labels=tuple(labels),
            )
            for dom, kname, labels in bindings
        ),
    )
    return issue(key, body)


@pytest.fixture
def selfauth_sata() -> Sata:
    from satakit import parse_onion

    from oracles import SELFAUTH_LABEL

    return Sata(domain="selfauth.site", onion=parse_onion(SELFAUTH_LABEL))


@pytest.fixture
def bank_key() -> KeyPair:
    return key_for("bank.example")


@pytest.fixture
def bank_sata(bank_key) -> Sata:
    return Sata(domain="bank.example", onion=bank_key.address)


@pytest.fixture
def bank_cert(bank_sata) -> CertDescriptor:
    from satakit import expected_sans

    return cert_for("bank-primary", expected_sans(bank_sata), has_sct=True)


@pytest.fixture
def bank_header(bank_key, bank_cert):
    """All-pass self-sattestation matching bank_cert at TODAY."""
    return make_self_sattestation(
        key=bank_key,
        domain="bank.example",
        cert_fingerprints=[bank_cert.fingerprint],
        issued=date(2020, 8, 25),
        refreshed_on=date(2020, 8, 31),
        refresh_rate_days=7,
        labels=["bank"],
    )


@pytest.fixture
def ed25519_verifications(monkeypatch) -> list[bytes]:
    """The public key of each ed25519 verification made while the test
    runs, counted where cryptography builds the key to verify with."""
    from cryptography.hazmat.primitives.asymmetric import ed25519

    made: list[bytes] = []
    real = ed25519.Ed25519PublicKey.from_public_bytes

    def counting(data):
        made.append(data)
        return real(data)

    monkeypatch.setattr(ed25519.Ed25519PublicKey, "from_public_bytes", counting)
    return made
