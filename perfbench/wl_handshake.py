"""handshake: a SATA-aware browser connecting to SATA sites.

A read is what the browser does on every navigation: ``parse_sata`` on the
URL, ``from_transport_json`` on the ``x-sata`` header, then
``validate_connection``.  A write is a site re-issuing its
self-sattestation.  Every read gets a freshly signed header, so a header
seldom repeats and a per-credential cache has nothing to hit.
"""

from __future__ import annotations

import hashlib
import json
import random
from datetime import date, timedelta

import satakit.credential as credential
import satakit.onion as onion
import satakit.sata as sata
import satakit.validation as validation

import oracle
from common import ANY_SATA_ERROR, NOW, Op, stratified

N_SITES = 2000
# One block: 200 ops, 1 in 10 a write; every reject kind appears.
MIX = {
    "accept": 136,
    "tampered": 8,
    "stale": 8,
    "fingerprint": 8,
    "san_missing": 8,
    "invalid_onion": 6,
    "legacy_url": 6,
    "write": 20,
}
CANARY_OPS = 200
# Headers the seed is known to mishandle (see common.KNOWN_DEFECTS).  They
# are checked untimed before the run, this many of each, and reported on
# their own, so the timed mix has no failing op.
DEFECT_KINDS = ("noncanonical", "wrongtype")
DEFECT_PROBES = 30


class Site:
    __slots__ = ("domain", "key", "pair", "cert")

    def __init__(self, domain: str, key: oracle.Key, pair, cert):
        self.domain, self.key, self.pair, self.cert = domain, key, pair, cert


class Workload:
    name = "handshake"

    def __init__(self, seed: int):
        self.rng = rng = random.Random(f"handshake:{seed}")
        self.sites = []
        for i in range(N_SITES):
            secret = rng.randbytes(32)
            key = oracle.Key(secret)
            domain = f"s{i}-{rng.getrandbits(32):08x}.example"
            cert = self._cert(rng.randbytes(48), tuple(oracle.sata_sans(key.label, domain)))
            self.sites.append(Site(domain, key, onion.keygen(secret), cert))
        self.block: list[str] = []

    @staticmethod
    def _cert(der: bytes, sans: tuple[str, ...]):
        return validation.CertDescriptor(
            fingerprint=hashlib.sha256(der).hexdigest().upper(),
            san_list=sans,
            not_before=date(2020, 1, 1),
            not_after=date(2021, 1, 1),
            has_sct=True,
            der=der,
        )

    def next_op(self) -> Op:
        if not self.block:
            self.block = stratified(self.rng, MIX)
        kind = self.block.pop()
        return getattr(self, "_" + kind)(self.rng.choice(self.sites))

    def defect_ops(self):
        for kind in DEFECT_KINDS:
            for _ in range(DEFECT_PROBES):
                yield getattr(self, "_" + kind)(self.rng.choice(self.sites))

    # -- inputs ---------------------------------------------------------------

    def _url(self, site: Site, label: str | None = None) -> str:
        label = label or site.key.label
        if self.rng.random() < 0.5:
            return f"https://{oracle.subdomain_host(label, site.domain)}/news"
        return f"https://{site.domain}/?onion={label}"

    def _header_wire(self, site: Site, *, fingerprints=None, age=None) -> dict:
        rng = self.rng
        refreshed = NOW - timedelta(days=rng.randint(0, 5) if age is None else age)
        issued = refreshed - timedelta(days=rng.randint(0, 60))
        labels = rng.choice([(), ("news",), ("bank", "news")])
        fps = fingerprints or (site.cert.fingerprint,)
        b = oracle.binding(site.domain, site.key.label, issued, refreshed, labels, fps)
        return oracle.signed_wire(site.key, oracle.body(site.domain, site.key.label, 7, [b]))

    @staticmethod
    def _read(url: str, text: str, cert, expect, kind: str) -> Op:
        def run():
            s = sata.parse_sata(url)
            header = credential.from_transport_json(text)
            return validation.validate_connection(s, cert, header, NOW).outcome.value

        return Op(False, run, expect, kind)

    # -- op kinds -------------------------------------------------------------

    def _accept(self, site: Site) -> Op:
        text = oracle.compact(self._header_wire(site))
        return self._read(self._url(site), text, site.cert, "accept", "accept")

    def _tampered(self, site: Site) -> Op:
        wire = self._header_wire(site)
        sig = wire["signature"]
        pos = self.rng.randrange(len(sig))
        flipped = "0123456789abcdef"[(int(sig[pos], 16) + self.rng.randint(1, 15)) % 16]
        wire["signature"] = sig[:pos] + flipped + sig[pos + 1 :]
        return self._read(
            self._url(site), oracle.compact(wire), site.cert, "reject-signature", "tampered"
        )

    def _stale(self, site: Site) -> Op:
        text = oracle.compact(self._header_wire(site, age=self.rng.randint(7, 90)))
        return self._read(self._url(site), text, site.cert, "reject-stale", "stale")

    def _fingerprint(self, site: Site) -> Op:
        other = hashlib.sha256(self.rng.randbytes(48)).hexdigest().upper()
        text = oracle.compact(self._header_wire(site, fingerprints=(other,)))
        return self._read(self._url(site), text, site.cert, "reject-fingerprint", "fingerprint")

    def _san_missing(self, site: Site) -> Op:
        sub, base, onion_name = oracle.sata_sans(site.key.label, site.domain)
        sans = (base,) if self.rng.random() < 0.5 else (sub, onion_name)
        cert = self._cert(site.cert.der, sans)
        text = oracle.compact(self._header_wire(site))
        return self._read(self._url(site), text, cert, "reject-san-missing", "san_missing")

    def _invalid_onion(self, site: Site) -> Op:
        label = site.key.label
        while oracle.label_is_valid(label):
            pos = self.rng.randrange(56)
            label = label[:pos] + self.rng.choice(oracle.BASE32) + label[pos + 1 :]
        text = oracle.compact(self._header_wire(site))
        expect = ("error", "InvalidOnionComponent")
        return self._read(self._url(site, label), text, site.cert, expect, "invalid_onion")

    def _legacy_url(self, site: Site) -> Op:
        text = oracle.compact(self._header_wire(site))
        url = f"https://{site.domain}/"
        return self._read(url, text, site.cert, ("error", "NotASata"), "legacy_url")

    def _noncanonical(self, site: Site) -> Op:
        wire = self._header_wire(site)
        variant = self.rng.randrange(3)
        if variant == 0:
            text = json.dumps(wire, indent=1)
        elif variant == 1:
            text = oracle.compact({**wire, "evil": 1})
        else:
            wire["sattestation"] = {**wire["sattestation"], "comment": "x"}
            text = oracle.compact(wire)
        return self._read(
            self._url(site), text, site.cert, ANY_SATA_ERROR, "noncanonical"
        )

    def _wrongtype(self, site: Site) -> Op:
        wire = self._header_wire(site)
        inner = wire["sattestation"]
        variant = self.rng.randrange(3)
        if variant == 0:
            inner["sattestor_domain"] = 12345
        elif variant == 1:
            inner["sattestees"][0]["domain"] = 12345
        else:
            inner["sattestees"][0]["onion"] = 12345
        return self._read(
            self._url(site), oracle.compact(wire), site.cert, ANY_SATA_ERROR, "wrongtype"
        )

    def _write(self, site: Site) -> Op:
        rng = self.rng
        refreshed = NOW - timedelta(days=rng.randint(0, 5))
        issued = refreshed - timedelta(days=rng.randint(0, 60))
        labels = rng.choice([(), ("news",)])
        fps = (site.cert.fingerprint,)
        expect = oracle.self_sattestation(site.key, site.domain, fps, issued, refreshed, 7, labels)
        pair, domain = site.pair, site.domain

        def run():
            c = credential.make_self_sattestation(
                key=pair,
                domain=domain,
                cert_fingerprints=fps,
                issued=issued,
                refreshed_on=refreshed,
                refresh_rate_days=7,
                labels=labels,
            )
            return credential.to_transport_json(c)

        return Op(True, run, expect, "write")
