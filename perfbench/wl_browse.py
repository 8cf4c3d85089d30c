"""browse: browsing sessions on the legacy, sata-aware and sata-policy browsers.

The world is synthetic: a few hundred sites whose popularity follows Zipf,
each of one kind: benign SATA sites (some sattested by the policy's root,
some with an alt-svc to their own onion or an onion-location to their own
SATA), legacy sites, and the three attack patterns of the scenario
fixtures (alt-svc cache hijack, onion-location lookalike, SecureDrop
ruleset hijack).  The published pool holds about 220 credentials: the
root's sattestations of half the sites, the other SATA sites' own
self-sattestations, and 24 stale or junk-signed ones.

A read is one ``run_visit``; a session is one browser profile whose alt-svc
cache grows from visit to visit.  Each visit's expected endpoint and alert
follow from the site's kind, the browser, and whether this session already
cached the site's alternative service.  Writes refresh a site's header or
re-publish a root credential into the pool.  Every so often the fixtures
are replayed through ``run_matrix`` and compared with the golden matrix.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
from dataclasses import replace
from datetime import date, timedelta

import satakit.credential as credential
import satakit.onion as onion
import satakit.sata as sata
import satakit.sim as sim
import satakit.trust as trust
import satakit.validation as validation

import oracle
from common import FIXTURES, GOLDEN, NOW, Op

CANARY_OPS = 40
N_SITES = 300
ZIPF_S = 1.0
SESSION_LEN = 20
WRITE_EVERY = 10  # 1 op in 10 is a write, the share of site re-issues on handshake
MATRIX_EVERY = 151  # ops between golden-matrix replays (not a multiple of WRITE_EVERY)
JUNK_AND_STALE = 24  # pool credentials that must never be relied on
ALT_MAX_AGE = 30 * 86400
# site kind by popularity rank, repeating
KINDS = (
    "sata", "sata", "sata", "altsvc_own", "sata", "onionloc_own",
    "legacy", "altsvc_hijack", "sata_unsat", "onionloc_lookalike", "sata_unsat", "securedrop",
)
SATTESTED = ("sata", "altsvc_own", "onionloc_own")
HEADER_KINDS = ("sata", "sata_unsat", "altsvc_own", "onionloc_own")
# sessions take the three browsers in turn, each a third of the visits
ROTATION = ("legacy", "sata-aware", "sata-policy")


def expected_visit(kind: str, browser: str, cached: bool) -> tuple[str, bool]:
    """(endpoint suffix, alert) a visit should end with; see the module doc."""
    legacy, policy = browser == "legacy", browser == "sata-policy"
    if kind in ("sata", "onionloc_own"):
        return "origin", False
    if kind in ("sata_unsat", "legacy"):
        return "origin", policy
    if kind == "altsvc_own":
        return ("onion", policy) if cached else ("origin", False)
    if kind == "altsvc_hijack":
        if legacy:
            return ("attacker-onion" if cached else "attacker-spoof"), False
        return "attacker-spoof", policy
    if kind == "onionloc_lookalike":
        return ("attacker-onion", False) if legacy else ("attacker-lookalike", True)
    if kind == "securedrop":
        return "attacker-securedrop", not legacy
    raise ValueError(kind)


def stores_alt_svc(kind: str, browser: str) -> bool:
    return kind == "altsvc_own" or (kind == "altsvc_hijack" and browser == "legacy")


class Site:
    __slots__ = ("kind", "domain", "url", "key", "pair", "cert", "origin", "onion_endpoint")


class Session:
    __slots__ = ("name", "browser", "visits", "cached")

    def __init__(self, name: str, browser, visits: list[int]):
        self.name, self.browser, self.visits = name, browser, visits
        self.cached: set[str] = set()


def _cert(rng: random.Random, sans) -> validation.CertDescriptor:
    der = rng.randbytes(48)
    return validation.CertDescriptor(
        fingerprint=hashlib.sha256(der).hexdigest().upper(),
        san_list=tuple(sans),
        not_before=date(2020, 1, 1),
        not_after=date(2021, 1, 1),
        has_sct=True,
        der=der,
    )


class Workload:
    name = "browse"

    def __init__(self, seed: int):
        self.rng = rng = random.Random(f"browse:{seed}")
        self.root_key = oracle.Key(rng.randbytes(32))
        self.root_pair = onion.keygen(self.root_key.seed)
        self.root_domain = "root-sattestor.example"
        root_sata = sata.Sata(domain=self.root_domain, onion=self.root_pair.address)
        policy = trust.TrustPolicy(
            roots=(trust.TrustRoot(sattestor=root_sata, trusted_labels=frozenset({"news", "securedrop"})),),
            max_chain_depth=3,
            require_sattestation_for=frozenset({"news", "securedrop"}),
        )
        self.browsers = {
            "legacy": sim.BrowserConfig(name="legacy", sata_aware=False, prioritize_onion=True),
            "sata-aware": sim.BrowserConfig(name="sata-aware", sata_aware=True, prioritize_onion=True),
            "sata-policy": sim.BrowserConfig(
                name="sata-policy", sata_aware=True, prioritize_onion=True, policy=policy
            ),
        }
        attacker = oracle.Key(rng.randbytes(32))
        dropper = oracle.Key(rng.randbytes(32))
        self.sites_by_rank: list[Site] = []
        self.sites: dict = {
            f"{attacker.label}.onion": sim.SiteRecord(
                "attacker-onion", _cert(rng, [attacker.label + ".onion"])
            ),
            f"{dropper.label}.onion": sim.SiteRecord(
                "attacker-securedrop", _cert(rng, [dropper.label + ".onion"])
            ),
        }
        self.he_rules: dict[str, str] = {}
        self.attacker = sim.AttackerCaps(onion_keys=frozenset({attacker.label, dropper.label}))
        pool: list = []
        for rank in range(N_SITES):
            pool += self._add_site(rng, rank, attacker, dropper)
        self.publishable = [i for i, (kind, _site) in enumerate(pool) if kind == "root"]
        # Every header and every published credential is re-issued once per
        # refresh period (7 days), so writes split between header refreshes
        # and publications as headers to published credentials in the world.
        headers = sum(site.kind in HEADER_KINDS for site in self.sites_by_rank)
        self.write_total = headers + len(self.publishable)
        self.writes = 0
        pool = [c for _kind, c in pool]
        pool += [self._junk_or_stale(rng, i) for i in range(JUNK_AND_STALE)]
        self.pool = tuple(pool)
        self.site_of = {site.domain: site for site in self.sites_by_rank}
        weights = [1 / (r + 1) ** ZIPF_S for r in range(N_SITES)]
        total = sum(weights)
        self.cdf, acc = [], 0.0
        for w in weights:
            acc += w / total
            self.cdf.append(acc)
        self.fixtures = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
        self.golden = json.dumps(json.loads(GOLDEN.read_text()), separators=(",", ":"))
        self.session: Session | None = None
        self.sessions = 0
        self.ops = 0

    # -- world ----------------------------------------------------------------

    def _add_site(self, rng, rank: int, attacker: oracle.Key, dropper: oracle.Key) -> list:
        kind = KINDS[rank % len(KINDS)]
        site = Site()
        site.kind = kind
        site.domain = f"{kind.replace('_', '-')}{rank}-{rng.getrandbits(24):06x}.example"
        site.url = f"https://{site.domain}/"
        site.origin = f"origin-{site.domain}"
        site.key = oracle.Key(rng.randbytes(32))
        site.pair = onion.keygen(site.key.seed)
        label = site.key.label
        self.sites_by_rank.append(site)
        published = []
        if kind in HEADER_KINDS:
            site.cert = _cert(rng, oracle.sata_sans(label, site.domain))
            header = self._self_header(site, rng.randint(0, 5))
            headers = sim.SiteHeaders(sata_header=header)
            if kind == "altsvc_own":
                site.onion_endpoint = f"onion-{site.domain}"
                headers = replace(headers, alt_svc=sim.AltSvcHeader(f"{label}.onion", ALT_MAX_AGE))
                self.sites[f"{label}.onion"] = sim.SiteRecord(
                    site.onion_endpoint, _cert(rng, [label + ".onion"])
                )
            elif kind == "onionloc_own":
                headers = replace(headers, onion_location=f"https://{site.domain}/?onion={label}")
            self.sites[site.domain] = sim.SiteRecord(site.origin, site.cert, headers)
            if kind in SATTESTED:
                published.append(("root", self._root_credential(site, NOW)))
            else:
                published.append(("self", header))
        elif kind == "legacy":
            site.cert = _cert(rng, [site.domain])
            self.sites[site.domain] = sim.SiteRecord(site.origin, site.cert)
        elif kind == "altsvc_hijack":
            site.cert = _cert(rng, [site.domain])
            alt = sim.AltSvcHeader(f"{attacker.label}.onion", ALT_MAX_AGE)
            self.sites[site.domain] = sim.SiteRecord(
                "attacker-spoof", site.cert, sim.SiteHeaders(alt_svc=alt)
            )
        elif kind == "onionloc_lookalike":
            site.cert = _cert(rng, [site.domain])
            self.sites[site.domain] = sim.SiteRecord(
                "attacker-lookalike",
                site.cert,
                sim.SiteHeaders(onion_location=f"http://{attacker.label}.onion/"),
            )
        else:  # securedrop: the ruleset sends the name to the attacker's onion
            site.cert = None
            host = f"{site.domain}.securedrop.tor.onion"
            site.url = f"https://{host}/?onion={label}"
            self.he_rules[host] = dropper.label
        return published

    def _self_header(self, site: Site, age: int):
        refreshed = NOW - timedelta(days=age)
        return credential.make_self_sattestation(
            key=site.pair,
            domain=site.domain,
            cert_fingerprints=[site.cert.fingerprint],
            issued=refreshed - timedelta(days=20),
            refreshed_on=refreshed,
            refresh_rate_days=7,
            labels=["news"],
        )

    def _root_body(self, site: Site, refreshed: date):
        return credential.SattestationBody(
            sattestor_domain=self.root_domain,
            sattestor_onion=self.root_pair.address,
            refresh_rate_days=7,
            sattestees=(
                credential.Binding(
                    domain=site.domain,
                    onion=site.pair.address,
                    issued=refreshed - timedelta(days=20),
                    refreshed_on=refreshed,
                    labels=("news",),
                ),
            ),
        )

    def _root_credential(self, site: Site, refreshed: date):
        return credential.issue(self.root_pair, self._root_body(site, refreshed))

    def _junk_or_stale(self, rng, index: int):
        site = self.sites_by_rank[rng.randrange(N_SITES)]
        if index % 2:
            return self._root_credential(site, NOW - timedelta(days=40))  # stale
        body = self._root_body(site, NOW)
        return credential.Sattestation(body=body, signature=rng.randbytes(64))

    # -- ops ------------------------------------------------------------------

    def next_op(self) -> Op:
        self.ops += 1
        if self.ops % MATRIX_EVERY == 0:
            return self._matrix()
        if self.ops % WRITE_EVERY == 0:
            w, published = self.writes, len(self.publishable)
            self.writes += 1
            # publications spread evenly among the writes, in their share
            if (w + 1) * published // self.write_total > w * published // self.write_total:
                return self._publish()
            return self._refresh_header()
        if self.session is None or not self.session.visits:
            self.session = self._new_session()
        return self._visit(self.session, self.sites_by_rank[self.session.visits.pop()])

    def _new_session(self) -> Session:
        name = ROTATION[self.sessions % len(ROTATION)]
        self.sessions += 1
        # Zipf ranks at evenly spaced quantiles with a random phase
        phase = self.rng.random()
        ranks = [
            min(bisect.bisect_left(self.cdf, (k + phase) / SESSION_LEN), N_SITES - 1)
            for k in range(SESSION_LEN)
        ]
        self.rng.shuffle(ranks)
        return Session(name, self.browsers[name], ranks)

    def _visit(self, session: Session, site: Site) -> Op:
        cached = site.domain in session.cached
        if stores_alt_svc(site.kind, session.name):
            session.cached.add(site.domain)
        endpoint, alert = expected_visit(site.kind, session.name, cached)
        if endpoint == "origin":
            endpoint = site.origin
        elif endpoint == "onion":
            endpoint = site.onion_endpoint
        world = sim.World(
            sites=self.sites,
            attacker=self.attacker,
            browser=session.browser,
            he_rules=self.he_rules,
            credentials=self.pool,
        )
        url = site.url

        def run():
            outcome, after = sim.run_visit(world, url, NOW)
            session.browser = after.browser
            return (outcome.reached_endpoint, outcome.user_visible_alert)

        return Op(False, run, (endpoint, alert), f"{session.name}:{site.kind}")

    def _refresh_header(self) -> Op:
        rng = self.rng
        candidates = [s for s in self.sites_by_rank[:60] if s.kind in ("sata", "sata_unsat", "onionloc_own")]
        site = rng.choice(candidates)
        refreshed = NOW - timedelta(days=rng.randint(0, 5))
        issued = refreshed - timedelta(days=20)
        fps = (site.cert.fingerprint,)
        expect = oracle.self_sattestation(site.key, site.domain, fps, issued, refreshed, 7, ("news",))
        sites, pair, domain = self.sites, site.pair, site.domain

        def run():
            header = credential.make_self_sattestation(
                key=pair,
                domain=domain,
                cert_fingerprints=fps,
                issued=issued,
                refreshed_on=refreshed,
                refresh_rate_days=7,
                labels=["news"],
            )
            record = sites[domain]
            sites[domain] = replace(record, headers=replace(record.headers, sata_header=header))
            return credential.to_transport_json(header)

        return Op(True, run, expect, "refresh_header")

    def _publish(self) -> Op:
        rng = self.rng
        index = rng.choice(self.publishable)
        site = self.site_of[self.pool[index].sattestees[0].domain]
        refreshed = NOW - timedelta(days=rng.randint(0, 5))
        body = self._root_body(site, refreshed)
        b = oracle.binding(
            site.domain, site.key.label, refreshed - timedelta(days=20), refreshed, ("news",)
        )
        expect = oracle.transport(
            self.root_key, oracle.body(self.root_domain, self.root_key.label, 7, [b])
        )
        workload, pair = self, self.root_pair

        def run():
            cred = credential.issue(pair, body)
            pool = list(workload.pool)
            pool[index] = cred
            workload.pool = tuple(pool)
            return credential.to_transport_json(cred)

        return Op(True, run, expect, "publish")

    def _matrix(self) -> Op:
        fixtures = self.fixtures

        def run():
            rows = []
            for raw in fixtures:
                scenario = sim.load_scenario(raw)
                rows.extend(sim.run_matrix([scenario], list(scenario.browsers.values())))
            return json.dumps(rows, separators=(",", ":"))

        return Op(False, run, self.golden, "golden_matrix")
