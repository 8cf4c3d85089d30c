"""trust: contextual-trust queries against delegation pools.

Dense pools are complete graphs in which every node delegates
``sattestor(news)`` to every other node, at nodes x depth in
{10, 20, 40} x {2, 3} plus (10, 4).  Each holds one hit target per depth,
bound at the end of a tail chain, plus a stale and a junk-signature
credential that would each give a wrong answer if they were used.  The
"multi" shape packs an issuer's bindings into one large credential; the
"edge" shape issues one credential per edge, so ``usable_links`` verifies
many.  A sparse root -> sattestor -> site hierarchy carries ordinary
hits, misses and key-rotation checks.

Points at (20, 4) and above are left out: a single miss there takes
seconds and would swamp a run.  Writes re-issue one credential of a
per-edge pool with a new refresh date, and the pool replaces it.
"""

from __future__ import annotations

import random
import statistics
import time
from datetime import timedelta

import satakit.credential as credential
import satakit.onion as onion
import satakit.sata as sata
import satakit.trust as trust

import oracle
from common import NOW, Op, stratified

CANARY_OPS = 12
NEWS = "news"
DELEGATE = "sattestor(news)"
CURVE = ((10, 2), (10, 3), (20, 2), (20, 3), (40, 2), (40, 3), (10, 4))
EDGE = ((10, 2), (10, 3), (20, 2), (20, 3))
CURVE_REPEATS = 3

# One block of ops: (pool, query) -> count.  hK = hit at depth K.
MIX = {
    **{(f"multi-n{n}-d{d}", q): 1 for n, d in CURVE for q in ["h1", *[f"h{k}" for k in range(2, d + 1)], "miss", "labelmiss"]},
    **{(f"edge-n{n}-d{d}", q): 1 for n, d in EDGE for q in ["h1", "h2", "miss"]},
    ("sparse", "hit"): 16,
    ("sparse", "miss"): 6,
    ("sparse", "labelmiss"): 6,
    ("sparse", "rot_ok"): 2,
    ("sparse", "rot_framed"): 2,
    # 4 writes to the 77 reads above: about 1 op in 20
    ("write", "write"): 4,
}


class Node:
    __slots__ = ("domain", "key", "pair", "sata")

    def __init__(self, rng: random.Random, domain: str):
        secret = rng.randbytes(32)
        self.domain = domain
        self.key = oracle.Key(secret)
        self.pair = onion.keygen(secret)
        self.sata = sata.Sata(domain=domain, onion=self.pair.address)


class Spec:
    """A credential as data: issuer and (subject, labels) bindings."""

    __slots__ = ("issuer", "bindings", "refreshed", "issued", "signature")

    def __init__(self, issuer: Node, bindings, refreshed=NOW, signature=None):
        self.issuer = issuer
        self.bindings = bindings  # [(Node, labels)]
        self.refreshed = refreshed
        self.issued = refreshed - timedelta(days=10)
        self.signature = signature  # junk bytes instead of a real signature

    def body(self):
        return credential.SattestationBody(
            sattestor_domain=self.issuer.domain,
            sattestor_onion=self.issuer.sata.onion,
            refresh_rate_days=7,
            sattestees=tuple(
                credential.Binding(
                    domain=node.domain,
                    onion=node.sata.onion,
                    issued=self.issued,
                    refreshed_on=self.refreshed,
                    labels=labels,
                )
                for node, labels in self.bindings
            ),
        )

    def build(self):
        if self.signature is not None:
            return credential.Sattestation(body=self.body(), signature=self.signature)
        return credential.issue(self.issuer.pair, self.body())

    def expected_transport(self) -> str:
        bindings = [
            oracle.binding(node.domain, node.key.label, self.issued, self.refreshed, labels)
            for node, labels in self.bindings
        ]
        return oracle.transport(
            self.issuer.key,
            oracle.body(self.issuer.domain, self.issuer.key.label, 7, bindings),
        )


class Pool:
    def __init__(self, name: str, policy, specs: list[Spec], queries: dict, reissue: list[int]):
        self.name = name
        self.policy = policy
        self.specs = specs
        self.creds = [s.build() for s in specs]
        self.queries = queries  # kind -> [(subject Sata, label, expected)]
        self.reissue = reissue  # indexes of specs a write may re-issue


def _dense(rng: random.Random, shape: str, n: int, depth: int) -> Pool:
    tag = f"{shape}-n{n}-d{depth}"
    nodes = [Node(rng, f"node{i}.{tag}.example") for i in range(n)]
    root = nodes[0]
    policy = trust.TrustPolicy(
        roots=(trust.TrustRoot(sattestor=root.sata, trusted_labels=frozenset({NEWS, DELEGATE})),),
        max_chain_depth=depth,
    )
    specs: list[Spec] = []
    for i, issuer in enumerate(nodes):
        edges = [(nodes[j], (DELEGATE,)) for j in range(n) if j != i]
        if shape == "multi":
            specs.append(Spec(issuer, edges))
        else:
            specs.extend(Spec(issuer, [edge]) for edge in edges)
    reissue = list(range(len(specs)))
    queries: dict[str, list] = {}
    miss_subject = Node(rng, f"miss.{tag}.example")
    for k in range(1, depth + 1):
        target = Node(rng, f"t{k}.{tag}.example")
        issuer = root if k == 1 else nodes[1 + rng.randrange(n - 1)]
        chain = [root.domain] if k == 1 else [root.domain, issuer.domain]
        for hop in range(k - 2):
            tail = Node(rng, f"e{k}-{hop}.{tag}.example")
            specs.append(Spec(issuer, [(tail, (DELEGATE,))]))
            issuer = tail
            chain.append(tail.domain)
        specs.append(Spec(issuer, [(target, (NEWS,))]))
        queries[f"h{k}"] = [(target.sata, NEWS, tuple(chain))]
        if k == depth:
            # a shortcut the root would give, but under a junk signature
            specs.append(Spec(root, [(target, (NEWS,))], signature=rng.randbytes(64)))
            queries["labelmiss"] = [(target.sata, "bank", None)]
    # a binding of the miss subject that went stale
    specs.append(Spec(root, [(miss_subject, (NEWS,))], refreshed=NOW - timedelta(days=30)))
    queries["miss"] = [(miss_subject.sata, NEWS, None)]
    return Pool(tag, policy, specs, queries, reissue)


def _sparse(rng: random.Random) -> Pool:
    root = Node(rng, "root.sparse.example")
    sattestors = [Node(rng, f"sattestor{i}.sparse.example") for i in range(10)]
    policy = trust.TrustPolicy(
        roots=(trust.TrustRoot(sattestor=root.sata, trusted_labels=frozenset({NEWS, DELEGATE})),),
        max_chain_depth=3,
    )
    specs = [Spec(root, [(s, (DELEGATE,)) for s in sattestors])]
    hits, labelmisses = [], []
    for i, s in enumerate(sattestors):
        sites = [Node(rng, f"site{j}.s{i}.sparse.example") for j in range(10)]
        specs.append(Spec(s, [(site, (NEWS,)) for site in sites]))
        hits += [(site.sata, NEWS, (root.domain, s.domain)) for site in sites]
        labelmisses += [(site.sata, "bank", None) for site in sites]
    misses = [(Node(rng, f"unknown{i}.sparse.example").sata, NEWS, None) for i in range(10)]
    reissue = list(range(len(specs)))
    rot_ok, rot_framed = [], []
    for i in range(6):
        old = Node(rng, f"rotating{i}.sparse.example")
        new = Node(rng, old.domain)
        specs.append(Spec(new, [(old, ("rotation",))]))
        if i % 2 == 0:
            specs.append(Spec(old, [(new, ("rotation",))]))
            rot_ok.append((old.sata, new.sata, (True, ())))
        else:
            rot_framed.append((old.sata, new.sata, (False, ("old-to-new",))))
    queries = {
        "hit": hits,
        "miss": misses,
        "labelmiss": labelmisses,
        "rot_ok": rot_ok,
        "rot_framed": rot_framed,
    }
    return Pool("sparse", policy, specs, queries, reissue)


class Workload:
    name = "trust"

    def __init__(self, seed: int):
        self.rng = rng = random.Random(f"trust:{seed}")
        # The op order is the same for every seed: one op here can cost 100x
        # another, so a seeded order would make runs differ in how much deep
        # work fits in the time window.  The seed picks the inputs.
        self.order = random.Random("trust-order")
        pools = [_dense(rng, "multi", n, d) for n, d in CURVE]
        pools += [_dense(rng, "edge", n, d) for n, d in EDGE]
        pools.append(_sparse(rng))
        self.pools = {p.name: p for p in pools}
        # writes re-issue one-binding credentials of the per-edge pools, in a
        # fixed rotation, so every write signs about the same number of bytes
        self.write_order = [f"edge-n{n}-d{d}" for n, d in EDGE]
        self.writes = 0
        self.block: list = []

    def next_op(self) -> Op:
        if not self.block:
            self.block = stratified(self.order, MIX)
        pool_name, kind = self.block.pop()
        if kind == "write":
            return self._write()
        pool = self.pools[pool_name]
        choice = self.rng.choice(pool.queries[kind])
        if kind.startswith("rot_"):
            old, new, expect = choice
            creds = pool.creds

            def rotate():
                r = trust.rotation_check(old, new, creds, NOW)
                return (r.ok, r.missing)

            return Op(False, rotate, expect, f"{pool_name}:{kind}")
        subject, label, expect = choice
        policy, creds = pool.policy, pool.creds

        def query():
            chain = trust.evaluate(policy, creds, subject, label, NOW)
            if chain is None:
                return None
            return tuple(link.credential.sattestor_domain for link in chain.links)

        return Op(False, query, expect, f"{pool_name}:{kind}")

    def _write(self) -> Op:
        rng = self.rng
        pool = self.pools[self.write_order[self.writes % len(self.write_order)]]
        self.writes += 1
        index = rng.choice(pool.reissue)
        old = pool.specs[index]
        spec = Spec(old.issuer, old.bindings, refreshed=NOW - timedelta(days=rng.randint(0, 5)))
        body, pair, creds = spec.body(), spec.issuer.pair, pool.creds

        def run():
            c = credential.issue(pair, body)
            creds[index] = c
            return credential.to_transport_json(c)

        pool.specs[index] = spec
        return Op(True, run, spec.expected_transport(), f"write:{pool.name}")

    def layer_extras(self) -> dict[str, float]:
        """Miss latency on each dense multi-binding pool, tracing off."""
        out = {}
        for n, d in CURVE:
            pool = self.pools[f"multi-n{n}-d{d}"]
            subject, label, _ = pool.queries["miss"][0]
            times = []
            for _ in range(CURVE_REPEATS):
                t0 = time.perf_counter()
                trust.evaluate(pool.policy, pool.creds, subject, label, NOW)
                times.append((time.perf_counter() - t0) * 1000)
            out[f"trust.evaluate.miss_ms.n{n}.d{d}"] = statistics.median(times)
        return out
