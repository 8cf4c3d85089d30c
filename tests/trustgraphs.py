"""Random credential-graph generator shared by the trust tests.

Graphs have at most six nodes.  Every credential is genuinely signed and
fresh, so evaluation outcomes depend only on the path logic, which is
what the independent enumeration oracle checks.
"""

from __future__ import annotations

import random
from datetime import date

from satakit import Binding, Sata, SattestationBody, issue, keygen
from satakit.trust import TrustChain, TrustPolicy, TrustRoot, delegation_label, delegation_scope

PLAIN_LABELS = ["news", "union", "bank"]
ALL_LABELS = PLAIN_LABELS + [delegation_label(l) for l in PLAIN_LABELS]

NOW = date(2020, 9, 1)

_NODE_KEYS = [keygen(bytes([i + 1]) * 32) for i in range(6)]
_NODE_DOMAINS = [f"node{i}.example" for i in range(6)]


def node_sata(i: int) -> Sata:
    return Sata(domain=_NODE_DOMAINS[i], onion=_NODE_KEYS[i].address)


def node_key(i: int):
    return _NODE_KEYS[i]


def node_identity(i: int) -> tuple[str, str]:
    return (_NODE_DOMAINS[i], _NODE_KEYS[i].address.label)


def random_graph(rng: random.Random):
    """Returns (n, policy, credentials, oracle_roots, oracle_links)."""
    n = rng.randint(2, 6)
    edges: list[tuple[int, int, tuple[str, ...]]] = []
    for _ in range(rng.randint(1, 10)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue  # a self-edge would be a self-sattestation, different rules
        labels = tuple(sorted(rng.sample(ALL_LABELS, rng.randint(1, 2))))
        edges.append((i, j, labels))

    # group some edges sharing an issuer into multi-binding credentials
    by_issuer: dict[int, list[tuple[int, tuple[str, ...]]]] = {}
    for i, j, labels in edges:
        by_issuer.setdefault(i, []).append((j, labels))
    credentials = []
    for i, bound in sorted(by_issuer.items()):
        while bound:
            take = 2 if len(bound) >= 2 and rng.random() < 0.4 else 1
            chunk, bound = bound[:take], bound[take:]
            body = SattestationBody(
                sattestor_domain=_NODE_DOMAINS[i],
                sattestor_onion=_NODE_KEYS[i].address,
                refresh_rate_days=7,
                sattestees=tuple(
                    Binding(
                        domain=_NODE_DOMAINS[j],
                        onion=_NODE_KEYS[j].address,
                        issued=NOW,
                        refreshed_on=NOW,
                        labels=labels,
                    )
                    for j, labels in chunk
                ),
            )
            credentials.append(issue(_NODE_KEYS[i], body))

    roots = []
    for _ in range(rng.randint(1, 2)):
        r = rng.randrange(n)
        labels = frozenset(rng.sample(ALL_LABELS, rng.randint(1, 3)))
        roots.append(TrustRoot(sattestor=node_sata(r), trusted_labels=labels))
    policy = TrustPolicy(roots=tuple(roots), max_chain_depth=rng.randint(1, 3))

    oracle_roots = [
        ((r.sattestor.domain, r.sattestor.onion.label), set(r.trusted_labels))
        for r in roots
    ]
    oracle_links = [
        (node_identity(i), node_identity(j), labels) for i, j, labels in edges
    ]
    return n, policy, credentials, oracle_roots, oracle_links


def assert_chain_well_formed(
    policy: TrustPolicy, chain: TrustChain, subject: Sata, label: str
) -> None:
    """Structural invariants any returned chain must satisfy."""
    assert 1 <= len(chain.links) <= policy.max_chain_depth
    assert chain.subject == subject and chain.label == label

    first = chain.links[0]
    root_labels: set[str] = set()
    for root in policy.roots:
        if (root.sattestor.domain, root.sattestor.onion.label) == (
            first.credential.sattestor_domain,
            first.credential.sattestor_onion.label,
        ):
            root_labels |= root.trusted_labels
    assert first.label in root_labels, "first link not authorized by any root"

    for k, link in enumerate(chain.links):
        binding = link.credential.sattestees[link.binding_index]
        assert link.label in binding.labels
        terminal = k == len(chain.links) - 1
        if terminal:
            assert link.label == label
            assert binding.binds(subject.domain, subject.onion)
        else:
            scope = delegation_scope(link.label)
            assert scope is not None, "non-terminal link must delegate"
            nxt = chain.links[k + 1]
            assert (binding.domain, binding.onion.label) == (
                nxt.credential.sattestor_domain,
                nxt.credential.sattestor_onion.label,
            ), "chain links not connected"
            assert nxt.label in (scope, delegation_label(scope))
