"""The breadth-first trust search: exact agreement with the exhaustive
search it replaced, polynomial cost, and credential work done once.
"""

from __future__ import annotations

import gc
import itertools
import math
import operator
import random
import sys
import threading
import time
import weakref
from collections import Counter
from datetime import date, timedelta

import pytest
from cryptography.hazmat.primitives.asymmetric import ed25519
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import satakit.credential as credential_module
import satakit.trust as trust_module
from satakit import (
    AltSvcDecision,
    Binding,
    KeyPair,
    Sata,
    Sattestation,
    SattestationBody,
    canonical_bytes,
    evaluate,
    is_self_sattestation,
    issue,
    keygen,
    make_self_sattestation,
    rotation_check,
    sign,
    validate_alt_svc,
    verify_credential,
)
from satakit.credential import from_transport_json, to_transport_json
from satakit.errors import (
    BadSignature,
    KeyMismatch,
    StructuralViolation,
    UnrepresentableField,
)
from satakit.trust import TrustPolicy, TrustRoot, delegation_label, usable_links

from oracles import (
    RFC8032_VECTOR_1,
    alt_svc_every_credential,
    exhaustive_evaluate,
    oracle_links,
    oracle_sound,
    oracle_well_formed,
    rotation_over_links,
)

NOW = date(2020, 9, 1)
NEWS = "news"
LABELS = [
    NEWS,
    "bank",
    delegation_label(NEWS),
    delegation_label("bank"),
    delegation_label(delegation_label(NEWS)),
]

_KEYS = [keygen(bytes([0x40 + i]) * 32) for i in range(7)]
_DOMAINS = [f"n{i}.search.example" for i in range(7)]
FINGERPRINT = "AB" * 32


def _sata(i: int) -> Sata:
    return Sata(domain=_DOMAINS[i], onion=_KEYS[i].address)


def _binding(j: int, labels, refreshed: date) -> Binding:
    return Binding(
        domain=_DOMAINS[j],
        onion=_KEYS[j].address,
        issued=NOW - timedelta(days=40),
        refreshed_on=refreshed,
        labels=tuple(labels),
    )


def _body(i: int, bindings) -> SattestationBody:
    return SattestationBody(
        sattestor_domain=_DOMAINS[i],
        sattestor_onion=_KEYS[i].address,
        refresh_rate_days=7,
        sattestees=tuple(bindings),
    )


def _random_pool(rng: random.Random, n: int) -> list[Sattestation]:
    """Credentials over ``n`` nodes: random edges (so cycles and self-loops),
    some stale bindings, junk signatures, cert fingerprints (which make a
    one-binding self-loop a self-sattestation and break any other
    credential), re-issues of a credential under a new refresh date (equal
    step keys, so the rank breaks the tie) and exact duplicates (equal sort
    keys, so input order does).  A body that cannot be encoded (a zero
    rate) is refused when it is built."""
    pool = []
    for _ in range(rng.randint(1, 14)):
        i = rng.randrange(n)
        bindings = [
            _binding(
                rng.randrange(n),
                rng.sample(LABELS, rng.randint(1, 3)),
                NOW - timedelta(days=30 if rng.random() < 0.15 else rng.randint(0, 3)),
            )
            for _ in range(rng.choice((1, 1, 2, 3)))
        ]
        for k, b in enumerate(bindings):
            loop = len(bindings) == 1 and b.domain == _DOMAINS[i]
            if rng.random() < (0.6 if loop else 0.1):
                bindings[k] = b.replace(cert_fingerprints=(FINGERPRINT,))
        body = _body(i, bindings)
        if rng.random() < 0.1:
            pool.append(Sattestation(body=body, signature=rng.randbytes(64)))
            continue
        if rng.random() < 0.05:  # a zero rate has no canonical bytes
            with pytest.raises(UnrepresentableField):
                body.replace(refresh_rate_days=0)
            # junk of another kind takes its place, so every pool keeps its
            # size and the random draws that follow it
            pool.append(Sattestation(body=body, signature=rng.randbytes(64)))
            continue
        pool.append(issue(_KEYS[i], body))
        if rng.random() < 0.3:
            refreshed = NOW - timedelta(days=rng.randint(0, 3))
            reissued = [b.replace(refreshed_on=refreshed) for b in bindings]
            pool.append(issue(_KEYS[i], _body(i, reissued)))
        if rng.random() < 0.1:
            pool.append(issue(_KEYS[i], body))
    rng.shuffle(pool)
    return pool


def _random_policy(rng: random.Random, n: int, depth: int) -> TrustPolicy:
    roots = tuple(
        TrustRoot(
            sattestor=_sata(rng.randrange(n)),
            trusted_labels=frozenset(rng.sample(LABELS, rng.randint(1, 3))),
        )
        for _ in range(rng.randint(1, 2))
    )
    return TrustPolicy(roots=roots, max_chain_depth=depth)


def _chain_ids(chain):
    if chain is None:
        return None
    return [(id(link.credential), link.binding_index, link.label) for link in chain.links]


# the same credential objects are queried at each date, so a freshness
# verdict reused across dates would give a wrong chain
DATES = [NOW, NOW - timedelta(days=8), NOW + timedelta(days=4), NOW + timedelta(days=8)]


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_search_returns_the_exhaustive_chain(depth):
    rng = random.Random(f"trust-search:{depth}")
    hits = ties = longest = moved = pinned = self_hops = 0
    for _ in range(120):
        n = rng.randint(2, 7)
        pool = _random_pool(rng, n)
        policy = _random_policy(rng, n, depth)
        sound = oracle_sound(pool)
        pinned += sum(
            any(b.cert_fingerprints for b in c.sattestees) and not oracle_well_formed(c)
            for c in pool
        )
        links = {when: oracle_links(sound, when) for when in DATES}
        for when, want in links.items():
            usable = [(id(c), i) for c, i in usable_links(pool, when)]
            assert usable == [(id(c), i) for c, i in want], when
        step_keys = [
            (c.sattestor_domain, c.sattestor_onion.label, idx, lab)
            for c, idx in links[NOW]
            for lab in c.sattestees[idx].labels
        ]
        for node in range(n):
            subject = _sata(node)
            for label in LABELS:
                got = {when: evaluate(policy, pool, subject, label, when) for when in DATES}
                for when, chain in got.items():
                    want = exhaustive_evaluate(policy, links[when], subject, label)
                    assert _chain_ids(chain) == _chain_ids(want), (when, node, label)
                    moved += _chain_ids(chain) != _chain_ids(got[NOW])
                    if chain is not None:
                        self_hops += any(is_self_sattestation(l.credential) for l in chain.links)
                chain = got[NOW]
                if chain is not None:
                    hits += 1
                    longest = max(longest, len(chain.links))
                    ties += any(
                        step_keys.count(
                            (l.credential.sattestor_domain,
                             l.credential.sattestor_onion.label,
                             l.binding_index, l.label)
                        ) > 1
                        for l in chain.links
                    )
    # the pools must exercise what the tie rule, the dates and the
    # structural rule decide
    assert hits >= 200 and ties >= 100 and longest == depth, (hits, ties, longest)
    assert moved >= 3 * hits // 2, (moved, hits)
    assert pinned >= 100 and self_hops >= 30, (pinned, self_hops)


def test_a_chain_found_within_a_budget_is_the_chain_of_every_larger_budget():
    """A chain of k links is the shortest, so every budget below k finds
    none and every budget from k to 6 finds the same one: the search stops
    at the first depth that holds a hit, whatever depth it may go on to.
    Budgets 5 and 6 are beyond what the exhaustive search is run at."""
    rng = random.Random("trust-search:budgets")
    lengths = Counter()
    for _ in range(100):
        n = rng.randint(2, 7)
        # three pools over the same nodes, so chains grow longer
        pool = [cred for _ in range(3) for cred in _random_pool(rng, n)]
        policy = _random_policy(rng, n, 6)
        for node in range(n):
            for label in LABELS:
                got = [
                    _chain_ids(evaluate(policy.replace(max_chain_depth=budget), pool,
                                        _sata(node), label, NOW))
                    for budget in range(1, 7)
                ]
                k = len(got[-1]) if got[-1] is not None else 7  # 7: a miss
                assert got == [None] * (k - 1) + [got[-1]] * (7 - k), (node, label)
                lengths[k] += 1
    # hits of every length up to 5, and misses at every budget
    assert lengths[7] >= 1000 and lengths[4] >= 20 and lengths[5] >= 3, lengths


_LAST_DAY = date.max.toordinal()
# days anywhere in the calendar, and days near both of its ends
_DAYS = st.one_of(
    st.integers(1, _LAST_DAY), st.integers(1, 40), st.integers(_LAST_DAY - 40, _LAST_DAY)
)


_RATES = st.one_of(
    st.integers(1, 10**9),
    st.floats(min_value=1e-6, max_value=1e300, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.5, 1.0, 3.5, 7.0, 7 + 1e-9, 7 - 1e-9, 2.0**-30]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    rate=_RATES,
    today=_DAYS,
    refreshed=_DAYS,
    edge=st.none() | st.tuples(st.sampled_from([-1, 1]), st.integers(-2, 2)),
    delegated=st.booleans(),
)
def test_the_search_counts_a_dated_link_exactly_while_it_is_fresh(
    rate, today, refreshed, edge, delegated
):
    """A root's credential refreshed d days from ``now`` makes a chain
    exactly when |d| < rate, whether it binds the subject (a pool of that
    one credential) or delegates to a node that does (the node's own link
    is fresh).  Refresh dates just inside and outside that bound, and dates
    at both ends of the calendar, are tried most."""
    if edge is not None:
        sign, step = edge
        refreshed = today + sign * (min(math.ceil(rate), _LAST_DAY) + step)
        assume(1 <= refreshed <= _LAST_DAY)
    now = date.fromordinal(today)
    dated = Binding(
        domain=_DOMAINS[1],
        onion=_KEYS[1].address,
        issued=date.min,
        refreshed_on=date.fromordinal(refreshed),
        labels=(delegation_label(NEWS) if delegated else NEWS,),
    )
    root = issue(_KEYS[0], _body(0, [dated]).replace(refresh_rate_days=rate))
    pool, subject = (root,), _sata(1)
    if delegated:
        fresh = Binding(domain=_DOMAINS[2], onion=_KEYS[2].address, issued=now, refreshed_on=now,
                        labels=(NEWS,))
        pool, subject = (root, issue(_KEYS[1], _body(1, [fresh]))), _sata(2)
    trusted = frozenset({NEWS, delegation_label(NEWS)})
    policy = TrustPolicy(roots=(TrustRoot(sattestor=_sata(0), trusted_labels=trusted),),
                         max_chain_depth=2)
    chain = evaluate(policy, pool, subject, NEWS, now)
    assert (chain is not None) is (abs(refreshed - today) < rate)
    if chain is not None:
        assert [link.credential for link in chain.links] == list(pool)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rate=_RATES | st.floats(min_value=5e-324, max_value=1e-4))
def test_every_rate_the_search_is_tried_at_survives_its_wire_form(rate):
    """A credential issued at any of those refresh rates, tiny ones
    included, parses back from its transport form with the same rate and
    verifies."""
    sent = issue(_KEYS[0], _body(0, [_binding(1, [NEWS], NOW)]).replace(refresh_rate_days=rate))
    received = from_transport_json(to_transport_json(sent))
    verify_credential(received)
    assert received.refresh_rate_days == rate
    assert canonical_bytes(received) == canonical_bytes(sent)


# -- ranks without a pool sort ----------------------------------------------------------
#
# A link's rank is (canonical bytes, input position), read only for a
# candidate chain; the search never sorts the pool.  These pools put
# pressure on exactly that: the same object twice, distinct objects with
# equal bytes, and noise at every position.


def _exhaustive_search(pool):
    """(policy, subject, label, when) -> the exhaustive search's chain over
    ``pool``, whose signatures the oracle checks once."""
    sound = oracle_sound(pool)
    links = {when: oracle_links(sound, when) for when in DATES}
    return lambda policy, subject, label, when: exhaustive_evaluate(
        policy, links[when], subject, label
    )


def _equal_bytes_copy(cred: Sattestation) -> Sattestation:
    """A distinct credential object with the same bytes and signature."""
    return from_transport_json(to_transport_json(cred))


def _issuer(cred) -> tuple[str, str]:
    return (cred.sattestor_domain, cred.sattestor_onion.label)


def _queries(rng: random.Random, n: int):
    """A policy and every (subject, label, date) query over ``n`` nodes."""
    policy = _random_policy(rng, n, rng.randint(1, 4))
    return policy, [
        (_sata(node), label, when) for node in range(n) for label in LABELS for when in DATES
    ]


@pytest.mark.parametrize("copy", ["same object", "equal bytes"])
def test_duplicated_credentials_rank_as_the_exhaustive_search(copy):
    rng = random.Random(f"duplicates:{copy}")
    relied_on_copies = 0
    for _ in range(60):
        n = rng.randint(2, 6)
        pool = _random_pool(rng, n)
        copies = set()
        for cred in rng.sample(pool, rng.randint(1, len(pool))):
            twin = cred if copy == "same object" else _equal_bytes_copy(cred)
            pool.insert(rng.randrange(len(pool) + 1), twin)
            copies.add(canonical_bytes(cred))
        policy, queries = _queries(rng, n)
        exhaustive = _exhaustive_search(pool)
        for subject, label, when in queries:
            chain = evaluate(policy, pool, subject, label, when)
            want = exhaustive(policy, subject, label, when)
            assert _chain_ids(chain) == _chain_ids(want), (subject, label, when)
            if chain is not None:
                relied_on_copies += any(
                    canonical_bytes(link.credential) in copies for link in chain.links
                )
    assert relied_on_copies >= 200, relied_on_copies


def test_junk_and_stale_credentials_at_random_positions_change_nothing():
    rng = random.Random("junk-and-stale")
    hits = 0
    for _ in range(60):
        n = rng.randint(2, 6)
        pool = _random_pool(rng, n)
        noisy = list(pool)
        for _ in range(rng.randint(1, 8)):
            i, j = rng.randrange(n), rng.randrange(n)
            bindings = [_binding(j, rng.sample(LABELS, rng.randint(1, 3)), NOW)]
            kind = rng.choice(("junk", "stale", "pinned"))
            if kind == "junk":
                noise = Sattestation(body=_body(i, bindings), signature=rng.randbytes(64))
            elif kind == "stale":  # stale at every date queried
                stale = [_binding(j, b.labels, NOW - timedelta(days=30)) for b in bindings]
                noise = issue(_KEYS[i], _body(i, stale))
            else:  # fingerprints on a binding of a credential about another node
                pinned = [b.replace(cert_fingerprints=(FINGERPRINT,)) for b in bindings]
                noise = issue(_KEYS[i], _body(i, pinned + [_binding((j + 1) % n, [NEWS], NOW)]))
            noisy.insert(rng.randrange(len(noisy) + 1), noise)
        policy, queries = _queries(rng, n)
        exhaustive = _exhaustive_search(noisy)
        for subject, label, when in queries:
            chain = evaluate(policy, noisy, subject, label, when)
            assert _chain_ids(chain) == _chain_ids(evaluate(policy, pool, subject, label, when))
            assert _chain_ids(chain) == _chain_ids(exhaustive(policy, subject, label, when))
            hits += chain is not None
    assert hits >= 300, hits


@pytest.mark.parametrize(
    "shape",
    [list, tuple, lambda pool: (cred for cred in pool)],
    ids=["list", "tuple", "generator"],
)
def test_the_pool_may_be_any_iterable(shape):
    rng = random.Random("pool-shapes")
    hits = 0
    for _ in range(30):
        n = rng.randint(2, 6)
        pool = _random_pool(rng, n)
        policy, queries = _queries(rng, n)
        exhaustive = _exhaustive_search(pool)
        for subject, label, when in queries:
            chain = evaluate(policy, shape(pool), subject, label, when)
            assert _chain_ids(chain) == _chain_ids(exhaustive(policy, subject, label, when))
            hits += chain is not None
    assert hits >= 100, hits


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), mover=st.randoms(use_true_random=False))
def test_moving_other_issuers_and_unsound_credentials_keeps_the_chain(seed, mover):
    """Only the input order of one issuer's sound credentials can break a
    tie, so any move that keeps it leaves every chain as it was."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    pool = _random_pool(rng, n)
    policy, queries = _queries(rng, n)
    sound = {id(c) for c in oracle_sound(pool)}
    in_order: dict[tuple[str, str], list[Sattestation]] = {}
    for cred in pool:
        if id(cred) in sound:
            in_order.setdefault(_issuer(cred), []).append(cred)
    moved = list(pool)
    mover.shuffle(moved)
    # each issuer's sound credentials go back into the slots they now hold,
    # in their first order; everything else stays where the shuffle put it
    moved = [in_order[_issuer(c)].pop(0) if id(c) in sound else c for c in moved]
    for subject, label, when in queries:
        chain = evaluate(policy, moved, subject, label, when)
        assert _chain_ids(chain) == _chain_ids(evaluate(policy, pool, subject, label, when))


# -- entries that are not credentials ---------------------------------------------------

JUNK_ENTRIES = (None, "junk", 5, 2.5, b"\x00" * 64, ("bank.example",), object())


def _with_junk(rng: random.Random, pool: list) -> list:
    noisy = list(pool)
    for entry in rng.sample(JUNK_ENTRIES, rng.randint(1, len(JUNK_ENTRIES))):
        noisy.insert(rng.randrange(len(noisy) + 1), entry)
    return noisy


def test_entries_that_are_not_credentials_change_no_answer():
    rng = random.Random("not-credentials")
    hits = rotations = 0
    for _ in range(30):
        n = rng.randint(2, 6)
        pool = _random_pool(rng, n)
        noisy = _with_junk(rng, pool)
        policy, queries = _queries(rng, n)
        for subject, label, when in queries:
            chain = evaluate(policy, noisy, subject, label, when)
            assert _chain_ids(chain) == _chain_ids(evaluate(policy, pool, subject, label, when))
            hits += chain is not None
        for when in DATES:
            assert usable_links(noisy, when) == usable_links(pool, when)
        pool = _rotation_pool(rng)
        noisy = _with_junk(rng, pool)
        old, new = rng.sample(_ROTATING, 2)
        got = rotation_check(old, new, noisy, NOW)
        assert got == rotation_check(old, new, pool, NOW)
        rotations += got.ok
    assert hits >= 100 and rotations >= 1, (hits, rotations)


# -- the pool index is reused only while the pool is unchanged -------------------------


def _oracle_chain(policy, pool, subject, label, when):
    """The exhaustive search's chain over the credentials ``pool`` holds now."""
    sound = oracle_sound([c for c in pool if isinstance(c, Sattestation)])
    return exhaustive_evaluate(policy, oracle_links(sound, when), subject, label)


def _assert_answers_match_the_oracle(policy, pool, queries):
    """``evaluate``, ``rotation_check`` and ``validate_alt_svc`` on ``pool``
    agree with the oracles over the credentials it holds now."""
    sound = oracle_sound([c for c in pool if isinstance(c, Sattestation)])
    links = {when: oracle_links(sound, when) for _subject, _label, when in queries}
    for when in links:
        for old, new in itertools.permutations(_ROTATING, 2):
            got = rotation_check(old, new, pool, when)
            assert (got.ok, got.missing) == rotation_over_links(old, new, links[when])
        for origin, onion in itertools.product(_DOMAINS[:5], _KEYS[:5]):
            host = f"{onion.address.label}.onion"
            want = alt_svc_every_credential(origin, host, pool, now=when)
            assert validate_alt_svc(origin, host, pool, now=when) is want
    hits = 0
    for subject, label, when in queries:
        chain = evaluate(policy, pool, subject, label, when)
        want = exhaustive_evaluate(policy, links[when], subject, label)
        assert _chain_ids(chain) == _chain_ids(want), (subject, label, when)
        if chain is not None:
            hits += 1
            # the chain relies on the objects the pool holds now
            assert all(any(link.credential is c for c in pool) for link in chain.links)
    return hits


MUTATIONS = ("replace", "insert", "delete", "equal bytes", "junk")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 2**16)), max_size=5),
)
def test_a_list_changed_in_place_is_indexed_again(seed, steps):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    # credentials between the rotating addresses give rotation_check both answers
    pool = _random_pool(rng, n) + [_rotation_credential(rng) for _ in range(rng.randint(0, 4))]
    spare = _random_pool(rng, n) + [_rotation_credential(rng) for _ in range(rng.randint(0, 4))]
    policy = _random_policy(rng, n, rng.randint(1, 3))
    queries = [
        (_sata(node), label, when)
        for node in range(n)
        for label in LABELS
        for when in (NOW, NOW + timedelta(days=4))
    ]
    _assert_answers_match_the_oracle(policy, pool, queries)
    for kind, at in steps:
        i = at % (len(pool) + 1)
        if kind == "insert":
            pool.insert(i, spare[at % len(spare)])
        elif kind == "junk":
            pool.append(JUNK_ENTRIES[at % len(JUNK_ENTRIES)])
        elif not pool or i == len(pool):
            continue
        elif kind == "replace":
            pool[i] = spare[at % len(spare)]
        elif kind == "delete":
            del pool[i]
        elif isinstance(pool[i], Sattestation):  # an equal-bytes copy in its place
            pool[i] = _equal_bytes_copy(pool[i])
        _assert_answers_match_the_oracle(policy, pool, queries)


EDITS = ("same issuer", "other issuer", "insert", "delete", "duplicate", "junk")


def _same_issuer(rng: random.Random, cred: Sattestation) -> Sattestation:
    """Another credential of ``cred``'s issuer: re-issued with new refresh
    dates, junk-signed, or an equal-bytes copy."""
    kind = rng.choice(("reissue", "junk", "copy"))
    if kind == "copy":
        return _equal_bytes_copy(cred)
    refreshed = NOW - timedelta(days=rng.choice((0, 2, 30)))
    body = cred.body.replace(
        sattestees=tuple(b.replace(refreshed_on=refreshed) for b in cred.sattestees),
    )
    if kind == "junk":
        return Sattestation(body=body, signature=rng.randbytes(64))
    return issue(_key_of(cred), body)


def _key_of(cred: Sattestation) -> KeyPair:
    """The key that issued ``cred``."""
    return next(k for k in _KEYS if k.address == cred.sattestor_onion)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(
        st.tuples(st.sampled_from(EDITS), st.integers(0, 2**16), st.booleans()),
        min_size=1,
        max_size=6,
    ),
)
def test_an_edited_pool_answers_as_the_oracle(seed, steps):
    """A multi-issuer pool, built up in random order, then edited in place
    or republished as an edited tuple, answers every query of each version
    as the oracles do over what it holds then."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    creds = _random_pool(rng, n) + [_rotation_credential(rng) for _ in range(rng.randint(0, 4))]
    spare = _random_pool(rng, n) + [_rotation_credential(rng) for _ in range(rng.randint(0, 4))]
    policy = _random_policy(rng, n, rng.randint(1, 3))
    queries = [
        (_sata(node), label, when)
        for node in range(n)
        for label in LABELS
        for when in (NOW, NOW + timedelta(days=4))
    ]
    pool: list | tuple = []
    for cred in rng.sample(creds, len(creds)):
        pool.append(cred)
        subject, label, when = rng.choice(queries)
        chain = evaluate(policy, pool, subject, label, when)
        assert _chain_ids(chain) == _chain_ids(_oracle_chain(policy, pool, subject, label, when))
    _assert_answers_match_the_oracle(policy, pool, queries)
    for edit, at, republish in steps:
        edited = list(pool) if republish or isinstance(pool, tuple) else pool
        i = at % len(edited)
        cred = edited[i]
        if edit == "same issuer" and isinstance(cred, Sattestation):
            edited[i] = _same_issuer(rng, cred)
        elif edit == "other issuer":
            edited[i] = spare[at % len(spare)]
        elif edit == "insert":
            edited.insert(i, spare[at % len(spare)])
        elif edit == "delete" and len(edited) > 1:
            del edited[i]
        elif edit == "duplicate":  # an object the pool holds, at a second place
            edited[i] = edited[rng.randrange(len(edited))]
        elif edit == "junk":
            edited[i] = JUNK_ENTRIES[at % len(JUNK_ENTRIES)]
        pool = tuple(edited) if republish else edited
        for when in (NOW, NOW + timedelta(days=4)):
            sound = oracle_sound([c for c in pool if isinstance(c, Sattestation)])
            assert usable_links(pool, when) == oracle_links(sound, when)
        _assert_answers_match_the_oracle(policy, pool, queries)


def _edge_pool() -> tuple[TrustPolicy, list[Sattestation]]:
    """Five nodes each delegating news to every other, one credential per
    edge; node 0 is the root."""
    pool = [
        issue(_KEYS[i], _body(i, [_binding(j, [delegation_label(NEWS)], NOW)]))
        for i in range(5)
        for j in range(5)
        if j != i
    ]
    root = TrustRoot(sattestor=_sata(0), trusted_labels=frozenset({NEWS, delegation_label(NEWS)}))
    return TrustPolicy(roots=(root,), max_chain_depth=3), pool


def _two_roots_pool() -> tuple[TrustPolicy, list[Sattestation]]:
    """Six credentials of node 0 and one of node 2, both roots for news;
    no credential binds node 6."""
    pool = [
        issue(_KEYS[0], _body(0, [_binding(1 + j % 5, [NEWS], NOW - timedelta(days=j // 5))]))
        for j in range(6)
    ]
    pool.append(issue(_KEYS[2], _body(2, [_binding(1, [NEWS], NOW)])))
    roots = tuple(TrustRoot(sattestor=_sata(i), trusted_labels=frozenset({NEWS})) for i in (0, 2))
    return TrustPolicy(roots=roots), pool


@pytest.mark.parametrize(
    "pool_of, rounds, republish",
    [
        # one of node 1's credentials, then one of node 3's
        (_edge_pool, [(6,), (13,)], False),
        (_edge_pool, [(6,), (13,)], True),
        # four of seven places at once: the list is no longer an edited copy
        # of its last version, but its own last index is still the base
        (_two_roots_pool, [(0, 1, 3, 5)], False),
    ],
    ids=["in place", "edited tuple", "most of a list in place"],
)
def test_a_replaced_credential_re_verifies_only_its_issuer(
    monkeypatch, pool_of, rounds, republish
):
    policy, pool = pool_of()
    calls = []
    real = trust_module.verify_credential

    def counting(cred):
        calls.append(cred)
        return real(cred)

    monkeypatch.setattr(trust_module, "verify_credential", counting)
    # a miss reads every issuer of the pool
    assert evaluate(policy, pool, _sata(6), NEWS, NOW) is None
    assert sorted(map(id, calls)) == sorted(map(id, pool))
    for ks in rounds:
        calls.clear()
        edited = list(pool) if republish else pool
        for k in ks:
            edited[k] = issue(_key_of(pool[k]), pool[k].body)
        pool = tuple(edited) if republish else edited
        assert evaluate(policy, pool, _sata(6), NEWS, NOW) is None
        # the replacing credentials alone are verified; their issuer's other
        # verdicts and rows are kept
        assert sorted(map(id, calls)) == sorted(id(pool[k]) for k in ks)


@pytest.mark.parametrize("at", [0, 2])
def test_an_object_held_twice_is_replaced_at_its_own_place(at):
    """Of two places holding one object, only the edited one changes, so
    the equal-bytes copy put there ranks by that place."""
    root = TrustRoot(sattestor=_sata(0), trusted_labels=frozenset({NEWS}))
    policy = TrustPolicy(roots=(root,), max_chain_depth=1)
    twice = issue(_KEYS[0], _body(0, [_binding(1, [NEWS], NOW)]))
    pool = [twice, issue(_KEYS[2], _body(2, [_binding(1, [NEWS], NOW)])), twice]
    assert evaluate(policy, pool, _sata(1), NEWS, NOW).links[0].credential is twice
    pool[at] = _equal_bytes_copy(twice)
    assert evaluate(policy, pool, _sata(1), NEWS, NOW).links[0].credential is pool[0]


def _one_binding_pool(size: int) -> tuple[TrustPolicy, list[Sattestation]]:
    """``size`` credentials of one root, each binding one site with news."""
    pool = [
        issue(
            _KEYS[0],
            _body(
                0,
                [
                    Binding(
                        domain=f"site{i}.pool.example",
                        onion=_KEYS[1 + i % 6].address,
                        issued=NOW,
                        refreshed_on=NOW,
                        labels=(NEWS,),
                    )
                ],
            ),
        )
        for i in range(size)
    ]
    root = TrustRoot(sattestor=_sata(0), trusted_labels=frozenset({NEWS}))
    return TrustPolicy(roots=(root,)), pool


def _site(i: int) -> Sata:
    return Sata(domain=f"site{i}.pool.example", onion=_KEYS[1 + i % 6].address)


def test_a_reused_index_verifies_nothing(monkeypatch):
    policy, pool = _one_binding_pool(4000)
    calls = []
    real = trust_module.verify_credential

    def counting(cred):
        calls.append(cred)
        return real(cred)

    monkeypatch.setattr(trust_module, "verify_credential", counting)
    first = evaluate(policy, pool, _site(0), NEWS, NOW)
    assert [link.credential for link in first.links] == [pool[0]]
    assert len(calls) == len(pool)
    calls.clear()
    for i in (1, 1999, 3999):
        chain = evaluate(policy, pool, _site(i), NEWS, NOW)
        assert [link.credential for link in chain.links] == [pool[i]]
    assert evaluate(policy, pool, _site(4000), NEWS, NOW) is None
    assert calls == []
    # a credential swapped in place is noticed, and it alone is verified
    pool[7] = issue(_KEYS[0], pool[7].body)
    chain = evaluate(policy, pool, _site(7), NEWS, NOW)
    assert chain.links[0].credential is pool[7]
    assert calls == [pool[7]] and calls[0] is pool[7]


@pytest.fixture
def verified(monkeypatch):
    """The credentials the pool index hands to ``verify_credential``, in order."""
    calls: list = []
    real = trust_module.verify_credential

    def counting(cred):
        calls.append(cred)
        return real(cred)

    monkeypatch.setattr(trust_module, "verify_credential", counting)
    return calls


def test_a_tuple_republished_with_most_places_re_issued_verifies_only_those(verified):
    """Same-issuer replacements cost only the new credentials, however many:
    here 9 of 17 places, so the new tuple holds fewer than half of the old
    one's objects."""
    policy, creds = _one_binding_pool(17)
    pool = tuple(creds)
    assert evaluate(policy, pool, _site(17), NEWS, NOW) is None  # reads the root's group
    assert len(verified) == 17
    verified.clear()
    replaced = range(0, 17, 2)
    edited = list(pool)
    for k in replaced:
        edited[k] = issue(_KEYS[0], pool[k].body)
    pool = tuple(edited)
    assert evaluate(policy, pool, _site(4), NEWS, NOW).links[0].credential is pool[4]
    assert len(verified) == 9
    assert sorted(map(id, verified)) == sorted(id(pool[k]) for k in replaced)


def test_a_republished_tuple_keeps_its_base_across_queries_on_other_pools(verified):
    """Queries on other pools between two versions of a tuple, as a browser
    running other worlds makes, leave the tuple's last index as the base of
    its next version: only the replacing credential is verified."""
    policy, creds = _one_binding_pool(17)
    pool = tuple(creds)
    assert evaluate(policy, pool, _site(17), NEWS, NOW) is None
    edge_policy, edge = _edge_pool()
    # another issuer's pool as long as this one, and the edge pool, longer
    same_length = tuple(
        issue(_KEYS[2], _body(2, [_binding(j % 7, [NEWS], NOW)])) for j in range(17)
    )
    for other_policy, other in ((policy, same_length), (edge_policy, tuple(edge))):
        assert evaluate(other_policy, other, _sata(6), NEWS, NOW) is None
    verified.clear()
    pool = pool[:5] + (issue(_KEYS[0], pool[5].body),) + pool[6:]
    assert evaluate(policy, pool, _site(5), NEWS, NOW).links[0].credential is pool[5]
    assert verified == [pool[5]]


def test_copies_parsed_from_one_text_keep_their_own_indexes(verified):
    """A copy of a pool parsed again shares no object with it, so neither
    is an edit of the other: queried in turn, each keeps its own index."""
    policy, creds = _one_binding_pool(17)
    first, second = (tuple(map(_equal_bytes_copy, creds)) for _ in range(2))
    for pool in (first, second):
        assert evaluate(policy, pool, _site(3), NEWS, NOW) is not None
    assert len(verified) == 34
    verified.clear()
    for pool in (first, second, first, second):
        assert evaluate(policy, pool, _site(3), NEWS, NOW).links[0].credential is pool[3]
    assert verified == []


REPLACEMENTS = ("sound to sound", "sound to junk", "junk to sound", "fresh to stale")
QUERIES = ("evaluate", "rotation_check", "validate_alt_svc")


def _is_fresh_at_now(cred: Sattestation) -> bool:
    return any(abs((NOW - b.refreshed_on).days) < cred.refresh_rate_days for b in cred.sattestees)


def _replacement(rng: random.Random, kind: str, pool) -> tuple[int, Sattestation] | None:
    """(place, new credential of the same issuer) for a replacement of
    ``kind`` at a random place of ``pool`` it fits, or None if none fits.
    The new credential re-dates every binding of the old one: 30 days back
    for "fresh to stale", so it is stale at ``NOW``; and it is signed by its
    issuer, or junk-signed for "sound to junk"."""
    creds = [c for c in pool if isinstance(c, Sattestation)]
    sound = {id(c) for c in oracle_sound(creds)}
    fits = {
        "sound to sound": lambda c: id(c) in sound,
        "sound to junk": lambda c: id(c) in sound,
        "junk to sound": lambda c: id(c) not in sound and oracle_well_formed(c),
        "fresh to stale": lambda c: id(c) in sound and _is_fresh_at_now(c),
    }[kind]
    places = [i for i, c in enumerate(pool) if isinstance(c, Sattestation) and fits(c)]
    if not places:
        return None
    at = rng.choice(places)
    old = pool[at]
    refreshed = NOW - timedelta(days=30 if kind == "fresh to stale" else rng.randint(0, 3))
    body = old.body.replace(
        sattestees=tuple(b.replace(refreshed_on=refreshed) for b in old.sattestees),
    )
    if kind == "sound to junk":
        return at, Sattestation(body=body, signature=rng.randbytes(64))
    return at, issue(_key_of(old), body)


def _query_matches_the_oracle(rng: random.Random, query: str, policy, pool, n: int) -> None:
    """One random query of kind ``query`` on ``pool`` agrees with its oracle
    over the credentials the pool holds now."""
    when = rng.choice((NOW, NOW + timedelta(days=4)))
    if query == "evaluate":
        subject, label = _sata(rng.randrange(n)), rng.choice(LABELS)
        chain = evaluate(policy, pool, subject, label, when)
        assert _chain_ids(chain) == _chain_ids(_oracle_chain(policy, pool, subject, label, when))
    elif query == "rotation_check":
        old, new = rng.sample(_ROTATING, 2)
        links = oracle_links(oracle_sound([c for c in pool if isinstance(c, Sattestation)]), when)
        got = rotation_check(old, new, pool, when)
        assert (got.ok, got.missing) == rotation_over_links(old, new, links)
    else:
        origin, key = rng.choice(_DOMAINS[:5]), rng.choice(_KEYS[:5])
        host = f"{key.address.label}.onion"
        want = alt_svc_every_credential(origin, host, pool, now=when)
        assert validate_alt_svc(origin, host, pool, now=when) is want


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(
        st.tuples(
            st.sampled_from(REPLACEMENTS),
            st.booleans(),
            st.lists(st.sampled_from(QUERIES), max_size=3),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_each_credential_object_is_verified_at_most_once_across_edits(seed, steps):
    """Same-issuer replacements, made in place or as edited tuples, with
    queries between them: every answer is the oracles' over what the pool
    holds then, and the pool index hands each credential object to
    ``verify_credential`` at most once over the whole sequence.

    The pool holds at least 17 entries, so after at most 8 replacements it
    is still an edited copy of every earlier version (most places hold the
    same objects), which is what lets an index be derived."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    pool: list | tuple = _random_pool(rng, n)
    pool += [_rotation_credential(rng) for _ in range(max(2, 17 - len(pool)))]
    policy = _random_policy(rng, n, rng.randint(1, 3))
    checked: list = []  # holds every object it sees, so no two share an id
    real = trust_module.verify_credential

    def counting(cred):
        checked.append(cred)
        return real(cred)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trust_module, "verify_credential", counting)
        sound = oracle_sound([c for c in pool if isinstance(c, Sattestation)])
        assert usable_links(pool, NOW) == oracle_links(sound, NOW)  # reads every issuer
        for query in QUERIES:
            _query_matches_the_oracle(rng, query, policy, pool, n)
        for kind, republish, queries in steps:
            replacement = _replacement(rng, kind, pool)
            if replacement is not None:
                at, new = replacement
                edited = list(pool) if republish or isinstance(pool, tuple) else pool
                edited[at] = new
                pool = tuple(edited) if republish else edited
            for query in queries:
                _query_matches_the_oracle(rng, query, policy, pool, n)
    assert len({id(cred) for cred in checked}) == len(checked)


def test_a_pool_republished_as_edited_copies_keeps_one_index():
    """A new tuple that re-issues one credential of the last replaces it,
    as a pool republished after each refresh does; the old pools' indexes
    are dropped, not kept until they age out."""
    policy, creds = _one_binding_pool(20)
    pool = tuple(creds)
    assert evaluate(policy, pool, _site(3), NEWS, NOW) is not None
    for k in range(40):
        i = k % len(pool)
        pool = pool[:i] + (issue(_KEYS[0], pool[i].body),) + pool[i + 1 :]
        chain = evaluate(policy, pool, _site(i), NEWS, NOW)
        assert chain.links[0].credential is pool[i]
    # every version re-issues the same bodies; other tests' pools share none
    bodies = {id(cred.body) for cred in creds}
    held = [
        index
        for index in trust_module._memo.values()
        if any(id(getattr(entry, "body", None)) in bodies for entry in index.entries)
    ]
    assert len(held) == 1 and all(map(operator.is_, held[0].entries, pool))


def test_the_memo_does_not_keep_the_pool_container_alive():
    class Pool(list):  # a list that can be weakly referenced
        pass

    policy, creds = _one_binding_pool(3)
    pool = Pool(creds)
    gone = weakref.ref(pool)
    assert evaluate(policy, pool, _site(1), NEWS, NOW) is not None
    assert evaluate(policy, pool, _site(2), NEWS, NOW) is not None
    del pool
    gc.collect()
    assert gone() is None


def _chain_bytes(chain):
    """The chain by its credentials' bytes: equal for an equal-bytes copy."""
    if chain is None:
        return None
    return [(canonical_bytes(l.credential), l.binding_index, l.label) for l in chain.links]


def test_threads_sharing_and_churning_pools_agree_with_the_oracle():
    rng = random.Random("threads")
    cases = []
    while len(cases) < 5:  # one shared pool, one per thread
        n = rng.randint(3, 6)
        pool = _random_pool(rng, n)
        policy, queries = _queries(rng, n)
        answers = [(q, _oracle_chain(policy, pool, *q)) for q in queries]
        hits = [a for a in answers if a[1] is not None][:20]
        if len(hits) < 8:
            continue
        misses = [a for a in answers if a[1] is None][:20]
        queries, want = zip(*(hits + misses))
        cases.append((policy, pool, queries, want))
    shared, own = cases[0], cases[1:]
    # editors swap shared credentials for equal-bytes copies and back, in
    # place, so the shared pool's answers keep their bytes, not their objects
    copies = [(i, c, _equal_bytes_copy(c)) for i, c in enumerate(shared[1])]
    failures: list = []
    done = threading.Event()

    def work(mine):
        try:
            for round_ in range(6):
                for case, same in ((shared, _chain_bytes), (mine, _chain_ids)):
                    policy, pool, queries, want = case
                    # every other round a new container: the memo evicts
                    # while other threads read it
                    pool = tuple(pool) if round_ % 2 else pool
                    for (subject, label, when), chain in zip(queries, want):
                        got = evaluate(policy, pool, subject, label, when)
                        if same(got) != same(chain):
                            failures.append((subject, label, when))
        except Exception as exc:  # reported below, with the thread's failures
            failures.append(exc)

    def edit(seed):
        edits = random.Random(seed)
        try:
            while not done.is_set():
                i, original, copy = edits.choice(copies)
                shared[1][i] = copy if shared[1][i] is original else original
        except Exception as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        editors = [threading.Thread(target=edit, args=(k,)) for k in range(2)]
        threads = [threading.Thread(target=work, args=(mine,)) for mine in own]
        for t in editors + threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        done.set()
        for t in editors:
            t.join(timeout=120)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in editors + threads)
    assert failures == []


# -- cost ---------------------------------------------------------------------------


def _complete_graph(n: int):
    """Every node delegates sattestor(news) to every other; node 0 is the root."""
    keys = [keygen(bytes([0x80 + i]) * 32) for i in range(n)]
    satas = [Sata(domain=f"c{i}.complete.example", onion=k.address) for i, k in enumerate(keys)]
    pool = [
        issue(
            keys[i],
            SattestationBody(
                sattestor_domain=satas[i].domain,
                sattestor_onion=satas[i].onion,
                refresh_rate_days=7,
                sattestees=tuple(
                    Binding(
                        domain=satas[j].domain,
                        onion=satas[j].onion,
                        issued=NOW,
                        refreshed_on=NOW,
                        labels=(delegation_label(NEWS),),
                    )
                    for j in range(n)
                    if j != i
                ),
            ),
        )
        for i in range(n)
    ]
    root = TrustRoot(sattestor=satas[0], trusted_labels=frozenset({NEWS, delegation_label(NEWS)}))
    return root, pool


@pytest.mark.parametrize("depth", [4, 6])
def test_miss_on_complete_graph_is_polynomial(depth):
    # the exhaustive search needs about 40^depth steps here: 31.8 s at depth 4
    root, pool = _complete_graph(40)
    policy = TrustPolicy(roots=(root,), max_chain_depth=depth)
    stranger = Sata(domain="stranger.example", onion=keygen(b"\x7f" * 32).address)
    started = time.perf_counter()
    assert evaluate(policy, pool, stranger, NEWS, NOW) is None
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"miss at depth {depth} took {elapsed:.2f} s"


# -- verify once -----------------------------------------------------------------------


@pytest.fixture
def verify_calls(monkeypatch):
    """Signature checks made through ``satakit.credential.verify``, per signature."""
    calls: dict[bytes, int] = {}
    real = credential_module.verify

    def counting(pubkey, message, signature):
        calls[signature] = calls.get(signature, 0) + 1
        return real(pubkey, message, signature)

    monkeypatch.setattr(credential_module, "verify", counting)
    return calls


def test_each_credential_object_is_verified_once(verify_calls):
    rng = random.Random("verify-once")
    pool = _random_pool(rng, 7)
    # rotation between nodes 0 and 1, both directions
    pool += [
        issue(_KEYS[0], _body(0, [_binding(1, ["rotation"], NOW)])),
        issue(_KEYS[1], _body(1, [_binding(0, ["rotation"], NOW)])),
    ]
    policy = _random_policy(rng, 7, 4)
    for _ in range(3):
        usable_links(pool, NOW)
        for node in range(7):
            evaluate(policy, pool, _sata(node), NEWS, NOW)
        rotation_check(_sata(0), Sata(domain=_DOMAINS[0], onion=_KEYS[1].address), pool, NOW)
    # the structural checks come first, so only well-formed credentials with
    # canonical bytes (a positive rate) reach the signature; exact
    # duplicates are distinct objects sharing one
    signatures = [
        c.signature for c in pool if oracle_well_formed(c) and c.refresh_rate_days > 0
    ]
    assert verify_calls == {sig: signatures.count(sig) for sig in signatures}


def test_tampered_or_reissued_objects_are_checked_again(verify_calls):
    body = _body(0, [_binding(1, [NEWS], NOW)])
    original = issue(_KEYS[0], body)
    verify_credential(original)
    verify_credential(original)
    assert verify_calls == {original.signature: 1}

    flipped = bytes([original.signature[0] ^ 1]) + original.signature[1:]
    tampered_signature = original.replace(signature=flipped)
    with pytest.raises(BadSignature):
        verify_credential(tampered_signature)
    assert verify_calls[flipped] == 1

    tampered_body = Sattestation(
        body=body.replace(sattestor_domain="evil.example"),
        signature=original.signature,
    )
    with pytest.raises(BadSignature):
        verify_credential(tampered_body)
    assert verify_calls[original.signature] == 2
    assert usable_links([tampered_signature, tampered_body], NOW) == []

    reissued = Sattestation(body=body, signature=original.signature)
    verify_credential(reissued)
    assert verify_calls[original.signature] == 3


def test_structural_verdict_is_kept_and_raised_afresh(monkeypatch):
    # a self-loop without cert fingerprints breaks the structural rule
    loop = issue(_KEYS[0], _body(0, [_binding(0, [NEWS], NOW)]))
    first = pytest.raises(StructuralViolation, verify_credential, loop).value

    def no_recheck(_credential):
        raise AssertionError("structural checks ran again")

    monkeypatch.setattr(credential_module, "is_self_sattestation", no_recheck)
    again = pytest.raises(StructuralViolation, verify_credential, loop).value
    assert again is not first and str(again) == str(first)


def test_queries_verify_only_the_issuers_they_read(verify_calls, monkeypatch):
    """``evaluate`` verifies the credentials of the issuers its search
    reaches and no others; ``rotation_check`` and ``validate_alt_svc`` on
    the same list then read that index, verifying nothing and building no
    other; ``usable_links`` reads every issuer."""
    # the root (node 0) delegates news to node 1, which binds node 2; node 0
    # also sattests itself and its next address, node 0's domain at key 1
    successor = Sata(domain=_DOMAINS[0], onion=_KEYS[1].address)
    to_successor = Binding(
        domain=successor.domain, onion=successor.onion, issued=NOW, refreshed_on=NOW,
        labels=("rotation",),
    )
    reached = [
        issue(_KEYS[0], _body(0, [_binding(1, [delegation_label(NEWS)], NOW), to_successor])),
        issue(_KEYS[1], _body(1, [_binding(2, [NEWS], NOW)])),
        make_self_sattestation(
            key=_KEYS[0], domain=_DOMAINS[0], cert_fingerprints=[FINGERPRINT],
            issued=NOW, refreshed_on=NOW, refresh_rate_days=7,
        ),
        Sattestation(body=_body(1, [_binding(3, [NEWS], NOW)]), signature=b"\x01" * 64),
    ]
    unreached = [issue(_KEYS[i], _body(i, [_binding(2, [NEWS], NOW)])) for i in (3, 4, 5)]
    junk = Sattestation(body=_body(6, [_binding(2, [NEWS], NOW)]), signature=b"\x02" * 64)
    unreached.append(junk)
    pool = [cred for pair in zip(unreached, reached) for cred in pair]
    root = TrustRoot(sattestor=_sata(0), trusted_labels=frozenset({NEWS, delegation_label(NEWS)}))
    policy = TrustPolicy(roots=(root,), max_chain_depth=2)
    built = []
    real_index = trust_module._PoolIndex

    def counting_index(entries):
        built.append(entries)
        return real_index(entries)

    monkeypatch.setattr(trust_module, "_PoolIndex", counting_index)
    chain = evaluate(policy, pool, _sata(2), NEWS, NOW)
    assert [link.credential for link in chain.links] == reached[:2]
    assert verify_calls == {cred.signature: 1 for cred in reached}
    assert len(built) == 1

    verify_calls.clear()
    assert rotation_check(_sata(0), successor, pool, NOW).missing == ("new-to-old",)
    host = f"{_KEYS[0].address.label}.onion"
    assert validate_alt_svc(_DOMAINS[0], host, pool, now=NOW) is AltSvcDecision.ALLOW
    assert verify_calls == {}
    assert len(built) == 1

    assert len(usable_links(pool, NOW)) == 7
    assert verify_calls == {cred.signature: 1 for cred in unreached}
    assert len(built) == 1


def test_a_hit_ends_the_search_before_other_delegates_are_read(verify_calls):
    """A depth that holds a hit is the last one searched: a state there
    that may not use the queried label is never read, so its issuer is
    never verified."""
    # the root (node 0) delegates news to node 1 and bank to node 2; node 1
    # binds node 3 with news, and node 2 issues a credential of its own
    reached = [
        issue(
            _KEYS[0],
            _body(0, [
                _binding(1, [delegation_label(NEWS)], NOW),
                _binding(2, [delegation_label("bank")], NOW),
            ]),
        ),
        issue(_KEYS[1], _body(1, [_binding(3, [NEWS], NOW)])),
    ]
    unread = issue(_KEYS[2], _body(2, [_binding(3, ["bank"], NOW)]))
    root = TrustRoot(
        sattestor=_sata(0),
        trusted_labels=frozenset({delegation_label(NEWS), delegation_label("bank")}),
    )
    policy = TrustPolicy(roots=(root,), max_chain_depth=3)
    chain = evaluate(policy, [unread, *reached], _sata(3), NEWS, NOW)
    assert [link.credential for link in chain.links] == reached
    assert [(link.binding_index, link.label) for link in chain.links] == [
        (0, delegation_label(NEWS)),
        (0, NEWS),
    ]
    assert verify_calls == {cred.signature: 1 for cred in reached}


# -- rotation ---------------------------------------------------------------------------

# one domain's addresses under four keys: the parties of a rotation
_ROTATING = [Sata(domain=_DOMAINS[0], onion=_KEYS[k].address) for k in range(4)]


def _rotation_credential(rng: random.Random) -> Sattestation:
    """A credential between two rotating addresses: fresh, stale,
    junk-signed, pinned (structurally broken) or carrying another binding
    besides."""
    a, b = rng.sample(range(4), 2)
    age = rng.choice((0, 2, 30))
    bindings = [
        Binding(
            domain=_DOMAINS[0],
            onion=_KEYS[b].address,
            issued=NOW - timedelta(days=40),
            refreshed_on=NOW - timedelta(days=age),
            labels=("rotation",),
            cert_fingerprints=(FINGERPRINT,) if rng.random() < 0.1 else (),
        )
    ]
    if rng.random() < 0.3:
        bindings.insert(rng.randint(0, 1), _binding(rng.randrange(1, 7), [NEWS], NOW))
    body = SattestationBody(
        sattestor_domain=_DOMAINS[0],
        sattestor_onion=_KEYS[a].address,
        refresh_rate_days=7,
        sattestees=tuple(bindings),
    )
    if rng.random() < 0.15:
        return Sattestation(body=body, signature=rng.randbytes(64))
    return issue(_KEYS[a], body)


def _rotation_pool(rng: random.Random) -> list[Sattestation]:
    """A random pool plus credentials between the rotating addresses."""
    pool = _random_pool(rng, 7)
    for _ in range(rng.randint(1, 8)):
        cred = _rotation_credential(rng)
        pool.insert(rng.randrange(len(pool) + 1), cred)
    return pool


def test_rotation_check_matches_the_check_over_usable_links():
    rng = random.Random("rotation")
    outcomes = set()
    for _ in range(40):
        pool = _rotation_pool(rng)
        for when in DATES:
            for old in _ROTATING:
                for new in _ROTATING:
                    if old == new:
                        continue
                    got = rotation_check(old, new, pool, when)
                    want = rotation_over_links(old, new, usable_links(pool, when))
                    assert (got.ok, got.missing) == want
                    outcomes.add(got.missing)
    assert outcomes == {(), ("old-to-new",), ("new-to-old",), ("old-to-new", "new-to-old")}


def test_rotation_check_verifies_only_the_parties_credentials(verify_calls):
    rng = random.Random("rotation-verifies")
    verified = 0
    for _ in range(20):
        pool = _rotation_pool(rng)
        old, new = rng.sample(_ROTATING, 2)
        parties = {(s.domain, s.onion.label) for s in (old, new)}
        verify_calls.clear()
        rotation_check(old, new, iter(pool), NOW)
        issued = {
            c.signature
            for c in pool
            if (c.sattestor_domain, c.sattestor_onion.label) in parties and oracle_well_formed(c)
        }
        # a direction stops at its first sound, fresh attestation
        assert set(verify_calls) <= issued
        verified += len(verify_calls)
    assert verified >= 30, verified


# -- signing ---------------------------------------------------------------------------


def test_sign_uses_the_kept_private_key(monkeypatch):
    vec = RFC8032_VECTOR_1
    pair = keygen(bytes.fromhex(vec["seed"]))

    class NoDerivation:
        @staticmethod
        def from_private_bytes(_seed):
            raise AssertionError("sign re-derived the private key")

    monkeypatch.setattr(ed25519, "Ed25519PrivateKey", NoDerivation)
    assert sign(pair, vec["message"]).hex() == vec["signature"]


def test_keygen_derives_the_private_key_once(monkeypatch):
    vec = RFC8032_VECTOR_1
    real = ed25519.Ed25519PrivateKey
    seeds: list[bytes] = []

    class Counting:
        @staticmethod
        def from_private_bytes(seed):
            seeds.append(seed)
            return real.from_private_bytes(seed)

    monkeypatch.setattr(ed25519, "Ed25519PrivateKey", Counting)
    pair = keygen(bytes.fromhex(vec["seed"]))
    assert seeds == [pair.secret]
    assert pair.public.hex() == vec["public"]
    assert sign(pair, vec["message"]).hex() == vec["signature"]
    with pytest.raises(KeyMismatch):
        KeyPair(secret=pair.secret, public=keygen(b"\x01" * 32).public)


def test_keypair_private_key_is_not_part_of_its_value():
    a, b = keygen(b"\x05" * 32), keygen(b"\x05" * 32)
    assert a == b and hash(a) == hash(b)
    assert "private" not in repr(a)
    # nor is the secret seed in its repr, so a logged key pair leaks no key
    for pair in (a, keygen(bytes(range(32)))):
        assert pair.secret.hex() not in repr(pair)
        assert repr(pair.secret) not in repr(pair)
