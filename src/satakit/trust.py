"""Contextual trust evaluation over sets of sattestations.

A client trusts a (subject, label) binding when a chain of credentials
connects one of its configured trust roots to the subject:

* the first link is issued by a root and carries a label that root is
  trusted for;
* every non-terminal link carries a delegation label ``sattestor(X)``,
  which grants the SATA it binds the authority to sattest label ``X``
  (and to pass that same authority along) at the next hop;
* the terminal link binds the subject with the queried label.

Chains are bounded by the policy's ``max_chain_depth``; the shortest valid
chain wins.  Among chains of that length the one with the smallest tuple
of step keys ``(sattestor domain, sattestor onion, binding index, label)``
wins, then the one with the smallest tuple of link ranks, so evaluation is
deterministic.  A link's rank is (canonical bytes, input position) of its
credential, the position counted among all of its issuer's credentials,
sound or not, in the order the pool gives them.  Ranks are compared only
when the step keys are equal, which means the same issuer at every step,
so this picks the chain that positions in pool order would: sorted by
(sattestor domain, sattestor onion, canonical bytes), stably, the order
of :func:`usable_links`.  The search compares only the rank of the link
being added: candidates with equal step keys extend the same state, and
a state keeps one chain, so their earlier ranks are equal.

The search is breadth-first over states (issuer identity, allowed-label
set), in the manner of Clarke et al., "Certificate chain discovery in
SPKI/SDSI" (J. Computer Security 2001).  Each state is expanded once, at
the first depth that reaches it, and keeps one chain.  It is expanded
only through the delegation labels that reach the queried label L, those
that unwrapping with :func:`delegation_scope` turns into L:
``sattestor(L)``, ``sattestor(sattestor(L))`` and so on, and L itself when
L is a delegation label.  A link carrying ``sattestor(X)`` grants
``{X, sattestor(X)}``, so a state entered through any other label cannot
use L, nor can any state after it.  The rows skipped could give no hit,
and a state's key holds its allowed labels, so skipping them keeps no
state that may use L from being reached: ``seen``, the tie rule and every
chain found are unchanged.

Every query reads a pool through its index, the one owner of which
published credentials count: :func:`evaluate`, :func:`usable_links`,
:func:`rotation_check` and :func:`satakit.validation.validate_alt_svc`.
The index places the pool's credentials by issuer in one pass, in input
order, without sorting or verifying them; entries that are not
credentials are skipped.  The first query that reads an issuer, whatever
the query, verifies that issuer's credentials and builds the table of the
sound ones' bindings, keyed by subject and plain label or by delegation
label, and both are kept with the index.  A credential that raises any
``SataError`` is dropped, not fatal, so publishing junk cannot poison a
query.

An index is reused while the same list or tuple holds the same credential
objects in the same order.  The indexes of the 16 most recently queried
pools are kept in one process-wide memo guarded by a lock.  The memo
holds a plain tuple itself, so a query on a tuple it holds is known by
identity; a list is compared with a copy of its entries, object by
object.  One rule serves a list or tuple the memo does not hold: its
index is derived from the most recently used memo index whose pool it
differs from only by credentials replaced with ones of the same issuer,
however many, while one object at least stays in its place.  The
container's own last index is tried first, and the new index takes the
place of the one it was derived from.  Such an edit moves no issuer's
positions, so they are shared, as is the state of every issuer no
replacement touched.  A pool no memo index allows this for is placed
afresh, as is any iterable other than a list or tuple, on every call.

An issuer's state is (credentials, verdicts, sound credentials, table)
and describes exactly the credentials it names.  The first query that
reads an issuer a replacement touched fits the state it had in the base
index to the credentials the pool holds now: only the credentials at
places holding other objects are verified, and only the row lists under
keys the replaced and the replacing credentials' bindings name are copied
without those places' rows, then given the new sound credentials' rows,
so no other row moves and every other row list is shared.

Cost: a query that reuses an index pays nothing for a tuple the memo holds
and one identity pass over any other container, plus for :func:`evaluate`
at most states x bindings, whatever the depth.  Each depth is searched for
hits first, reading only the subject's rows in the states that may use the
queried label; delegation rows are walked only at a depth that holds no
hit and is not the last, only under the labels that reach the queried
label, and only in the states that hold one, and the search stops at the
first depth that reaches no new state.  So a hit at depth d reads no
state of that depth that may not use the label, and verifies no issuer
met only there; a query's cost does not depend on the delegation graphs
of other scopes, whose issuers it neither reads nor verifies, and a query
for a label that no root can use or reach verifies no issuer.  A pool
the memo does not hold is compared with its indexes in turn: one of
another length costs nothing, and one as long costs identity passes, until
an object in the same place is found and then until the two differ by more
than a same-issuer replacement.  The first query to read a touched issuer
pays an identity pass over that issuer's credentials, one pass over its
rows, and for each replaced credential the new one's verification and
rows.  A pool placed afresh pays one placing pass.  Either way an issuer
is verified, and its table built, only the first time a query reads it, so
a query verifies only the issuers it reaches and a pool published by an
adversary cannot force more.  Each credential object keeps its structural
and signature verdicts (see :func:`verify_credential`), so indexing a pool
again stays cheap.  New objects with bytes the process has verified
before, such as a pool fetched again as text, pay their structural checks
and one keyed digest each, and no ed25519 operation while the signature
memo of :func:`satakit.onion.verify` holds them; only the identity reuse
above is lost.  Freshness depends on the query date and is checked per
query, as one chained integer comparison per row read: a row holds the
first and last day ordinals on which its binding is fresh, its refresh
date's ordinal minus and plus its credential's :func:`freshness_slack`.
A row also holds its credential's canonical bytes, the object the body
keeps, and a delegation row the state it leads to, so reading a row calls
no function and builds no tuple until it is a candidate.  The policy's
first states are built once per :class:`TrustPolicy`, and which labels of
an allowed set reach a queried label is worked out once while a memo of
the 256 most recent such pairs holds it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from datetime import date
from functools import cached_property, lru_cache
from itertools import compress, count
from operator import is_, is_not
from typing import Iterable, Optional, Sequence

from . import _json
from ._value import Value
from .credential import (
    Sattestation,
    canonical_bytes,
    freshness_slack,
    is_fresh,
    make_self_sattestation,
    verify_credential,
)
from .errors import DomainMismatch, KeyMismatch, SataError, UnrepresentableField
from .onion import KeyPair, parse_onion
from .sata import Sata, to_subdomain_form

DELEGATION_PREFIX = "sattestor("
DELEGATION_SUFFIX = ")"


def delegation_label(scope: str) -> str:
    """Label delegating authority over ``scope`` to the bound SATA."""
    return f"{DELEGATION_PREFIX}{scope}{DELEGATION_SUFFIX}"


def delegation_scope(label: str) -> Optional[str]:
    """The scope inside a ``sattestor(...)`` label, or None for plain labels."""
    if (
        label.startswith(DELEGATION_PREFIX)
        and label.endswith(DELEGATION_SUFFIX)
        and len(label) > len(DELEGATION_PREFIX) + len(DELEGATION_SUFFIX)
    ):
        return label[len(DELEGATION_PREFIX) : -len(DELEGATION_SUFFIX)]
    return None


def rotation_pointer_label(new: Sata) -> str:
    """The single label an expired address keeps: ``sattestor({<new>})``."""
    return delegation_label("{" + to_subdomain_form(new) + "}")


class TrustRoot(Value):
    """A root the client trusts for ``trusted_labels``.  A wrong-typed
    field raises :class:`UnrepresentableField`."""

    _type_error = UnrepresentableField
    _what = "policy"
    _field_names = {"trusted_labels": "trusted labels"}

    sattestor: Sata
    trusted_labels: frozenset[str]


class TrustPolicy(Value):
    """What a client trusts, and how far.  A wrong-typed field raises
    :class:`UnrepresentableField`, a ``max_chain_depth`` below 1
    :class:`ValueError`.  The policy is immutable, so the trust search's
    root states, its roots merged by identity, are built once, on its first
    query, and kept with it."""

    _type_error = UnrepresentableField
    _what = "policy"

    roots: tuple[TrustRoot, ...]
    max_chain_depth: int = 3
    require_sattestation_for: frozenset[str] = frozenset()
    allow_credentialed_alt_services: bool = True

    def _check(self) -> None:
        if self.max_chain_depth < 1:
            raise ValueError("max_chain_depth must be at least 1")

    @cached_property
    def _root_states(self) -> dict[tuple, tuple]:
        """The trust search's first states, built once per policy: each
        root identity with the union of the labels its roots are trusted
        for, mapped to the empty chain.  Never changed in place."""
        allowed_at_root: dict[tuple[str, str], set[str]] = {}
        for root in self.roots:
            allowed_at_root.setdefault(_identity(root.sattestor), set()).update(
                root.trusted_labels
            )
        return {
            (*ident, frozenset(allowed)): ((), ()) for ident, allowed in allowed_at_root.items()
        }


class ChainLink(Value):
    credential: Sattestation
    binding_index: int
    label: str  # the label relied upon at this hop


class TrustChain(Value):
    links: tuple[ChainLink, ...]
    subject: Sata
    label: str


class RotationResult(Value):
    """Outcome of a key-rotation check; ``missing`` names absent directions."""

    ok: bool
    missing: tuple[str, ...] = ()


def _identity(s: Sata) -> tuple[str, str]:
    """(domain, onion label) of a SATA: the issuer key of its credentials."""
    return (s.domain, s.onion.label)


def _issuer(cred: Sattestation) -> tuple[str, str]:
    """The issuer key of ``cred``: its sattestor's :func:`_identity`."""
    return (cred.body.sattestor_domain, cred.body.sattestor_onion.label)


def _grant(label: str) -> Optional[frozenset[str]]:
    """Labels a link carrying ``label`` lets its subject use at the next
    hop: ``{X, sattestor(X)}`` for ``sattestor(X)``, None for plain labels."""
    scope = delegation_scope(label)
    if scope is None:
        return None
    return frozenset({scope, delegation_label(scope)})


@lru_cache(maxsize=256)
def _walked(allowed: frozenset[str], label: str) -> tuple[str, ...]:
    """The labels of ``allowed`` whose delegation rows the search for
    ``label`` walks: those that reach it (see :func:`_reaches`).  Kept for
    the 256 most recent (allowed set, label) pairs, so a query works it out
    only for an allowed set and label no recent query had."""
    return tuple(lab for lab in allowed if _reaches(lab, label))


def _reaches(lab: str, label: str) -> bool:
    """Whether a link carrying ``lab`` can lead to a state that may use
    ``label`` (see the module docstring): ``lab`` is a delegation label,
    and is ``label`` or turns into it when unwrapped with
    :func:`delegation_scope`."""
    while (scope := delegation_scope(lab)) is not None:
        if label == lab or label == scope:
            return True
        lab = scope
    return False


def _verifies(cred: Sattestation) -> bool:
    """Whether ``cred`` passes :func:`verify_credential`; any ``SataError`` fails it."""
    try:
        verify_credential(cred)
    except SataError:
        return False
    return True


class _PoolIndex:
    """One pool's credentials placed by issuer, and each issuer's state,
    fitted by the first query that reads that issuer (see the module
    docstring).

    ``entries`` is the pool as it was indexed, kept to tell whether the
    pool has changed since.  ``_places`` maps each issuer to the positions
    of its credentials in ``entries``.  A state is (credentials, verdicts,
    sound credentials, table): it describes exactly the credentials it
    names, the issuer's in pool order, with one verdict each, and its
    table holds the rows of the sound ones (see :meth:`table`).
    ``_states`` maps each issuer read here to its state; ``_kept`` maps an
    issuer to its last state in the indexes this one was derived from,
    which :func:`_fit` starts from.  Neither the states nor ``_places`` and
    ``_kept`` are changed in place, so indexes and threads may share them.
    """

    __slots__ = ("entries", "_places", "_kept", "_states")

    def __init__(self, entries: Sequence) -> None:
        self.entries = entries
        places: dict[tuple[str, str], list[int]] = {}
        for pos, cred in enumerate(entries):
            if isinstance(cred, Sattestation):
                places.setdefault(_issuer(cred), []).append(pos)
        self._places = places
        self._kept: dict[tuple[str, str], tuple] = {}
        self._states: dict[tuple[str, str], tuple] = {}

    def derived(self, entries: Sequence) -> Optional[_PoolIndex]:
        """The index of ``entries`` derived from this one, or None unless
        ``entries`` differs from this index's entries only at positions
        where a credential was replaced by one of the same issuer, and
        holds the same object at one position at least.

        Such an edit moves no issuer's positions, so ``_places`` is shared
        whole, and every kept state names as many credentials as its
        issuer has here.  Every state read here is kept for :func:`_fit`;
        an issuer no replacement touched keeps its state as read, and a
        touched one is fitted again on its next read.  Of a pool that
        shares no object with this one, such as a copy parsed again from
        the same text, nothing would be reused, so it is not derived and
        this index, which may still be read, stays in the memo.
        """
        old = self.entries
        if len(old) != len(entries) or not any(map(is_, old, entries)):
            return None
        touched = set()
        for pos in compress(count(), map(is_not, old, entries)):
            gone, new = old[pos], entries[pos]
            if not (isinstance(gone, Sattestation) and isinstance(new, Sattestation)):
                return None
            issuer = _issuer(gone)
            if _issuer(new) != issuer:
                return None
            touched.add(issuer)
        index = object.__new__(type(self))
        index.entries = entries
        index._places = self._places
        # dict() copies in one step, so a thread filling this index's map
        # meanwhile cannot break the copy
        states = dict(self._states)
        index._kept = {**self._kept, **states}
        index._states = {i: s for i, s in states.items() if i not in touched}
        return index

    def issuers(self) -> Iterable[tuple[str, str]]:
        """Every issuer that has a credential in the pool, sound or not."""
        return self._places.keys()

    def _state(self, issuer: tuple[str, str]) -> tuple:
        """``issuer``'s state, fitted on its first read here (see
        :func:`_fit`)."""
        state = self._states.get(issuer)
        if state is None:
            places = self._places.get(issuer)
            if places is None:
                return _NO_STATE
            creds = tuple(map(self.entries.__getitem__, places))
            # a racing thread may do the same; either state serves
            state = self._states[issuer] = _fit(self._kept.get(issuer), creds)
        return state

    def issued(self, issuer: tuple[str, str]) -> Sequence[Sattestation]:
        """``issuer``'s credentials that verify, in pool order; the rest
        are dropped on any ``SataError``."""
        return self._state(issuer)[2]

    def table(self, issuer: tuple[str, str]) -> tuple[dict, dict]:
        """(plain, delegating) rows of the bindings of ``issuer``'s
        credentials that verify; both are empty when there are none.

        ``plain`` maps (subject domain, subject onion, label) to the rows
        carrying that plain label; ``delegating`` maps each ``sattestor(X)``
        label to its grant (see :func:`_grant`) and the rows carrying it.
        A row is (first and last ordinal of the days the binding is fresh
        on, refreshed_on's ordinal minus and plus the freshness slack of
        the credential's refresh rate (see :func:`freshness_slack`),
        subject domain, subject onion, binding index, place in the issuer's
        credentials, credential, its canonical bytes, state), where the
        state is None in a plain row and, in a row under ``sattestor(X)``,
        the search state it leads to: (subject domain, subject onion,
        grant).
        """
        return self._state(issuer)[3]


_NO_STATE = ((), (), (), ({}, {}))  # of an issuer the pool holds no credential of


def _fit(kept: Optional[tuple], creds: tuple[Sattestation, ...]) -> tuple:
    """The state of an issuer whose credentials are ``creds``, in pool
    order, fitted from ``kept``: None, or the issuer's state in an index
    the pool's index was derived from, which names as many credentials.

    Without ``kept`` every credential is verified and its rows put in a new
    table.  ``kept`` is reused when it names the same objects.  Otherwise
    only the credentials at places holding other objects are verified, and
    the table is patched: each row list under a key that a replaced or a
    replacing credential's bindings name is copied without those places'
    rows, then the new sound credentials' rows are put in, so no other row
    moves.  Every other row list is shared with ``kept``.
    """
    if kept is None:
        edits, verdicts, plain, delegating = range(len(creds)), [False] * len(creds), {}, {}
    else:
        was, verdicts, _sound, (plain, delegating) = kept
        edits = set(compress(count(), map(is_not, was, creds)))
        if not edits:
            return kept
        verdicts = list(verdicts)
        plain, delegating = dict(plain), dict(delegating)
        # the keys whose lists the replaced rows sit in or the new rows join:
        # a label the delegating map holds is its key there, any other label
        # names a plain key, which no delegation label is in
        named = {
            lab if lab in delegating else (binding.domain, binding.onion.label, lab)
            for g in edits
            for cred in (was[g], creds[g])
            for binding in cred.body.sattestees
            for lab in binding.labels
        }
        for key in named:
            if key in delegating:
                grant, rows = delegating.pop(key)
                if left := [r for r in rows if r[5] not in edits]:
                    delegating[key] = (grant, left)
            elif key in plain:
                if left := [r for r in plain.pop(key) if r[5] not in edits]:
                    plain[key] = left
    for g in edits:
        verdicts[g] = _verifies(creds[g])
        if verdicts[g]:
            _add_rows(plain, delegating, g, creds[g])
    return (creds, verdicts, list(compress(creds, verdicts)), (plain, delegating))


def _add_rows(plain: dict, delegating: dict, place: int, cred: Sattestation) -> None:
    """Append the rows of ``cred``, at ``place`` in its issuer's group, to
    a table's maps (see :meth:`_PoolIndex.table`).  A binding's plain
    labels share one row; each of its delegation labels gets its own, whose
    state holds the grant the table keeps for that label."""
    body = cred.body
    slack = freshness_slack(body.refresh_rate_days)
    raw = canonical_bytes(cred)
    for idx, binding in enumerate(body.sattestees):
        domain, onion = binding.domain, binding.onion.label
        refreshed = binding.refreshed_on.toordinal()
        fields = (refreshed - slack, refreshed + slack, domain, onion, idx, place, cred, raw)
        plain_row = (*fields, None)
        for lab in binding.labels:
            if lab in delegating:
                grant, rows = delegating[lab]
                rows.append((*fields, (domain, onion, grant)))
                continue
            grant = _grant(lab)
            if grant is None:
                plain.setdefault((domain, onion, lab), []).append(plain_row)
            else:
                delegating[lab] = (grant, [(*fields, (domain, onion, grant))])


_MEMO_SIZE = 16  # pools whose index is kept, least recently used dropped first
_memo: OrderedDict[int, _PoolIndex] = OrderedDict()  # id(pool container) -> index
_memo_lock = threading.Lock()


def _pool_index(credentials: Iterable[Sattestation]) -> _PoolIndex:
    """The index of ``credentials``, reused while the same list or tuple
    holds the same objects in the same order.

    The memo is keyed by the container's id.  It keeps a plain tuple
    itself: the tuple cannot change, and its id cannot be taken by another
    container while it is held, so a query on it is recognised by identity
    alone.  Of any other list or tuple it keeps a copy of the entries, not
    the container, so the indexed credentials stay alive only until the
    index is dropped, and each call compares the container's entries with
    that copy by identity.  On a miss the new index is derived (see
    :meth:`_PoolIndex.derived`) from the most recently used memo index
    that allows it, the container's own last index first, and replaces
    that base; if none does, the pool is placed afresh.  Any other iterable
    is read once and indexed afresh on every call.
    """
    if not isinstance(credentials, (list, tuple)):
        return _PoolIndex(list(credentials))
    key = id(credentials)
    with _memo_lock:
        index = _memo.get(key)
        if index is not None:
            _memo.move_to_end(key)
    if index is not None and (
        index.entries is credentials
        or (
            len(index.entries) == len(credentials)
            and all(map(is_, index.entries, credentials))
        )
    ):
        return index
    entries = credentials if type(credentials) is tuple else list(credentials)
    with _memo_lock:
        held = list(_memo.items())
    # most recently used first: the container's own, moved to the end above
    for base_key, base in reversed(held):
        index = base.derived(entries)
        if index is not None:
            break
    else:
        base_key, index = key, _PoolIndex(entries)
    with _memo_lock:
        # the base's container is most likely gone: a pool edited in place,
        # or republished as an edited copy, replaces its last index
        _memo.pop(base_key, None)
        _memo[key] = index
        _memo.move_to_end(key)
        if len(_memo) > _MEMO_SIZE:
            _memo.popitem(last=False)
    return index


def usable_links(
    credentials: Iterable[Sattestation], now: date
) -> list[tuple[Sattestation, int]]:
    """(credential, binding_index) pairs that verify and are fresh at
    ``now``, in pool order: sorted by (sattestor domain, sattestor onion,
    canonical bytes), stably."""
    index = _pool_index(credentials)
    return [
        (cred, idx)
        for issuer in sorted(index.issuers())
        for cred in sorted(index.issued(issuer), key=canonical_bytes)
        for idx, binding in enumerate(cred.sattestees)
        if is_fresh(binding, cred.refresh_rate_days, now)
    ]


def evaluate(
    policy: TrustPolicy,
    credentials: Iterable[Sattestation],
    subject: Sata,
    label: str,
    now: date,
) -> Optional[TrustChain]:
    """Shortest trust chain from a policy root to (subject, label), or None.

    Delegation semantics: a binding labeled ``sattestor(X)`` authorizes the
    bound SATA to issue label ``X`` at the next hop, or to delegate ``X``
    further (still as ``sattestor(X)``) within the depth budget.

    The pool is read through its index; the module docstring states how
    it is kept and what a query costs, and the tie rule.  Each depth is
    searched in two passes.  The hit pass reads, in each state that may
    use the query label, the subject's rows carrying it, and keeps the
    smallest fresh one; a hit ends the search there.  Only a depth with
    no hit that is not the last gets the expansion pass, which walks the
    rows of each delegation label a state may use that reaches the query
    label (``sattestor(label)``, ``sattestor(sattestor(label))``, ..., or
    ``label`` itself when it delegates) to reach the next depth's states;
    a state that may use no such label is not read, so its issuer is not
    verified, and the delegation graphs of other scopes cost the query
    nothing.  A candidate's order, (step keys, canonical bytes,
    place) with the bytes and place those of the link it adds, is built
    only for a hit or for a state no earlier depth reached.
    """
    index = _pool_index(credentials)
    # state (issuer domain, issuer onion, allowed labels) -> its one chain as
    # (step keys, credentials).  A state is expanded only at the first depth
    # that reaches it: a chain through it at a later depth has a shorter
    # twin.  All chains into a state at one depth have the same length, so
    # the smallest stays smallest under any common extension.  A step key
    # holds the issuer, binding index and label, so the credentials alone
    # complete the chain's links.  A candidate is ordered by its step keys,
    # then by the added link's rank (see the module docstring).  No two
    # candidates share an order, so the order in which rows are walked does
    # not matter.
    frontier = policy._root_states
    seen = set(frontier)
    subject_domain, subject_onion = subject.domain, subject.onion.label
    today = now.toordinal()
    plain_label = delegation_scope(label) is None
    subject_key = (subject_domain, subject_onion, label)
    last_depth = policy.max_chain_depth - 1
    for depth in range(policy.max_chain_depth):
        # hits first: the subject's fresh rows carrying the query label, read
        # only from states that may use it
        best: Optional[tuple] = None
        for (domain, onion, allowed), (keys, creds) in frontier.items():
            if label not in allowed:
                continue
            plain, delegating = index.table((domain, onion))
            if plain_label:
                rows = plain.get(subject_key, ())
            else:
                rows = delegating[label][1] if label in delegating else ()
            for first, last, sub_domain, sub_onion, idx, pos, cred, raw, _ in rows:
                if sub_domain != subject_domain or sub_onion != subject_onion:
                    continue
                if not first <= today <= last:
                    continue
                order = (keys + ((domain, onion, idx, label),), raw, pos)
                if best is None or order < best[0]:
                    best = (order, creds + (cred,))
        if best is not None:
            (keys, _bytes, _place), creds = best
            links = tuple(
                ChainLink(cred, idx, lab)
                for cred, (_domain, _onion, idx, lab) in zip(creds, keys)
            )
            return TrustChain(links=links, subject=subject, label=label)
        if depth == last_depth:
            break
        # no hit at this depth: the delegation rows of every allowed label
        # that reaches the query label lead to the next depth's states; a
        # state with no such label is not read
        reached: dict[tuple, tuple] = {}
        for (domain, onion, allowed), (keys, creds) in frontier.items():
            labs = _walked(allowed, label)
            if not labs:
                continue
            delegating = index.table((domain, onion))[1]
            for lab in labs:
                if lab not in delegating:
                    continue
                for first, last, _sd, _so, idx, pos, cred, raw, state in delegating[lab][1]:
                    if not first <= today <= last or state in seen:
                        continue
                    order = (keys + ((domain, onion, idx, lab),), raw, pos)
                    kept = reached.get(state)
                    if kept is None or order < kept[0]:
                        reached[state] = (order, creds + (cred,))
        if not reached:
            break  # no state left to expand: deeper chains cannot exist
        seen.update(reached)
        frontier = {state: (order[0], creds) for state, (order, creds) in reached.items()}
    return None


def rotation_check(
    old: Sata, new: Sata, credentials: Iterable[Sattestation], now: date
) -> RotationResult:
    """Verify a self-authentication key rotation.

    Both directions are required: the old address must sattest the new one
    AND the new address must sattest the old one.  The new-to-old direction
    defeats framing, where a third party claims to be the successor of an
    address it never controlled.  Only the pool index's credentials of
    ``old`` and ``new`` are read.
    """
    if old.domain != new.domain:
        raise DomainMismatch(
            f"rotation keeps the domain: {old.domain!r} != {new.domain!r}"
        )
    index = _pool_index(credentials)
    missing = tuple(
        direction
        for direction, issuer, target in (("old-to-new", old, new), ("new-to-old", new, old))
        if not any(
            binding.binds(target.domain, target.onion)
            and is_fresh(binding, cred.refresh_rate_days, now)
            for cred in index.issued(_identity(issuer))
            for binding in cred.sattestees
        )
    )
    return RotationResult(ok=not missing, missing=missing)


def expired_rotation_form(
    old: Sata,
    new: Sata,
    key: KeyPair,
    cert_fingerprints: Iterable[str],
    issued: date,
    refreshed_on: date,
    refresh_rate_days: float,
) -> Sattestation:
    """Self-sattestation an expired address keeps for dated clients.

    Its only label is the rotation pointer ``sattestor({<new address>})``,
    so it supports redirect validation and nothing else: evaluation will
    never treat it as granting any ordinary label.
    """
    if key.public != old.onion.pubkey:
        raise KeyMismatch("key does not match the old address being retired")
    return make_self_sattestation(
        key=key,
        domain=old.domain,
        cert_fingerprints=cert_fingerprints,
        issued=issued,
        refreshed_on=refreshed_on,
        refresh_rate_days=refresh_rate_days,
        labels=[rotation_pointer_label(new)],
    )


def policy_from_json(obj: dict) -> TrustPolicy:
    """Build a policy from its JSON file form.

    Roots are given as ``{"sattestor_domain": ..., "sattestor_onion":
    "<56-char label>", "trusted_labels": [...]}``.  A key left out of the
    file takes :class:`TrustPolicy`'s default.  A value that is not a JSON
    object where one is wanted, a field that is missing or of the wrong
    JSON type (the policy's own fields and a root's labels are checked by
    :class:`TrustPolicy` and :class:`TrustRoot`), or a ``max_chain_depth``
    below 1 raises :class:`UnrepresentableField`.  ``satakit trust eval``
    reads the file with the loader every JSON input shares, so malformed
    JSON there is an :class:`UnrepresentableField` too.
    """
    roots = tuple(
        TrustRoot(
            sattestor=Sata(
                domain=_json.field(r, "sattestor_domain", str, what="policy"),
                onion=parse_onion(_json.field(r, "sattestor_onion", str, what="policy")),
            ),
            trusted_labels=r.get("trusted_labels", ()),
        )
        for r in _json.field(obj, "roots", list, [], items=dict, what="policy")
    )
    fields = {
        name: obj[name]
        for name in ("max_chain_depth", "require_sattestation_for", "allow_credentialed_alt_services")
        if name in obj
    }
    try:
        return TrustPolicy(roots=roots, **fields)
    except ValueError as exc:  # the one ValueError TrustPolicy raises: the depth bound
        raise UnrepresentableField(f"policy field 'max_chain_depth': {exc}") from None
