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
credential, the position counted among its issuer's credentials in the
order the pool gives them.  Ranks are compared only when the step keys are
equal, which means the same issuer at every step, so this picks the chain
that positions in pool order would: sorted by (sattestor domain,
sattestor onion, canonical bytes), stably, the order of
:func:`usable_links`.

The search is breadth-first over states (issuer identity, allowed-label
set), in the manner of Clarke et al., "Certificate chain discovery in
SPKI/SDSI" (J. Computer Security 2001).  Each state is expanded once, at
the first depth that reaches it, and keeps one chain.  A query costs one
pass over the pool (verify, group by issuer; no sort) plus at most
states x bindings, whatever the depth: a pool published by an adversary
cannot force more.  Each credential object keeps its structural and
signature verdicts (see :func:`verify_credential`), so the pass stays
cheap however often the pool is evaluated; freshness depends on the query
date and is checked per binding as the search walks it, against one
window of dates per refresh rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Iterable, Optional

from .credential import (
    Binding,
    Sattestation,
    canonical_bytes,
    fresh_window,
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


@dataclass(frozen=True)
class TrustRoot:
    sattestor: Sata
    trusted_labels: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "trusted_labels", frozenset(self.trusted_labels))


@dataclass(frozen=True)
class TrustPolicy:
    roots: tuple[TrustRoot, ...]
    max_chain_depth: int = 3
    require_sattestation_for: frozenset[str] = frozenset()
    allow_credentialed_alt_services: bool = True

    def __post_init__(self) -> None:
        if self.max_chain_depth < 1:
            raise ValueError("max_chain_depth must be at least 1")
        object.__setattr__(self, "roots", tuple(self.roots))
        object.__setattr__(
            self, "require_sattestation_for", frozenset(self.require_sattestation_for)
        )


@dataclass(frozen=True)
class ChainLink:
    credential: Sattestation
    binding_index: int
    label: str  # the label relied upon at this hop


@dataclass(frozen=True)
class TrustChain:
    links: tuple[ChainLink, ...]
    subject: Sata
    label: str


@dataclass(frozen=True)
class RotationResult:
    """Outcome of a key-rotation check; ``missing`` names absent directions."""

    ok: bool
    missing: tuple[str, ...] = ()


def _identity(s: Sata | Binding | Sattestation) -> tuple[str, str]:
    """(domain, onion label) of a SATA or binding, or of a credential's sattestor."""
    if isinstance(s, Sattestation):
        return (s.sattestor_domain, s.sattestor_onion.label)
    return (s.domain, s.onion.label)


def _sound_by_issuer(
    credentials: Iterable[Sattestation],
) -> dict[tuple[str, str], list[Sattestation]]:
    """The credentials that verify, grouped by issuer, each group in input
    order.

    Unverifiable credentials are dropped, not fatal: an attacker must not
    be able to poison evaluation by publishing junk, so any ``SataError``
    drops the credential.
    """
    groups: dict[tuple[str, str], list[Sattestation]] = {}
    for cred in credentials:
        try:
            verify_credential(cred)
        except SataError:
            continue
        body = cred.body
        issuer = (body.sattestor_domain, body.sattestor_onion.label)
        group = groups.get(issuer)
        if group is None:
            groups[issuer] = [cred]
        else:
            group.append(cred)
    return groups


def usable_links(
    credentials: Iterable[Sattestation], now: date
) -> list[tuple[Sattestation, int]]:
    """(credential, binding_index) pairs that verify and are fresh at
    ``now``, in pool order: sorted by (sattestor domain, sattestor onion,
    canonical bytes), stably."""
    groups = _sound_by_issuer(credentials)
    return [
        (cred, idx)
        for issuer in sorted(groups)
        for cred in sorted(groups[issuer], key=canonical_bytes)
        for idx, binding in enumerate(cred.sattestees)
        if is_fresh(binding, cred.refresh_rate_days, now)
    ]


def _grant(label: str) -> Optional[frozenset[str]]:
    """Labels a link carrying ``label`` lets its subject use at the next
    hop: ``{X, sattestor(X)}`` for ``sattestor(X)``, None for plain labels."""
    scope = delegation_scope(label)
    if scope is None:
        return None
    return frozenset({scope, delegation_label(scope)})


_NOT_ALLOWED = object()  # a label the state being expanded may not use


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

    A query verifies the pool and groups it by issuer in one pass, in input
    order, without sorting it.  It then walks the fresh bindings of each
    reached issuer's credentials in place: at most states x bindings.  The
    subject is read once per query, and each label's grant and each refresh
    rate's window of fresh dates are worked out once.  A candidate chain's
    (step keys, ranks) is built only for a hit or for a state no earlier
    depth reached, and a link's rank (canonical bytes, input position) only
    then.  The tie rule is in the module docstring.
    """
    by_issuer = _sound_by_issuer(credentials)

    # merge roots sharing an identity so their label sets union
    allowed_at_root: dict[tuple[str, str], set[str]] = {}
    for root in policy.roots:
        allowed_at_root.setdefault(_identity(root.sattestor), set()).update(
            root.trusted_labels
        )

    # state (issuer domain, issuer onion, allowed labels) -> its one chain as
    # ((step keys, ranks), credentials).  A state is expanded only at the
    # first depth that reaches it: a chain through it at a later depth has a
    # shorter twin.  All chains into a state at one depth have the same
    # length, so the smallest (step keys, ranks) stays smallest under any
    # common extension.  A step key holds the binding index and label, so
    # the credentials alone complete the chain's links.
    frontier: dict[tuple, tuple] = {
        (*ident, frozenset(allowed)): (((), ()), ())
        for ident, allowed in allowed_at_root.items()
    }
    seen = set(frontier)
    subject_domain, subject_onion = subject.domain.lower(), subject.onion.label
    grants: dict[str, Optional[frozenset[str]]] = {}  # label -> _grant(label)
    windows: dict[float, tuple[date, date]] = {}  # refresh rate -> fresh_window
    for _depth in range(policy.max_chain_depth):
        best: Optional[tuple] = None
        reached: dict[tuple, tuple] = {}
        for (domain, onion, allowed), ((keys, ranks), creds) in frontier.items():
            group = by_issuer.get((domain, onion))
            if group is None:
                continue
            grant = {}  # label -> its grant, for each label this state may use
            for lab in allowed:
                if lab not in grants:
                    grants[lab] = _grant(lab)
                grant[lab] = grants[lab]
            for pos, cred in enumerate(group):
                body = cred.body
                rate = body.refresh_rate_days
                window = windows.get(rate)
                if window is None:
                    window = windows[rate] = fresh_window(rate, now)
                earliest, latest = window
                for idx, binding in enumerate(body.sattestees):
                    if not earliest <= binding.refreshed_on <= latest:
                        continue
                    for lab in binding.labels:
                        nxt = grant.get(lab, _NOT_ALLOWED)
                        if nxt is _NOT_ALLOWED:
                            continue
                        if (
                            lab == label
                            and binding.domain == subject_domain
                            and binding.onion.label == subject_onion
                        ):
                            order = (
                                keys + ((domain, onion, idx, lab),),
                                ranks + ((canonical_bytes(cred), pos),),
                            )
                            if best is None or order < best[0]:
                                best = (order, creds + (cred,))
                        if nxt is None:
                            continue
                        state = (binding.domain, binding.onion.label, nxt)
                        if state in seen:
                            continue
                        order = (
                            keys + ((domain, onion, idx, lab),),
                            ranks + ((canonical_bytes(cred), pos),),
                        )
                        kept = reached.get(state)
                        if kept is None or order < kept[0]:
                            reached[state] = (order, creds + (cred,))
        if best is not None:
            (keys, _ranks), creds = best
            links = tuple(
                ChainLink(cred, idx, lab)
                for cred, (_domain, _onion, idx, lab) in zip(creds, keys)
            )
            return TrustChain(links=links, subject=subject, label=label)
        seen.update(reached)
        frontier = reached
    return None


def _attests(
    credentials: list[Sattestation], issuer: Sata, target: Sata, now: date
) -> bool:
    """Whether a sound credential of ``issuer`` binds ``target``, fresh at ``now``."""
    for cred in credentials:
        if _identity(cred) != _identity(issuer):
            continue
        try:
            verify_credential(cred)
        except SataError:
            continue
        rate = cred.refresh_rate_days
        for binding in cred.sattestees:
            if binding.binds(target.domain, target.onion) and is_fresh(binding, rate, now):
                return True
    return False


def rotation_check(
    old: Sata, new: Sata, credentials: Iterable[Sattestation], now: date
) -> RotationResult:
    """Verify a self-authentication key rotation.

    Both directions are required: the old address must sattest the new one
    AND the new address must sattest the old one.  The new-to-old direction
    defeats framing, where a third party claims to be the successor of an
    address it never controlled.  Only the credentials issued by ``old``
    or ``new`` are verified.
    """
    if old.domain != new.domain:
        raise DomainMismatch(
            f"rotation keeps the domain: {old.domain!r} != {new.domain!r}"
        )
    parties = (_identity(old), _identity(new))
    issued = [cred for cred in credentials if _identity(cred) in parties]
    missing = []
    if not _attests(issued, old, new, now):
        missing.append("old-to-new")
    if not _attests(issued, new, old, now):
        missing.append("new-to-old")
    return RotationResult(ok=not missing, missing=tuple(missing))


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


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# JSON key -> type test; a key left out of the file takes TrustPolicy's
# default.  type() is exact, so true is no integer.
_POLICY_TYPES = {
    "roots": lambda v: isinstance(v, list) and all(
        isinstance(r, dict)
        and isinstance(r.get("sattestor_domain"), str)
        and isinstance(r.get("sattestor_onion"), str)
        and _is_strings(r.get("trusted_labels", []))
        for r in v
    ),
    "max_chain_depth": lambda v: type(v) is int,
    "require_sattestation_for": _is_strings,
    "allow_credentialed_alt_services": lambda v: type(v) is bool,
}


def policy_from_json(obj: dict) -> TrustPolicy:
    """Build a policy from its JSON file form.

    Roots are given as ``{"sattestor_domain": ..., "sattestor_onion":
    "<56-char label>", "trusted_labels": [...]}``.  A value of the wrong
    JSON type raises :class:`UnrepresentableField`.
    """
    if not isinstance(obj, dict):
        raise UnrepresentableField(f"policy must be a JSON object, got {obj!r}")
    fields = {key: obj[key] for key in _POLICY_TYPES if key in obj}
    for key, value in fields.items():
        if not _POLICY_TYPES[key](value):
            raise UnrepresentableField(f"policy field {key!r} has the wrong JSON type: {value!r}")
    roots = tuple(
        TrustRoot(
            sattestor=Sata(
                domain=r["sattestor_domain"], onion=parse_onion(r["sattestor_onion"])
            ),
            trusted_labels=r.get("trusted_labels", ()),
        )
        for r in fields.pop("roots", ())
    )
    return TrustPolicy(roots=roots, **fields)
