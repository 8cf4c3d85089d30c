"""Spans at satakit's module boundaries, recorded from outside the package.

``Tracer.install`` replaces each boundary function, in every satakit module
that holds it, with a wrapper that records one span: boundary name, start,
end, parent span and op id, plus whether the call raised and one outcome
bit (signature valid, SATA found, verdict accepted, ...).  Spans stay in
memory; ``summarize`` turns them into per-layer counts and self times after
the timed phase, so the bookkeeping behind ratios such as
``distinct_ratio`` runs outside every span.

The boundary table names, for each function, the modules that import it.
Installation fails loudly when a name is gone or an importer no longer
holds the function, so a rename cannot silently drop a layer.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time

# (defining module, function, modules that import it from another module)
BOUNDARIES: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("onion", "parse_onion", ("sata", "credential", "validation", "trust", "cli")),
    ("onion", "address_for", ()),
    ("onion", "sign", ("credential",)),
    ("onion", "verify", ("credential",)),
    ("sata", "parse_sata", ("validation", "sim", "cli")),
    ("credential", "from_transport_json", ("cli",)),
    ("credential", "canonical_bytes", ("trust",)),
    ("credential", "verify_credential", ("validation", "trust", "cli")),
    ("credential", "issue", ("sim", "cli")),
    ("credential", "to_transport_json", ("cli",)),
    ("validation", "validate_connection", ("sim", "cli")),
    ("validation", "validate_alt_svc", ("sim",)),
    ("validation", "validate_onion_location", ("sim",)),
    ("trust", "usable_links", ()),
    ("trust", "evaluate", ("sim", "cli")),
    ("trust", "rotation_check", ("cli",)),
    ("sim", "run_visit", ()),
    ("sim", "run_matrix", ()),
    ("sim", "load_scenario", ()),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn, _ in BOUNDARIES)


class BoundaryMissing(RuntimeError):
    """A traced boundary no longer exists where the table says it does."""


def _returned(result) -> int:
    return 1


# outcome bit recorded per boundary; default: 1 when the call returned
OUTCOME = {
    "onion.verify": lambda r: 1 if r is True else 0,
    "validation.validate_connection": lambda r: 1 if r.accepted() else 0,
    "validation.validate_alt_svc": lambda r: 1 if r.value == "allow" else 0,
    "trust.evaluate": lambda r: 0 if r is None else 1,
    "sim.run_visit": lambda r: 1 if r[0].user_visible_alert else 0,
}


class Tracer:
    def __init__(self):
        # span rows: (sid, name index, t0_ns, t1_ns, parent sid, op id, outcome, raised)
        self.records: list[tuple] = []
        self.op = 0
        self._stack: list[int] = []
        self._next_sid = 0
        self._verified: dict[int, object] = {}  # sid -> credential given to verify_credential
        self._links: dict[int, tuple] = {}  # sid -> (credentials in, links kept)
        self._patched: list[tuple] = []  # (module, attribute, original, wrapper)
        self.originals: dict[str, object] = {}

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place.  The first call builds them and checks
        every boundary; later calls only swap them back in, cheaply enough
        to switch tracing per op."""
        if not self._patched:
            self._patched = self._build()
        for module, attr, _original, wrapper in self._patched:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _wrapper in reversed(self._patched):
            setattr(module, attr, original)

    def _build(self) -> list[tuple]:
        homes = {}
        for mod, fn, importers in BOUNDARIES:
            home = importlib.import_module(f"satakit.{mod}")
            original = getattr(home, fn, None)
            if not callable(original):
                raise BoundaryMissing(f"satakit.{mod}.{fn} no longer exists")
            for imp in importers:
                holder = importlib.import_module(f"satakit.{imp}")
                if getattr(holder, fn, None) is not original:
                    raise BoundaryMissing(
                        f"satakit.{imp}.{fn} is no longer satakit.{mod}.{fn}"
                    )
            homes[f"{mod}.{fn}"] = original
        modules = [m for n, m in sys.modules.items() if n == "satakit" or n.startswith("satakit.")]
        patches = []
        for index, name in enumerate(NAMES):
            original = homes[name]
            wrapper = self._wrap(index, name, original)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    patches.append((module, attr, original, wrapper))
            self.originals[name] = original
        return patches

    def _wrap(self, index: int, name: str, fn):
        records, stack, clock = self.records, self._stack, time.perf_counter_ns
        outcome = OUTCOME.get(name, _returned)
        verified = self._verified if name == "credential.verify_credential" else None
        links = self._links if name == "trust.usable_links" else None
        tracer = self

        def traced(*args, **kwargs):
            if links is not None and not isinstance(args[0], (list, tuple)):
                args = (list(args[0]),) + args[1:]
            sid = tracer._next_sid
            tracer._next_sid = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                records.append((sid, index, t0, t1, parent, tracer.op, 0, 1))
                if verified is not None:
                    verified[sid] = args[0]
                raise
            t1 = clock()
            stack.pop()
            records.append((sid, index, t0, t1, parent, tracer.op, outcome(result), 0))
            if verified is not None:
                verified[sid] = args[0]
            elif links is not None:
                links[sid] = (args[0], len(result))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- after the timed phase ------------------------------------------------

    def summarize(self) -> dict:
        """Per-boundary counts and self times, mergeable across processes."""
        parent_of = {}
        name_of = {}
        child_ns: dict[int, int] = {}
        for sid, index, t0, t1, parent, _op, _ok, _raised in self.records:
            parent_of[sid] = parent
            name_of[sid] = index
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
        per = {name: {"calls": 0, "self_ns": 0, "ok": 0, "raised": 0} for name in NAMES}
        for sid, index, t0, t1, _parent, _op, ok, raised in self.records:
            row = per[NAMES[index]]
            row["calls"] += 1
            row["self_ns"] += (t1 - t0) - child_ns.get(sid, 0)
            row["ok"] += ok
            row["raised"] += raised

        def under(sid: int, ancestor: int) -> bool:
            sid = parent_of.get(sid, -1)
            while sid >= 0:
                if name_of[sid] == ancestor:
                    return True
                sid = parent_of.get(sid, -1)
            return False

        verify_i = NAMES.index("credential.verify_credential")
        altsvc_i = NAMES.index("validation.validate_alt_svc")
        evaluate_i = NAMES.index("trust.evaluate")
        visit_i = NAMES.index("sim.run_visit")
        nested = {"verify_under_evaluate": 0, "alt_svc_under_visit": 0}
        for sid, index, *_ in self.records:
            if index == verify_i and under(sid, evaluate_i):
                nested["verify_under_evaluate"] += 1
            elif index == altsvc_i and under(sid, visit_i):
                nested["alt_svc_under_visit"] += 1

        canonical = self.originals.get("credential.canonical_bytes")
        keys = set()
        for sid, cred in self._verified.items():
            try:
                data = cred.sattestor_onion.pubkey + canonical(cred) + cred.signature
            except Exception:  # unencodable credential: count it as its own key
                data = b"sid:%d" % sid
            keys.add(hashlib.sha256(data).hexdigest()[:20])
        kept = sum(k for _creds, k in self._links.values())
        offered = sum(sum(len(c.sattestees) for c in creds) for creds, _k in self._links.values())
        return {
            "per": per,
            "nested": nested,
            "distinct_keys": sorted(keys),
            "links_kept": kept,
            "links_offered": offered,
        }

    def span_rows(self) -> list[list]:
        return [[sid, NAMES[i], t0, t1, parent, op, ok, raised]
                for sid, i, t0, t1, parent, op, ok, raised in self.records]


def merge(summaries: list[dict]) -> dict:
    out = {
        "per": {name: {"calls": 0, "self_ns": 0, "ok": 0, "raised": 0} for name in NAMES},
        "nested": {"verify_under_evaluate": 0, "alt_svc_under_visit": 0},
        "distinct_keys": set(),
        "links_kept": 0,
        "links_offered": 0,
    }
    for s in summaries:
        for name, row in s["per"].items():
            for k, v in row.items():
                out["per"][name][k] += v
        for k, v in s["nested"].items():
            out["nested"][k] += v
        out["distinct_keys"].update(s["distinct_keys"])
        out["links_kept"] += s["links_kept"]
        out["links_offered"] += s["links_offered"]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics, by the names BENCHMARK.json declares."""
    per = summary["per"]
    m: dict[str, float] = {}

    def base(name: str) -> dict:
        row = per[name]
        m[f"{name}.calls"] = row["calls"]
        m[f"{name}.self_ms"] = row["self_ns"] / 1e6
        return row

    base("onion.parse_onion")
    base("onion.address_for")
    base("onion.sign")
    row = base("onion.verify")
    m["onion.verify.valid_ratio"] = _ratio(row["ok"], row["calls"])
    row = base("sata.parse_sata")
    m["sata.parse_sata.sata_ratio"] = _ratio(row["calls"] - row["raised"], row["calls"])
    row = base("credential.from_transport_json")
    m["credential.from_transport_json.failed"] = row["raised"]
    base("credential.canonical_bytes")
    row = base("credential.verify_credential")
    m["credential.verify_credential.failed"] = row["raised"]
    m["credential.verify_credential.distinct_ratio"] = _ratio(
        len(summary["distinct_keys"]), row["calls"]
    )
    base("credential.issue")
    base("credential.to_transport_json")
    row = base("validation.validate_connection")
    m["validation.validate_connection.accept_ratio"] = _ratio(row["ok"], row["calls"])
    row = base("validation.validate_alt_svc")
    m["validation.validate_alt_svc.allow_ratio"] = _ratio(row["ok"], row["calls"])
    base("validation.validate_onion_location")
    base("trust.usable_links")
    m["trust.usable_links.kept_ratio"] = _ratio(summary["links_kept"], summary["links_offered"])
    row = base("trust.evaluate")
    m["trust.evaluate.hit_ratio"] = _ratio(row["ok"], row["calls"])
    m["trust.evaluate.verifies_per_call"] = _ratio(
        summary["nested"]["verify_under_evaluate"], row["calls"]
    )
    base("trust.rotation_check")
    row = base("sim.run_visit")
    m["sim.run_visit.alert_ratio"] = _ratio(row["ok"], row["calls"])
    m["sim.run_visit.alt_svc_checks_per_visit"] = _ratio(
        summary["nested"]["alt_svc_under_visit"], row["calls"]
    )
    base("sim.run_matrix")
    m["sim.load_scenario.self_ms"] = per["sim.load_scenario"]["self_ns"] / 1e6
    return m
