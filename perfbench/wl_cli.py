"""cli: one ``python -m satakit.cli`` process at a time.

Reads are ``onion parse``, ``sata parse``, ``satt verify``, ``verify``,
``trust eval`` over a small creds directory, and ``sim matrix``, whose
output must equal the golden matrix byte for byte.  Writes are
``satt self``, ``onion keygen --seed`` and ``rotate pointer``, whose output
must equal the benchmark's own encoding byte for byte.  Exit codes are
checked too.  This is the only workload that pays interpreter start-up
and the import of ``satakit.cli`` on every op.

The input files live under ``perfbench/out/cli-<seed>/``.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import oracle
from common import FIXTURES, GOLDEN, NOW, OUT, SRC, Op, stratified

CANARY_OPS = 4
N_SITES = 6
PROBE = Path(__file__).resolve().parent / "cli_probe.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
# one block: each of the nine commands twice, split evenly over its cases
MIX = {
    "onion_parse": 1,
    "onion_parse_bad": 1,
    "sata_parse": 1,
    "sata_parse_bad": 1,
    "satt_verify": 1,
    "satt_verify_tampered": 1,
    "verify_accept": 1,
    "verify_reject": 1,
    "trust_hit": 1,
    "trust_miss": 1,
    "sim_matrix": 2,
    "satt_self": 2,
    "onion_keygen": 2,
    "rotate_pointer": 2,
}
WRITES = ("satt_self", "onion_keygen", "rotate_pointer")
VERIFY_EXIT = {"reject-signature": 66, "reject-stale": 67, "reject-fingerprint": 68,
               "reject-san-missing": 69}


def label_error(label: str) -> str:
    """The error class ``onion parse`` must report for an invalid 56-char label."""
    raw = base64.b32decode(label.upper())
    pubkey, checksum, version = raw[:32], raw[32:34], raw[34]
    derived = hashlib.sha3_256(b".onion checksum" + pubkey + bytes([version])).digest()[:2]
    return "BadChecksum" if checksum != derived else "BadVersion"


def _json(out: str):
    return json.loads(out)


class Site:
    __slots__ = ("domain", "key", "fingerprint")


class Workload:
    name = "cli"
    # each op is a process, so the host-speed reference is one too; it costs
    # about half an op, so it runs once per second of op time
    ref_every_ns = 1_000_000_000

    def __init__(self, seed: int):
        self.rng = rng = random.Random(f"cli:{seed}")
        self.dir = OUT / f"cli-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = {**os.environ, "PYTHONPATH": str(SRC), "SATAKIT_TEST_MODE": "1"}
        self.sites = [self._site(rng, i) for i in range(N_SITES)]
        self._trust_setup(rng)
        self.golden = json.dumps(json.loads(GOLDEN.read_text()), separators=(",", ":"))
        self.block: list[str] = []
        self.traced = False
        self.max_rss_kb = 0
        self.child_summaries: list[dict] = []
        self.child_spans: list[list] = []
        self.import_ms: list[float] = []
        self.command_ms: list[float] = []
        self.ops = 0

    # -- files ----------------------------------------------------------------

    def _write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text)
        return str(path)

    def _site(self, rng: random.Random, i: int) -> Site:
        site = Site()
        site.key = oracle.Key(rng.randbytes(32))
        site.domain = f"cli{i}-{rng.getrandbits(24):06x}.example"
        der = rng.randbytes(48)
        site.fingerprint = hashlib.sha256(der).hexdigest().upper()
        self._write(f"site{i}.key", site.key.seed.hex() + "\n")
        sans = oracle.sata_sans(site.key.label, site.domain)
        for name, san_list in (("cert", sans), ("cert-nosan", [site.domain])):
            descriptor = {"fingerprint": site.fingerprint, "san_list": san_list,
                          "not_before": "2020-01-01", "not_after": "2021-01-01", "has_sct": True}
            self._write(f"site{i}.{name}.json", json.dumps(descriptor))
        fps = (site.fingerprint,)
        headers = {
            "ok": oracle.self_sattestation(site.key, site.domain, fps, NOW - timedelta(days=9), NOW - timedelta(days=2)),
            "stale": oracle.self_sattestation(site.key, site.domain, fps, NOW - timedelta(days=40), NOW - timedelta(days=20)),
            "otherfp": oracle.self_sattestation(site.key, site.domain, ("AB" * 32,), NOW - timedelta(days=9), NOW - timedelta(days=2)),
        }
        wire = json.loads(headers["ok"])
        sig = wire["signature"]
        wire["signature"] = ("0" if sig[0] != "0" else "1") + sig[1:]
        headers["tampered"] = oracle.compact(wire)
        for name, text in headers.items():
            self._write(f"site{i}.{name}.satt", text + "\n")
        return site

    def _trust_setup(self, rng: random.Random) -> None:
        creds = self.dir / "creds"
        creds.mkdir(exist_ok=True)
        for old in creds.glob("*.satt"):
            old.unlink()
        root = oracle.Key(rng.randbytes(32))
        sattestors = [oracle.Key(rng.randbytes(32)) for _ in range(3)]
        names = [f"sattestor{i}.cli.example" for i in range(3)]
        issued, refreshed = NOW - timedelta(days=10), NOW - timedelta(days=1)
        bindings = [oracle.binding(n, k.label, issued, refreshed, ("sattestor(news)",))
                    for n, k in zip(names, sattestors)]
        texts = [oracle.transport(root, oracle.body("root.cli.example", root.label, 7, bindings))]
        self.trust_hits = []
        for i, (name, key) in enumerate(zip(names, sattestors)):
            sites = self.sites[i * 2 : i * 2 + 2]
            bindings = [oracle.binding(s.domain, s.key.label, issued, refreshed, ("news",)) for s in sites]
            texts.append(oracle.transport(key, oracle.body(name, key.label, 7, bindings)))
            self.trust_hits += [(s, ["root.cli.example", name]) for s in sites]
        for i, text in enumerate(texts):
            (creds / f"c{i}.satt").write_text(text + "\n")
        self.creds = str(creds)
        policy = {"roots": [{"sattestor_domain": "root.cli.example", "sattestor_onion": root.label,
                             "trusted_labels": ["news", "sattestor(news)"]}], "max_chain_depth": 3}
        self.policy = self._write("policy.json", json.dumps(policy))

    # -- running one CLI process ------------------------------------------------

    def _spawn(self, args: list[str]) -> tuple[int, str]:
        if self.traced:
            trace_file = self.dir / "probe-trace.json"
            argv = [sys.executable, str(PROBE), str(trace_file), "--json", *args]
        else:
            argv = [sys.executable, "-m", "satakit.cli", "--json", *args]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                env=self.env, cwd=SRC.parent)
        out = proc.stdout.read()
        proc.stdout.close()
        # wait4 rather than wait: it also reports the child's peak memory
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        if self.traced:
            self._collect(json.loads(trace_file.read_text()))
        return proc.returncode, out.decode(errors="replace")

    def reference(self) -> None:
        """Interpreter start-up, the ``cryptography`` import and the
        reference work, without satakit: the host's speed at the kind of
        work a CLI call does."""
        subprocess.run([sys.executable, str(REFERENCE)], env=self.env, cwd=SRC.parent,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)

    def _collect(self, payload: dict) -> None:
        self.ops += 1
        self.import_ms.append(payload["import_ms"])
        self.command_ms.append(payload["command_ms"])
        self.child_summaries.append(payload["summary"])
        offset = self.ops * 10**7
        for row in payload["spans"]:
            row[0] += offset
            if row[4] >= 0:
                row[4] += offset
            row[5] = self.ops
            self.child_spans.append(row)

    def peak_rss_kb(self) -> int:
        return self.max_rss_kb

    def layer_extras(self) -> dict[str, float]:
        return {
            "cli.startup_ms": statistics.median(self.import_ms) if self.import_ms else 0.0,
            "cli.command_ms": statistics.median(self.command_ms) if self.command_ms else 0.0,
        }

    # -- ops --------------------------------------------------------------------

    def next_op(self) -> Op:
        if not self.block:
            self.block = stratified(self.rng, MIX)
        kind = self.block.pop()
        args, observe, expect = getattr(self, "_" + kind)(self.rng.choice(self.sites))

        def run():
            code, out = self._spawn(args)
            return observe(code, out)

        return Op(kind in WRITES, run, expect, kind)

    @staticmethod
    def _error(code: int, out: str):
        if code == 0:
            return (code, out)
        return (code, _json(out)["error"]["class"])

    def _onion_parse(self, site):
        expect = (0, {"label": site.key.label, "pubkey_hex": site.key.public.hex(),
                      "checksum_ok": True, "version": 3})
        return ["onion", "parse", site.key.label], lambda c, o: (c, _json(o)), expect

    def _mutated(self, label: str) -> str:
        while oracle.label_is_valid(label):
            pos = self.rng.randrange(56)
            label = label[:pos] + self.rng.choice(oracle.BASE32) + label[pos + 1 :]
        return label

    def _onion_parse_bad(self, site):
        label = self._mutated(site.key.label)
        return ["onion", "parse", label], self._error, (65, label_error(label))

    def _sata_url(self, site, label):
        if self.rng.random() < 0.5:
            return f"https://{oracle.subdomain_host(label, site.domain)}/", "subdomain"
        return f"https://{site.domain}/?onion={label}", "query"

    def _sata_parse(self, site):
        url, form = self._sata_url(site, site.key.label)
        expect = (0, {"domain": site.domain, "onion_label": site.key.label, "form": form})
        return ["sata", "parse", url], lambda c, o: (c, _json(o)), expect

    def _sata_parse_bad(self, site):
        url, _form = self._sata_url(site, self._mutated(site.key.label))
        return ["sata", "parse", url], self._error, (65, "InvalidOnionComponent")

    def _file(self, site, name: str) -> str:
        return str(self.dir / f"site{self.sites.index(site)}.{name}")

    def _satt_verify(self, site):
        expect = (0, {"ok": True, "self_sattestation": True, "sattestor_domain": site.domain,
                      "sattestor_onion": site.key.label, "bindings": 1})
        args = ["satt", "verify", "--file", self._file(site, "ok.satt")]
        return args, lambda c, o: (c, _json(o)), expect

    def _satt_verify_tampered(self, site):
        args = ["satt", "verify", "--file", self._file(site, "tampered.satt")]
        return args, self._error, (65, "BadSignature")

    def _verify(self, site, header: str, cert: str, outcome: str):
        url, _form = self._sata_url(site, site.key.label)
        args = ["verify", "--url", url, "--cert", self._file(site, cert),
                "--header", self._file(site, header), "--now", NOW.isoformat()]
        return args, lambda c, o: (c, _json(o)["outcome"]), (VERIFY_EXIT.get(outcome, 0), outcome)

    def _verify_accept(self, site):
        return self._verify(site, "ok.satt", "cert.json", "accept")

    def _verify_reject(self, site):
        header, cert, outcome = self.rng.choice([
            ("tampered.satt", "cert.json", "reject-signature"),
            ("stale.satt", "cert.json", "reject-stale"),
            ("otherfp.satt", "cert.json", "reject-fingerprint"),
            ("ok.satt", "cert-nosan.json", "reject-san-missing"),
        ])
        return self._verify(site, header, cert, outcome)

    def _trust(self, site, label: str):
        args = ["trust", "eval", "--policy", self.policy, "--creds", self.creds,
                "--subject", f"https://{site.domain}/?onion={site.key.label}",
                "--label", label, "--now", NOW.isoformat()]

        def observe(code, out):
            payload = _json(out)
            if not payload["trusted"]:
                return (code, None)
            return (code, [link["sattestor_domain"] for link in payload["chain"]])

        return args, observe

    def _trust_hit(self, _site):
        site, chain = self.rng.choice(self.trust_hits)
        args, observe = self._trust(site, "news")
        return args, observe, (0, chain)

    def _trust_miss(self, site):
        args, observe = self._trust(site, self.rng.choice(["bank", "union"]))
        return args, observe, (65, None)

    def _sim_matrix(self, _site):
        return ["sim", "matrix", "--fixtures", str(FIXTURES)], lambda c, o: (c, o.strip()), (0, self.golden)

    def _dates(self) -> tuple[date, date]:
        refreshed = NOW - timedelta(days=self.rng.randint(0, 5))
        return refreshed - timedelta(days=self.rng.randint(0, 30)), refreshed

    def _satt_self(self, site):
        issued, refreshed = self._dates()
        expect = oracle.self_sattestation(site.key, site.domain, (site.fingerprint,), issued, refreshed)
        args = ["satt", "self", "--key", self._file(site, "key"), "--domain", site.domain,
                "--fingerprint", site.fingerprint, "--issued", issued.isoformat(),
                "--refreshed", refreshed.isoformat(), "--rate", "7"]
        return args, lambda c, o: (c, o.strip()), (0, expect)

    def _onion_keygen(self, _site):
        key = oracle.Key(self.rng.randbytes(32))
        expect = (0, {"secret_hex": key.seed.hex(), "public_hex": key.public.hex(),
                      "onion_label": key.label})
        return ["onion", "keygen", "--seed", key.seed.hex()], lambda c, o: (c, _json(o)), expect

    def _rotate_pointer(self, site):
        new = oracle.Key(self.rng.randbytes(32))
        issued, refreshed = self._dates()
        pointer = f"sattestor({{{oracle.subdomain_host(new.label, site.domain)}}})"
        expect = oracle.self_sattestation(
            site.key, site.domain, (site.fingerprint,), issued, refreshed, 7, (pointer,)
        )
        args = ["rotate", "pointer", "--old", f"https://{site.domain}/?onion={site.key.label}",
                "--new", f"https://{site.domain}/?onion={new.label}", "--key", self._file(site, "key"),
                "--fingerprint", site.fingerprint, "--issued", issued.isoformat(),
                "--refreshed", refreshed.isoformat()]
        return args, lambda c, o: (c, o.strip()), (0, expect)
