"""What a fresh interpreter loads for ``satakit``, ``satakit.cli``, each CLI
command and a traced ``sim matrix``.

Every CLI call is a new process and pays for each module it imports.
``satakit.cli`` must load the simulator only for the ``sim`` commands and
the cryptography serialization stack never; importing it loads none of
its command-group modules, and a command loads only its own group's; each
command loads only the satakit modules it runs (``FOOTPRINTS``), and none
loads ``dataclasses`` or the ``inspect`` it imports, nor ``_hashlib``,
Python's OpenSSL binding, which only fingerprinting a certificate needs;
the onion checksum's SHA-3 falls back to :mod:`hashlib` without
``_sha3`` and gives the same labels; parsing an onion address or a SATA
loads neither cryptography, nor ``_blake2``, whose digest keys the
signature memo, nor ``datetime``; the
navigation decision, ``satakit.browser``, loads neither the simulator nor
``dataclasses``; importing the package loads no submodule until a name is
used; and building each input type, which resolves its field annotations,
loads neither those nor ``ast``.  Module counts, unlike timings, are the same on any host.  The traced run mirrors the
benchmark's ``perfbench/cli_probe.py``: it imports only ``satakit.cli``,
installs the span tracer, and still sees the simulator's boundaries once
``sim matrix`` loads it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
FIXTURES = ROOT / "tests" / "data" / "fixtures"
GOLDEN = ROOT / "tests" / "data" / "attack_matrix_golden.json"
GROUPS = ("onion", "sata", "satt", "verify", "trust", "rotate", "sim")
GROUP_MODULES = {f"satakit.cli._{group}" for group in GROUPS}


def _python(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


def _loaded_after(statement: str) -> set[str]:
    proc = _python(f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_cli_import_leaves_simulator_and_serialization_out():
    loaded = _loaded_after("import satakit.cli")
    assert "satakit.cli" in loaded
    assert "satakit.sim" not in loaded
    assert "cryptography.hazmat.primitives.serialization" not in loaded
    assert GROUP_MODULES & loaded == set()


def test_package_and_submodule_imports_load_only_what_they_use():
    assert {m for m in _loaded_after("import satakit") if m.startswith("satakit.")} == set()
    loaded = _loaded_after("import satakit.onion")
    assert {m for m in loaded if m.startswith("satakit.")} == {
        "satakit._value", "satakit.errors", "satakit.onion"
    }
    assert CRYPTOGRAPHY not in loaded  # only signing and verifying load it
    assert DATACLASSES & _loaded_after("import satakit.trust") == set()


def test_the_navigation_decision_loads_neither_the_simulator_nor_dataclasses():
    loaded = _loaded_after("import satakit.browser")
    assert "satakit.browser" in loaded
    assert ({"satakit.sim"} | DATACLASSES) & loaded == set()


def test_building_each_input_type_loads_no_code_generation_modules():
    # the first construction of each resolves its field annotations
    loaded = _loaded_after(
        "from datetime import date\n"
        "from satakit.onion import KeyPair, OnionAddress, address_for\n"
        "from satakit.sata import Sata\n"
        "from satakit.credential import Binding, Sattestation, SattestationBody\n"
        "from satakit.validation import CertDescriptor\n"
        "from satakit.trust import TrustPolicy, TrustRoot\n"
        "key = KeyPair(bytes(32))\n"
        "onion = address_for(key.public)\n"
        "assert type(OnionAddress(onion.pubkey, onion.checksum, 3, onion.label)) is OnionAddress\n"
        "sata = Sata('a.example', onion)\n"
        "day = date(2020, 6, 1)\n"
        "binding = Binding('a.example', onion, day, day, ['news'], ['AB'])\n"
        "body = SattestationBody('a.example', onion, 7, [binding])\n"
        "Sattestation(body, bytes(64))\n"
        "CertDescriptor('AB' * 32, ['a.example'], day, day)\n"
        "TrustPolicy([TrustRoot(sata, ['news'])], 2, ['news'])"
    )
    assert {"inspect", "dataclasses", "ast"} & loaded == set()


def test_the_onion_checksum_falls_back_to_hashlib_with_the_same_labels():
    from oracles import FACEBOOK_LABEL

    labels = (
        "from satakit.onion import address_for, parse_onion\n"
        "labels = [address_for(bytes([i]) * 32).label for i in range(8)]\n"
        f"labels.append(parse_onion({FACEBOOK_LABEL!r}).label)\n"
        "print(json.dumps([labels, '_hashlib' in sys.modules]))"
    )
    runs = []
    for block in ("", "sys.modules['_sha3'] = None\n"):  # None: the import fails
        proc = _python(f"import json, sys\n{block}{labels}")
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    (own, own_hashlib), (fallback, fallback_hashlib) = runs
    assert own == fallback
    assert (own_hashlib, fallback_hashlib) == (False, True)


def test_traced_sim_matrix_from_cli_import_alone(tmp_path):
    summary_file = tmp_path / "summary.json"
    code = f"""
import importlib.util, json, sys
import satakit.cli

spec = importlib.util.spec_from_file_location("satakit_bench_tracer", {str(TRACER_PATH)!r})
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
tracer = tracer_module.Tracer()
tracer.install()
code = satakit.cli.main(["--json", "sim", "matrix", "--fixtures", {str(FIXTURES)!r}])
tracer.uninstall()
with open({str(summary_file)!r}, "w") as out:
    json.dump(tracer.summarize(), out)
sys.exit(code)
"""
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    golden = json.dumps(json.loads(GOLDEN.read_text()), separators=(",", ":"))
    assert proc.stdout.strip() == golden
    per = json.loads(summary_file.read_text())["per"]
    scenarios = len(list(FIXTURES.glob("*.json")))
    assert per["sim.load_scenario"]["calls"] == scenarios
    assert per["sim.run_matrix"]["calls"] == scenarios


SATAKIT = {f"satakit.{m}" for m in ("sata", "credential", "validation", "trust", "sim")}
SERIALIZATION = "cryptography.hazmat.primitives.serialization"
CRYPTOGRAPHY = "cryptography"  # loaded whenever any of its modules is
DATACLASSES = {"dataclasses", "inspect"}  # only the simulator's records are dataclasses
DATETIME = "datetime"  # for dates, which no parse reads
HASHLIB = "_hashlib"  # OpenSSL's hashes, for certificate fingerprints only
BLAKE2 = "_blake2"  # keys the signature memo, so only verifying needs it
NEVER = DATACLASSES | {HASHLIB}  # what no command below loads
# command -> the modules its process must not load
FOOTPRINTS = {
    "onion parse": SATAKIT | NEVER | {CRYPTOGRAPHY, DATETIME, BLAKE2},
    "onion keygen": SATAKIT | NEVER,
    "sata parse": SATAKIT - {"satakit.sata"} | NEVER | {CRYPTOGRAPHY, DATETIME, BLAKE2},
    "satt verify": {"satakit.validation", "satakit.trust", "satakit.sim"} | NEVER,
    "satt self": {"satakit.validation", "satakit.trust", "satakit.sim"} | NEVER,
    "verify": {"satakit.trust", "satakit.sim", SERIALIZATION} | NEVER,
    "trust eval": {"satakit.validation", "satakit.sim"} | NEVER,
    "rotate pointer": {"satakit.validation", "satakit.sim"} | NEVER,
}


@pytest.fixture(scope="module")
def command_files(tmp_path_factory) -> dict[str, list[str]]:
    """A succeeding argument list for each command in ``FOOTPRINTS``."""
    from satakit import expected_sans, to_query_form, to_transport_json

    from conftest import cert_for, key_for, make_self_sattestation, sata_for, third_party
    from oracles import FACEBOOK_LABEL

    d = tmp_path_factory.mktemp("footprint")
    key = key_for("bank.example")
    bank = to_query_form(sata_for("bank.example"))
    cert = cert_for("bank", expected_sans(sata_for("bank.example")))
    header = make_self_sattestation(
        key=key, domain="bank.example", cert_fingerprints=[cert.fingerprint],
        issued=date(2020, 8, 25), refreshed_on=date(2020, 8, 31), refresh_rate_days=7,
    )
    (d / "bank.key").write_text(key.secret.hex())
    (d / "bank.satt").write_text(to_transport_json(header))
    (d / "cert.json").write_text(json.dumps({
        "fingerprint": cert.fingerprint, "san_list": list(cert.san_list),
        "not_before": "2020-01-01", "not_after": "2021-01-01",
    }))
    root = key_for("root")
    (d / "policy.json").write_text(json.dumps({"roots": [{
        "sattestor_domain": "root.example", "sattestor_onion": root.address.label,
        "trusted_labels": ["news"],
    }]}))
    (d / "creds").mkdir()
    cred = third_party("root.example", "root", [("bank.example", "bank.example", ["news"])])
    (d / "creds" / "root.satt").write_text(to_transport_json(cred))
    new = to_query_form(sata_for("bank.example", "bank-next"))
    signed = ["--fingerprint", cert.fingerprint, "--issued", "2020-08-31",
              "--refreshed", "2020-08-31"]
    return {
        "onion parse": ["onion", "parse", FACEBOOK_LABEL],
        "onion keygen": ["onion", "keygen", "--seed", "00" * 32],
        "sata parse": ["sata", "parse", bank],
        "satt verify": ["satt", "verify", "--file", str(d / "bank.satt")],
        "satt self": ["satt", "self", "--key", str(d / "bank.key"), "--domain", "bank.example",
                      *signed],
        "verify": ["verify", "--url", bank, "--cert", str(d / "cert.json"),
                   "--header", str(d / "bank.satt"), "--now", "2020-09-01"],
        "trust eval": ["trust", "eval", "--policy", str(d / "policy.json"), "--creds",
                       str(d / "creds"), "--subject", bank, "--label", "news",
                       "--now", "2020-09-01"],
        "rotate pointer": ["rotate", "pointer", "--old", bank, "--new", new,
                           "--key", str(d / "bank.key"), *signed],
    }


@pytest.mark.parametrize("command", FOOTPRINTS)
def test_each_command_loads_only_what_it_runs(command_files, command):
    argv = ["--json", *command_files[command]]
    loaded = _loaded_after(
        "import contextlib, io, satakit.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert satakit.cli.main({argv!r}) == 0, 'command failed'"
    )
    assert FOOTPRINTS[command] & loaded == set()
    own = f"satakit.cli._{command.split()[0]}"
    assert own in loaded
    assert GROUP_MODULES - {own} & loaded == set()
