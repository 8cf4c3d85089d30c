"""What a fresh interpreter loads for ``satakit``, ``satakit.cli`` and a
traced ``sim matrix``.

Every CLI call is a new process and pays for each module it imports.
``satakit.cli`` must load the simulator only for the ``sim`` commands and
the cryptography serialization stack never; importing the package loads no
submodule until a name is used.  The traced run mirrors the benchmark's
``perfbench/cli_probe.py``: it imports only ``satakit.cli``, installs the
span tracer, and still sees the simulator's boundaries once ``sim matrix``
loads it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
FIXTURES = ROOT / "tests" / "data" / "fixtures"
GOLDEN = ROOT / "tests" / "data" / "attack_matrix_golden.json"


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


def test_package_and_submodule_imports_load_only_what_they_use():
    assert {m for m in _loaded_after("import satakit") if m.startswith("satakit.")} == set()
    loaded = _loaded_after("import satakit.onion")
    assert {m for m in loaded if m.startswith("satakit.")} == {"satakit.errors", "satakit.onion"}


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
