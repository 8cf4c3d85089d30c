"""The benchmark's span tracer still finds every boundary it wraps.

``perfbench/tracer.py`` names each traced function and every satakit
module that imports it; installing the tracer fails with
``BoundaryMissing`` when a refactor drops or renames one of those
imports.  Installing it here makes that a test failure, not only a
failure of a traced benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import satakit.sim
import satakit.trust
import satakit.validation

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("satakit_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_boundary_and_uninstalls():
    tracer_module = _load_tracer()
    held = {
        (satakit.trust, "parse_onion"): satakit.trust.parse_onion,
        (satakit.sim, "parse_sata"): satakit.sim.parse_sata,
        (satakit.validation, "parse_onion"): satakit.validation.parse_onion,
    }
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert set(tracer.originals) == set(tracer_module.NAMES)
        for (module, name), original in held.items():
            assert getattr(module, name) is not original
    finally:
        tracer.uninstall()
    for (module, name), original in held.items():
        assert getattr(module, name) is original
