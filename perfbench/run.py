#!/usr/bin/env python3
"""satakit benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload handshake --seed 1 --seconds 26 --trace 0

Workloads (one client, one thread, closed loop; see README.md in this
directory for why each exists): handshake, trust, browse, cli.

``--trace 0`` measures the end-to-end metrics with tracing off.  Latencies
are means over the run, divided by the mean time of a fixed piece of
reference work (``reference.py``) timed at regular points of the same run:
the host's speed flips between modes about 1.7x apart and drifts over
minutes, and the ratio moves with satakit, not with the host.  Medians,
tails and plain milliseconds are printed beside them.
``--trace 1`` runs the workload for ``--seconds`` with spans at satakit's
module boundaries switched on for a random half of the ops, and reports the
per-layer metrics from the traced ops plus the tracing overhead, from the
traced and untraced ops of each kind.

Every op's expected outcome is fixed when its input is generated and
checked after the op.  Before timing, the first ops of the run are also
checked against a deliberately corrupted expectation; if the check does
not catch it, the run aborts.  Ops the seed is known to get wrong are
checked then too, untimed, and reported on their own lines.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("handshake", "trust", "browse", "cli")
SETUP_PROBES = 5
# Tail percentile per workload and op class, printed beside the means:
# the higher of p99 and p90 that had at least ten samples beyond it in
# every 28 s run of the seed code, else p75.  A run with fewer samples
# beyond it is flagged, not moved to another percentile.
TAIL_PERCENTILE = {
    "handshake": {"read": 99, "write": 99},
    "trust": {"read": 90, "write": 75},
    "browse": {"read": 99, "write": 90},
    "cli": {"read": 75, "write": 75},
}
TAIL_MIN_BEYOND = 10
# the host-speed reference runs once per this much time inside ops, unless
# the workload sets its own ``ref_every_ns``
REF_EVERY_NS = 20_000_000
# per-layer metrics that only the workload exercising them measures; 0 elsewhere
WORKLOAD_SPECIFIC = ("trust.evaluate.miss_ms.", "cli.")
# ROADMAP open item 1: per-call times measured on Python 3.10.12, 2 CPUs
ROADMAP_US = {
    "onion.verify": 212.0,
    "onion.parse_onion": 59.0,
    "credential.canonical_bytes": 11.0,
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe",
        action="store_true",
        help="internal: set up, print 'ready' before the first timed op, exit",
    )
    return p.parse_args(argv)


def load_workload(name: str, seed: int):
    module = importlib.import_module(f"wl_{name}")
    wl = module.Workload(seed)
    canary(wl, module.CANARY_OPS)
    wl.defect_tally = probe_defects(wl)
    return wl


# -- op execution and checking -------------------------------------------------


def execute(op, sata_error):
    try:
        return op.run()
    except sata_error as exc:
        return ("error", type(exc).__name__)
    except Exception as exc:  # recorded as a failed op, never fatal
        return ("crash", type(exc).__name__)


def canary(wl, n: int) -> None:
    """Run the first ``n`` ops untimed and prove the check can fail.

    Each op that meets its expectation must not also meet a corrupted copy
    of it; otherwise the check is blind and the run stops here.
    """
    from common import corrupt, matches
    from satakit.errors import SataError

    proven = 0
    wl.canary_unexpected = []
    for _ in range(n):
        op = wl.next_op()
        observed = execute(op, SataError)
        if not matches(op.expect, observed):
            wl.canary_unexpected.append((op.kind, repr(observed)[:200]))
            continue
        if matches(corrupt(op.expect), observed):
            raise SystemExit(
                f"checker blind: op {op.kind!r} also matches corrupted expectation"
            )
        proven += 1
    if proven == 0:
        raise SystemExit("checker unproven: no canary op met its expectation")


def probe_defects(wl) -> dict[str, tuple[int, int]]:
    """Run the workload's known-defect ops untimed: tag -> (failed, total)."""
    from common import matches
    from satakit.errors import SataError

    tally: dict[str, tuple[int, int]] = {}
    for op in getattr(wl, "defect_ops", tuple)():
        bad, total = tally.get(op.kind, (0, 0))
        tally[op.kind] = (bad + (not matches(op.expect, execute(op, SataError))), total + 1)
    return tally


def run_phase(wl, seconds: float, tracer=None, coin=None, pauses=()) -> dict:
    """Run ops for ``seconds``, then to the end of the workload's current
    block of ops, if it has one, so that every op kind keeps its share of
    the run however many blocks fit.  With a tracer, ``coin`` picks the ops it
    traces, one by one, so that traced and untraced ops share the host's
    changing speed; each op's kind and trace flag are kept in ``kinds``.

    Each of ``pauses`` is called once, untimed, at evenly spaced points of
    the run, which is extended by the time they take."""
    import reference
    from common import matches
    from satakit.errors import SataError

    clock = time.perf_counter_ns
    # latencies in ms; arrays keep the run's own memory small next to the program's
    reads = array("d")
    writes = array("d")
    ordered = array("d")
    refs = array("d")
    ref_run = getattr(wl, "reference", reference.run)
    ref_every = since_ref = getattr(wl, "ref_every_ns", REF_EVERY_NS)
    kinds: list[tuple[str, bool]] = []
    failed = 0
    busy_ns = 0
    unexpected: Counter = Counter()
    examples: dict[str, str] = {}
    attempted = 0
    start = clock()
    end = start + int(seconds * 1e9)
    marks = [start + int(seconds * 1e9 * k / len(pauses)) for k in range(len(pauses))]
    pauses = list(pauses)
    while clock() < end or getattr(wl, "block", None):
        if marks and clock() >= marks[0]:
            t0 = clock()
            pauses.pop(0)()
            paused = clock() - t0
            marks = [mark + paused for mark in marks[1:]]
            end += paused
        if since_ref >= ref_every:
            t0 = clock()
            ref_run()
            refs.append((clock() - t0) / 1e6)
            since_ref = 0
        op = wl.next_op()
        traced = tracer is not None and coin.random() < 0.5
        if traced:
            tracer.op = attempted
            tracer.install()
            wl.traced = True
        t0 = clock()
        try:
            observed = op.run()
        except SataError as exc:
            observed = ("error", type(exc).__name__)
        except Exception as exc:  # a failed op, counted below
            observed = ("crash", type(exc).__name__)
        dt = clock() - t0
        if traced:
            tracer.uninstall()
            wl.traced = False
        busy_ns += dt
        since_ref += dt
        attempted += 1
        (writes if op.write else reads).append(dt / 1e6)
        ordered.append(dt / 1e6)
        if tracer is not None:
            kinds.append((op.kind, traced))
        if not matches(op.expect, observed):
            failed += 1
            unexpected[op.kind] += 1
            examples.setdefault(op.kind, repr(observed)[:200])
    return {
        "reads": reads,
        "writes": writes,
        "ordered": ordered,
        "refs": refs,
        "kinds": kinds,
        "attempted": attempted,
        "failed": failed,
        "busy_s": busy_ns / 1e9,
        "wall_s": (clock() - start) / 1e9,
        "unexpected": dict(unexpected),
        "examples": examples,
    }


# -- statistics ----------------------------------------------------------------


def tail(samples, p: int) -> tuple[float, int]:
    """(p-th percentile by nearest rank, samples beyond it)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0
    rank = math.ceil(p * n / 100)
    return ordered[rank - 1], n - rank


def median(samples) -> float:
    """p50 by nearest rank, like ``tail``, so a tail is never below it."""
    return tail(samples, 50)[0]


def trace_overhead(phase: dict) -> tuple[float, int]:
    """1 - untraced/traced time for the run's op mix, and the op kinds used.

    For each op kind with at least two traced and two untraced ops, the
    median latency of each group is weighted by the kind's op count.  With
    no such kind (a very short run) the ratio is reported as 0.
    """
    by_kind: dict[str, tuple[list, list]] = {}
    for (kind, traced), ms in zip(phase["kinds"], phase["ordered"]):
        by_kind.setdefault(kind, ([], []))[traced].append(ms)
    plain = traced = 0.0
    used = 0
    for off, on in by_kind.values():
        if len(off) >= 2 and len(on) >= 2:
            weight = len(off) + len(on)
            plain += weight * statistics.median(off)
            traced += weight * statistics.median(on)
            used += 1
    return (1 - plain / traced if used else 0.0), used


def peak_rss_mb(wl) -> float:
    child = getattr(wl, "peak_rss_kb", None)
    kb = child() if child else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Wall time from spawning a fresh process to its first timed op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        code = child.wait()
    if line.strip() != b"ready" or code != 0:
        raise SystemExit(f"setup probe failed (exit {code})")
    return elapsed


# -- provenance ------------------------------------------------------------------


def git_commit() -> str | None:
    # the ceiling keeps git from reporting a repository that merely encloses ROOT
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def provenance(args) -> dict:
    import cryptography

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "satakit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


# -- the two kinds of run --------------------------------------------------------


def end_to_end(args) -> tuple[dict, dict, list[str]]:
    # set-up is timed several times, spread over the run, so that its median
    # samples the host's speed over the whole run, as the op costs do
    setups = []

    def probe():
        setups.append(setup_probe_seconds(args.workload, args.seed))

    wl = load_workload(args.workload, args.seed)
    phase = run_phase(wl, args.seconds, pauses=[probe] * SETUP_PROBES)
    read_p, write_p = TAIL_PERCENTILE[args.workload]["read"], TAIL_PERCENTILE[args.workload]["write"]
    read_tail, read_beyond = tail(phase["reads"], read_p)
    write_tail, write_beyond = tail(phase["writes"], write_p)
    ref_ms = statistics.fmean(phase["refs"])
    read_ms, write_ms = statistics.fmean(phase["reads"]), statistics.fmean(phase["writes"])
    metrics = {
        "read_cost_ref": (read_ms / ref_ms, "ref"),
        "write_cost_ref": (write_ms / ref_ms, "ref"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(wl), "MB"),
    }
    notes = [
        f"ops_per_s {phase['attempted'] / phase['busy_s']:.4f}, read mean {read_ms:.4f} ms, "
        f"write mean {write_ms:.4f} ms, reference mean {ref_ms:.4f} ms "
        f"over {len(phase['refs'])} runs of it",
        f"reads {len(phase['reads'])}: p50 {median(phase['reads']):.4f} ms, "
        f"p{read_p} {read_tail:.4f} ms with {read_beyond} samples beyond",
        f"writes {len(phase['writes'])}: p50 {median(phase['writes']):.4f} ms, "
        f"p{write_p} {write_tail:.4f} ms with {write_beyond} samples beyond",
        f"failed_ratio {phase['failed'] / phase['attempted']:.6f} "
        f"({phase['failed']} of {phase['attempted']})",
        f"setup probes (s): {', '.join(f'{s:.4f}' for s in setups)}",
        f"time inside ops {phase['busy_s']:.3f} s of {phase['wall_s']:.3f} s",
    ]
    for cls, p, beyond in (("read", read_p, read_beyond), ("write", write_p, write_beyond)):
        if beyond < TAIL_MIN_BEYOND:
            notes.append(f"FLAG: the {cls} p{p} has only {beyond} samples beyond it, "
                         f"fewer than {TAIL_MIN_BEYOND}")
    units = declared("end_to_end")
    if {n: u for n, (_v, u) in metrics.items()} != units:
        raise SystemExit("end-to-end metrics differ from BENCHMARK.json")
    return phase, metrics, notes + defect_notes(phase, wl)


def defect_notes(phase: dict, wl) -> list[str]:
    from common import KNOWN_DEFECTS

    out = []
    for tag, (bad, total) in sorted(wl.defect_tally.items()):
        out.append(f"known defect {tag!r} ({KNOWN_DEFECTS[tag]}): "
                   f"{bad} of {total} untimed probes failed")
    canary_unexpected = wl.canary_unexpected
    for kind, count in sorted(phase["unexpected"].items()):
        out.append(f"UNEXPECTED failures of {kind!r}: {count}, e.g. {phase['examples'][kind]}")
    for kind, count in sorted(Counter(kind for kind, _obs in canary_unexpected).items()):
        observed = next(obs for k, obs in canary_unexpected if k == kind)
        out.append(f"UNEXPECTED canary failures of {kind!r}: {count}, e.g. {observed}")
    return out


def traced(args) -> tuple[dict, dict, list[str]]:
    import tracer as tracing

    wl = load_workload(args.workload, args.seed)
    tr = tracing.Tracer()
    tr.install()  # fails here, before any timing, if a boundary is gone
    tr.uninstall()
    phase = run_phase(wl, args.seconds, tr, random.Random(f"trace:{args.seed}"))
    summaries = [tr.summarize()] + list(getattr(wl, "child_summaries", []))
    values = tracing.layer_metrics(tracing.merge(summaries))
    if hasattr(wl, "layer_extras"):
        values.update(wl.layer_extras())
    values["trace.overhead_ratio"], kinds_used = trace_overhead(phase)
    write_spans(args.workload, tr.span_rows() + list(getattr(wl, "child_spans", [])))

    n_traced = sum(traced for _kind, traced in phase["kinds"])
    notes = [
        f"{n_traced} of {phase['attempted']} ops traced; overhead from {kinds_used} op kinds",
    ]
    for name, ref in ROADMAP_US.items():
        calls = values[f"{name}.calls"]
        if calls:
            per_call = values[f"{name}.self_ms"] * 1000 / calls
            gap = per_call / ref
            flag = "  GAP > 2x" if gap > 2 or gap < 0.5 else ""
            notes.append(
                f"cross-check {name}: {per_call:.1f} us/call traced here, "
                f"{ref:.0f} us in ROADMAP item 1 (x{gap:.2f}){flag}"
            )
    units = declared("per_layer")
    missing = [n for n in units if n not in values and not n.startswith(WORKLOAD_SPECIFIC)]
    undeclared = [n for n in values if n not in units]
    if missing or undeclared:
        raise SystemExit(f"per-layer metrics differ from BENCHMARK.json: "
                         f"missing {missing}, undeclared {undeclared}")
    metrics = {name: (values.get(name, 0.0), unit) for name, unit in units.items()}
    return phase, metrics, notes + defect_notes(phase, wl)


def write_spans(workload: str, rows: list) -> None:
    from common import OUT

    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"spans-{workload}.csv", "w") as fh:
        fh.write("span,name,start_ns,end_ns,parent,op,outcome,raised\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def print_layers(metrics: dict) -> None:
    print("per-layer metrics (traced ops of the run):")
    curve = {}
    for name, (value, unit) in metrics.items():
        if ".miss_ms." in name:
            curve[name] = value
            continue
        print(f"  {name:52} {value:14.4f} {unit}")
    print("trust.evaluate miss latency by nodes x depth (ms; 0 = not run in this workload):")
    depths = sorted({n.rsplit(".", 1)[1] for n in curve})
    nodes = sorted({n.rsplit(".", 2)[1] for n in curve}, key=lambda s: int(s[1:]))
    print("  " + "nodes".ljust(8) + "".join(d.rjust(12) for d in depths))
    for n in nodes:
        cells = []
        for d in depths:
            key = f"trust.evaluate.miss_ms.{n}.{d}"
            cells.append(f"{curve[key]:12.2f}" if key in curve else " " * 11 + "-")
        print("  " + n.ljust(8) + "".join(cells))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "satakit" / "__init__.py").is_file():
        print(f"error: no satakit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    if args.setup_probe:
        load_workload(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    phase, metrics, notes = (traced if args.trace else end_to_end)(args)
    correct = not any(note.startswith("UNEXPECTED") for note in notes)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    for note in notes:
        print("  " + note)
    if args.trace:
        print_layers(metrics)
    else:
        for name, (value, unit) in metrics.items():
            print(f"  {name:16} {value:14.6f} {unit}")
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    result = {
        "correct": correct,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
