"""satakit command-line interface.

Exit codes form the contract test harnesses rely on:

====  =======================================================
 0    success / Accept / Trusted / RotationOk
64    usage error (bad flags, missing arguments)
65    data or validation failure (any library error class;
      the class name is printed; also verdict reject-not-sata)
66    verdict reject-signature      (``verify`` command)
67    verdict reject-stale          (``verify`` command)
68    verdict reject-fingerprint    (``verify`` command)
69    verdict reject-san-missing    (``verify`` command)
74    I/O error (unreadable or missing files or directories)
====  =======================================================

Data goes to stdout (single-line JSON with ``--json``), diagnostics to
stderr.  Every time-sensitive command takes an explicit ``--now`` date;
when the ``SATAKIT_TEST_MODE`` environment variable is set the flag is
mandatory so runs stay deterministic.

Every call is a new process, which compiles and loads each module it
imports, so a call loads only what it runs.  This package is the core
every call needs: :func:`main`, the parser and the exit codes.  Each of
the seven command groups lives in its own private module (``_onion``,
``_sata``, ``_satt``, ``_verify``, ``_trust``, ``_rotate`` and ``_sim``)
with its subcommand parsers and handlers; ``_shared`` holds the helpers
that more than one group uses.  :func:`build_parser` imports only the
module of the group a call names, and each handler imports the satakit
modules it runs when it runs.  ``onion parse`` thus loads no SATA,
credential, validation, trust or simulator code and no cryptography,
``verify`` loads neither the trust engine nor the simulator, and only the
``sim`` commands load the simulator.  The module ``__getattr__`` serves
the package's public names, such as ``parse_onion``, as
``satakit.cli.<name>`` on first read, for code that reads or patches them
here, as the benchmark's span tracer does.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import import_module

from ..errors import SataError

EXIT_OK = 0
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_IO = 74

# keyed by ``VerdictOutcome`` value, so this table loads no validation code
VERDICT_EXIT_CODES = {
    "accept": EXIT_OK,
    "reject-not-sata": 65,
    "reject-signature": 66,
    "reject-stale": 67,
    "reject-fingerprint": 68,
    "reject-san-missing": 69,
}


def __getattr__(name: str):
    """A public satakit name read as ``satakit.cli.<name>``, such as
    ``parse_onion``, from its home module; the value is kept here, so a
    later read, or a patch of this module, finds it as a plain global."""
    from .. import _HOME

    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"..{_HOME[name]}", __name__), name)
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(human)


# group -> its help text, in help order; module ``_<group>`` fills in its parser
_GROUPS = {
    "onion": "onion address operations",
    "sata": "SATA parsing and rendering",
    "satt": "sattestation credentials",
    "verify": "validate a SATA connection",
    "trust": "contextual trust",
    "rotate": "key rotation",
    "sim": "attack scenario simulator",
}


def build_parser(group: str | None = None) -> _Parser:
    """The ``satakit`` parser.  Every group is added, but only ``group``'s
    subcommands are filled in, or every group's when ``group`` is None; a
    call parses one group, so the others' parsers and modules would go
    unused."""
    parser = _Parser(prog="satakit", description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="machine-readable JSON on stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _GROUPS.items():
        p = sub.add_parser(name, help=help_text)
        if group in (None, name):
            import_module(f"._{name}", __name__).add_commands(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # ``--json`` is the only top-level option and takes no value, so the
    # first word that is not an option names the group
    group = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(group).parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SataError, ValueError, KeyError) as exc:
        name = type(exc).__name__
        if args.json:
            print(json.dumps({"error": {"class": name, "detail": str(exc)}}))
        print(f"error: {name}: {exc}", file=sys.stderr)
        return EXIT_DATA
