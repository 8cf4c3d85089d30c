"""The CLI's help and usage text, byte for byte.

``build_parser`` fills in only the subcommands of the group a call names,
so each help page and usage error is compared with a recorded golden:
``--help`` at the top, for each group, each subcommand and ``verify``,
and the usage errors of a missing or unknown group or subcommand and of
missing required flags.  The text is taken at 80 columns outside test
mode, where ``--now`` is optional.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from satakit.cli import main

from conftest import DATA_DIR

GOLDEN = json.loads((DATA_DIR / "cli_help_golden.json").read_text())

GROUPS = {
    "onion": ("parse", "encode", "keygen"),
    "sata": ("parse", "render", "rewrite"),
    "satt": ("issue", "self", "verify", "fresh"),
    "trust": ("eval",),
    "rotate": ("check", "pointer"),
    "sim": ("run", "matrix"),
}
CASES = (
    [["--help"], ["verify", "--help"]]
    + [[group, "--help"] for group in GROUPS]
    + [[group, sub, "--help"] for group, subs in GROUPS.items() for sub in subs]
    + [[], ["bogus"], ["onion"], ["onion", "bogus"], ["--json", "trust", "eval"]]
)


def capture(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of ``satakit`` run on ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_help_and_usage_text_unchanged(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("SATAKIT_TEST_MODE", raising=False)
    assert capture(argv) == GOLDEN[" ".join(argv)]
