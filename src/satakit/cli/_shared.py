"""Helpers that more than one command group uses: the ``--now`` option,
hex input, key and credential files, and credential output."""

from __future__ import annotations

import argparse
import os
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING

from .._json import iso_date
from ..errors import UnrepresentableField
from . import EXIT_OK

if TYPE_CHECKING:  # each helper imports what it runs when it runs
    from ..credential import Sattestation


def add_now(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--now",
        type=iso_date,
        required=bool(os.environ.get("SATAKIT_TEST_MODE")),
        default=None,
        help="evaluation date YYYY-MM-DD (defaults to today outside test mode)",
    )


def resolve_now(value: date | None) -> date:
    return value if value is not None else date.today()


def hex_bytes(text: str, what: str) -> bytes:
    """The bytes ``text`` spells in hex; other text is an :class:`UnrepresentableField`."""
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise UnrepresentableField(f"{what} is not hex: {exc}") from exc


def read_key(path: str):
    from ..onion import keygen

    text = Path(path).read_bytes().decode("ascii", "replace")  # non-ASCII is not hex either
    return keygen(hex_bytes(text.strip(), f"key file {path!r}"))


def read_credential(path: str) -> Sattestation:
    from ..credential import from_transport_json

    return from_transport_json(Path(path).read_bytes())


def files_in(path: str, suffix: str) -> list[Path]:
    """The files in directory ``path`` whose names end in ``suffix``, in
    name order.  A path that is not a directory raises :class:`OSError`
    (``glob`` would find nothing there and so answer with no files)."""
    return sorted(f for f in Path(path).iterdir() if f.name.endswith(suffix))


def read_creds_dir(path: str) -> list[Sattestation]:
    """The credentials in ``path``'s ``*.satt`` files, in name order; a
    path that is not a directory is an :class:`OSError`, not an empty pool."""
    from ..credential import from_transport_json

    return [from_transport_json(file.read_bytes()) for file in files_in(path, ".satt")]


def write_out(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n")


def print_credential(args, credential) -> int:
    """Print ``credential`` in transport form, and write it to ``--out``."""
    from ..credential import to_transport_json

    text = to_transport_json(credential)
    write_out(args, text)
    print(text)
    return EXIT_OK
