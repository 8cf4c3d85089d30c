"""``python -m satakit.cli``: the ``satakit`` command."""

from . import main

if __name__ == "__main__":
    raise SystemExit(main())
