"""``tools/code_lines.py`` counts code lines, leaving out docstrings,
comments and blank lines."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts

# a comment line


class A:
    """Class docstring."""

    x = """a string that is
no docstring"""

    def f(self, a,
          b):
        "Function docstring."
        return (a +
                b)
'''


def test_only_code_lines_count():
    # import, class, both lines of x, both lines of def f, both of return
    assert _tool().code_lines(SOURCE) == 8


def test_the_package_total_is_the_sum_of_its_modules(capsys):
    tool = _tool()
    tool.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    *modules, (name, total) = rows
    assert name == "total" and int(total) == sum(int(count) for _, count in modules)
    assert {"_value", "onion", "trust", "cli/__init__", "cli/_onion"} <= {
        module for module, _ in modules
    }
