"""README's "Library layout" table describes every module of the package:
a module added, renamed or removed without its row fails here."""
import os
import re

import eqgenus

PACKAGE = os.path.dirname(os.path.abspath(eqgenus.__file__))
README = os.path.join(PACKAGE, os.pardir, os.pardir, "README.md")


def _layout_rows() -> list[str]:
    """The module names of the table's rows, in order."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(eqgenus\.\w+)`", section, re.MULTILINE)


def test_layout_table_lists_every_module():
    rows = _layout_rows()
    modules = {"eqgenus." + name[:-3] for name in os.listdir(PACKAGE)
               if name.endswith(".py") and name != "__init__.py"}
    assert len(rows) == len(set(rows)), rows
    assert set(rows) == modules
