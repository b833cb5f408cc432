"""README's "Model parameters" table equals the protocol constants it names.

Each row's ``module.NAME`` must be a constant of that module with the row's
value, and every constant a protocol module defines must have a row, so the
document cannot drift from the model.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

MODULES = {
    "aodv": "repro.routing.aodv",
    "maodv": "repro.multicast.maodv",
    "flooding": "repro.multicast.flooding",
    "odmrp": "repro.multicast.odmrp",
    "router": "repro.multicast.router",
    "node": "repro.net.node",
    "mac": "repro.net.mac",
    "gossip": "repro.core.gossip",
    "lost_table": "repro.core.lost_table",
    "member_cache": "repro.core.member_cache",
}

README = Path(__file__).resolve().parents[1] / "README.md"
ROW = re.compile(r"^\| `(\w+)\.(\w+)` \| ([^|]+) \| [^|]+ \| [^|]+ \|$")


def _table_rows():
    """``(module key, name, value)`` of every row of the section's table."""
    text = README.read_text()
    section = text.split("\n## Model parameters\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        match = ROW.match(line)
        if match:
            rows.append((match[1], match[2], ast.literal_eval(match[3].strip())))
    return rows


def _defined_constants(module):
    """Names of the upper-case constants ``module`` itself assigns."""
    tree = ast.parse(inspect.getsource(module))
    return {
        target.id
        for statement in tree.body
        if isinstance(statement, ast.Assign)
        for target in statement.targets
        if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id)
    }


def test_every_row_equals_the_live_constant():
    rows = _table_rows()
    assert rows
    for key, name, value in rows:
        live = getattr(importlib.import_module(MODULES[key]), name)
        assert type(live) is type(value) and live == value, f"{key}.{name}"


def test_every_protocol_constant_has_one_row():
    documented = [(key, name) for key, name, _ in _table_rows()]
    assert len(documented) == len(set(documented))
    defined = {
        (key, name)
        for key, module in MODULES.items()
        for name in _defined_constants(importlib.import_module(module))
    }
    assert set(documented) == defined
