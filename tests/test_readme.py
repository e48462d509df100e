"""README parts that restate the code: the campaign keys, the bounds and the quick tour."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from spinz.bounds import BOUND_INPUTS
from spinz.harness import CampaignConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def _table(header: str) -> list[list[str]]:
    """The cells of each body row of the README table whose header row
    starts with ``header``."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[start + 2:]:  # past the header and its |---| rule
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_campaign_key_table_lists_every_config_field():
    keys = [key for row in _table("| key ") for key in re.findall(r"`(\w+)`", row[0])]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(CampaignConfig))


def test_bound_table_lists_every_bound_with_its_reads():
    rows = {re.fullmatch(r"`(\w+)`", row[0]).group(1): row[1] for row in _table("| name ")}
    assert rows == {name: reads or "-" for name, reads in BOUND_INPUTS.items()}


def test_quick_tour_runs_and_prints_its_commented_results():
    text = README.read_text()
    start = text.index("```python\n", text.index("## Library quick tour")) + len("```python\n")
    code = text[start:text.index("```\n", start)]
    lines = code.splitlines()
    namespace, checked = {}, []
    for stmt in ast.parse(code).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        want = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        rounded = re.search(r"\.(\d+)\.\.\.", want)  # "0.0285..." is the value to 4 places
        if rounded:
            tol = 0.5 * 10 ** -len(rounded.group(1))
            assert value == pytest.approx(eval(want.replace("...", ""), namespace), abs=tol, rel=0)
        else:
            assert repr(value) == want
        checked.append(want)
    assert checked == ["Fraction(18, 1)", "('HOLDS', 0.0285...)"]
