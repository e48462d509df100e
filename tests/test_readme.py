"""README tables that restate the code: the campaign keys and the bounds."""

import dataclasses
import re
from pathlib import Path

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
