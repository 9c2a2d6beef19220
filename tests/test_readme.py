"""The README's CLI field tables and config examples against the parser's tables."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from varband.cli import COMMANDS, main
from varband.config import Table
from varband.profile import PROFILE_FIELDS
from varband.sampling import samples_to_csv

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
TABLES = {**{name: command.table for name, command in COMMANDS.items()}, **PROFILE_FIELDS}
JSON_BLOCK = re.compile(r"^```json\n(.*?)^```", re.M | re.S)


def sections():
    """README section text under each heading ### `name` that names a table."""
    found = {}
    for part in re.split(r"^(?=##)", README, flags=re.M):
        heading = re.match(r"### `(\w+)`", part)
        if heading and heading[1] in TABLES:
            found[heading[1]] = part
    return found


def field_names(table, prefix=""):
    """The table's fields in order, a nested block's as block.field."""
    for key, (kind, *_) in table.fields.items():
        if isinstance(kind, Table):
            yield from field_names(kind, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_every_table_has_a_section():
    assert sorted(sections()) == sorted(TABLES)


def test_every_json_example_is_in_a_section():
    in_sections = sum(len(JSON_BLOCK.findall(text)) for text in sections().values())
    assert in_sections == len(JSON_BLOCK.findall(README)) >= 7


@pytest.mark.parametrize("name", sorted(TABLES))
def test_listed_fields_are_the_table(name):
    listed = re.findall(r"^\| `([\w.]+)` \|", sections()[name], flags=re.M)
    assert listed == list(field_names(TABLES[name]))


@pytest.mark.parametrize("name", sorted(TABLES))
def test_examples_parse(name):
    for text in JSON_BLOCK.findall(sections()[name]):
        TABLES[name](json.loads(text))


def assert_report_fields_are_listed(name, tmp_path, *extra):
    """The section's field list is the report.json of its own first example."""
    text = sections()[name]
    config = tmp_path / f"{name}.json"
    config.write_text(JSON_BLOCK.findall(text)[0])
    out = tmp_path / name
    main([name, "--config", str(config), "--out", str(out), *extra])
    report = json.loads((out / "report.json").read_text())
    listed = re.findall(r"^- `(\w+)`:", text, flags=re.M)
    assert sorted(listed) == sorted(report)
    timings = re.search(r"^- `timings`:(.*?)(?=^$)", text, flags=re.M | re.S)[1]
    assert sorted(re.findall(r"`(\w+)`", timings)) == sorted(report["timings"])


def test_reconstruct_report_fields_are_listed(tmp_path):
    samples = tmp_path / "samples.csv"
    x = np.linspace(-11.5, 11.5, 47)
    samples_to_csv(samples, x, np.cos(x))
    assert_report_fields_are_listed("reconstruct", tmp_path, "--samples", str(samples))


@pytest.mark.parametrize("name", ["scatter", "shannon", "landau"])
def test_report_fields_are_listed(name, tmp_path):
    assert_report_fields_are_listed(name, tmp_path)


def test_landau_models_are_listed(tmp_path):
    # one model report per window of the example, each field named in the `models` entry
    text = sections()["landau"]
    config = JSON_BLOCK.findall(text)[0]
    (tmp_path / "landau.json").write_text(config)
    out = tmp_path / "landau"
    main(["landau", "--config", str(tmp_path / "landau.json"), "--out", str(out)])
    models = json.loads((out / "report.json").read_text())["models"]
    # report.json sorts its keys as text: "120.0" before "30.0"
    assert sorted(models) == sorted(str(w) for w in json.loads(config)["window_halfwidths"])
    entry = re.search(r"^- `models`:(.*?)(?=^- )", text, flags=re.M | re.S)[1]
    named = set(re.findall(r"`(\w+)`", entry))
    assert all(set(report) <= named for report in models.values())
    assert {"max_unitarity_defect", "rk4_steps", "rk4_points"} <= named
