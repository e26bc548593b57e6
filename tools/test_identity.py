"""Smoke test of the identity check: two record passes of this tree match, an
exported revision is that revision's tree, and planted differences are named.

Run from the repository root with ``python3 -m pytest tools``.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = importlib.util.spec_from_file_location("identity", HERE / "identity.py")
identity = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(identity)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """The record file of this working tree."""
    out = tmp_path_factory.mktemp("records") / "parent.jsonl"
    identity.run_records(identity.ROOT, out)
    return out


def _write(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


def test_two_record_passes_match_in_every_group(records, tmp_path):
    again = tmp_path / "change.jsonl"
    identity.run_records(identity.ROOT, again)
    same, report = identity.compare(records, again)
    assert same, "\n".join(report)
    for group in identity.GROUPS:
        line = next(line for line in report if line.startswith(group + " "))
        assert line.endswith("match") and "sha256 " in line, line


def test_export_is_the_revision_tree():
    tree = identity.export("HEAD")
    committed = subprocess.run(["git", "-C", str(identity.ROOT), "show",
                                "HEAD:src/stratmc/bench.py"],
                               capture_output=True, check=True).stdout
    assert (tree / "src" / "stratmc" / "bench.py").read_bytes() == committed


def test_a_changed_value_names_its_record_and_size(records, tmp_path):
    lines = records.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if '"key": "haber1 s=1 k=4 streams=1 m=0"' in line)
    item = json.loads(lines[at])
    item["out"]["value"] *= 1 + 1e-12
    changed = _write(tmp_path / "change.jsonl",
                     lines[:at] + [json.dumps(item, sort_keys=True)] + lines[at + 1:])
    same, report = identity.compare(records, changed)
    assert not same
    text = "\n".join(report)
    assert "estimators" in text and "1 differing records" in text
    assert "first: haber1 s=1 k=4 streams=1 m=0: largest relative difference 1e-12" in text
    assert all(line.endswith("match") for line in report
               if line.startswith(("offsets", "cli", "readers")))


@pytest.mark.parametrize("value, moved", [(0.0, -0.0), (1, 1.0), (True, 1)])
def test_a_record_equal_as_numbers_is_named(tmp_path, value, moved):
    # Python equality ignores these changes; the record's line does not
    def lines(x):
        return [json.dumps({"group": "estimators", "key": key, "out": {"value": out}},
                           sort_keys=True)
                for key, out in (("nan", float("nan")), ("moved", x))]

    same, report = identity.compare(_write(tmp_path / "a.jsonl", lines(value)),
                                    _write(tmp_path / "b.jsonl", lines(moved)))
    assert not same
    assert "  1 differing records" in report
    assert "  first: moved: equal as numbers: a zero's sign or a number's type differs" in report
