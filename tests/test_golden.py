"""Golden pinning: bundled scenarios must reproduce the committed reports
byte for byte, through the same code path the CLI uses."""

from pathlib import Path

import pytest

from degloci import load_bundled_scenario, run_scenario
from degloci.report import RENDERERS

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = [
    ("m15", "exact", "m15.exact.txt"),
    ("m15", "decimal", "m15.decimal.txt"),
    ("m15", "json", "m15.json"),
    ("m16", "exact", "m16.exact.txt"),
    ("m16", "decimal", "m16.decimal.txt"),
    ("m16", "json", "m16.json"),
]


@pytest.mark.parametrize("name,fmt,filename", CASES)
def test_bundled_report_matches_golden(name, fmt, filename):
    report = run_scenario(load_bundled_scenario(name))
    rendered = RENDERERS[fmt](report)
    golden = (GOLDEN_DIR / filename).read_text(encoding="utf-8")
    assert rendered == golden


def test_cli_output_matches_golden(capsys):
    from degloci.cli import main

    expected, got = [], []
    for name, fmt, filename in CASES:
        golden = (GOLDEN_DIR / filename).read_text(encoding="utf-8")
        expected.append((name, fmt, 0, "", golden))
        code = main(["--scenario", name, "--format", fmt])
        captured = capsys.readouterr()
        got.append((name, fmt, code, captured.err, captured.out))
    assert got == expected
