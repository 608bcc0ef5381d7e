"""End-to-end demo runs whose stdout must match a golden capture byte for
byte."""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_intervention_demo_matches_golden(capsys):
    runpy.run_path(str(ROOT / "demos" / "07_intervention.py"), run_name="__main__")
    golden = (Path(__file__).parent / "golden" / "07_intervention.stdout").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == golden
