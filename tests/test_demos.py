"""End-to-end demo runs whose stdout must match a golden capture byte for
byte."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_extract_keywords", "02_graph_stats", "03_communities",
                                  "04_connectivity_null_model", "05_diffusion_classes",
                                  "06_perception", "07_intervention", "08_demographics"])
def test_demo_matches_golden(capsys, demo):
    runpy.run_path(str(ROOT / "demos" / f"{demo}.py"), run_name="__main__")
    golden = (Path(__file__).parent / "golden" / f"{demo}.stdout").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == golden
