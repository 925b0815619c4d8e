"""Smoke test: the narrative demos run to completion.

The demos are the only callers of ``SurveySample.predictors`` and of
``krr_predict`` on held-out grids. Demo 05 is left out: its Monte-Carlo
run over 200 replicate samples takes about 6 s, longer than 01-04 together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_build_distributions.py", "02_wasserstein_geometry.py",
         "03_survey_regression.py", "04_mortality_classification.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_0(name, tmp_path):
    # run in a scratch directory: demos write their CSV output under the cwd
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
