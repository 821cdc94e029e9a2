"""Every demo runs to its end in-process and prints its headline line."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

HEADLINES = {
    "01_steady_states.py":
        "constant coefficients, c0 = 3: max |u - 3| = 0.000e+00",
    "02_hopf_thresholds.py": "  tau_hat_0 = 0.911960",
    "03_normal_form.py": "direction    = forward",
    "04_simulation.py": "tau_hat = 1.05 * tau_hat_0: oscillating,",
}


@pytest.mark.parametrize("script", sorted(HEADLINES))
def test_demo_prints_headline(script, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith(HEADLINES[script]) for line in lines), lines
