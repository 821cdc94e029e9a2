"""``tools/outputs.py diff`` on two copies of one small run."""

import importlib.util
import io
import shutil
import sys
from pathlib import Path

import pytest

from nicholson.cli import main

TOOL = Path(__file__).resolve().parent.parent / "tools" / "outputs.py"
SETTINGS = ["model.length=3", "model.n_points=21", "model.a=2.5", "model.r=0.01",
            "model.p=30 + 1*sin(1*x + 0)", "model.delta=2 + 1*cos(0.2*x + 0)"]


@pytest.fixture(scope="module")
def outputs():
    spec = importlib.util.spec_from_file_location("outputs_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # for its dataclass
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """``hopf`` and ``normalform`` on fig. 2 at n = 21."""
    root = tmp_path_factory.mktemp("run")
    for task in ("hopf", "normalform"):
        argv = [task, "--out", str(root / task)]
        for setting in SETTINGS:
            argv += ["--set", setting]
        assert main(argv) == 0
    return root


@pytest.fixture
def copies(tmp_path, small_run):
    a, b = tmp_path / "a", tmp_path / "b"
    shutil.copytree(small_run, a)
    shutil.copytree(small_run, b)
    return a, b


def edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def run_diff(outputs, a, b):
    report = io.StringIO()
    return outputs.diff(a, b, stream=report), report.getvalue()


def test_identical_copies(outputs, copies):
    code, report = run_diff(outputs, *copies)
    assert code == 0
    # only the table: no file is listed as differing
    assert report.splitlines()[1].startswith("| file |")
    assert "| `hopf.csv` | 1 | 1 | - | - | 0 |" in report


def test_perturbed_cell_is_reported(outputs, copies):
    a, b = copies
    csv = b / "hopf" / "hopf.csv"
    line = next(line for line in csv.read_text().splitlines()
                if line.startswith("theta,"))
    theta = float(line.split(",")[1])
    edit(csv, line, f"theta,{theta * (1.0 + 1e-9):.12g}")
    code, report = run_diff(outputs, a, b)
    assert code == 0
    moved = outputs.compare_file(a / "hopf" / "hopf.csv", csv).moved
    assert moved == pytest.approx(1e-9, rel=1e-3)
    assert "hopf/hopf.csv: largest relative difference 1e-09 (line 5)" in report
    assert "| `hopf.csv` | 1 | 0 | 1e-09 | - | 0 |" in report


def test_timestamp_skipped_and_residual_apart(outputs, copies):
    a, b = copies
    manifest = b / "hopf" / "manifest.txt"
    stamp = manifest.read_text().splitlines()[0]
    assert stamp.startswith("# generated ")
    edit(manifest, stamp, "# generated 1970-01-01T00:00:00+00:00")
    summary = b / "hopf" / "summary.txt"
    line = next(line for line in summary.read_text().splitlines()
                if line.startswith("residual_norm = "))
    edit(summary, line, "residual_norm = 0.5")
    code, report = run_diff(outputs, a, b)
    assert code == 0
    assert "| `manifest.txt` | 2 | 2 | - | - | 0 |" in report
    assert "(floor-level)" in report
    assert "| `summary.txt` | 2 | 1 | - | " in report


@pytest.mark.parametrize("damage, message", [
    ("missing", "MISSING hopf/hopf.csv"),
    ("header", "header changed: 'x,Re z,Im z,Re psi,Im psi'"),
    ("verdict", "verdict changed: 'n0_direction = forward'"),
], ids=["missing", "header", "verdict"])
def test_failures_exit_nonzero(outputs, copies, damage, message):
    a, b = copies
    if damage == "missing":
        (b / "hopf" / "hopf.csv").unlink()
    elif damage == "header":
        edit(b / "hopf" / "hopf.csv", "Re psi", "Re phi")
    else:
        edit(b / "normalform" / "summary.txt", "forward", "backward")
    code, report = run_diff(outputs, a, b)
    assert code == 1
    assert message in report
