"""Import hygiene: every name a module of the package imports is used; every
subcommand runs with scipy blocked, and `import varband.cli` leaves numpy.fft
unloaded; and the real basis U has one evaluator, and the warp one definition, on
`SpectralModel`."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from varband.cli import COMMANDS
from varband.sampling import samples_to_csv

SRC = Path(__file__).resolve().parent.parent / "src" / "varband"


def unused_imports(source):
    """Names bound by the import statements of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_name():
    source = "import csv\nfrom numpy import pi, e\n\nprint(pi)\n"
    assert unused_imports(source) == [(1, "csv"), (2, "e")]


BLEND = {"kind": "smooth_blend", "p_minus": 1.0, "p_plus": 2.0, "R": 1.0}
# a small config of each subcommand that exits 0; reconstruct also reads SAMPLES
CONFIGS = {
    "kernel": {"model": "liouville", "profile": BLEND, "spectral_set": [[0.0, 1.0]],
               "grid": {"lo": -3.0, "hi": 3.0, "n": 7}},
    "scatter": {"profile": BLEND, "omega_grid": {"lo": 0.5, "hi": 2.0, "n": 4}},
    "reconstruct": {"model": "liouville", "profile": BLEND, "spectral_set": [[0.0, 1.0]],
                    "window": [-10.0, 10.0], "n_max": 2, "output_points": 11},
    "shannon": {"profile": {"kind": "piecewise", "breakpoints": [0.0], "values": [1.0, 4.0]},
                "spectral_set": [[0.0, 1.0]], "j_max": 5},
    "density": {"profile": BLEND, "window": [-60.0, 60.0], "target_density": 1.0},
    "landau": {"spectral_set": [[0.0, 1.0]], "density_grid": [0.8 / np.pi, 1.2 / np.pi],
               "window_halfwidths": [30.0, 60.0]},
    "selftest": None,
}
SAMPLES = np.linspace(-9.5, 9.5, 40)


def test_every_subcommand_has_a_config():
    assert sorted(CONFIGS) == sorted(COMMANDS)


@pytest.mark.parametrize("subcommand", sorted(CONFIGS))
def test_subcommand_runs_without_scipy(tmp_path, subcommand):
    # numpy is the one runtime dependency: a fresh interpreter in which every import
    # of scipy fails runs the subcommand; numpy.fft is reached only by a nonuniform
    # FFT, when one is applied, so importing the CLI leaves it unloaded
    argv = [subcommand, "--out", str(tmp_path / "out")]
    if CONFIGS[subcommand] is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(CONFIGS[subcommand]))
        argv += ["--config", str(cfg)]
    if subcommand == "reconstruct":
        samples_to_csv(tmp_path / "samples.csv", SAMPLES, np.cos(0.5 * SAMPLES))
        argv += ["--samples", str(tmp_path / "samples.csv")]
    code = (f"import sys\nsys.modules['scipy'] = None\nsys.path.insert(0, {str(SRC.parent)!r})\n"
            "import varband.cli\nprint('numpy.fft' in sys.modules)\n"
            f"sys.exit(varband.cli.main({argv!r}))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.splitlines()[0] == "False"
    assert "scipy" not in json.loads((tmp_path / "out" / "report.json").read_text())["versions"]


TAIL_EVALUATORS = {"basis", "basis_antiderivative", "plan", "warp"}


def tail_evaluators(source):
    """(class or None, name) of every definition or assignment of a tail evaluator name."""
    found = []

    def scan(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                scan(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            if not isinstance(node, ast.ClassDef):
                found.extend((owner, name) for name in names if name in TAIL_EVALUATORS)

    scan(ast.parse(source).body, None)
    return found


def test_tail_evaluators_only_on_spectral_model():
    # U off the support, its antiderivative, the sampling plan and the warp are written once
    found = sorted((path.name, owner, name) for path in SRC.glob("*.py")
                   for owner, name in tail_evaluators(path.read_text()))
    assert found == [("kernel.py", "SpectralModel", name) for name in sorted(TAIL_EVALUATORS)]


def test_scan_finds_a_second_tail_evaluator():
    source = ("class Base:\n    def basis(self, x): pass\n"
              "class Model(Base):\n    basis_antiderivative = None\n"
              "    def plan(self, points): pass\n"
              "def basis(x): pass\n")
    assert tail_evaluators(source) == [("Base", "basis"), ("Model", "basis_antiderivative"),
                                       ("Model", "plan"), (None, "basis")]
