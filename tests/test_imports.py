"""Import hygiene: every name a module of the package imports is used, and
`import varband.cli` loads neither scipy nor numpy.fft; and the real basis
U has one evaluator, on `SpectralModel`."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_cli_import_leaves_scipy_unloaded():
    # scipy only supplies its version to report.json, imported when a report is written;
    # numpy.fft is reached only by a nonuniform FFT, when one is applied
    code = (f"import sys\nsys.path.insert(0, {str(SRC.parent)!r})\nimport varband.cli\n"
            "print('scipy' in sys.modules, 'numpy.fft' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False False"


TAIL_EVALUATORS = {"basis", "basis_antiderivative", "plan"}


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
    # U off the support, its antiderivative and the sampling plan are written once
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
