"""The demos and the README's Python examples run against the current API,
every public name of the package resolves, and so does every module.name
the README names."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import satcrb
from satcrb import verify
from test_acceptance import bandwidth_gaps, gate_bandwidth, limit_gaps, two_term_gate_edge

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the directory the satcrb under test is imported from, for the subprocesses
PACKAGE_ROOT = str(Path(satcrb.__file__).resolve().parent.parent)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(demo):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [PACKAGE_ROOT, path])))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_readme_python_blocks_run_in_one_namespace():
    blocks = re.findall(
        r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S
    )
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["bound"].xy > 0.0


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from satcrb import *", namespace)
    assert len(set(satcrb.__all__)) == len(satcrb.__all__)
    assert set(satcrb.__all__) <= namespace.keys()


def test_readme_module_names_resolve():
    """Every backticked `module.name` of the README whose module is a satcrb
    submodule names something that module has, so a renamed or deleted name
    cannot leave the README behind."""
    submodules = {m.name for m in pkgutil.iter_modules(satcrb.__path__)}
    refs = [
        (module, name)
        for module, name in re.findall(r"`(\w+)\.(\w+)`", (ROOT / "README.md").read_text())
        if module in submodules
    ]
    assert len(refs) >= 5
    for module, name in refs:
        assert hasattr(importlib.import_module(f"satcrb.{module}"), name), f"{module}.{name}"


SUPERSCRIPT = str.maketrans("-0123456789", "⁻⁰¹²³⁴⁵⁶⁷⁸⁹")


def quote(value: float) -> str:
    """value as the README writes it: three decimals times a power of ten."""
    mantissa, exponent = f"{value:.3e}".split("e")
    return f"{mantissa}×10{str(int(exponent)).translate(SUPERSCRIPT)}"


def test_readme_quotes_the_measured_rss_gaps():
    """The criterion 08 gaps the README quotes are the ones the criterion
    measures, to the three decimals it prints, so a change of the draw
    cannot leave them stale."""
    readme = (ROOT / "README.md").read_text()
    for name, gaps in zip(("max_gap_xy", "max_gap_z"), bandwidth_gaps()):
        assert f"`{name}` = {quote(max(gaps))}" in readme


def test_readme_quotes_the_limit_gaps():
    """The N -> infinity gaps the README quotes for criterion 08 are those of
    both routes of `limit_gaps`, to three decimals."""
    readme = (ROOT / "README.md").read_text()
    for route in limit_gaps().values():
        for axis, gap in zip(("xy", "z"), route):
            assert f"{quote(gap)} ({axis})" in readme


def test_readme_quotes_the_gate_bandwidth():
    """The bandwidth at which criterion 08's limit z gap meets its gate."""
    assert f"W_e = {gate_bandwidth() / 1e3:.2f} kHz" in (ROOT / "README.md").read_text()


def test_readme_quotes_the_two_term_gate_edge():
    """The phi_l_max up to which criterion 06's factor meets its gate."""
    assert f"φ_l,max ≤ {two_term_gate_edge():.2f}°" in (ROOT / "README.md").read_text()


def _imports_mpmath(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "mpmath" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "mpmath":
                return True
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "importorskip" and any(
                isinstance(arg, ast.Constant) and arg.value == "mpmath" for arg in node.args
            ):
                return True
    return False


def test_only_the_oracle_imports_mpmath():
    """High-precision references live in tests/oracle.py alone, so every test
    compares against the same truth at the same inputs."""
    users = [
        path.name
        for path in sorted((ROOT / "tests").glob("*.py"))
        if _imports_mpmath(ast.parse(path.read_text()))
    ]
    assert users == ["oracle.py"]


def test_readme_lists_the_verify_checks():
    """README's numbered list under "How it is validated" gives each row of
    verify.CHECKS, its name, label and gate as verify prints them, in the
    order verify runs them."""
    section = (ROOT / "README.md").read_text().split("## How it is validated")[1]
    section = section.split("\n## ")[0]
    items = re.findall(r"^\d+\. `([\w-]+)`, `(\w+)` < (\S+):", section, re.M)
    assert items == [(c.name, c.label, f"{c.gate:.0e}") for c in verify.CHECKS]
