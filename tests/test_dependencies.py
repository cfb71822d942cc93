"""The package imports only what ``setup.py`` declares.

Two guards.  A static one parses every module under ``src/repro`` and checks
each import against the standard library, ``repro`` itself and the
distributions named in ``setup.py``; optional extras may only be imported
inside functions.  A dynamic one imports every ``repro`` module and runs a
small pipeline in a fresh interpreter where SciPy and NetworkX cannot be
imported, so a stray dependency on either fails here even on a machine that
has them installed.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def _declared_requirements() -> tuple[set[str], set[str]]:
    """Module names of ``install_requires`` and of every ``extras_require`` entry."""
    tree = ast.parse((ROOT / "setup.py").read_text())
    call = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup"
    )
    keywords = {
        keyword.arg: ast.literal_eval(keyword.value)
        for keyword in call.keywords
        if keyword.arg in ("install_requires", "extras_require")
    }

    def module_names(requirements) -> set[str]:
        return {
            re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).replace("-", "_").lower()
            for requirement in requirements
        }

    required = module_names(keywords.get("install_requires", []))
    extras = module_names(
        requirement
        for requirements in keywords.get("extras_require", {}).values()
        for requirement in requirements
    )
    return required, extras


def _imports(tree: ast.AST, *, in_function: bool = False):
    """Yield ``(top-level module, inside a function?, line)`` for every import."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], in_function, node.lineno
        elif isinstance(node, ast.ImportFrom):
            module = "repro" if node.level else (node.module or "").split(".")[0]
            yield module, in_function, node.lineno
        function = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        yield from _imports(node, in_function=function)


def test_every_import_is_stdlib_repro_or_declared():
    required, extras = _declared_requirements()
    assert required == {"numpy"}
    assert "uvicorn" in extras
    always_available = set(sys.stdlib_module_names) | {"repro"} | required
    problems = []
    for path in sorted(PACKAGE.rglob("*.py")):
        where = path.relative_to(ROOT)
        for module, in_function, line in _imports(ast.parse(path.read_text(), str(path))):
            if module in always_available:
                continue
            if module in extras and in_function:
                continue
            scope = "function-level" if in_function else "module-level"
            problems.append(f"{where}:{line}: {scope} import of {module!r} is not declared")
    assert problems == []


_WITHOUT_SCIPY_OR_NETWORKX = textwrap.dedent(
    """
    import importlib
    import pkgutil
    import sys

    BLOCKED = {"scipy", "networkx"}

    class Block:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] in BLOCKED:
                raise ImportError(f"{name} is blocked for this check")
            return None

    sys.meta_path.insert(0, Block())

    import repro
    from repro import Dataset, DeclarativeEngine, SimulatedLLM
    from repro.consistency import MatchGraph
    from repro.data import FLAVORS, flavor_oracle
    from repro.metrics import kendall_tau_b

    modules = [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    for name in modules:
        importlib.import_module(name)

    oracle = flavor_oracle()
    oracle.register_predicate(
        "contains chocolate in the name", lambda flavor: "chocolate" in flavor.lower()
    )
    engine = DeclarativeEngine(SimulatedLLM(oracle, seed=0), default_model="sim-gpt-3.5-turbo")
    result = (
        Dataset(list(FLAVORS), name="flavors")
        .filter("contains chocolate in the name")
        .sort("chocolatey", strategy="pairwise")
        .run(engine)
    )
    assert len(result.items) >= 2 and set(result.items) <= set(FLAVORS), result.items
    tau = kendall_tau_b(result.items, FLAVORS)
    graph = MatchGraph()
    graph.add_match(result.items[0], result.items[1])
    assert graph.connected(result.items[1], result.items[0])
    assert not BLOCKED & set(sys.modules)
    print(len(modules), tau)
    """
)


def test_package_imports_and_runs_without_scipy_or_networkx():
    completed = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY_OR_NETWORKX],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    module_count, tau = completed.stdout.split()
    assert int(module_count) > 50
    assert -1.0 <= float(tau) <= 1.0
