"""The package's lower layers import only what their docstrings say.

`monte_carlo` builds on `channel_model` and `stochastic_geometry` alone, and
shares the bounds' tables through them, never by importing `analytic_bounds`,
`quadrature` or `cli`; `channel_model` reads the band table of
`stochastic_geometry`, which imports nothing of the package.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "coopmac"
ALLOWED = {
    "monte_carlo": {"channel_model", "stochastic_geometry"},
    "channel_model": {"stochastic_geometry"},
    "stochastic_geometry": set(),
}


def _package_imports(module):
    """The package modules that `module` imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse((SRC / (module + ".py")).read_text())):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level:
                found.update([name.split(".")[0]] if name else (a.name for a in node.names))
            elif name.split(".")[0] == "coopmac":
                found.add(name.split(".")[1] if "." in name else "coopmac")
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("coopmac."))
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_its_lower_layers(module):
    assert _package_imports(module) == ALLOWED[module]
