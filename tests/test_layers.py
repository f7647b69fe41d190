"""The package's lower layers import only what their docstrings say, and every module uses what it imports.

`monte_carlo` builds on `channel_model` and `stochastic_geometry`, and on
`within_tier`, the control variates of both schemes, which builds on those
two alone; it shares the bounds' tables through them, never by importing
`analytic_bounds`, `quadrature` or `cli`; `channel_model` reads the band
table of `stochastic_geometry`, which imports nothing of the package.  A
name a module imports and never uses is a stale import, but for the names
that the bench's span tracer wraps at the module's attribute
(`bench/tracing.py`'s WRAP_POINTS), which the module holds so that the
tracer can find them; `__init__` uses what its `__all__` names.  Every
`functools.lru_cache` has an integer maxsize and `functools.cache` is not
used, so every memo of the package is bounded.  No module uses
`numpy.linalg`: the first LAPACK call of a process allocates the BLAS
buffers, about a megabyte of resident memory, so small solves are written
out (`within_tier._solve`).  The object-level oracle of helper selection
(`tests/protocol_oracle.py`) stays independent of the simulator it checks:
it imports only public names of `channel_model` and `stochastic_geometry`,
and no package module imports anything under `tests/`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "coopmac"
TESTS = Path(__file__).parent
ORACLE = TESTS / "protocol_oracle.py"
ORACLE_READS = {"channel_model", "stochastic_geometry"}
TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"
ALLOWED = {
    "monte_carlo": {"channel_model", "stochastic_geometry", "within_tier"},
    "within_tier": {"channel_model", "stochastic_geometry"},
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


def _wrapped():
    """(module, name) of each attribute that the bench's tracer wraps: WRAP_POINTS of `bench/tracing.py`, read as a literal."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WRAP_POINTS"]:
            return {(module, name) for module, name, *_ in ast.literal_eval(node.value)}
    raise AssertionError("no WRAP_POINTS in %s" % TRACING)


def unused_imports(source, module):
    """The names that the module `module` of `source` imports, at any depth, and neither reads nor lists in `__all__`."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used - {name for owner, name in _wrapped() if owner == module})


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((SRC / (module + ".py")).read_text(), module) == []


def test_a_stale_import_is_found():
    # the y^2 mean that the controls' read takes, imported again where it is no longer used
    source = (SRC / "monte_carlo.py").read_text().replace("    tier_areas,\n", "    tier_arc_y2,\n    tier_areas,\n", 1)
    assert unused_imports(source, "monte_carlo") == ["tier_arc_y2"]
    # a wrapped name is exempt only in the module whose attribute the tracer wraps
    assert ("analytic_bounds", "nn_distance_pdf") in _wrapped()
    source = (SRC / "analytic_bounds.py").read_text()
    assert unused_imports(source, "analytic_bounds") == []
    assert "nn_distance_pdf" in unused_imports(source, "monte_carlo")


def oracle_leaks(source):
    """What `source` imports of the package beyond the public names of ORACLE_READS, sorted.

    Each other package module, or the package itself, as "coopmac.<module>"
    or "coopmac", and each `_`-prefixed name as "coopmac.<module>.<name>".
    """
    leaks = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "coopmac":
            if node.module == "coopmac":  # from coopmac import <module or name>
                leaks.update("coopmac." + a.name for a in node.names if a.name not in ORACLE_READS)
            elif node.module.split(".")[1] in ORACLE_READS:
                leaks.update(node.module + "." + a.name for a in node.names if a.name.startswith("_"))
            else:
                leaks.add(node.module)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, module = alias.name.partition(".")
                if top == "coopmac" and module.split(".")[0] not in ORACLE_READS:
                    leaks.add(alias.name)
    return sorted(leaks)


def test_protocol_oracle_reads_only_public_channel_and_geometry_names():
    assert oracle_leaks(ORACLE.read_text()) == []


def test_an_oracle_leak_is_found():
    source = ORACLE.read_text()
    block = "from coopmac.stochastic_geometry import (\n"
    assert block in source
    # a private kernel of the geometry, and the simulator the oracle checks
    assert oracle_leaks(source.replace(block, block + "    _lens,\n", 1)) == ["coopmac.stochastic_geometry._lens"]
    for extra, leak in (("from coopmac.monte_carlo import estimate_throughput\n", "coopmac.monte_carlo"),
                        ("from coopmac import within_tier\n", "coopmac.within_tier"),
                        ("import coopmac.monte_carlo as mc\n", "coopmac.monte_carlo"),
                        ("import coopmac\n", "coopmac"),
                        ("from coopmac.channel_model import _p_success\n", "coopmac.channel_model._p_success"),
                        ("from coopmac import lens_area\n", "coopmac.lens_area")):
        assert oracle_leaks(source + extra) == [leak], extra
    assert oracle_leaks("from coopmac import channel_model\nimport coopmac.stochastic_geometry as sg\n") == []


def imports_from_tests(source):
    """The modules under `tests/`, or `tests` itself, that `source` imports, sorted."""
    local = {path.stem for path in TESTS.glob("*.py")} | {"tests"}
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
    return sorted(found & local)


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_no_package_module_imports_from_tests(module):
    assert imports_from_tests((SRC / (module + ".py")).read_text()) == []


def test_an_import_from_tests_is_found():
    source = (SRC / "monte_carlo.py").read_text()
    assert imports_from_tests(source) == []
    for extra, found in (("from protocol_oracle import run_exchange\n", ["protocol_oracle"]),
                         ("import box_ppp_oracle\n", ["box_ppp_oracle"]),
                         ("from tests.protocol_oracle import sample_ppp\n", ["tests"])):
        assert imports_from_tests(source + extra) == found, extra



def unbounded_caches(source):
    """The lines of `source` with a `functools.lru_cache` whose maxsize is not an integer literal, or a `functools.cache`."""
    tree = ast.parse(source)
    sized = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            size = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
            if size and isinstance(size[0], ast.Constant) and type(size[0].value) is int:
                sized.add(id(node.func))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
            if node.attr == "cache" or (node.attr == "lru_cache" and id(node) not in sized):
                lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "lru_cache" and id(node) not in sized:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_every_cache_is_bounded(module):
    assert unbounded_caches((SRC / (module + ".py")).read_text()) == []


def test_an_unbounded_cache_is_found():
    source = (SRC / "analytic_bounds.py").read_text()
    line = source[:source.index("@lru_cache(maxsize=32)")].count("\n") + 1
    for unbounded in ("@lru_cache", "@lru_cache()", "@lru_cache(maxsize=None)", "@lru_cache(maxsize=_PLAN_NODES)",
                      "@functools.lru_cache(maxsize=None)", "@functools.cache"):
        assert unbounded_caches(source.replace("@lru_cache(maxsize=32)", unbounded)) == [line], unbounded
    for bounded in ("@lru_cache(32)", "@functools.lru_cache(maxsize=32)"):
        assert unbounded_caches(source.replace("@lru_cache(maxsize=32)", bounded)) == [], bounded
    assert unbounded_caches("from functools import cache, lru_cache\n") == [1]


def linalg_uses(source):
    """The lines of `source` that import or reach `numpy.linalg`, by any name numpy is bound to."""
    tree = ast.parse(source)
    numpy_names = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for a in node.names if a.name == "numpy"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("numpy"):
            if node.module.startswith("numpy.linalg") or any(a.name == "linalg" for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name.startswith("numpy.linalg") for a in node.names):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "linalg" and isinstance(node.value, ast.Name)
              and node.value.id in numpy_names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_no_module_uses_numpy_linalg(module):
    assert linalg_uses((SRC / (module + ".py")).read_text()) == []


def test_a_linalg_use_is_found():
    source = (SRC / "within_tier.py").read_text()
    line = source[:source.index("def _solve(")].count("\n") + 1
    body = source.replace("    a, b = a.copy(), b.copy()\n", "    return np.linalg.solve(a.T, b.T).T\n", 1)
    assert linalg_uses(body) == [line + 10]
    for extra in ("import numpy.linalg\n", "from numpy import linalg\n", "from numpy.linalg import solve\n",
                  "import numpy as xp\nxp.linalg.norm\n"):
        assert linalg_uses(extra), extra
    assert linalg_uses("import numpy as np\nnp.dot\n") == []
