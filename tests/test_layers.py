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
module-level `_` name of the package is read somewhere in the package
outside the statement that defines it, so no private table or helper is
left behind when its last reader goes.  Every
`functools.lru_cache` has an integer maxsize and `functools.cache` is not
used, so every memo of the package is bounded.  No module uses
`numpy.linalg`: the first LAPACK call of a process allocates the BLAS
buffers, about a megabyte of resident memory, so small solves are written
out (`within_tier._solve`).  No module imports scipy when it is loaded:
every scipy import sits inside a function, so that a process that stays
under the PPP never loads it (`channel_model.erfc` serves the PPP), which
a fresh interpreter checks too.  The object-level oracle of helper selection
(`tests/protocol_oracle.py`) stays independent of the simulator it checks:
it imports only public names of `channel_model` and `stochastic_geometry`,
and no package module imports anything under `tests/`.
"""

import ast
import os
import subprocess
import sys
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


def unused_private_names(sources, module):
    """The module-level `_` names that `sources[module]` defines and no module of `sources` uses, sorted.

    `sources` maps each module of the package to its source.  A name is used
    where a top-level statement other than one that defines it reads it as
    a name, an attribute or an imported name; a dunder is not private.
    """
    defined, read = {}, []
    for name, source in sources.items():
        for node in ast.parse(source).body:
            targets = set()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    targets.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    names.add(sub.name)
            read.append((targets, names))
            if name == module:
                defined.update((t, None) for t in targets if t.startswith("_") and not t.startswith("__"))
    return sorted(n for n in defined if not any(n in names and n not in targets for targets, names in read))


def _package_sources():
    """Each module of the package, by name, and its source."""
    return {path.stem: path.read_text() for path in SRC.glob("*.py")}


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_every_private_name_is_used(module):
    assert unused_private_names(_package_sources(), module) == []


def test_a_leftover_private_name_is_found():
    sources = _package_sources()
    # a table that nothing reads any more, and a function that only calls itself
    sources["stochastic_geometry"] += "\n_LENS_SLOTS = np.zeros(4)\n\n\ndef _again(n):\n    return _again(n - 1)\n"
    assert unused_private_names(sources, "stochastic_geometry") == ["_LENS_SLOTS", "_again"]
    # a name read in another module is used, through an import or an attribute
    assert "_TIER_RANK" not in unused_private_names(sources, "stochastic_geometry")
    sources["stochastic_geometry"] = sources["stochastic_geometry"].replace(
        "_TIER_RANK = np.argsort", "_TIER_RANKS = np.argsort")
    assert unused_private_names(sources, "stochastic_geometry") == ["_LENS_SLOTS", "_TIER_RANKS", "_again"]
    sources["monte_carlo"] += "\nfrom .stochastic_geometry import _TIER_RANKS\n"
    assert unused_private_names(sources, "stochastic_geometry") == ["_LENS_SLOTS", "_again"]


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


def load_time_scipy_imports(source):
    """The lines of `source` that import scipy outside every function body: at module level, in a class body or under a module-level `if` or `try`."""
    tree = ast.parse(source)
    in_function = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            in_function.update(id(sub) for sub in ast.walk(node) if sub is not node)
    lines = []
    for node in ast.walk(tree):
        if id(node) in in_function:
            continue
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy" for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").split(".")[0] == "scipy":
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_no_module_imports_scipy_at_load(module):
    assert load_time_scipy_imports((SRC / (module + ".py")).read_text()) == []


def test_a_load_time_scipy_import_is_found():
    # the gamma family imported at module level again, as the k-nearest functions once had it
    source = (SRC / "monte_carlo.py").read_text()
    assert "    from scipy.special import gammaln\n" in source and load_time_scipy_imports(source) == []
    line = source[:source.index("import numpy as np\n")].count("\n") + 2
    edited = source.replace("import numpy as np\n", "import numpy as np\nfrom scipy.special import gammaln\n", 1)
    assert load_time_scipy_imports(edited) == [line]
    for extra in ("import scipy\n", "import scipy.special as sc\n", "from scipy import special\n",
                  "try:\n    from scipy.special import erfc\nexcept ImportError:\n    pass\n", "class A:\n    import scipy\n"):
        assert load_time_scipy_imports(source + extra), extra
    for clean in ("def f():\n    import scipy\n", "def f():\n    def g():\n        from scipy import special\n",
                  "from . import scipy_free\n", "import numpy\n"):
        assert load_time_scipy_imports(clean) == [], clean


_PPP_RUN = """
import sys
import coopmac
from coopmac import analytic_bounds, monte_carlo
for mode in ("analytic", "sampled"):
    monte_carlo.estimate_throughput(monte_carlo.ExperimentConfig(
        densities=(0.0005, 0.005), scheme="both", regime="all", trials=2000, estimator_mode=mode))
analytic_bounds.averaged_bounds("D1", 0.001)
analytic_bounds.total_throughput_bounds(0.002)
print("scipy.special" in sys.modules)
monte_carlo.estimate_throughput(monte_carlo.ExperimentConfig(densities=(0.001,), regime="C", trials=2000, k=10))
print("scipy.special" in sys.modules)
"""


def test_a_ppp_process_never_loads_scipy():
    # a fresh interpreter: the PPP's Monte Carlo and bounds leave scipy.special unloaded, and a k = 10 run loads it
    out = subprocess.run([sys.executable, "-c", _PPP_RUN], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}).stdout.split()
    assert out == ["False", "True"]
