"""Source hygiene of src/uvstat: no unused imports, no unbound exports, one expanding module with
one expansion site of L, no scipy package, scipy submodule or numpy.random imported at module
level, scipy.stats and scipy.integrate imported nowhere and scipy.special only where it runs,
one run-config decoder, no private name of the harness or the command line imported elsewhere,
one entry per function (no private twin), ground-truth contexts opened only by the callers,
kernel text formatted only where it is written and output files named only by the command
line."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "uvstat"
# __init__.py imports only to re-export
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def exported_names(tree) -> list:
    """The literal ``__all__`` of a module, or [] when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def unused_imports(source: str) -> list:
    """Names bound by an import (other than from __future__) and never read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    used.update(exported_names(tree))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_unused_imports_detected():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from math import pi, tau\n"
        "print(tau, os.sep)\n"
    )
    assert unused_imports(source) == ["line 2: system", "line 3: pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# the one module that expands kernels: everything else reads the compiled view
EXPANDING_MODULE = "kernels.py"


def expansion_calls(source: str) -> list:
    """Calls of separable_terms(...) or of a .sep_terms() method, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name in ("separable_terms", "sep_terms"):
                found.append(f"line {node.lineno}: {name}")
    return sorted(found)


def test_expansion_calls_detected():
    source = (
        "from uvstat import kernels\n"
        "from uvstat.kernels import separable_terms\n"
        "terms = separable_terms(k)\n"
        "more = kernels.separable_terms(k)\n"
        "raw = k.L.sep_terms()\n"
        "view = k._compiled.terms\n"
        "fn = separable_terms\n"
    )
    assert expansion_calls(source) == [
        "line 3: separable_terms", "line 4: separable_terms", "line 5: sep_terms"
    ]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != EXPANDING_MODULE], ids=lambda p: p.name
)
def test_only_kernels_expands_kernels(path):
    assert expansion_calls(path.read_text(encoding="utf-8")) == []


def stray_expansions(source: str) -> list:
    """The .sep_terms() calls of a module outside an L node class's sep_terms and
    KernelSpec._expansion, by line and enclosing definition: L has one expansion site."""
    tree = ast.parse(source)
    nodes = {
        c.name for c in tree.body
        if isinstance(c, ast.ClassDef) and any(isinstance(b, ast.Name) and b.id == "LExpr" for b in c.bases)
    }
    allowed = {f"{name}.sep_terms" for name in nodes} | {"KernelSpec._expansion"}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (
                isinstance(child, ast.Call)
                and getattr(child.func, "attr", None) == "sep_terms"
                and scope not in allowed
            ):
                found.append(f"line {child.lineno}: {scope or '<module>'}")
            visit(child, inner)

    visit(tree, "")
    return sorted(found)


def test_stray_expansions_detected():
    source = (
        "class LExpr:\n"
        "    def sep_terms(self):\n"
        "        raise NotImplementedError\n"
        "class Sum(LExpr):\n"
        "    def sep_terms(self):\n"
        "        return [t.sep_terms() for t in self.terms]\n"
        "class KernelSpec:\n"
        "    def _expansion(self):\n"
        "        return self.L.sep_terms()\n"
        "    def coordinates(self):\n"
        "        return self.L.sep_terms()\n"
        "def reader(kernel):\n"
        "    return [t for t in kernel.L.sep_terms()]\n"
        "terms = ONE.sep_terms()\n"
    )
    assert stray_expansions(source) == [
        "line 11: KernelSpec.coordinates", "line 13: reader", "line 14: <module>"
    ]


def test_kernels_expands_l_at_one_site():
    assert stray_expansions((SRC / EXPANDING_MODULE).read_text(encoding="utf-8")) == []


def imported_modules(node) -> list:
    """The modules an import statement names; ``from scipy import x`` names scipy.x, and
    ``from numpy import x`` numpy.x."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.module in ("scipy", "numpy"):
        return [f"{node.module}.{alias.name}" for alias in node.names]
    return [node.module or ""]


def eager_scipy_imports(source: str) -> list:
    """Imports of a scipy submodule that run on import, i.e. outside any function body."""
    return eager_imports(source, lambda name: name.startswith("scipy."))


def in_package(package: str):
    """Whether a module name is the package or one of its submodules."""
    return lambda name: name == package or name.startswith(package + ".")


def eager_imports(source: str, matches) -> list:
    """Imports of modules whose name matches that run on import, i.e. outside any function body."""
    found = []
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            stack.extend(ast.iter_child_nodes(node))
            continue
        found += [
            f"line {node.lineno}: {name}"
            for name in imported_modules(node)
            if matches(name)
        ]
    return sorted(found)


def test_eager_scipy_imports_detected():
    source = (
        "import scipy\n"
        "from scipy.stats import norm\n"
        "from scipy import special\n"
        "if True:\n"
        "    import scipy.integrate\n"
        "def f():\n"
        "    from scipy.integrate import quad\n"
        "class C:\n"
        "    def g(self):\n"
        "        from scipy.special import ndtr\n"
    )
    assert eager_scipy_imports(source) == [
        "line 2: scipy.stats", "line 3: scipy.special", "line 5: scipy.integrate"
    ]


# scipy's submodules cost about 1 s of cold start, so each loads where it runs
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_scipy_submodule_on_import(path):
    assert eager_scipy_imports(path.read_text(encoding="utf-8")) == []


def eager_scipy_package_imports(source: str) -> list:
    """Imports of the scipy package itself that run on import, i.e. outside any function body."""
    return eager_imports(source, lambda name: name == "scipy")


def test_eager_scipy_package_imports_detected():
    source = (
        "import scipy\n"
        "import scipy as sp, numpy\n"
        "from scipy import special\n"
        "import scipy.stats\n"
        "def f():\n"
        "    import scipy\n"
        "    return scipy.__path__\n"
    )
    assert eager_scipy_package_imports(source) == ["line 1: scipy", "line 2: scipy"]


# importing the scipy package adds about 0.8 MB to a fresh interpreter's peak RSS,
# so it loads where a scipy part runs; the manifest reads its version file
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_scipy_package_on_import(path):
    assert eager_scipy_package_imports(path.read_text(encoding="utf-8")) == []


def test_eager_numpy_random_imports_detected():
    source = (
        "import numpy as np\n"
        "import numpy.random\n"
        "from numpy import random as npr, ndarray\n"
        "from numpy.random import default_rng\n"
        "from numpy.random.bit_generator import ISeedSequence\n"
        "try:\n"
        "    from numpy.random import PCG64\n"
        "except ImportError:\n"
        "    pass\n"
        "def f():\n"
        "    from numpy.random import Generator\n"
        "class C:\n"
        "    def g(self):\n"
        "        import numpy.random.bit_generator\n"
    )
    assert eager_imports(source, in_package("numpy.random")) == [
        "line 2: numpy.random",
        "line 3: numpy.random",
        "line 4: numpy.random",
        "line 5: numpy.random.bit_generator",
        "line 7: numpy.random",
    ]


# numpy.random is imported where a generator is built (uvstat.seeding and
# the np.random calls of the simulator and the sampler), so importing uvstat
# does not load it
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_numpy_random_on_import(path):
    assert eager_imports(path.read_text(encoding="utf-8"), in_package("numpy.random")) == []


def imports_anywhere(source: str, matches) -> list:
    """Imports of modules whose name matches anywhere in the source, function bodies included."""
    return sorted(
        f"line {node.lineno}: {name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in imported_modules(node)
        if matches(name)
    )


def test_scipy_stats_imports_detected():
    source = (
        "import scipy\n"
        "from scipy.special import ndtr\n"
        "from scipy.stats import ks_2samp\n"
        "def f():\n"
        "    from scipy import stats, special\n"
        "    class C:\n"
        "        def g(self):\n"
        "            import scipy.stats._ksstats as k\n"
        "from scipy.statistics import x\n"
    )
    assert imports_anywhere(source, in_package("scipy.stats")) == [
        "line 3: scipy.stats", "line 5: scipy.stats", "line 8: scipy.stats._ksstats"
    ]


# scipy.stats costs about 45 MB and most of a second of cold start; the KS
# tests it served run on math and numpy (uvstat.ks)
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_never_imports_scipy_stats(path):
    assert imports_anywhere(path.read_text(encoding="utf-8"), in_package("scipy.stats")) == []


# importing scipy.integrate costs about 45 MB and 0.5 s; the Gaussian moments
# call QUADPACK's _qagie from scipy's _quadpack extension alone (kernels._qagie)
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_never_imports_scipy_integrate(path):
    assert imports_anywhere(path.read_text(encoding="utf-8"), in_package("scipy.integrate")) == []


def import_sites(source: str, matches) -> list:
    """'function: module' for each import of a module whose name matches, by the innermost
    enclosing function, '<module>' outside any."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                names = imported_modules(child)
                found.extend(f"{where}: {name}" for name in names if matches(name))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_import_sites_detected():
    source = (
        "from scipy.special import ndtr\n"
        "def f():\n"
        "    from scipy import special, integrate\n"
        "    def g():\n"
        "        import scipy.special._ufuncs\n"
        "    if f:\n"
        "        from scipy.special import smirnov\n"
        "class C:\n"
        "    def h(self):\n"
        "        import scipy.specialty\n"
    )
    assert import_sites(source, in_package("scipy.special")) == [
        "<module>: scipy.special",
        "f: scipy.special",
        "f: scipy.special",
        "g: scipy.special._ufuncs",
    ]


# scipy.special costs about 18 MB; the KS tests of verify-clt and rnp-check
# load it only on a smirnov route of the two-sample p-value
def test_scipy_special_is_imported_by_ks_twice_smirnov_only():
    sites = [
        f"{path.stem}.{site}"
        for path in sorted(SRC.glob("*.py"))
        for site in import_sites(path.read_text(encoding="utf-8"), in_package("scipy.special"))
    ]
    assert sites == ["ks._twice_smirnov: scipy.special"]


def bound_names(tree) -> set:
    """Names bound by the module's top-level statements."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return bound


def unbound_exports(source: str) -> list:
    tree = ast.parse(source)
    bound = bound_names(tree)
    return [name for name in exported_names(tree) if name not in bound]


def test_unbound_exports_detected():
    source = (
        "from math import pi\n"
        "import os.path\n"
        "__all__ = ['pi', 'os', 'f', 'C', 'X', 'gone']\n"
        "def f(): pass\n"
        "class C: pass\n"
        "X: int = 1\n"
    )
    assert unbound_exports(source) == ["gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_exports_only_bound_names(path):
    assert unbound_exports(path.read_text(encoding="utf-8")) == []


def test_package_reexports_only_exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    stray = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = node.module.rsplit(".", 1)[-1]
            source = (SRC / f"{module}.py").read_text(encoding="utf-8")
            exported = set(exported_names(ast.parse(source)))
            stray += [f"{module}.{a.name}" for a in node.names if a.name not in exported]
    assert stray == []


def private_imports(source: str, module: str) -> list:
    """The underscore names imported from module, function bodies included, by line."""
    return sorted(
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == module
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_private_imports_detected():
    source = (
        "import uvstat.simulate\n"
        "from uvstat.simulate import SimulationError, _number\n"
        "from uvstat.simulate import _REQUIRED as required\n"
        "from uvstat.harness import _is_jump_route\n"
        "from uvstat.simulate_more import _x\n"
        "def f():\n"
        "    from uvstat.simulate import _require\n"
    )
    assert private_imports(source, "uvstat.simulate") == [
        "line 2: _number", "line 3: _REQUIRED", "line 7: _require"
    ]


# uvstat.config is the one run-config decoder; the simulator keeps the model
# dataclasses, the _number check that they call, and the writers
CONFIG_DECODERS = {
    "_REQUIRED", "_require", "_integer", "_boolean", "_string", "_array",
    "_SIZE_DISTS", "_size_dist", "_FIELD_DECODERS", "_decode", "config_from_dict",
}


def test_simulate_defines_no_config_decoder():
    tree = ast.parse((SRC / "simulate.py").read_text(encoding="utf-8"))
    assert sorted(bound_names(tree) & CONFIG_DECODERS) == []


def test_config_imports_no_private_simulate_name_but_number():
    found = private_imports((SRC / "config.py").read_text(encoding="utf-8"), "uvstat.simulate")
    assert [site.split(": ", 1)[1] for site in found] == ["_number"]


# the harness and the command line are the top layers: what another module
# needs of them (the route of a kernel's regime, say) belongs lower down
TOP_LAYERS = ("uvstat.harness", "uvstat.cli")


def top_layer_private_imports(source: str) -> list:
    return sorted(site for module in TOP_LAYERS for site in private_imports(source, module))


def test_top_layer_private_imports_detected():
    source = (
        "from uvstat.harness import ExperimentPlan, run_plan\n"
        "from uvstat.harness import _is_jump_route\n"
        "from uvstat.simulate import _number\n"
        "def f():\n"
        "    from uvstat.cli import _write_report as write\n"
    )
    assert top_layer_private_imports(source) == ["line 2: _is_jump_route", "line 5: _write_report"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_private_harness_or_cli_name(path):
    assert top_layer_private_imports(path.read_text(encoding="utf-8")) == []


def exec_sites(source: str) -> list:
    """Where the source names exec or eval: 'line N: Class.function' (or '<module>')."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
            else:
                if isinstance(child, ast.Name) and child.id in ("exec", "eval"):
                    found.append(f"line {child.lineno}: {'.'.join(scope) or '<module>'}")
                visit(child, scope)

    visit(ast.parse(source), [])
    return sorted(found)


def test_exec_sites_detected():
    source = (
        "exec('x = 1')\n"
        "class F:\n"
        "    def compile_steps(self):\n"
        "        run = exec\n"
        "        def inner():\n"
        "            return eval('1')\n"
        "def f(x):\n"
        "    return x.exec, 'exec'\n"
    )
    assert exec_sites(source) == [
        "line 1: <module>", "line 4: F.compile_steps", "line 6: F.compile_steps.inner"
    ]


# generated code runs in one place: the factor's step compiler
EXEC_SITES = {"kernels.py": ["Factor1D._steps"]}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_exec_only_in_the_step_compiler(path):
    sites = [s.split(": ", 1)[1] for s in exec_sites(path.read_text(encoding="utf-8"))]
    assert sites == EXEC_SITES.get(path.name, [])


# the LLN, CLT and RNP plans run their reps through one per-n loop, which
# seeds each n once; ZTRUNC keeps its own loop over one path's augmentations
def called_name(node):
    """The name a call calls (f or x.f), or None for any other node."""
    if not isinstance(node, ast.Call):
        return None
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def rep_loop_sites(source: str) -> list:
    """Where the source builds a _RepSeeds or loops over range(<x>.reps), a for or a
    comprehension: 'line N: <what> in <top-level function>'."""
    found = []
    for top in ast.parse(source).body:
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if called_name(node) == "_RepSeeds":
                found.append(f"line {node.lineno}: _RepSeeds in {scope}")
            elif (
                isinstance(node, (ast.For, ast.comprehension))
                and called_name(node.iter) == "range"
                and any(getattr(arg, "attr", None) == "reps" for arg in node.iter.args)
            ):
                found.append(f"line {node.iter.lineno}: range(reps) in {scope}")
    return sorted(found)


def test_rep_loop_sites_detected():
    # the shape of the three runners before they shared one loop
    source = (
        "def run_lln(plan):\n"
        "    for n in plan.n_list:\n"
        "        seeds = _RepSeeds(plan, n)\n"
        "        for r in range(plan.reps):\n"
        "            pass\n"
        "def run_clt(plan):\n"
        "    def rep(n):\n"
        "        seeds = harness._RepSeeds(plan, n, limit_law=True)\n"
        "        return [seeds.path(r) for r in range(plan.reps)]\n"
        "def run_rnp_check(plan):\n"
        "    for r in range(len(plan.n_list)):\n"
        "        _RepSeeds\n"
        "    return [r for r in range(reps)]\n"
    )
    assert rep_loop_sites(source) == [
        "line 3: _RepSeeds in run_lln",
        "line 4: range(reps) in run_lln",
        "line 8: _RepSeeds in run_clt",
        "line 9: range(reps) in run_clt",
    ]


def test_lln_clt_and_rnp_plans_run_one_rep_loop():
    sites = rep_loop_sites((SRC / "harness.py").read_text(encoding="utf-8"))
    assert sorted({site.split(": ", 1)[1] for site in sites}) == [
        "_RepSeeds in _run_reps", "range(reps) in _run_reps", "range(reps) in run_ztrunc"
    ]


# one entry per function: a module defines no public f beside a private _f
def twin_definitions(source: str) -> list:
    """The top-level functions and classes f defined beside a top-level _f."""
    defined = {
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    return sorted(name for name in defined if not name.startswith("_") and f"_{name}" in defined)


def test_twin_definitions_detected():
    # the shape of the limits before each function took a context
    source = (
        "class _Truth:\n"
        "    def jump_limit(self):\n"
        "        pass\n"
        "def _jump_limit(truth):\n"
        "    pass\n"
        "def jump_limit(path, kernel, t=None):\n"
        "    return _jump_limit(_Truth(path, kernel, t))\n"
        "_augment = None\n"
        "def augment(path, seed):\n"
        "    pass\n"
        "class _Context:\n"
        "    pass\n"
        "class Context:\n"
        "    pass\n"
    )
    assert twin_definitions(source) == ["Context", "jump_limit"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_defines_no_private_twin(path):
    assert twin_definitions(path.read_text(encoding="utf-8")) == []


# the limits and the sampler take a ground-truth context and open none:
# the command line and the harness open them
CONTEXT_OPENERS = ["cli.py", "harness.py"]


def context_constructions(source: str) -> list:
    """Calls of Context(...) or x.Context(...), by line."""
    return sorted(
        f"line {node.lineno}: Context"
        for node in ast.walk(ast.parse(source))
        if called_name(node) == "Context"
    )


def test_context_constructions_detected():
    source = (
        "from uvstat import limits\n"
        "from uvstat.limits import Context\n"
        "def f(path, kernel):\n"
        "    ctx = Context(path, kernel)\n"
        "    return limits.Context(path, kernel, 0.5), ctx.Context, Context\n"
    )
    assert context_constructions(source) == ["line 4: Context", "line 5: Context"]


def test_only_the_callers_open_a_context():
    opening = [
        p.name for p in sorted(SRC.glob("*.py")) if context_constructions(p.read_text(encoding="utf-8"))
    ]
    assert opening == CONTEXT_OPENERS


# a kernel's text is formatted where it is written: the stat command's stdout,
# the report's plan block and the serializer itself
KERNEL_FORMATTERS = ["cli.py", "harness.py", "kernels.py"]


def kernel_text_calls(source: str) -> list:
    """Calls of kernel_to_text(...), x.kernel_to_text(...) or a .text() method, by line."""
    return sorted(
        f"line {node.lineno}: {called_name(node)}"
        for node in ast.walk(ast.parse(source))
        if called_name(node) == "kernel_to_text"
        or (called_name(node) == "text" and isinstance(node.func, ast.Attribute))
    )


def test_kernel_text_calls_detected():
    # the shape of the statistics when each value carried its kernel's text
    source = (
        "from uvstat import kernels\n"
        "from uvstat.kernels import kernel_to_text\n"
        "def v_stat(data, kernel):\n"
        "    return StatValue('V', 0.0, None, kernel.text())\n"
        "def label(kernel):\n"
        "    return kernels.kernel_to_text(kernel), kernel_to_text(kernel)\n"
        "to_text = kernel_to_text\n"
        "def text():\n"
        "    return text(), kernel.text\n"
    )
    assert kernel_text_calls(source) == [
        "line 4: text", "line 6: kernel_to_text", "line 6: kernel_to_text"
    ]


def test_only_the_writers_format_a_kernel():
    formatting = [
        p.name for p in sorted(SRC.glob("*.py")) if kernel_text_calls(p.read_text(encoding="utf-8"))
    ]
    assert formatting == KERNEL_FORMATTERS


# the files a run writes, each named where the command line writes it; the
# config's collect_samples error points at errors.csv
OUTPUT_FILES = {
    "cli.py": ["errors.csv", "manifest.json", "path.json", "report.json"],
    "config.py": ["errors.csv"],
}
# an f-string's replacement fields read as {}
FILE_NAME = re.compile(r"[\w.{}-]+\.(?:json|csv)\b")


def output_file_names(source: str) -> list:
    """The .json and .csv file names in the string literals and f-strings of source,
    docstrings aside."""
    tree = ast.parse(source)
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    skipped = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, scopes) and node.body and isinstance(node.body[0], ast.Expr)
    }
    texts = []
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            skipped.update(id(part) for part in node.values)
            texts.append("".join(p.value if isinstance(p, ast.Constant) else "{}" for p in node.values))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skipped:
            texts.append(node.value)
    return sorted({name for text in texts for name in FILE_NAME.findall(text)})


def test_output_file_names_detected():
    source = (
        '"""A module that writes report.json."""\n'
        "def write(outdir, n):\n"
        '    """Write samples.csv."""\n'
        '    (outdir / "samples.csv").write_text("n,series")  # and path.json\n'
        '    return f"{outdir}/draws_{n}.json", "not valid JSON", ".csv"\n'
    )
    assert output_file_names(source) == ["draws_{}.json", "samples.csv"]


def test_only_the_command_line_names_output_files():
    named = {}
    for p in sorted(SRC.glob("*.py")):
        names = output_file_names(p.read_text(encoding="utf-8"))
        if names:
            named[p.name] = names
    assert named == OUTPUT_FILES
