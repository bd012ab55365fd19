"""What a fresh process imports and runs: each command runs only what it calls.

numpy is imported inside the functions that build arrays, so
`import cubecount` and the closed-form commands (eval, represent, classify)
start without it.  Every submodule is in sys.modules after `import
cubecount`, and each runs only on the first access to one of its names, so
a closed-form command runs only the modules it calls, and only eval, whose
VpBreakdown is a dataclass, imports dataclasses.  Each check runs in a new
interpreter, because this test process has numpy loaded already.  The
layering rules are read from the source with ast.
"""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "cubecount"

#: A 61-bit prime = 1 (mod 3), where only the closed form is practical.
P61 = 2305843009213694017

SUBMODULES = ("_tables", "closedform", "cubicres", "errors", "modarith", "oracle", "quadform", "sweep")

#: the modules a closed-form command should not need; each is reported only
#: where a bare interpreter does not import it already
WATCHED = ("numpy", "dataclasses", "inspect", "decimal", "fractions")

# Runs `python -m cubecount ARGS...` in this process, then reports on stderr
# its exit status, the submodules that ran (a lazy module not yet run is of
# a subclass of ModuleType) and which of WATCHED ended up in sys.modules.
CLI_PROBE = f"""
import runpy, sys, types
sys.argv = ["cubecount", *sys.argv[1:]]
try:
    runpy.run_module("cubecount", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
ran = [m for m in {SUBMODULES!r} if type(sys.modules["cubecount." + m]) is types.ModuleType]
loaded = [m for m in {WATCHED!r} if m in sys.modules]
sys.stderr.write("\\nPROBE exit=%s ran=%s loaded=%s\\n" % (code, ",".join(ran), ",".join(loaded)))
"""


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )


@functools.lru_cache(maxsize=None)
def bare_imports() -> frozenset:
    """The modules of WATCHED that a bare `python -c pass` imports, as the
    .pth files that site runs may import some."""
    proc = run_python(f"import sys; print(*(m for m in {WATCHED!r} if m in sys.modules))")
    return frozenset(proc.stdout.split())


def run_cli(*args: str) -> tuple[int, set[str], set[str], str]:
    """(exit status, the submodules that ran, which of WATCHED it imported
    that a bare interpreter does not, stdout) of one CLI process."""
    proc = run_python(CLI_PROBE, *args)
    tail = proc.stderr.strip().splitlines()[-1]
    assert tail.startswith("PROBE "), proc.stderr
    fields = {k: set(filter(None, v.split(","))) for k, v in (kv.split("=") for kv in tail.split()[1:])}
    (code,) = fields["exit"]
    return int(code), fields["ran"], fields["loaded"] - bare_imports(), proc.stdout


def test_import_loads_every_submodule_but_not_numpy():
    # every submodule is registered, none has run, and a name read off the
    # package is bound there, so a second read is a plain attribute read
    code = (
        "import json, sys, types, cubecount\n"
        "ran = [m for m, mod in sys.modules.items() if m.startswith('cubecount.') and type(mod) is types.ModuleType]\n"
        "bound = ['vp_closed' in vars(cubecount)]\n"
        "cubecount.vp_closed\n"
        "bound.append('vp_closed' in vars(cubecount))\n"
        "print(json.dumps({\n"
        "    'numpy': 'numpy' in sys.modules,\n"
        "    'modules': sorted(m for m in sys.modules if m.startswith('cubecount.')),\n"
        "    'ran': ran,\n"
        "    'bound': bound,\n"
        "    'missing': [n for n in cubecount.__all__ if not hasattr(cubecount, n)],\n"
        "}))\n"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["numpy"] is False
    assert got["modules"] == [f"cubecount.{m}" for m in SUBMODULES]
    assert got["ran"] == []
    assert got["bound"] == [False, True]
    assert got["missing"] == []


REPRESENT = {"errors", "_tables", "modarith", "quadform"}

#: command -> (the submodules it runs, which of WATCHED it imports)
CLOSED_FORM_RUNS = {
    "eval": (REPRESENT | {"closedform"}, {"dataclasses", "inspect"}),  # VpBreakdown
    "represent": (REPRESENT, set()),
    "classify": (REPRESENT | {"cubicres"}, set()),
}


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--p", str(P61), "--a", "12345"),
        ("eval", "--p", str(P61), "--a", "1/2", "--format", "csv"),
        ("represent", "--p", str(P61)),
        ("classify", "--p", str(P61), "--a", "3"),
    ],
)
def test_closed_form_commands_do_not_load_numpy(argv):
    code, ran, imported, out = run_cli(*argv)
    want_ran, want_imported = CLOSED_FORM_RUNS[argv[0]]
    assert code == 0
    assert ran == want_ran  # neither oracle nor sweep
    assert imported == want_imported - bare_imports()  # no numpy, decimal or fractions
    assert str(P61) in out


def test_enumeration_commands_still_work():
    code, ran, imported, out = run_cli("eval", "--p", "13", "--a", "2", "--check")
    assert code == 0 and "oracle" in ran and "sweep" not in ran and "numpy" in imported
    assert json.loads(out)["match"] is True

    code, _, _, out = run_cli("selftest")
    assert code == 0 and "selftest: 0 failure(s)" in out

    code, ran, imported, out = run_cli("sweep", "--max-p", "60", "--jobs", "1")
    assert code == 0 and {"oracle", "sweep"} <= ran and "numpy" in imported
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["mismatches"] == 0 and summary["primes_checked"] == 15


def test_star_import_binds_every_exported_name():
    # oracle's and sweep's names reach the package through its __getattr__
    code = (
        "from cubecount import *\n"
        "import json, cubecount\n"
        "print(json.dumps({\n"
        "    'unbound': [n for n in cubecount.__all__ if globals().get(n) is not getattr(cubecount, n)],\n"
        "    'same': cubecount.vp_brute is cubecount.oracle.vp_brute,\n"
        "    'undir': sorted(set(cubecount.__all__) - set(dir(cubecount))),\n"
        "}))\n"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"unbound": [], "same": True, "undir": []}


def package_imports(module: str) -> set[str]:
    """The cubecount modules that module imports anywhere in its source."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # The package is flat, so a relative import is always level 1.
            base = ".".join(filter(None, ["cubecount" if node.level else "", node.module]))
            names = [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        found |= {n.split(".")[1] for n in names if n.startswith("cubecount.")}
    return found


def test_oracles_never_import_closed_form_theory():
    # An oracle enumerates, sieves or correlates from the definition; it may
    # not see cubic classes, representations or closed-form identities.
    for module in ("oracle", "_tables"):
        assert package_imports(module) <= {"_tables", "errors"}, module


def test_closed_form_layers_never_import_the_oracle():
    # The closed forms are checked against the oracle, so they may not read
    # it, and the oracle's numpy stays off their path.
    for module in ("closedform", "quadform", "cubicres", "modarith"):
        assert "oracle" not in package_imports(module), module


def test_package_imports_are_acyclic():
    graph = {p.stem: package_imports(p.stem) for p in PACKAGE.glob("*.py")}
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]) -> None:
        assert module not in path, " -> ".join((*path, module))
        if module not in done:
            for dep in graph.get(module, ()):
                visit(dep, (*path, module))
            done.add(module)

    for module in graph:
        visit(module, ())
