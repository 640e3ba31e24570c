"""Every name the package exports, and every setting it takes, has a caller
outside the tests.

A name in the export table of ``gpclab/__init__.py`` (``_EXPORTS``) must be
used, as code and not only in a docstring or comment, somewhere in
``src/gpclab/``, ``scripts/`` or ``perfbench/`` other than its own
``def``/``class`` line and that table.
The few exports kept without such a caller are listed with their reason.

A parameter with a default, on an exported function or a classmethod of an
exported class, must be passed, by keyword or by position, by at least one
call in those directories; a value that only the tests change belongs in a
module constant that they patch.  An export kept without a caller can
therefore take no such parameter.  The few settings kept without a caller
are listed with their reason.
"""

import ast
import inspect
import io
import tokenize
from pathlib import Path

import pytest

import gpclab

PACKAGE = Path(gpclab.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
INIT = PACKAGE / "__init__.py"

KEPT_WITHOUT_CALLER = {
    "peel_scheduled": "windowed peeling, which waits for window-decoding thresholds",
}


SET_ONLY_BY_TESTS = {
    "survival_mc.root_type": "the only way the tests check the oracle one root type at a "
                             "time against the typed recursion; a mixed-root estimate "
                             "cannot show a type mix-up",
}


def exported_names() -> list[str]:
    """The names in the ``_EXPORTS`` table of ``gpclab/__init__.py``."""
    table = next(node.value for node in ast.parse(INIT.read_text()).body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "_EXPORTS")
    return [name for names in ast.literal_eval(table).values() for name in names]


def caller_files() -> list[Path]:
    return [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
            *(ROOT / "perfbench").glob("*.py")]


def code_uses() -> dict[str, int]:
    """Count of NAME tokens per name over the caller directories, leaving out
    the name after ``def``/``class``; the export table holds its names as
    strings, so it counts as no use."""
    uses: dict[str, int] = {}
    for path in caller_files():
        previous = None
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type != tokenize.NAME:
                continue
            if previous not in ("def", "class"):
                uses[tok.string] = uses.get(tok.string, 0) + 1
            previous = tok.string
    return uses


@pytest.fixture(scope="module")
def uses():
    return code_uses()


@pytest.mark.parametrize("name", [n for n in exported_names() if n not in KEPT_WITHOUT_CALLER])
def test_export_has_a_caller(name, uses):
    assert uses.get(name, 0) > 0, f"gpclab.{name} is exported, but only the tests call it"


def test_allowlist_is_exact(uses):
    exported = set(exported_names())
    for name in KEPT_WITHOUT_CALLER:
        assert name in exported, f"{name} is allowlisted but not exported"
        assert uses.get(name, 0) == 0, f"{name} has a caller now: drop it from the allowlist"


def exported_callables() -> dict[str, object]:
    """Exported functions by name, and each classmethod of an exported class
    as ``Class.method``."""
    found = {}
    for name in exported_names():
        obj = getattr(gpclab, name)
        if inspect.isfunction(obj):
            found[name] = obj
        elif inspect.isclass(obj):
            found.update({f"{name}.{k}": getattr(obj, k) for k, v in vars(obj).items()
                          if isinstance(v, classmethod)})
    return found


def defaulted_parameters() -> list[str]:
    return [f"{name}.{p.name}" for name, f in exported_callables().items()
            for p in inspect.signature(f).parameters.values() if p.default is not p.empty]


def callee(func: ast.expr, callables: dict) -> str | None:
    """The export a call's function expression names: ``f``, ``module.f`` or
    ``Class.method``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        owner = getattr(func.value, "attr", getattr(func.value, "id", None))
        method = f"{owner}.{func.attr}"
        return method if method in callables else func.attr
    return None


def passed_settings() -> set[str]:
    """``export.parameter`` for each parameter some call in the caller
    directories passes, positional arguments mapped through the signature."""
    callables = exported_callables()
    passed = set()
    for path in caller_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = callee(node.func, callables)
            if name not in callables:
                continue
            params = [p.name for p in inspect.signature(callables[name]).parameters.values()
                      if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
            for k, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred) or k >= len(params):
                    break
                passed.add(f"{name}.{params[k]}")
            passed.update(f"{name}.{kw.arg}" for kw in node.keywords if kw.arg is not None)
    return passed


@pytest.fixture(scope="module")
def passed():
    return passed_settings()


@pytest.mark.parametrize("setting", [s for s in defaulted_parameters()
                                     if s not in SET_ONLY_BY_TESTS])
def test_setting_has_a_caller(setting, passed):
    assert setting in passed, (
        f"gpclab.{setting} has a default that no caller changes: make it a module "
        "constant the tests patch, or drop it")


def test_setting_allowlist_is_exact(passed):
    defaulted = set(defaulted_parameters())
    for setting in SET_ONLY_BY_TESTS:
        assert setting in defaulted, f"{setting} is allowlisted but is no defaulted parameter"
        assert setting not in passed, f"{setting} has a caller now: drop it from the allowlist"
