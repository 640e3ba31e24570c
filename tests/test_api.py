"""Every name the package exports has a caller outside the tests.

A name imported in ``gpclab/__init__.py`` must be used, as code and not only
in a docstring or comment, somewhere in ``src/gpclab/``, ``scripts/`` or
``perfbench/`` other than its own ``def``/``class`` line and that import.
The few exports kept without such a caller are listed with their reason.
"""

import ast
import io
import tokenize
from pathlib import Path

import pytest

import gpclab

PACKAGE = Path(gpclab.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
INIT = PACKAGE / "__init__.py"

KEPT_WITHOUT_CALLER = {
    "de_step": "the one-iteration form of the DE recursion; the Horner-tail tests drive it",
    "cn_degrees": "the component-code lengths of a family",
    "preset_from_block_array": "the paper's general block-array construction",
    "peel_scheduled": "windowed peeling, which waits for window-decoding thresholds",
}


def exported_names() -> list[str]:
    tree = ast.parse(INIT.read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def init_import_lines() -> set[int]:
    tree = ast.parse(INIT.read_text())
    return {line for node in tree.body if isinstance(node, ast.ImportFrom)
            for line in range(node.lineno, node.end_lineno + 1)}


def code_uses() -> dict[str, int]:
    """Count of NAME tokens per name over the caller directories, leaving out
    the name after ``def``/``class`` and the package's own export lines."""
    skip_init = init_import_lines()
    files = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    uses: dict[str, int] = {}
    for path in files:
        previous = None
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type != tokenize.NAME:
                continue
            defined = previous in ("def", "class")
            exported = path == INIT and tok.start[0] in skip_init
            if not defined and not exported:
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
