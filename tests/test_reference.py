"""The reference module is an oracle only while it shares no code with the
engine: it imports numpy, the standard library and the package's errors, and
the engine binds one of its names, for the benchmark's tracer, and calls none."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "opineq"


def _imports(path):
    """(module, level, names) of every import statement of a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, 0, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", node.level, tuple(alias.name for alias in node.names)


def test_reference_imports_only_numpy_the_standard_library_and_errors():
    outside = [(module, level, names) for module, level, names in _imports(SRC / "reference.py")
               if not (module == "errors" if level else
                       module.split(".")[0] in ("numpy", *sys.stdlib_module_names)
                       or module == "opineq.errors")]
    assert outside == []


def test_the_engine_binds_only_the_traced_series_from_the_reference():
    bindings = [(path.name, module, names)
                for path in sorted(SRC.glob("*.py")) if path.name != "reference.py"
                for module, _, names in _imports(path)
                if "reference" in (*module.split("."), *names)]
    assert bindings == [("transformer.py", "reference", ("binomial_series",))]
