"""The package has no runtime dependencies: it imports only itself and the stdlib."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ncresidue"


def test_package_imports_only_stdlib():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # package-relative, or not an import
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (
                    f"{path.name}:{node.lineno} imports {name}"
                )


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    """The records are plain slots classes: importing the package (and its
    CLI) in a fresh interpreter loads neither ``dataclasses`` nor the
    ``inspect`` it pulls in."""
    code = "import sys, ncresidue.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    assert proc.stdout.strip() == "[]"
