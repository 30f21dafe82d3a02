"""Count the intra-package import edges of one package's modules: each
(module, package module) pair that a relative import anywhere in the module
names.  ``from .placement import x`` names ``placement``, and so does
``from . import placement``; ``from . import __version__`` names no module
and is left out.

Run as ``python tests/import_edges.py src/spwt/*.py``; it prints the count.
pytest does not collect it: its name does not start with ``test_``.
"""

import ast
import sys
from pathlib import Path


def import_edges(paths: list) -> set:
    """The (importer, imported) module-name pairs among the modules ``paths``."""
    modules = {Path(path).stem for path in paths}
    edges = set()
    for path in map(Path, paths):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module] if node.module else [a.name for a in node.names]
                edges.update((path.stem, name) for name in names if name in modules)
    return edges


if __name__ == "__main__":
    print(len(import_edges(sys.argv[1:])))
