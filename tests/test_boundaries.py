"""Module boundaries: a module of the package imports another module's
private (underscore) names only where the allowlist below says so, so each
private representation has one owning module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mmsdist"

# (importing module, imported module) -> the private names it may import
ALLOWED = {
    ("entropy", "matmetric"): {"_alignments"},
    ("experiments", "coupling"): {"_ProkhorovTo"},
    ("experiments", "matmetric"): {"_check_exact_limit", "_cross_grid"},
    ("experiments", "sampling"): {"_count_blocks"},
    ("ghp", "core"): {"_euclidean_grid"},
    ("ghp", "coupling"): {"_greedy_delta", "_level_matchings"},
}


def _private_imports():
    """(importing module, imported module) -> the underscore names imported,
    over every ``from`` import in the package's modules."""
    found: dict = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if module == "mmsdist" or module.startswith("mmsdist."):
                module = module[len("mmsdist.") :]
            elif not node.level:
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.setdefault((path.stem, module), set()).add(alias.name)
    return found


def test_private_names_cross_modules_only_where_allowed():
    assert SRC.is_dir()
    assert _private_imports() == ALLOWED
