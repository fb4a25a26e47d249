"""Each module of the package imports only modules below it in one fixed order."""

import ast
from pathlib import Path

import bellmeter

# lowest layer first; a module may import modules of lower layers only
LAYERS = (
    {"errors", "polarization"},
    {"twophoton"},
    {"analyzer"},
    {"experiment"},
    {"discriminator", "multimeter"},
    {"dataset"},
    {"cli"},
)
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}


def package_imports(tree: ast.AST) -> set[str]:
    """Names of the bellmeter modules a module imports anywhere, function bodies included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bellmeter."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names if alias.name.startswith("bellmeter.")
            )
    return found


def test_modules_import_only_lower_layers():
    src = Path(bellmeter.__file__).parent
    modules = sorted(path.stem for path in src.glob("*.py") if path.stem != "__init__")
    assert set(modules) == set(RANK), "place every module of the package in LAYERS"
    upward = []
    for name in modules:
        tree = ast.parse((src / f"{name}.py").read_text())
        for imported in sorted(package_imports(tree)):
            if RANK.get(imported, len(LAYERS)) >= RANK[name]:
                upward.append(f"{name} imports {imported}")
    assert upward == []


def test_package_imports_sees_every_import_form():
    code = (
        "from . import polarization as pol\n"
        "from .analyzer import AnalyzerConfig\n"
        "import bellmeter.dataset\n"
        "from bellmeter.cli import main\n"
        "def f():\n"
        "    from . import discriminator, multimeter\n"
    )
    assert package_imports(ast.parse(code)) == {
        "polarization", "analyzer", "dataset", "cli", "discriminator", "multimeter",
    }
