import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lfpca"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_imports_a_private_name_of_another():
    # a name with a leading underscore belongs to its module; a concept that
    # two modules need lives in one place under a public name
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "lfpca"):
                offenders += [f"{path.name}:{node.lineno}: {alias.name}"
                              for alias in node.names if _private(alias.name)]
    assert not offenders, offenders
