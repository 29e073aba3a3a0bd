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


# the file names of the records lfpca writes and reads back
FORMAT_NAMES = ("model.json", "mean.lfpb", "a_x.lfpb", "a_w.lfpb", "v.lfpb", "truth.json",
                "scores.csv", "phi_x_", "phi_w.lfpb")


def _docstrings(tree):
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def test_format_file_names_are_spelled_only_in_store():
    # each record's files are named next to its format, in store.py; other
    # modules take the names from there (docstrings may mention them)
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "store.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docs):
                offenders += [f"{path.name}:{node.lineno}: {name}"
                              for name in FORMAT_NAMES if name in node.value]
    assert not offenders, offenders


def test_no_module_imports_another_inside_a_function_or_for_type_checking():
    # an import that runs late, or never, hides a dependency between modules
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "lfpca"):
                targets = ([node.module.split(".")[-1]] if node.module
                           else [alias.name for alias in node.names])
            elif isinstance(node, ast.Import):
                targets = [alias.name.split(".")[-1] for alias in node.names
                           if alias.name.split(".")[0] == "lfpca"]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}: {target}" for target in targets
                          if id(node) not in top]
    assert not offenders, offenders


def test_no_module_imports_threading():
    # every streamed pass runs in the calling thread: one pass primitive, with
    # no second, threaded path beside it
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}: {name}" for name in names
                          if name.split(".")[0] in ("threading", "_thread")
                          or name.startswith("concurrent.futures")]
    assert not offenders, offenders


def _defined_names(tree):
    """The names a module defines: its functions, classes, assigned names and
    annotated fields, and the attributes it assigns on any object."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
    return names


def test_no_module_reads_a_private_attribute_defined_elsewhere():
    # obj._name reaches into the class that defines _name; a module other
    # than that class's asks through a public name instead
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = _defined_names(tree)
        offenders += [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and _private(node.attr)
                      and node.attr not in defined
                      and not (isinstance(node.value, ast.Name)
                               and node.value.id in ("self", "cls"))]
    assert not offenders, offenders
