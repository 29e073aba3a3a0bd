import ast
import importlib
import importlib.util
from pathlib import Path

LFBENCH = Path(__file__).resolve().parents[1] / "lfbench"
SPANS = LFBENCH / "spans.py"


def test_benchmark_traced_names_resolve():
    # the benchmark's traced mode wraps these lfpca functions by name, so
    # renaming or deleting one breaks it; load its table without running it
    spec = importlib.util.spec_from_file_location("lfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, path, span_name, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"{span_name}: {module_name}.{path} is gone"
            owner = getattr(owner, part)
        assert callable(owner), span_name


def test_benchmark_imports_resolve():
    # every name the benchmark imports from lfpca, read from its source
    # without running it: a deleted or renamed API fails here, not only in
    # the benchmark's own smoke test
    imported = []
    for path in sorted(LFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lfpca":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [(path.name, alias.name, None) for alias in node.names
                             if alias.name.split(".")[0] == "lfpca"]
    assert imported
    for source, module_name, name in imported:
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        is_submodule = (hasattr(module, "__path__")
                        and importlib.util.find_spec(f"{module_name}.{name}") is not None)
        assert is_submodule, f"{source}: 'from {module_name} import {name}' is gone"
