import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "lfbench" / "spans.py"


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
