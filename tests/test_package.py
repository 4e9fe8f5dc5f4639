import ast
from pathlib import Path

import gabor_recover
from gabor_recover import channel, probbounds, recovery, signal, transforms

PACKAGE = Path(gabor_recover.__file__).parent
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_all_joins_the_module_export_lists():
    joined = [name for module in (signal, transforms, probbounds, channel, recovery)
              for name in module.__all__]
    assert gabor_recover.__all__ == joined
    assert len(set(joined)) == len(joined)
    assert all(hasattr(gabor_recover, name) for name in joined)


def test_exports_the_names_the_benchmark_imports():
    # a name missing from the package would show up only as a benchmark crash
    tree = ast.parse(WORKLOADS.read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "gabor_recover"
                for alias in node.names}
    names = {name for name in imported if not (PACKAGE / f"{name}.py").exists()}
    assert names and names <= set(gabor_recover.__all__)
