"""The package declares each public name and each numerical threshold once."""

import ast
import re
from pathlib import Path

import qdissonance as qd
from qdissonance import correlations, protocols, qla, statefile, states, witness

MODULES = (qla, states, correlations, witness, protocols, statefile)
_THRESHOLD_NAME = re.compile(r"_(TOL|CUTOFF|FLOOR)$")


def test_package_api_is_the_module_lists():
    expected = ["__version__"] + [name for mod in MODULES for name in mod.__all__]
    assert qd.__all__ == expected
    assert len(set(qd.__all__)) == len(qd.__all__)
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(qd, name) is getattr(mod, name), name
    assert isinstance(qd.__version__, str)


def _assigned_names(node):
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_thresholds_live_only_in_qla():
    for path in sorted(Path(qd.__file__).parent.glob("*.py")):
        if path.name == "qla.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            for name in _assigned_names(node):
                assert not _THRESHOLD_NAME.search(name), f"{path.name} defines {name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                assert not 0 < abs(node.value) < 1e-6, (
                    f"{path.name}:{node.lineno} has threshold literal {node.value!r}"
                )
