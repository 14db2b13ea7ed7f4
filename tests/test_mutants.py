"""The mutation probe's table stays applicable: each row's source line occurs
exactly once in its file, its replacement differs from it, and each of its
pytest ids names a test class or function defined in its file. The mutants
themselves run only from `tools/mutants.py`."""
import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = ROOT / "tools" / "mutants.py"


def _defined(path: Path) -> set:
    """The `Class`, `Class::name` and `name` ids of the tests that ``path`` defines."""
    ids = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            ids.add(node.name)
            ids.update(f"{node.name}::{f.name}" for f in node.body
                       if isinstance(f, ast.FunctionDef) and f.name.startswith("test"))
        elif isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
            ids.add(node.name)
    return ids


def _names_a_test(test: str) -> bool:
    """Whether the pytest argument ``test``, a file or `file::...` node id, names a test.
    pytest alone cannot tell: collecting a missing id next to its file exits 0."""
    path, _, node = test.partition("::")
    if not (ROOT / path).is_file():
        return False
    return not node or node.split("[")[0] in _defined(ROOT / path)


def test_each_mutant_line_occurs_once(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read the tool, write nothing
    spec = importlib.util.spec_from_file_location("superlind_mutants", MUTANTS)
    tool = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tool)  # its dataclass looks itself up there
    spec.loader.exec_module(tool)
    assert len({m.name for m in tool.MUTANTS}) == len(tool.MUTANTS) >= 8
    for mutant in tool.MUTANTS:
        assert tool.source_of(mutant).count(mutant.line) == 1, mutant.name
        assert mutant.replacement != mutant.line and mutant.tests, mutant.name
        for test in mutant.tests:
            assert _names_a_test(test), (mutant.name, test)


def test_a_missing_test_id_is_caught():
    assert _names_a_test("tests/test_generator.py")
    assert _names_a_test("tests/test_generator.py::TestMasterEquationRHS")
    assert _names_a_test("tests/test_generator.py::test_constant_h_cell_propagator_is_cptp")
    assert _names_a_test("tests/test_parameters.py::test_malformed_arrays_rejected_with_the"
                         "_argument_named[bloch_vector-string]")
    for missing in ("tests/test_nope.py", "tests/test_generator.py::TestNope::test_x",
                    "tests/test_generator.py::TestMasterEquationRHS::test_nope",
                    "tests/test_generator.py::_unraveled_rhs"):
        assert not _names_a_test(missing), missing
