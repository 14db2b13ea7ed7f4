"""The mutation probe's table stays applicable: each row's source line occurs
exactly once in its file, and its replacement differs from it. The mutants
themselves run only from `tools/mutants.py`."""
import importlib.util
import sys
from pathlib import Path

MUTANTS = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


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
            assert (tool.ROOT / test.split("::")[0]).is_file(), (mutant.name, test)
