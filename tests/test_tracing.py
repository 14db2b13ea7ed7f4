"""The benchmark's tracer wraps public callables by name: every name it patches
must exist, and uninstalling must put back exactly what was there."""
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _attributes(tracing):
    """Every module attribute and patched class method the tracer may replace."""
    owners = list(tracing.MODULES) + [cls for cls, _, _ in tracing.METHODS]
    return {(owner.__name__, name): value for owner in owners for name, value in vars(owner).items()}


def test_tracer_install_and_uninstall_restore_every_attribute(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read the benchmark, write nothing
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    before = _attributes(tracing)
    tracer = tracing.Tracer("sweep-me")
    try:
        tracer.install()  # raises if a name it patches no longer exists
        patched = _attributes(tracing)
    finally:
        tracer.uninstall()
    assert {key for key in before if patched[key] is not before[key]} >= {
        ("superlind.experiments", "run_lz_sweep"),
        ("LindbladGenerator", "rhs"),
        ("LindbladGenerator", "jump_channels"),
        ("TimeDependentHamiltonian", "__call__"),
    }
    after = _attributes(tracing)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
