"""Every public function or class of p3wkb has a caller outside tests/.

A name in a module's ``__all__`` must be read somewhere in the package or
in ``perfbench``, outside its own definition, or be one of the paper-level
checks below, which only the tests run.  A read is a name or attribute in
code; docstrings, comments and the ``__all__`` strings do not count."""

import ast
import importlib
import pkgutil
from pathlib import Path

import p3wkb

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Public names without a caller, each a result or identity of the paper.
PAPER_CHECKS = {
    "borel.connection_multiplier": "the Stokes-multiplier factor across each degeneration wall",
    "borel.jump_factor": "exp(S+ - S-) of F and G, the jump of the lateral Borel sums",
    "series.backlund_apply": "the Backlund maps that shift the parameters by eta^-1",
    "series.hamilton_residual": "the Hamiltonian system's residual on (lambda, mu)",
    "series.hamiltonian": "the Hamiltonian on the 0-parameter solution",
    "series.instanton1_prefactor": "the non-exponential factor of the 1-instanton solution",
    "series.x_factor": "the factor X with mu^(1) = X lambda^(1)",
    "voros.cycle_symbolic": "the Voros coefficient of the loop cycle",
    "voros.increments_match": "the shift lemmas' increments against the printed right-hand sides",
    "voros.reconstruct_from_difference": "the unique decaying solution of a difference equation",
    "voros.verify_difference_equation": "the difference equations of F and G",
    "voros.voros_increment": "W at shifted parameters minus W, from the closed forms",
    "voros.voros_increment_printed": "the printed right-hand sides of the shift lemmas",
}


def _reads(path: Path) -> set:
    """(owner, name) for every name or attribute the file reads, owner the
    module-level function or class the read sits in (None outside one)."""
    out = set()
    for top in ast.parse(path.read_text()).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add((owner, node.id))
            elif isinstance(node, ast.Attribute):
                out.add((owner, node.attr))
    return out


def _public_callables():
    for info in pkgutil.iter_modules(p3wkb.__path__):
        module = importlib.import_module(f"p3wkb.{info.name}")
        for name in getattr(module, "__all__", ()):
            if callable(getattr(module, name)):
                yield info.name, name


def _without_caller(sources) -> set:
    reads = set().union(*(_reads(path) for path in sources))
    named = {name for owner, name in reads if owner != name}
    return {f"{module}.{name}" for module, name in _public_callables() if name not in named}


def _sources():
    return sorted(Path(p3wkb.__file__).parent.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))


def test_every_public_function_or_class_has_a_caller_or_is_a_paper_check():
    assert _without_caller(_sources()) == set(PAPER_CHECKS)


def test_a_read_inside_its_own_definition_is_no_caller(tmp_path):
    # A recursive call, or a class that builds itself, calls nothing from
    # outside: binet reads binet only in its reflection step.
    source = tmp_path / "numerics.py"
    source.write_text("def binet(w):\n    return -binet(-w)\n")
    assert "numerics.binet" in _without_caller([source])
