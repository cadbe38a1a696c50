"""Every public function or class of p3wkb has a caller outside tests/,
and every private helper a reader.

A name in a module's ``__all__`` must be read somewhere in the package or
in ``perfbench``, outside its own definition, or be one of the paper-level
checks below, which only the tests run.  A module-level private function,
class or constant (one leading underscore) must be read there too, so that
no refactor leaves an orphan helper behind.  A read is a name or attribute
loaded in code; assignments, docstrings, comments and the ``__all__``
strings do not count."""

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
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add((owner, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add((owner, node.attr))
    return out


def _named(sources) -> set:
    """The names read in the files, each outside its own definition."""
    reads = set().union(*(_reads(path) for path in sources))
    return {name for owner, name in reads if owner != name}


def _private_definitions(path: Path):
    """The module-level private functions, classes and constants of a file."""
    for top in ast.parse(path.read_text()).body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names = [top.name]
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            names = [node.id for target in targets for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def _public_callables():
    for info in pkgutil.iter_modules(p3wkb.__path__):
        module = importlib.import_module(f"p3wkb.{info.name}")
        for name in getattr(module, "__all__", ()):
            if callable(getattr(module, name)):
                yield info.name, name


def _without_caller(sources) -> set:
    named = _named(sources)
    return {f"{module}.{name}" for module, name in _public_callables() if name not in named}


def _without_reader(package, sources) -> set:
    named = _named(sources)
    return {f"{path.stem}.{name}" for path in package
            for name in _private_definitions(path) if name not in named}


def _package():
    return sorted(Path(p3wkb.__file__).parent.glob("*.py"))


def _sources():
    return _package() + sorted(PERFBENCH.glob("*.py"))


def test_every_public_function_or_class_has_a_caller_or_is_a_paper_check():
    assert _without_caller(_sources()) == set(PAPER_CHECKS)


def test_a_read_inside_its_own_definition_is_no_caller(tmp_path):
    # A recursive call, or a class that builds itself, calls nothing from
    # outside: binet reads binet only in its reflection step.
    source = tmp_path / "numerics.py"
    source.write_text("def binet(w):\n    return -binet(-w)\n")
    assert "numerics.binet" in _without_caller([source])


def test_every_private_helper_has_a_reader():
    assert _without_reader(_package(), _sources()) == set()


def test_an_assignment_or_a_read_inside_its_own_definition_is_no_reader(tmp_path):
    # A recursive helper, and a constant that is only ever assigned, are
    # orphans; a constant read by a function is not, nor is that function
    # once it is read.
    source = tmp_path / "numerics.py"
    source.write_text("_A = 1\n_B: int = 2\n_A, _C = 3, 4\n"
                      "def _walk(n):\n    return _walk(n - 1) + _B\n"
                      "def _step():\n    return _B\n_D = _step()\n")
    assert _without_reader([source], [source]) == {
        "numerics._A", "numerics._C", "numerics._D", "numerics._walk"}
