"""Lint checks on the sources of mtlab, written with `ast`.

No linter ships with the project, so these are its checks:
- every name a module of mtlab, a script or a test module imports is used in
  that module (`__init__.py` is left out: its imports are the package's
  re-exports);
- no module but `flows.py` compares a value with the name of a built-in
  example, so that `flows.EXAMPLES` stays the one list of the examples;
- neither the acceptance tests nor the study script builds a study config,
  so that `harness.CERTIFIED` stays the one list of the certified studies;
- `schemes.py` calls `apply_window` once, in its one window step
  `_advance`, and neither `harness.py` nor `stochastic.py` calls it, so
  every study, every scheme run and the Markov chain's law step in that one
  place and a second window loop cannot come back;
- nothing in `src/`, `scripts/` or `tests/` calls `run_tri_study`, the alias
  of `run_study` that certbench's tri-sl workload calls, so that
  `run_study` stays the one study runner.
"""

import ast
import pathlib

import pytest

from mtlab.flows import EXAMPLES

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mtlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS_AND_TESTS = sorted([*(ROOT / "scripts").glob("*.py"),
                            *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no other node reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize(
    "path", MODULES + SCRIPTS_AND_TESTS,
    ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}")
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_flags_an_unused_name():
    source = ("import math\nimport os.path\nfrom typing import Iterable, Sequence\n"
              "def f(x: Sequence) -> float:\n    return math.pi + os.sep\n")
    assert unused_imports(source) == ["line 3: Iterable"]


def example_name_comparisons(source: str) -> list[str]:
    """Comparisons in which a string literal names an entry of EXAMPLES,
    alone or inside a literal tuple, list or set; a default value such as
    `example: str = "example1"` is no comparison."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                found += [f"line {node.lineno}: {c.value!r}" for c in ast.walk(operand)
                          if isinstance(c, ast.Constant) and isinstance(c.value, str)
                          and c.value in EXAMPLES]
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "flows.py"],
                         ids=lambda p: p.name)
def test_module_leaves_example_names_to_flows(path):
    assert example_name_comparisons(path.read_text()) == []


def test_example_name_check_flags_a_comparison():
    source = ('example: str = "example1"\n'
              'if name == "example2" or name in ("binomial", "other"):\n'
              '    pass\n'
              'if name not in EXAMPLES or name == "example9":\n'
              '    pass\n')
    assert example_name_comparisons(source) == ["line 2: 'example2'",
                                                "line 2: 'binomial'"]


STUDY_CONFIGS = ("StudyConfig", "TriStudyConfig")


def calls_of(names, source: str) -> list[str]:
    """Calls of any of the names, bare or as an attribute such as
    `harness.StudyConfig(...)`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in names:
                found.append(f"line {node.lineno}: {name}")
    return found


@pytest.mark.parametrize("path", [ROOT / "tests" / "test_acceptance.py",
                                  ROOT / "scripts" / "convergence_study.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_leaves_study_configs_to_certified(path):
    assert calls_of(STUDY_CONFIGS, path.read_text()) == []


def test_study_config_check_flags_a_construction():
    source = ("from mtlab import harness\n"
              "from mtlab.harness import CERTIFIED, StudyConfig\n"
              "cfg = StudyConfig(example='example1')\n"
              "tri = harness.TriStudyConfig(ladder=(16, 32))\n"
              "same = isinstance(cfg, StudyConfig) and CERTIFIED['x'].run(cfg)\n")
    assert calls_of(STUDY_CONFIGS, source) == ["line 3: StudyConfig",
                                               "line 4: TriStudyConfig"]


def test_harness_steps_every_study_in_one_place():
    # the one window step is schemes._advance; harness hands it the rows
    assert calls_of({"apply_window"}, (SRC / "harness.py").read_text()) == []
    assert len(calls_of({"apply_window"}, (SRC / "schemes.py").read_text())) == 1


def test_chain_steps_its_law_in_the_same_place():
    # make_kernels and propagate_law move the law through schemes._advance
    source = (SRC / "stochastic.py").read_text()
    assert calls_of({"apply_window", "to_window"}, source) == []
    assert len(calls_of({"_advance"}, source)) == 2


def test_call_check_counts_bare_and_attribute_calls():
    source = ("from mtlab import schemes\n"
              "from mtlab.schemes import apply_window\n"
              "a = apply_window(lo, box, rows)\n"
              "b = schemes.apply_window(*state, rows, moves)\n"
              "step = apply_window\n")
    assert calls_of({"apply_window"}, source) == ["line 3: apply_window",
                                                  "line 4: apply_window"]


def test_nothing_calls_the_tri_runner_alias():
    assert [f"{path.name} {call}" for path in [*SRC.glob("*.py"), *SCRIPTS_AND_TESTS]
            for call in calls_of({"run_tri_study"}, path.read_text())] == []
