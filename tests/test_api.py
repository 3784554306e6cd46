"""The README's list of entry points, and the names the benchmark wraps,
match the package."""

import ast
import glob
import importlib
import importlib.util
import os
import re

import pytest

import causalcgs

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src", "causalcgs")
README = os.path.join(ROOT, "README.md")
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")


def _entry_points() -> list[tuple[str, str]]:
    with open(README, "r", encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("Key entry points", 1)[1].split("\n\n", 2)[1]
    pairs = []
    for bullet in section.split("\n- "):
        module, *names = re.findall(r"`([^`]+)`", bullet)
        pairs.extend((module, name) for name in names)
    return pairs


ENTRY_POINTS = _entry_points()


def test_readme_lists_entry_points():
    modules = {module for module, _ in ENTRY_POINTS}
    assert "causalcgs.causality" in modules and len(ENTRY_POINTS) > 20


@pytest.mark.parametrize("module, name", ENTRY_POINTS)
def test_readme_entry_point_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize(
    "module, name",
    [
        ("causalcgs", "label_states"),
        ("causalcgs", "FixedActionStrategy"),
        ("causalcgs", "check_transition_injectivity"),
        ("causalcgs", "check_child_ranges"),
        ("causalcgs", "check_tree_shape"),
        ("causalcgs.builder", "label_states"),
        ("causalcgs.builder", "check_transition_injectivity"),
        ("causalcgs.builder", "check_child_ranges"),
        ("causalcgs.builder", "check_tree_shape"),
        ("causalcgs.bridge", "FixedActionStrategy"),
        ("causalcgs", "build_states"),
        ("causalcgs", "moves_at"),
        ("causalcgs", "transition"),
        ("causalcgs.builder", "build_states"),
        ("causalcgs.builder", "moves_at"),
        ("causalcgs.builder", "transition"),
        ("causalcgs", "cli_main"),
        ("causalcgs.cli", "cli_main"),
        ("causalcgs.causality", "CandidateCause.at_actual"),
        ("causalcgs.causality", "Witness.at_actual"),
        ("causalcgs.causality", "Witness.empty"),
        ("causalcgs.cgs", "StrategyProfile.agents"),
        ("causalcgs", "witness_sweep"),
        ("causalcgs.bridge", "witness_sweep"),
        ("causalcgs", "is_butfor_cause"),
        ("causalcgs.causality", "is_butfor_cause"),
        ("causalcgs", "validate_cgs"),
        ("causalcgs.cgs", "validate_cgs"),
        ("causalcgs", "legal_move_vectors"),
        ("causalcgs.cgs", "legal_move_vectors"),
        ("causalcgs.cgs", "StrategyProfile.of"),
        ("causalcgs", "parse_checked"),
        ("causalcgs.dsl", "parse_checked"),
        ("causalcgs", "all_contexts"),
        ("causalcgs.model", "all_contexts"),
        ("causalcgs.builder", "CausalCgs.descendants"),
        ("causalcgs.causality", "CandidateCause.as_mapping"),
        ("causalcgs.causality", "CauseCertificate.intervention"),
        ("causalcgs.model", "CausalModel.exo_parents"),
        ("causalcgs.builder", "SizeReport.as_dict"),
    ],
)
def test_removed_names_stay_removed(module, name):
    *path, last = name.split(".")  # a dotted name is an attribute of a class
    owner = importlib.import_module(module)
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, last)


# Public functions that neither `src/` nor the README's key entry points
# use, each with the reason it stays.
UNUSED_ALLOWED = {
    ("bridge", "definition_choice"): "moving it to tests/ would orphan the"
    " bridge.intervened_model and bridge.action_path bindings the benchmark wraps",
}


def test_every_public_function_has_a_caller_or_is_an_entry_point():
    trees = {
        os.path.basename(path)[: -len(".py")]: ast.parse(open(path, encoding="utf-8").read())
        for path in sorted(glob.glob(os.path.join(SRC, "*.py")))
        if os.path.basename(path) != "__init__.py"
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    documented = {(module.rsplit(".", 1)[-1], name) for module, name in ENTRY_POINTS}
    unused = [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        if node.name not in used and (module, node.name) not in documented
    ]
    assert sorted(unused) == sorted(UNUSED_ALLOWED)


def _benchmark_entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name) for module, name, _layer in tracing.ENTRY_POINTS]


@pytest.mark.parametrize("module, name", _benchmark_entry_points())
def test_benchmark_entry_point_resolves(module, name):
    # The benchmark wraps these bindings; one that no longer resolves goes
    # untraced there.
    assert callable(getattr(getattr(causalcgs, module), name))


def test_benchmark_reads_the_build_cache():
    # The benchmark's own tests read how many builds this cache holds.
    assert hasattr(causalcgs.builder, "_CGS_CACHE")
