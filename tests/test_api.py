"""The README's list of entry points, and the names the benchmark wraps,
match the package."""

import importlib
import importlib.util
import os
import re

import pytest

import causalcgs

ROOT = os.path.join(os.path.dirname(__file__), "..")
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
    ],
)
def test_removed_names_stay_removed(module, name):
    *path, last = name.split(".")  # a dotted name is an attribute of a class
    owner = importlib.import_module(module)
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, last)


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
