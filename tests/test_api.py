"""The README's list of entry points matches the package."""

import importlib
import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


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
    ],
)
def test_removed_names_stay_removed(module, name):
    assert not hasattr(importlib.import_module(module), name)
