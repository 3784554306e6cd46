"""Output checks, one per workload. Each returns a list of problems; a job
with any problem counts as failed.

The checks never call the program under test: ``tree-build`` labels are
compared with the generator's own evaluation, ``cause-search`` causes are
re-verified with the brute-force oracle in ``tests/oracle.py``, and the
``bridge-sweep`` verdict count is a closed form.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from typing import Any

from workloads import Job, expected_verdicts, family_label, family_sizes

_SIZE_LINE = re.compile(r"states: (\d+) \(bound \d+\), transitions: (\d+), leaves: (\d+)$")


def check_tree_build(job: Job, stdout: str, out_dir: str) -> list[str]:
    states, transitions, leaves = family_sizes(job)
    lines = stdout.splitlines()
    match = _SIZE_LINE.match(lines[0]) if lines else None
    if match is None:
        return [f"no size line in the report: {stdout[:200]!r}"]
    printed = tuple(int(x) for x in match.groups())
    problems = []
    if printed != (states, transitions, leaves):
        problems.append(f"report says {printed}, closed form {(states, transitions, leaves)}")
    with open(os.path.join(out_dir, "tree.json"), encoding="utf-8") as handle:
        exported = json.load(handle)
    if len(exported["states"]) != states:
        problems.append(f"JSON export has {len(exported['states'])} states, expected {states}")
    if len(exported["transitions"]) != transitions:
        problems.append(f"JSON export has {len(exported['transitions'])} transitions")
    for state in exported["states"]:
        expected = family_label(job, state["i"], state["j"])
        if state["label"] != expected:
            problems.append(f"label of q_{state['i']}_{state['j']} is {state['label']}")
            break
    with open(os.path.join(out_dir, "tree.dot"), encoding="utf-8") as handle:
        dot_lines = sum(1 for _ in handle)
    # header (3) + one node per state + one edge per non-loop transition + "}"
    if dot_lines != 4 + states + transitions - leaves:
        problems.append(f"DOT export has {dot_lines} lines")
    return problems


def _ordered(job: Job, names) -> tuple[str, ...]:
    wanted = {job.untag(n) for n in names}
    return tuple(v for v in job.model.endo_names if v in wanted)


def _parse_causes(job: Job, stdout: str) -> list[tuple[tuple, tuple, tuple]]:
    """(cause vars, witness vars, alternative) per reported cause, untagged."""
    records = json.loads(stdout)["causes"]
    out = []
    for rec in records:
        cause = _ordered(job, rec["cause"])
        witness = _ordered(job, rec["witness"])
        alt = tuple(rec["alternative"][job.name(v)] for v in cause)
        actual = tuple(rec["cause"][job.name(v)] for v in cause)
        if actual != tuple(job.actual[v] for v in cause):
            raise ValueError(f"cause {rec['cause']} is not at actual values")
        if rec["butfor"] != (not witness):
            raise ValueError(f"butfor flag {rec['butfor']} with witness {witness}")
        if any(rec["witness"][job.name(w)] != job.actual[w] for w in witness):
            raise ValueError(f"witness {rec['witness']} is not at actual values")
        out.append((cause, witness, alt))
    return out


def check_cause_search(job: Job, stdout: str, oracle: Any, goal: Any,
                       literal: bool = False) -> list[str]:
    """Re-verify every reported cause; with ``literal``, also compare the
    whole list with the oracle's literal enumeration."""
    try:
        causes = _parse_causes(job, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"bad causes report: {exc}"]
    problems = []
    model, context = job.model, job.context
    for cause, witness, alt in causes:
        if any(v not in model.agent_set for v in cause):
            problems.append(f"cause {cause} is not agents only")
            continue
        found = oracle.literal_ac12(model, context, cause, witness, goal)
        if found != alt:
            problems.append(f"cause {cause} witness {witness}: oracle alternative {found}, reported {alt}")
        for size in range(1, len(cause)):
            for sub in itertools.combinations(cause, size):
                if oracle._ac2_search(model, context, sub, goal, job.actual) is not None:
                    problems.append(f"cause {cause} is not minimal: {sub} suffices")
    if literal:
        expected = oracle.literal_causes(model, context, goal, restrict_to_agents=True)
        if [tuple(c) for c in expected] != causes:
            problems.append(f"oracle enumerates {expected}, reported {causes}")
    return problems


def check_bridge_sweep(job: Job, stdout: str) -> list[str]:
    verdicts = json.loads(stdout)["verdicts"]
    problems = []
    expected = expected_verdicts(job)
    if len(verdicts) != expected:
        problems.append(f"{len(verdicts)} verdicts, expected {expected}")
    disagreeing = sum(1 for v in verdicts if v["agree"] is not True)
    if disagreeing:
        problems.append(f"{disagreeing} verdicts disagree")
    return problems
