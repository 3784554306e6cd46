"""Seeded inputs for the benchmark workloads.

Every job gets its own model text. Each variable name carries a per-job tag
(``_j17``), so no two jobs parse to equal models. The program's memo caches
(``model._EVAL_CACHE``, ``builder._CGS_CACHE``) are keyed by model equality
and never free a build, because the cached structure keeps its key alive
through ``origin.model``. An untagged model that repeats an earlier one would
be served from the earlier job's work and time nothing. The benchmark never
clears those caches: the memory they keep is part of what it measures.

The generators keep what the output checks need to know beside each job:
the family's closed-form sizes and equations for ``tree-build``, and the
untagged ``randgen`` model for ``cause-search`` and ``bridge-sweep``.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field, replace
from typing import Any

WORKLOADS = ("tree-build", "cause-search", "bridge-sweep")

# tree-build alternates two families. chain(n) gives a deep, narrow tree (one
# agent per rank, n_max = n); flat(n) a shallow, wide one (n agents of rank 1).
# Each family cycles through its sizes job by job. chain(n) costs about as
# much as flat(n+1), so equal weights would put the median job time in the gap
# between the flat(8) and flat(9) job times, where it jumps from run to run.
# With flat(9) five times in seven flat jobs, the median lies inside the
# flat(9) job times and the 90th percentile inside chain(9). The largest trees
# have 1023 states (chain(9)) and 513 (flat(9)): one size smaller than 8-10
# halves each job's time and memory, so a run has twice the jobs to take
# medians over and its heap is half as large.
CHAIN_SIZES = (7, 8, 9)
FLAT_SIZES = (7, 8, 9, 9, 9, 9, 9)
CHAIN_GATES = ("copy", "negate", "or_v", "and_u")

# randgen shapes (endogenous, agents, exogenous), cycled job by job so that
# every run of a workload draws the same mix of sizes. cause-search: 7-9
# endogenous variables, so the witness search dominates. bridge-sweep: 4-6,
# so a full sweep of every agent candidate and witness set stays small.
# A job's cost about doubles with each endogenous variable and with each
# agent, so each workload keeps endogenous + agents fixed (11 and 8): the
# shapes then cost about the same, job times form one mode rather than nine,
# and the median and 90th percentile of a run repeat from seed to seed.
CAUSE_SHAPES = tuple((e, 11 - e, x) for e in (7, 8, 9) for x in (2, 3))
BRIDGE_SHAPES = tuple((e, 8 - e, x) for e in (4, 5, 6) for x in (1, 2, 3))


@dataclass
class Job:
    """One CLI invocation and what its output check needs to know."""

    tag: str
    text: str  # the model file
    kind: str  # "chain", "flat" or "random"
    n: int = 0  # agents of a chain/flat model
    gates: tuple[str, ...] = ()
    context: dict[str, str] = field(default_factory=dict)  # untagged names
    model: Any = None  # the untagged randgen CausalModel
    actual: dict[str, str] = field(default_factory=dict)  # untagged names
    goal: tuple[str, str] = ("", "")  # (variable, actual value), untagged
    path: str = ""

    def name(self, var: str) -> str:
        return f"{var}_{self.tag}"

    def untag(self, name: str) -> str:
        suffix = "_" + self.tag
        if not name.endswith(suffix):
            raise ValueError(f"{name} lacks the job tag {self.tag}")
        return name[: -len(suffix)]


def argv_for(workload: str, job: Job, out_dir: str) -> list[str]:
    """The CLI arguments of one job of the workload."""
    if workload == "tree-build":
        return ["build", job.path,
                "--json", os.path.join(out_dir, "tree.json"),
                "--dot", os.path.join(out_dir, "tree.dot")]
    if workload == "cause-search":
        return ["causes", job.path, "--outcome", "goal", "--agents-only", "--format", "json"]
    if workload == "bridge-sweep":
        return ["bridge", job.path, "--outcome", "goal", "--format", "json"]
    raise ValueError(f"unknown workload {workload!r}")


# --- tree-build: chain(n) and flat(n) ------------------------------------

def _gate(gate: str, prev: str, u: str, v: str) -> str:
    return {"copy": prev, "negate": "!" + prev,
            "or_v": f"{prev} | {v}", "and_u": f"{prev} & {u}"}[gate]


def _family_text(job: Job) -> str:
    u, v = job.name("U"), job.name("V")
    agents = [job.name(f"A{k}") for k in range(1, job.n + 1)]
    lines = [f"exogenous {u} in {{0, 1}}", f"exogenous {v} in {{0, 1}}"]
    lines += [f"agent {a} in {{0, 1}}" for a in agents]
    lines.append(f"endogenous {job.name('Out')} in {{0, 1}}")
    if job.kind == "chain":
        lines.append(f"eq {agents[0]} := {u}")
        for k in range(1, job.n):
            lines.append(f"eq {agents[k]} := {_gate(job.gates[k], agents[k - 1], u, v)}")
        lines.append(f"eq {job.name('Out')} := {agents[-1]}")
    else:
        lines += [f"eq {a} := {u}" for a in agents]
        lines.append(f"eq {job.name('Out')} := {' & '.join(agents)}")
    lines.append(f"context {u} = {job.context['U']}, {v} = {job.context['V']}")
    return "\n".join(lines) + "\n"


def family_job(tag: str, kind: str, n: int, rng: random.Random) -> Job:
    gates = ("",) + tuple(rng.choice(CHAIN_GATES) for _ in range(n - 1)) if kind == "chain" else ()
    context = {"U": rng.choice("01"), "V": rng.choice("01")}
    job = Job(tag=tag, text="", kind=kind, n=n, gates=gates, context=context)
    job.text = _family_text(job)
    return job


def family_sizes(job: Job) -> tuple[int, int, int]:
    """(states, transitions, leaves) in closed form."""
    n = job.n
    if job.kind == "chain":
        return 2 ** (n + 1) - 1, 2 ** (n + 1) - 2 + 2 ** n, 2 ** n
    return 2 ** n + 1, 2 ** (n + 1), 2 ** n


def family_label(job: Job, i: int, j: int) -> dict[str, str]:
    """The generator's own evaluation of state q_{i,j}: the agents acting up
    to depth i are forced to the bits of j, first agent most significant."""
    n = job.n
    acting = i if job.kind == "chain" else (n if i else 0)
    forced = {k: (j >> (acting - k)) & 1 for k in range(1, acting + 1)}
    u, v = int(job.context["U"]), int(job.context["V"])
    values: list[int] = []
    for k in range(1, n + 1):
        if k in forced:
            values.append(forced[k])
        elif job.kind == "flat" or k == 1:
            values.append(u)
        else:
            prev = values[-1]
            values.append({"copy": prev, "negate": 1 - prev,
                           "or_v": prev | v, "and_u": prev & u}[job.gates[k - 1]])
    out = values[-1] if job.kind == "chain" else int(all(values))
    label = {job.name("U"): str(u), job.name("V"): str(v)}
    label.update((job.name(f"A{k}"), str(x)) for k, x in enumerate(values, start=1))
    label[job.name("Out")] = str(out)
    return label


# --- cause-search and bridge-sweep: randgen models ------------------------

def _expr_text(expr, job: Job) -> str:
    kind = type(expr).__name__
    if kind == "Const":
        return expr.value
    if kind == "Var":
        return job.name(expr.name)
    if kind == "EqTest":
        return f"{job.name(expr.name)} == {expr.value}"
    if kind == "Not":
        return f"!({_expr_text(expr.arg, job)})"
    if kind in ("And", "Or"):
        op = "&" if kind == "And" else "|"
        return f"({_expr_text(expr.left, job)} {op} {_expr_text(expr.right, job)})"
    if kind == "Ite":
        return (f"(if {_expr_text(expr.cond, job)} then {_expr_text(expr.then, job)}"
                f" else {_expr_text(expr.orelse, job)})")
    raise TypeError(f"not an expression node: {expr!r}")


def _random_text(job: Job) -> str:
    model = job.model
    lines = [f"exogenous {job.name(u)} in {{0, 1}}" for u in model.exo_names]
    lines += [f"{'agent' if x in model.agent_set else 'endogenous'} {job.name(x)} in {{0, 1}}"
              for x in model.endo_names]
    lines += [f"eq {job.name(x)} := {_expr_text(e, job)}" for x, e in model.equations]
    lines.append("context " + ", ".join(f"{job.name(u)} = {job.context[u]}"
                                        for u in model.exo_names))
    lines.append(f"outcome goal : {job.name(job.goal[0])} == {job.goal[1]}")
    return "\n".join(lines) + "\n"


def random_job(tag: str, rng: random.Random, randgen: Any, oracle: Any,
               shape: tuple[int, int, int]) -> Job:
    """A randgen model of the given (endogenous, agents, exogenous) shape
    whose outcome ``goal`` is its last endogenous variable at its actual
    value, computed with the oracle's expression evaluation."""
    endo, agents, exo = shape
    config = randgen.GeneratorConfig(
        min_exogenous=exo, max_exogenous=exo, min_endogenous=endo,
        max_endogenous=endo, min_agents=agents, max_agents=agents)
    model = randgen.random_model(rng, config)
    context = {u: rng.choice(model.domain[u]) for u in model.exo_names}
    actual = dict(context)
    for name, expr in model.equations:  # randgen declares in dependency order
        actual[name] = oracle.expr_value(expr, actual)
    last = model.endo_names[-1]
    job = Job(tag=tag, text="", kind="random", context=context, model=model,
              actual=actual, goal=(last, actual[last]))
    job.text = _random_text(job)
    return job


def twin(job: Job, tag: str) -> Job:
    """The same model under another tag: equal work, no shared cache entry."""
    other = replace(job, tag=tag, path="")
    other.text = _random_text(other) if job.kind == "random" else _family_text(other)
    return other


class JobSource:
    """Makes the jobs of one workload from one seed, in order, and writes
    each model file into ``model_dir``.

    ``program`` is the imported ``causalcgs`` package and ``oracle`` the
    loaded ``tests/oracle.py``; the randgen workloads draw their models from
    the program's ``randgen`` module.
    """

    def __init__(self, workload: str, seed: Any, program: Any, oracle: Any, model_dir: str,
                 prefix: str = "j"):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.program = program
        self.oracle = oracle
        self.model_dir = model_dir
        self.prefix = prefix
        self.count = 0

    def _draw(self, tag: str) -> Job:
        k = self.count
        if self.workload == "tree-build":
            sizes = FLAT_SIZES if k % 2 else CHAIN_SIZES
            return family_job(tag, ("chain", "flat")[k % 2], sizes[(k // 2) % len(sizes)], self.rng)
        shapes = CAUSE_SHAPES if self.workload == "cause-search" else BRIDGE_SHAPES
        return random_job(tag, self.rng, self.program.randgen, self.oracle,
                          shapes[k % len(shapes)])

    def _save(self, job: Job) -> Job:
        job.path = os.path.join(self.model_dir, f"{job.tag}.scm")
        with open(job.path, "w", encoding="utf-8") as handle:
            handle.write(job.text)
        return job

    def next(self) -> Job:
        job = self._draw(f"{self.prefix}{self.count}")
        self.count += 1
        return self._save(job)

    def next_pair(self) -> tuple[Job, Job]:
        """A job and its twin, for comparing traced and untraced time."""
        job = self.next()
        return job, self._save(twin(job, job.tag + "t"))


def expected_verdicts(job: Job) -> int:
    """Sum over non-empty agent sets X of 2^(E-|X|) + 2^(A-|X|)."""
    e, a = len(job.model.endo_names), len(job.model.agents_in_order)
    return sum(math.comb(a, k) * (2 ** (e - k) + 2 ** (a - k)) for k in range(1, a + 1))
