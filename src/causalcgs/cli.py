"""Command-line interface.

Subcommands: validate, rank, build, causes, bridge, selftest. Exit codes:
0 success, 1 diagnostics or runtime errors, 2 usage errors. Set
CAUSAL_CGS_COLOR=1 to enable ANSI color in text reports; --format json
emits a machine-readable report instead.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import random
import sys
from typing import Optional

from .bridge import (
    causal_profile,
    check_prop_cause_iff_strategy,
    check_prop_superset_strategy,
    play_deviation,
)
from .builder import (
    build_causal_cgs,
    check_leaf_correspondence,
    check_rank_stability,
    corresponds,
    size_report,
)
from .causality import CandidateCause, Witness, enumerate_causes, subsets_by_size
from .cgs import play
from .dsl import ModelDocument, ParseError, document_diagnostics, outcome_formula, parse_model
from .export import cgs_payload, dumps, export_dot, export_json
from .graph import RankingError, agent_ranking, build_network, variable_levels
from .model import ModelError, evaluate
from .randgen import GeneratorConfig, random_model, random_true_event

PROG = "causal-cgs"


def _color_on() -> bool:
    return os.environ.get("CAUSAL_CGS_COLOR", "0") == "1"


def _green(text: str) -> str:
    return f"\x1b[32m{text}\x1b[0m" if _color_on() else text


def _red(text: str) -> str:
    return f"\x1b[31m{text}\x1b[0m" if _color_on() else text


class _Report:
    """Collects human-readable lines and a JSON payload side by side."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines: list[str] = []
        self.payload: dict = {}

    def say(self, line: str) -> None:
        self.lines.append(line)

    def emit(self) -> None:
        if self.fmt == "json":
            print(dumps(self.payload))
        else:
            for line in self.lines:
                print(line)


class _Failure(Exception):
    """A failed run: its report's text lines and JSON fields, which only
    `main` writes."""

    def __init__(self, lines: list[str], fields: dict):
        self.lines, self.fields = lines, fields


def _read_document(path: str) -> ModelDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = "not UTF-8 text" if isinstance(exc, UnicodeDecodeError) else exc.strerror
        raise _Failure([f"error: cannot read {path}: {reason}"], {"error": f"cannot read {path}"})
    try:
        return parse_model(source)
    except ParseError as exc:
        raise _Failure([f"{path}:{exc}"], {"error": str(exc)})


def _checked_document(path: str, **fields) -> ModelDocument:
    """The parsed document at path. If it has diagnostics, a failure: one
    line each, and a report of `fields` followed by the diagnostics list."""
    doc = _read_document(path)
    diags = document_diagnostics(doc)
    if diags:
        fields["diagnostics"] = [dataclasses.asdict(d) for d in diags]
        raise _Failure([f"{path}: {d}" for d in diags], fields)
    return doc


def _require_context(doc: ModelDocument, path: str) -> dict:
    if doc.context is None:
        raise _Failure([f"error: {path} has no context block"], {"error": "no context block"})
    return doc.context


def _parse_assignments(pairs: list[str], what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep or not name or not value:
            raise ModelError(f"{what} must look like VAR=VAL, got {item!r}")
        if name in out:
            raise ModelError(f"{what} assigns {name} twice")
        out[name] = value
    return out


# --- validate ---------------------------------------------------------------

def _cmd_validate(args, report: _Report) -> int:
    _checked_document(args.file, ok=False)
    report.payload.update(ok=True, diagnostics=[])
    report.say(_green(f"{args.file}: ok"))
    return 0


# --- rank -------------------------------------------------------------------

def _cmd_rank(args, report: _Report) -> int:
    model = _checked_document(args.file).model
    network = build_network(model)
    levels = variable_levels(network, model)
    ranking = agent_ranking(model, levels)
    report.payload["levels"] = {v: levels[v] for v in model.endo_names}
    report.payload["ranks"] = {v: ranking.rho[v] for v in model.endo_names}
    report.payload["n_max"] = ranking.n_max
    report.payload["agents"] = list(model.agents_in_order)
    width = max(len("variable"), max(len(v) for v in model.endo_names)) + 2
    report.say(f"{'variable':<{width}}{'level':>5}  {'rank':>4}  role")
    for v in model.endo_names:
        role = "agent" if v in model.agent_set else "environment"
        report.say(f"{v:<{width}}{levels[v]:>5}  {ranking.rho[v]:>4}  {role}")
    report.say(f"n_max = {ranking.n_max}")
    return 0


# --- build ------------------------------------------------------------------

def _write_export(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _Failure(
            [f"error: cannot write {path}: {exc.strerror}"], {"error": f"cannot write {path}"}
        )


def _cmd_build(args, report: _Report) -> int:
    doc = _checked_document(args.file)
    context = _require_context(doc, args.file)
    intervention = _parse_assignments(args.intervene, "--intervene")
    cgs = build_causal_cgs(doc.model, context, intervention)
    rep = size_report(cgs)
    if report.fmt == "json":
        report.payload.update(cgs_payload(cgs))
    report.payload["size"] = dataclasses.asdict(rep)
    report.say(
        f"states: {rep.states} (bound {rep.bound}), transitions: {rep.transitions},"
        f" leaves: {rep.leaves}"
    )
    if args.dot:
        _write_export(args.dot, export_dot(cgs))
        report.say(f"wrote DOT to {args.dot}")
        report.payload["dot_path"] = args.dot
    if args.json_path:
        _write_export(args.json_path, export_json(cgs))
        report.say(f"wrote JSON to {args.json_path}")
        report.payload["json_path"] = args.json_path
    return 0


# --- causes -----------------------------------------------------------------

def _format_pairs(pairs) -> str:
    return "{" + ", ".join(f"{v}={x}" for v, x in pairs) + "}"


def _cmd_causes(args, report: _Report) -> int:
    doc = _checked_document(args.file)
    context = _require_context(doc, args.file)
    outcome = outcome_formula(doc, args.outcome)
    certificates = enumerate_causes(
        doc.model, context, outcome, restrict_to_agents=args.agents_only
    )
    if args.butfor:
        certificates = [c for c in certificates if not c.witness.vars]
    records = []
    for cert in certificates:
        cause_pairs = list(zip(cert.cause.vars, cert.cause.actual_values))
        witness_pairs = list(zip(cert.witness.vars, cert.witness.values))
        alt_pairs = list(zip(cert.cause.vars, cert.alternative))
        if report.fmt == "json":
            records.append(
                {
                    "cause": dict(cause_pairs),
                    "witness": dict(witness_pairs),
                    "alternative": dict(alt_pairs),
                    "butfor": not cert.witness.vars,
                }
            )
        else:
            report.say(
                f"cause {_format_pairs(cause_pairs)}"
                f"  witness {_format_pairs(witness_pairs)}"
                f"  alternative {_format_pairs(alt_pairs)}"
            )
    report.payload["outcome"] = args.outcome
    report.payload["causes"] = records
    label = "but-for cause(s)" if args.butfor else "cause(s)"
    report.say(f"{len(certificates)} {label} of outcome {args.outcome}")
    return 0


# --- bridge -----------------------------------------------------------------

def _verdict_record(verdict) -> dict:
    side = verdict.strategy_side
    return {
        "kind": verdict.kind,
        "cause_side": verdict.cause_side is not None,
        "strategy_side": side.positive,
        "coalition": list(side.coalition),
        "fixed_values": dict(side.fixed_values) if side.fixed_values else None,
        "leaf": side.leaf.name() if side.leaf is not None else None,
        "agree": verdict.agree,
    }


def _verdict_line(candidate, witness, verdict) -> str:
    cause = "yes" if verdict.cause_side is not None else "no"
    strat = "yes" if verdict.strategy_side.positive else "no"
    agree = _green("agree") if verdict.agree else _red("DISAGREE")
    x = _format_pairs(zip(candidate.vars, candidate.actual_values))
    w = "{" + ", ".join(witness.vars) + "}"
    return (
        f"{verdict.kind}: X={x} W={w} dependence={cause} strategy={strat} {agree}"
    )


def _report_verdict(report: _Report, records: list[dict], candidate, witness, verdict) -> None:
    """Only the chosen format's output is built: a record for JSON, a line
    for text."""
    if report.fmt == "json":
        records.append(_verdict_record(verdict))
    else:
        report.say(_verdict_line(candidate, witness, verdict))


def _cmd_bridge(args, report: _Report) -> int:
    doc = _checked_document(args.file)
    context = _require_context(doc, args.file)
    model = doc.model
    if not model.agents_in_order:  # the error `rank` and `build` give
        raise RankingError("no agent variables declared")
    outcome = outcome_formula(doc, args.outcome)
    actual = evaluate(model, context)

    if args.cause:
        given = _parse_assignments(args.cause, "--cause")
        vars_ = tuple(v for v in model.endo_names if v in given)
        if len(vars_) != len(given):
            missing = sorted(set(given) - set(vars_))
            raise ModelError(f"--cause names unknown endogenous variable {missing[0]}")
        candidates = [CandidateCause(vars_, tuple(given[v] for v in vars_))]
    else:
        candidates = [
            CandidateCause(subset, tuple(actual[v] for v in subset))
            for subset in subsets_by_size(model.agents_in_order)
            if subset
        ]

    fixed_witnesses = []  # none given: each candidate sweeps every witness set
    if args.witness is not None:
        wanted = set(args.witness)
        names = tuple(v for v in model.endo_names if v in wanted)
        if len(names) != len(wanted):
            unknown = sorted(wanted - set(names))
            raise ModelError(f"--witness names unknown endogenous variable {unknown[0]}")
        fixed_witnesses = [Witness(names, tuple(actual[w] for w in names))]

    verdicts = []
    records = []
    for candidate in candidates:
        witnesses = fixed_witnesses
        if not witnesses:
            pool = [v for v in model.endo_names if v not in set(candidate.vars)]
            witnesses = [
                Witness(subset, tuple(actual[w] for w in subset))
                for subset in subsets_by_size(pool)
            ]
        for witness in witnesses:
            verdict = check_prop_cause_iff_strategy(model, context, candidate, witness, outcome)
            verdicts.append(verdict)
            _report_verdict(report, records, candidate, witness, verdict)
            in_agents = set(candidate.vars) | set(witness.vars) <= model.agent_set
            if in_agents:
                verdict2 = check_prop_superset_strategy(
                    model, context, candidate, witness, outcome
                )
                verdicts.append(verdict2)
                _report_verdict(report, records, candidate, witness, verdict2)

    agreeing = sum(1 for v in verdicts if v.agree)
    report.payload["outcome"] = args.outcome
    report.payload["verdicts"] = records
    report.say(f"{agreeing}/{len(verdicts)} verdicts agree")
    return 0


# --- selftest -----------------------------------------------------------------

def _cmd_selftest(args, report: _Report) -> int:
    rng = random.Random(args.seed)
    config = GeneratorConfig()
    counts = {
        "models": args.models,
        "seed": args.seed,
        "structures": 0,
        "profile_plays": 0,
        "deviation_plays": 0,
        "fixed_witness_verdicts": 0,
        "superset_verdicts": 0,
        "disagreements": 0,
        "rank_violations": 0,
        "leaf_violations": 0,
        "size_violations": 0,
    }
    for _ in range(args.models):
        model = random_model(rng, config)
        context = {u: rng.choice(model.domain[u]) for u in model.exo_names}
        cgs = build_causal_cgs(model, context, {})
        counts["structures"] += 1
        rep = size_report(cgs)
        if rep.states > rep.bound + 1:
            counts["size_violations"] += 1
        counts["rank_violations"] += len(check_rank_stability(cgs))
        counts["leaf_violations"] += len(check_leaf_correspondence(cgs))

        profile = causal_profile(model, context, cgs)
        history = play(cgs.base, cgs.root, profile)
        counts["profile_plays"] += 1
        if not corresponds(cgs.assignments[history[-1]], model, context, {}):
            counts["leaf_violations"] += 1

        for agent in model.agents_in_order:
            for value in model.domain[agent]:
                play_deviation(cgs, model, context, {agent: value})
                counts["deviation_plays"] += 1

        actual = evaluate(model, context)
        outcome = random_true_event(rng, model, actual)
        agent = rng.choice(list(model.agents_in_order))
        candidate = CandidateCause((agent,), (actual[agent],))
        pool = [v for v in model.endo_names if v != agent]
        w_size = rng.randint(0, min(2, len(pool)))
        w_vars = tuple(sorted(rng.sample(pool, w_size), key=model.endo_names.index))
        witness = Witness(w_vars, tuple(actual[w] for w in w_vars))
        verdict = check_prop_cause_iff_strategy(model, context, candidate, witness, outcome)
        counts["fixed_witness_verdicts"] += 1
        if not verdict.agree:
            counts["disagreements"] += 1
        agent_pool = [v for v in model.agents_in_order if v != agent]
        wa_size = rng.randint(0, len(agent_pool))
        wa_vars = tuple(sorted(rng.sample(agent_pool, wa_size), key=model.endo_names.index))
        witness_a = Witness(wa_vars, tuple(actual[w] for w in wa_vars))
        verdict2 = check_prop_superset_strategy(model, context, candidate, witness_a, outcome)
        counts["superset_verdicts"] += 1
        if not verdict2.agree:
            counts["disagreements"] += 1

    failures = (
        counts["disagreements"]
        + counts["rank_violations"]
        + counts["leaf_violations"]
        + counts["size_violations"]
    )
    report.payload.update(counts)
    report.payload["ok"] = failures == 0
    report.say(f"selftest: models={counts['models']} seed={counts['seed']}")
    report.say(f"structures built: {counts['structures']}")
    report.say(f"profile plays: {counts['profile_plays']}")
    report.say(f"deviation plays: {counts['deviation_plays']}")
    report.say(
        f"fixed-witness verdicts: {counts['fixed_witness_verdicts']}"
        f" superset-coalition verdicts: {counts['superset_verdicts']}"
    )
    report.say(f"disagreements: {counts['disagreements']}")
    report.say(f"rank stability violations: {counts['rank_violations']}")
    report.say(f"leaf correspondence violations: {counts['leaf_violations']}")
    report.say(f"size bound violations: {counts['size_violations']}")
    report.say(_green("result: PASS") if failures == 0 else _red("result: FAIL"))
    return 0 if failures == 0 else 1


# --- parser -------------------------------------------------------------------

def _count(text: str) -> int:
    """An option value that counts something: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Finite-domain causal models: validation, ranking, game-structure"
        " construction, actual-cause search, and cause/strategy checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )

    p = sub.add_parser("validate", parents=[common], help="check a model file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("rank", parents=[common], help="print levels and ranks")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("build", parents=[common], help="build the game structure")
    p.add_argument("file")
    p.add_argument("--intervene", action="append", default=[], metavar="VAR=VAL")
    p.add_argument("--dot", metavar="PATH", help="write Graphviz DOT here")
    p.add_argument("--json", dest="json_path", metavar="PATH", help="write JSON here")
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("causes", parents=[common], help="enumerate actual causes")
    p.add_argument("file")
    p.add_argument("--outcome", required=True, metavar="NAME")
    p.add_argument("--agents-only", action="store_true")
    p.add_argument("--butfor", action="store_true", help="only empty-witness causes")
    p.set_defaults(handler=_cmd_causes)

    p = sub.add_parser("bridge", parents=[common], help="cause vs strategy verdicts")
    p.add_argument("file")
    p.add_argument("--outcome", required=True, metavar="NAME")
    p.add_argument("--cause", action="append", default=None, metavar="VAR=VAL")
    p.add_argument("--witness", nargs="*", default=None, metavar="VAR")
    p.set_defaults(handler=_cmd_bridge)

    p = sub.add_parser("selftest", parents=[common], help="seeded property sweep")
    p.add_argument("--models", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_selftest)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    report = _Report(args.format)
    try:
        code = args.handler(args, report)
    except (_Failure, ModelError, RecursionError) as exc:
        if not isinstance(exc, _Failure):
            # Parsing, validation and evaluation walk expressions
            # recursively; a deep enough one gets this answer, not a traceback.
            error = "expression nested too deeply" if isinstance(exc, RecursionError) else str(exc)
            exc = _Failure([f"error: {error}"], {"error": error})
        for line in exc.lines:
            report.say(_red(line))
        report.payload.update(exc.fields)
        code = 1
    report.emit()
    return code


if __name__ == "__main__":
    sys.exit(main())
