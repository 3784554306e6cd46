"""The benchmark's own tests: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types

import pytest

import run
from checks import check_bridge_sweep, check_cause_search, check_tree_build
from tracing import LAYERS, Tracer
from workloads import WORKLOADS, Job, JobSource, expected_verdicts

sys.path.insert(0, str(run.ROOT / "src"))
with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


@pytest.fixture
def bench_for(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_JOBS", 2)

    def make(workload: str, trace: bool = False, seed: int = 7) -> run.Bench:
        work = tmp_path / f"{workload}-{int(trace)}"
        work.mkdir()
        return run.Bench(workload, seed, 1, trace, work)
    return make


def _program(bench: run.Bench):
    bench.program = run.load_program()
    bench.oracle = run.load_oracle()
    bench.source = JobSource(bench.workload, bench.seed, bench.program, bench.oracle,
                             str(bench.work))
    return bench.program


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_has_no_failures(bench_for, workload, capsys):
    bench = bench_for(workload)
    metrics = bench.end_to_end()
    assert bench.attempted >= 1
    assert bench.failed == 0 and bench.failures == []
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(metrics)
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(bench_for, workload, capsys):
    bench = bench_for(workload, trace=True)
    metrics = bench.per_layer()
    assert bench.failed == 0 and bench.failures == []
    assert {m["name"] for m in SPEC["per_layer"]} <= set(metrics)
    parts = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) + metrics["cli.self_s"]
    assert parts == pytest.approx(metrics["trace.job_s"], rel=1e-9)
    assert metrics["trace.unwrapped"] == 0


def test_self_times_add_up_per_job(bench_for):
    bench = bench_for("bridge-sweep")
    program = _program(bench)
    tracer = Tracer(program)
    for index in range(3):
        before = dict(tracer.totals)
        layer_before = sum(tracer.layer_self_ns(layer) for layer in LAYERS)
        code, _, _ = bench.run_job(bench.source.next(), tracer, index)
        assert code == 0
        job_ns = tracer.totals["job_ns"] - before["job_ns"]
        cli_ns = tracer.totals["cli_ns"] - before["cli_ns"]
        layer_ns = sum(tracer.layer_self_ns(layer) for layer in LAYERS) - layer_before
        assert layer_ns + cli_ns == job_ns
    # spans of the last job: every parent is an earlier span of the same job
    data = tracer.spans
    rows = [tuple(data[k:k + 6]) for k in range(0, len(data), 6)]
    ids = {(job, sid) for job, sid, *_ in rows}
    assert all(parent == -1 or (job, parent) in ids for job, _, parent, *_ in rows)
    assert all(start <= end for *_, start, end in rows)
    # the program runs unwrapped again once the traced job is over
    assert program.cli.evaluate is program.model.evaluate


def test_missing_entry_point_is_listed_not_fatal(bench_for):
    program = _program(bench_for("tree-build"))
    cli = types.SimpleNamespace(**{k: v for k, v in vars(program.cli).items()
                                   if k != "size_report"})
    fake = types.SimpleNamespace(**{name: getattr(program, name) for name in (
        "dsl", "model", "graph", "causality", "cgs", "builder", "bridge", "export")}, cli=cli)
    assert Tracer(fake).unwrapped == ["causalcgs.cli.size_report"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_two_jobs_share_a_model(bench_for, workload):
    bench = bench_for(workload)
    program = _program(bench)
    jobs = [bench.source.next() for _ in range(run.ROUND_JOBS[workload])]
    jobs += [j for pair in (bench.source.next_pair() for _ in range(8)) for j in pair]
    jobs.append(JobSource(workload, "warm-up", program, bench.oracle, str(bench.work),
                          prefix="w").next())
    models = [program.dsl.parse_model(job.text).model for job in jobs]
    assert len(set(models)) == len(models)
    assert len({job.path for job in jobs}) == len(jobs)


def test_each_round_starts_from_a_fresh_program(bench_for):
    bench = bench_for("tree-build")
    bench.set_up()
    first = bench.program
    bench.timed(bench.source.next())
    assert len(first.builder._CGS_CACHE) == 2  # the warm-up and the timed build
    bench.set_up()
    assert bench.program is not first
    assert len(bench.program.builder._CGS_CACHE) == 1  # the warm-up build only
    assert len(bench.setup_times) == 2 and bench.failures == []


def _first_job(bench: run.Bench) -> tuple[Job, str]:
    job = bench.source.next()
    code, stdout, _ = bench.run_job(job)
    assert code == 0
    return job, stdout


def test_mutated_export_label_fails(bench_for):
    bench = bench_for("tree-build")
    _program(bench)
    job, stdout = _first_job(bench)
    assert check_tree_build(job, stdout, str(bench.work)) == []
    path = bench.work / "tree.json"
    exported = json.loads(path.read_text())
    label = exported["states"][-1]["label"]
    out = job.name("Out")
    label[out] = "1" if label[out] == "0" else "0"
    path.write_text(json.dumps(exported))
    assert check_tree_build(job, stdout, str(bench.work))


def test_flipped_agree_fails(bench_for):
    bench = bench_for("bridge-sweep")
    _program(bench)
    job, stdout = _first_job(bench)
    assert check_bridge_sweep(job, stdout) == []
    report = json.loads(stdout)
    report["verdicts"][0]["agree"] = False
    assert check_bridge_sweep(job, json.dumps(report))
    del report["verdicts"][0]
    report["verdicts"][0]["agree"] = True
    assert check_bridge_sweep(job, json.dumps(report))


def test_wrong_cause_fails(bench_for):
    bench = bench_for("cause-search")
    program = _program(bench)
    for _ in range(20):
        job, stdout = _first_job(bench)
        report = json.loads(stdout)
        if report["causes"]:
            break
    goal = program.model.EqTest(*job.goal)
    assert check_cause_search(job, stdout, bench.oracle, goal, literal=True) == []
    alternative = report["causes"][0]["alternative"]
    name = next(iter(alternative))
    alternative[name] = "1" if alternative[name] == "0" else "0"
    assert check_cause_search(job, json.dumps(report), bench.oracle, goal)
    report["causes"] = []
    assert check_cause_search(job, json.dumps(report), bench.oracle, goal, literal=True)


def test_corrupted_output_counts_as_failed(bench_for):
    bench = bench_for("bridge-sweep")
    program = _program(bench)
    original = program.cli.main

    def corrupted(argv):
        code = original(argv)
        print('{"verdicts": []}')
        return code

    program.cli.main = corrupted
    bench.timed(bench.source.next())
    program.cli.main = original
    bench.timed(bench.source.next())
    assert (bench.attempted, bench.failed) == (2, 1)


def test_vehicle_verdict_count(capsys):
    program = run.load_program()
    path = run.ROOT / "models" / "vehicle.scm"
    text = path.read_text()
    job = Job(tag="", text=text, kind="random", model=program.dsl.parse_model(text).model)
    assert expected_verdicts(job) == 171
    program.cli.main(["bridge", str(path), "--outcome", "no_collision", "--format", "json"])
    assert check_bridge_sweep(job, capsys.readouterr().out) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree-build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
