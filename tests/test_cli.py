import json
import os
import subprocess
import sys
from weakref import WeakKeyDictionary

import pytest

from causalcgs import bridge, builder, cli, export
from causalcgs.cli import main
from causalcgs.export import dumps

VEHICLE = os.path.join(os.path.dirname(__file__), "..", "models", "vehicle.scm")

BROKEN = """
exogenous U in {0,1}
agent X in {0,1}
eq X := W == 1
"""


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_validate_ok(capsys):
    code, out = run(capsys, "validate", VEHICLE)
    assert code == 0
    assert "ok" in out


def test_validate_reports_diagnostics(tmp_path, capsys):
    path = tmp_path / "broken.scm"
    path.write_text(BROKEN)
    code, out = run(capsys, "validate", str(path))
    assert code == 1
    assert "unknown-variable" in out


def test_validate_missing_file(capsys):
    code, out = run(capsys, "validate", "/nonexistent/x.scm")
    assert code == 1
    assert "cannot read" in out


def test_validate_non_utf8_file(tmp_path, capsys, monkeypatch):
    (tmp_path / "latin1.scm").write_bytes("# caf\xe9\n".encode("latin-1"))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CAUSAL_CGS_COLOR", raising=False)
    assert run(capsys, "validate", "latin1.scm") == (
        1, "error: cannot read latin1.scm: not UTF-8 text\n"
    )
    assert run(capsys, "validate", "latin1.scm", "--format", "json") == (
        1, dumps({"error": "cannot read latin1.scm"}) + "\n"
    )


def test_validate_json_format(capsys):
    code, out = run(capsys, "validate", VEHICLE, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"ok": True, "diagnostics": []}


def test_rank_table(capsys):
    code, out = run(capsys, "rank", VEHICLE)
    assert code == 0
    assert "n_max = 2" in out
    lines = [l.split() for l in out.splitlines() if l and not l.startswith(("variable", "n_max"))]
    table = {row[0]: (row[1], row[2], row[3]) for row in lines}
    assert table["Col"] == ("4", "2", "environment")
    assert table["DA"] == ("3", "2", "agent")


def test_rank_json(capsys):
    code, out = run(capsys, "rank", VEHICLE, "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["ranks"] == {"O": 0, "Att": 0, "HD": 1, "ODS": 1, "DA": 2, "Col": 2}
    assert payload["levels"]["Col"] == 4
    assert payload["agents"] == ["HD", "ODS", "DA"]


def test_build_writes_exports(tmp_path, capsys):
    dot = tmp_path / "v.dot"
    js = tmp_path / "v.json"
    code, out = run(capsys, "build", VEHICLE, "--dot", str(dot), "--json", str(js))
    assert code == 0
    assert "states: 13 (bound 16)" in out
    payload = json.loads(js.read_text())
    assert len(payload["states"]) == 13
    assert dot.read_text().count(" -> ") == 12


@pytest.mark.parametrize("flag", ["--dot", "--json"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_build_reports_unwritable_export(tmp_path, capsys, flag, target):
    path = tmp_path / "missing" / "out" if target == "missing-dir" else tmp_path
    code, out = run(capsys, "build", VEHICLE, flag, str(path))
    assert code == 1
    assert f"error: cannot write {path}: " in out


def test_text_build_makes_one_payload(tmp_path, capsys, monkeypatch):
    made = []

    def counting(cgs):
        made.append(cgs)
        return payload(cgs)

    payload = export.cgs_payload
    monkeypatch.setattr(export, "cgs_payload", counting)
    monkeypatch.setattr(cli, "cgs_payload", counting)
    code, _ = run(capsys, "build", VEHICLE, "--json", str(tmp_path / "v.json"))
    assert code == 0
    assert len(made) == 1  # the export's; the text report prints no payload


def test_build_with_intervention(capsys):
    code, out = run(capsys, "build", VEHICLE, "--intervene", "HD=1", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert len(payload["states"]) == 15  # freezing HD spreads agents over 3 ranks
    assert payload["origin"]["intervention"] == {"HD": "1"}


def test_build_rejects_bad_intervention(capsys):
    code, out = run(capsys, "build", VEHICLE, "--intervene", "HD")
    assert code == 1
    assert "VAR=VAL" in out
    code, out = run(capsys, "build", VEHICLE, "--intervene", "U_O=1")
    assert code == 1


def test_causes_butfor(capsys):
    code, out = run(capsys, "causes", VEHICLE, "--outcome", "no_collision", "--agents-only", "--butfor")
    assert code == 0
    assert "cause {ODS=1}" in out
    assert "cause {DA=0}" in out
    assert "2 but-for cause(s)" in out


def test_causes_json(capsys):
    code, out = run(
        capsys, "causes", VEHICLE, "--outcome", "no_collision",
        "--agents-only", "--format", "json",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["causes"] == [
        {"cause": {"ODS": "1"}, "witness": {}, "alternative": {"ODS": "0"}, "butfor": True},
        {"cause": {"DA": "0"}, "witness": {}, "alternative": {"DA": "1"}, "butfor": True},
    ]


def test_causes_unknown_outcome(capsys):
    code, out = run(capsys, "causes", VEHICLE, "--outcome", "nope")
    assert code == 1
    assert "unknown outcome" in out


def test_causes_false_outcome(capsys):
    code, out = run(capsys, "causes", VEHICLE, "--outcome", "collision")
    assert code == 1
    assert "outcome is false" in out


def test_bridge_single_pair(capsys):
    code, out = run(
        capsys, "bridge", VEHICLE, "--outcome", "no_collision",
        "--cause", "DA=0", "--witness", "HD",
    )
    assert code == 0
    assert "2/2 verdicts agree" in out


def test_bridge_sweep_all_agree(capsys):
    code, out = run(capsys, "bridge", VEHICLE, "--outcome", "no_collision")
    assert code == 0
    last = out.strip().splitlines()[-1]
    total = int(last.split("/")[1].split()[0])
    assert last.startswith(f"{total}/{total} ")
    assert "DISAGREE" not in out


def test_bridge_rejects_non_actual_cause(capsys):
    code, out = run(
        capsys, "bridge", VEHICLE, "--outcome", "no_collision", "--cause", "DA=1"
    )
    assert code == 1
    assert "not the actual value" in out


def test_selftest_deterministic(capsys):
    code1, out1 = run(capsys, "selftest", "--models", "12", "--seed", "3")
    code2, out2 = run(capsys, "selftest", "--models", "12", "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "result: PASS" in out1


def test_selftest_json(capsys):
    code, out = run(capsys, "selftest", "--models", "5", "--seed", "1", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["ok"] is True
    assert payload["structures"] == 5


def test_usage_error_exits_2(capsys):
    assert main([]) == 2
    assert main(["causes", VEHICLE]) == 2  # --outcome required


@pytest.mark.parametrize("count", ["-3", "-1", "x", "2.5"])
def test_selftest_rejects_a_count_that_is_not_one(capsys, count):
    # a negative count once passed as a successful audit of nothing
    assert main(["selftest", "--models", count, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --models" in captured.err


def test_color_toggle(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CAUSAL_CGS_COLOR", "1")
    code, out = run(capsys, "validate", VEHICLE)
    assert code == 0
    assert "\x1b[32m" in out
    monkeypatch.setenv("CAUSAL_CGS_COLOR", "0")
    code, out = run(capsys, "validate", VEHICLE)
    assert "\x1b[" not in out


def test_model_without_agents_is_one_error(tmp_path, capsys):
    path = tmp_path / "no_agents.scm"
    path.write_text(
        "exogenous U in {0, 1}\n"
        "endogenous X in {0, 1}\n"
        "eq X := U\n"
        "outcome on : X\n"
        "context U = 1\n"
    )
    commands = (
        ["rank"],
        ["build"],
        ["bridge", "--outcome", "on"],
        ["bridge", "--outcome", "on", "--cause", "X=1", "--witness"],
    )
    for fmt, expected in (
        ("text", "error: no agent variables declared\n"),
        ("json", dumps({"error": "no agent variables declared"}) + "\n"),
    ):
        outputs = [run(capsys, argv[0], str(path), *argv[1:], "--format", fmt) for argv in commands]
        assert outputs == [(1, expected)] * len(commands)


def _deep_model(tmp_path, terms):
    chain = " & ".join(["A"] * terms)
    path = tmp_path / "deep.scm"
    path.write_text(
        "exogenous U in {0, 1}\n"
        "agent A in {0, 1}\n"
        "endogenous Out in {0, 1}\n"
        "eq A := U\n"
        f"eq Out := {chain}\n"
        "outcome hit : Out\n"
        "context U = 1\n"
    )
    return str(path)


MODEL_COMMANDS = (
    ["validate"],
    ["causes", "--outcome", "hit", "--agents-only"],
    ["build"],
    ["bridge", "--outcome", "hit"],
)


def test_deep_expression_is_answered(tmp_path, capsys):
    path = _deep_model(tmp_path, 500)
    for argv in MODEL_COMMANDS:
        code = main([argv[0], path, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 0, argv
        assert "Traceback" not in captured.out + captured.err


def test_too_deep_expression_is_a_clean_error(tmp_path, capsys):
    path = _deep_model(tmp_path, 2 * sys.getrecursionlimit())
    for argv in MODEL_COMMANDS:
        code = main([argv[0], path, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 1, argv
        assert "error: expression nested too deeply" in captured.out, argv
        assert "Traceback" not in captured.err
        code, out = run(capsys, argv[0], path, *argv[1:], "--format", "json")
        assert code == 1, argv
        assert json.loads(out) == {"error": "expression nested too deeply"}


def test_bridge_builds_no_model_per_play(capsys, monkeypatch):
    calls = {"intervened_model": 0, "validate_model": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for module in (builder, bridge):
        monkeypatch.setattr(
            module, "intervened_model", counted("intervened_model", module.intervened_model)
        )
    monkeypatch.setattr(
        builder, "validate_model", counted("validate_model", builder.validate_model)
    )
    monkeypatch.setattr(builder, "_CGS_CACHE", WeakKeyDictionary())  # no earlier builds
    code, out = run(capsys, "bridge", VEHICLE, "--outcome", "no_collision")
    assert code == 0
    assert out.strip().splitlines()[-1] == "171/171 verdicts agree"
    assert calls == {"intervened_model": 56, "validate_model": 1}
    assert sum(len(built) for built in builder._CGS_CACHE.values()) == 56


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
REPORTS = (
    ("vehicle_bridge", ["bridge", VEHICLE, "--outcome", "no_collision"]),
    ("vehicle_causes", ["causes", VEHICLE, "--outcome", "no_collision"]),
    ("vehicle_causes_agents_only", ["causes", VEHICLE, "--outcome", "no_collision", "--agents-only"]),
)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name, argv", REPORTS, ids=[name for name, _ in REPORTS])
def test_reports_match_golden_bytes(capsys, monkeypatch, name, argv, fmt):
    monkeypatch.delenv("CAUSAL_CGS_COLOR", raising=False)
    code, out = run(capsys, *argv, "--format", fmt)
    assert code == 0
    with open(os.path.join(GOLDEN, f"{name}.{'txt' if fmt == 'text' else 'json'}"), "rb") as handle:
        assert out.encode("utf-8") == handle.read()


def test_calls_in_one_process_share_no_options(capsys):
    assert cli._build_parser() is cli._build_parser()
    code, out = run(capsys, "build", VEHICLE, "--intervene", "HD=1", "--format", "json")
    assert code == 0 and json.loads(out)["origin"]["intervention"] == {"HD": "1"}
    code, out = run(capsys, "build", VEHICLE, "--format", "json")
    assert code == 0 and json.loads(out)["origin"]["intervention"] == {}
    assert len(json.loads(out)["states"]) == 13
    code, out = run(capsys, "bridge", VEHICLE, "--outcome", "no_collision", "--cause", "DA=0")
    assert code == 0 and out.strip().splitlines()[-1] == "36/36 verdicts agree"
    code, out = run(capsys, "bridge", VEHICLE, "--outcome", "no_collision")
    assert code == 0 and out.strip().splitlines()[-1] == "171/171 verdicts agree"


def _golden_bytes(name):
    with open(os.path.join(GOLDEN, name), "rb") as handle:
        return handle.read()


def test_no_report_or_export_runs_the_pure_python_encoder(capsys, monkeypatch, tmp_path):
    def tripwire(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", tripwire)
    monkeypatch.delenv("CAUSAL_CGS_COLOR", raising=False)
    dot, tree = tmp_path / "tree.dot", tmp_path / "tree.json"
    code, _ = run(capsys, "build", VEHICLE, "--json", str(tree), "--dot", str(dot))
    assert code == 0
    assert dot.read_bytes() == _golden_bytes("vehicle.dot")
    assert tree.read_bytes() == _golden_bytes("vehicle.json")
    reports = (
        (["build", VEHICLE], None),
        (["causes", VEHICLE, "--outcome", "no_collision"], "vehicle_causes.json"),
        (["bridge", VEHICLE, "--outcome", "no_collision"], "vehicle_bridge.json"),
        (["rank", VEHICLE], None),
        (["validate", VEHICLE], None),
        (["selftest", "--models", "5"], None),
    )
    for argv, golden in reports:
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 0, argv
        if golden is not None:
            assert out.encode("utf-8") == _golden_bytes(golden)


# One case per way a run can fail, each pinned byte for byte: text, JSON, and
# text with colour on. Every model file sits in the working directory, so the
# paths the messages name are relative.
FAILURES = (
    ("unreadable_file", ["validate", "missing.scm"]),
    ("parse_error", ["validate", "parse_error.scm"]),
    ("diagnostics", ["validate", "broken.scm"]),
    ("diagnostics_rank", ["rank", "broken.scm"]),
    ("no_agents", ["rank", "no_agents.scm"]),
    ("too_deep", ["validate", "deep.scm"]),
    ("no_context", ["causes", "no_context.scm", "--outcome", "no_collision"]),
    ("unwritable_dot", ["build", "vehicle.scm", "--dot", "missing/tree.dot"]),
    ("unwritable_json", ["build", "vehicle.scm", "--dot", "tree.dot", "--json", "missing/tree.json"]),
    ("bad_intervene", ["build", "vehicle.scm", "--intervene", "HD"]),
    ("unknown_outcome", ["causes", "vehicle.scm", "--outcome", "nope"]),
    ("false_outcome", ["causes", "vehicle.scm", "--outcome", "collision"]),
    ("non_actual_cause", ["bridge", "vehicle.scm", "--outcome", "no_collision", "--cause", "DA=1"]),
    ("unknown_cause", ["bridge", "vehicle.scm", "--outcome", "no_collision", "--cause", "Nope=1"]),
    ("unknown_witness", ["bridge", "vehicle.scm", "--outcome", "no_collision", "--witness", "HD", "Nope"]),
)


def _write_failure_models(directory):
    with open(VEHICLE, encoding="utf-8") as handle:
        vehicle = handle.read()
    files = {
        "vehicle.scm": vehicle,
        "no_context.scm": vehicle.replace("context U_O = 1, U_Att = 0\n", ""),
        "broken.scm": BROKEN,
        "parse_error.scm": "exogenous U in {0, 1}\nagent X in {0, 1}\neq X := U &\n",
        "no_agents.scm": "exogenous U in {0, 1}\nendogenous X in {0, 1}\neq X := U\n",
    }
    for name, text in files.items():
        (directory / name).write_text(text)
    _deep_model(directory, 2 * sys.getrecursionlimit())


@pytest.mark.parametrize("mode", ["text", "json", "color"])
@pytest.mark.parametrize("name, argv", FAILURES, ids=[name for name, _ in FAILURES])
def test_failure_reports_match_golden_bytes(tmp_path, capsys, monkeypatch, name, argv, mode):
    _write_failure_models(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CAUSAL_CGS_COLOR", "1" if mode == "color" else "0")
    code, out = run(capsys, *argv, "--format", "json" if mode == "json" else "text")
    golden = _golden_bytes(os.path.join("failures", f"{name}.{mode}"))
    assert f"exit {code}\n{out}".encode("utf-8") == golden


@pytest.mark.parametrize(
    "argv, code",
    [(["validate", VEHICLE], 0), (["validate", "missing.scm"], 1)],
    ids=["success", "failure"],
)
def test_console_entry_point(tmp_path, argv, code):
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "causalcgs", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (code, "")
    assert done.stdout
