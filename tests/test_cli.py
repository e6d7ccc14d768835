import copy
import io
import json
import sys
from collections import Counter
from fractions import Fraction

import pytest

from gaql import cli
from gaql.cli import main

PUNCTURED_MAP = "1+x*z,y+z+x*y*z"
BILINEAR_MAP = "x,y,x*u+y*v"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    return code, records, captured.err


def record_payloads(records):
    return [r.get("payload") for r in records]


def test_ring_subcommand(capsys):
    code, records, _ = run_cli(capsys, ["ring", "--ring", "x,y,z"])
    assert code == 0
    assert records[0]["status"] == "ok"
    assert records[0]["payload"] == {"variables": ["x", "y", "z"], "arity": 3}
    assert "timing" in records[0]


def test_poly_canonical(capsys):
    code, records, _ = run_cli(
        capsys, ["poly", "--ring", "x,y", "--expr", "y*x + x^2 - y^2 + 1"]
    )
    assert code == 0
    assert records[0]["payload"]["canonical"] == "x^2 + x*y - y^2 + 1"


def test_apply_subcommand(capsys):
    code, records, _ = run_cli(
        capsys,
        ["apply", "--ring", "x,y,z", "--derivation", "0,x,y", "--poly", "z", "--k", "2"],
    )
    assert code == 0
    assert records[0]["payload"]["result"] == "x"


def test_nilpotency_subcommand(capsys):
    code, records, _ = run_cli(
        capsys, ["nilpotency", "--ring", "x,y,z", "--derivation", "1,0,0"]
    )
    assert code == 0
    payload = records[0]["payload"]
    assert payload["status"] == "certified"
    assert payload["orders"] == [2, 1, 1]
    assert payload["bound"] == 64
    # x, y, z die after 1, 2, 3 steps: order 3 is past the line's bound 2
    code, records, _ = run_cli(
        capsys, ["nilpotency", "--ring", "x,y,z", "--derivation", "0,x,y", "--bound", "2"]
    )
    assert (records[0]["payload"]["status"], records[0]["payload"]["bound"]) == ("inconclusive", 2)


def test_exp_subcommand(capsys):
    code, records, _ = run_cli(
        capsys,
        ["exp", "--ring", "x1,x2,x3", "--derivation", "1,0,0", "--bound", "64"],
    )
    assert code == 0
    payload = records[0]["payload"]
    assert payload["components"] == ["x1 + t", "x2", "x3"]
    assert payload["parameter"] == "t"


def test_exp_uncertified_is_command_error(capsys):
    code, records, _ = run_cli(
        capsys, ["exp", "--ring", "x", "--derivation", "x", "--bound", "10"]
    )
    assert code == 1
    assert records[0]["status"] == "error"
    assert records[0]["error"]["code"] == "not-certified"


def test_invariant_subcommand(capsys):
    code, records, _ = run_cli(
        capsys,
        [
            "invariant",
            "--ring",
            "x,y,u,v",
            "--derivation",
            "0,0,y,0-x",
            "--poly",
            "x*u+y*v",
        ],
    )
    assert code == 0
    assert records[0]["payload"] == {"invariant": True, "t_degree": 0}


def test_jacobian_derivation_subcommand(capsys):
    code, records, _ = run_cli(
        capsys,
        ["jacobian-derivation", "--ring", "x,y,u,v", "--map", BILINEAR_MAP],
    )
    assert code == 0
    assert records[0]["payload"]["images"] == ["0", "0", "y", "-x"]


def test_fiber_subcommand(capsys):
    code, records, _ = run_cli(
        capsys,
        ["fiber", "--ring", "x,y,z", "--map", PUNCTURED_MAP, "--point", "0,0"],
    )
    assert code == 0
    payload = records[0]["payload"]
    assert payload["empty"] is True
    assert payload["basis"] == ["1"]


def test_singular_locus_subcommand(capsys):
    code, records, _ = run_cli(
        capsys, ["singular-locus", "--ring", "x,y,z", "--map", PUNCTURED_MAP]
    )
    assert code == 0
    payload = records[0]["payload"]
    assert payload["basis"] == ["x", "z"]
    assert payload["codimension"] == 2
    assert payload["nonsingular_in_codim_1"] is True


def test_scan_subcommand_points(capsys):
    code, records, _ = run_cli(
        capsys,
        [
            "scan",
            "--ring",
            "x,y,u,v",
            "--map",
            BILINEAR_MAP,
            "--points",
            "0,0,1;1,2,3;0,0,0",
        ],
    )
    assert code == 0
    payload = records[0]["payload"]
    assert payload["probed"] == 3
    assert [e["point"] for e in payload["empty"]] == [["0", "0", "1"]]


def test_scan_subcommand_box(capsys):
    code, records, _ = run_cli(
        capsys,
        [
            "scan",
            "--ring",
            "x,y,z",
            "--map",
            "x,2*x*z-y^2",
            "--box=-2:2,-2:2",
            "--steps",
            "5",
        ],
    )
    assert code == 0
    payload = records[0]["payload"]
    assert payload["probed"] == 25
    assert payload["empty"] == []


def test_slice_subcommand(capsys):
    code, records, _ = run_cli(
        capsys, ["slice", "--ring", "x,y,z", "--derivation", "0,x,y"]
    )
    assert code == 0
    assert records[0]["payload"] == {"found": True, "f": "y", "c": "x"}


def test_localization_subcommand(capsys):
    code, records, _ = run_cli(
        capsys,
        [
            "localization",
            "--ring",
            "x,y,z",
            "--derivation",
            "0,x,y",
            "--map",
            "x,2*x*z-y^2",
            "--poly",
            "z",
        ],
    )
    assert code == 0
    payload = records[0]["payload"]
    assert payload["found"] is True
    assert payload["f"] == "y"
    assert payload["c"] == "x"
    assert payload["P"] == "t1"
    assert payload["k"] == 1
    assert payload["T"] == "1/2*s^2 + 1/2*t2"
    assert payload["tags"] == ["s", "t1", "t2"]


@pytest.mark.parametrize(
    "derivation, map, extra, want",
    [
        # a rotation has no local slice
        ("y,-x,0", "z,x^2+y^2", [], {"found": False}),
        # the slice coefficient x is not a polynomial in x^2 and 2*x*z - y^2
        ("0,x,y", "x^2,2*x*z-y^2", [],
         {"found": True, "f": "y", "c": "x", "P": None, "k": None, "T": None}),
        # x * z needs k = 1, past the bound
        ("0,x,y", "x,2*x*z-y^2", ["--power-bound", "0"],
         {"found": True, "f": "y", "c": "x", "P": "t1", "k": None, "T": None}),
    ],
    ids=["no-slice", "no-P", "no-k"],
)
def test_localization_subcommand_short_answers(capsys, derivation, map, extra, want):
    argv = ["localization", "--ring", "x,y,z", "--derivation", derivation, "--map", map, "--poly", "z"]
    code, records, _ = run_cli(capsys, argv + extra)
    assert code == 0
    assert records[0]["payload"] == want


def test_subalgebra_subcommand(capsys):
    code, records, _ = run_cli(
        capsys,
        [
            "subalgebra",
            "--ring",
            "x,y,u,v",
            "--map",
            BILINEAR_MAP,
            "--poly",
            "x^2*u + x*y*v",
        ],
    )
    assert code == 0
    payload = records[0]["payload"]
    assert payload["member"] is True
    assert payload["witness"] == "t1*t3"

    code, records, _ = run_cli(
        capsys,
        ["subalgebra", "--ring", "x,y,u,v", "--map", BILINEAR_MAP, "--poly", "u"],
    )
    assert code == 0
    assert records[0]["payload"]["member"] is False
    assert records[0]["payload"]["witness"] is None


def test_fixed_locus_subcommand(capsys):
    code, records, _ = run_cli(
        capsys, ["fixed-locus", "--ring", "x,y,u,v", "--derivation", "0,0,y,0-x"]
    )
    assert code == 0
    payload = records[0]["payload"]
    assert payload["dimension"] == 2
    assert payload["fixed_point_free"] is False


def test_act_subcommand(capsys):
    code, records, _ = run_cli(
        capsys,
        ["act", "--ring", "x,y,z", "--derivation", "0,x,y", "--poly", "z"],
    )
    assert code == 0
    assert records[0]["payload"]["result"] == "1/2*x*t^2 + y*t + z"


def test_order_flag_on_fiber(capsys):
    code, records, _ = run_cli(
        capsys,
        [
            "fiber",
            "--ring",
            "x,y,z",
            "--map",
            PUNCTURED_MAP,
            "--point",
            "1,1",
            "--order",
            "lex",
        ],
    )
    assert code == 0
    payload = records[0]["payload"]
    assert records[0]["command"]["order"] == "lex"
    assert payload["empty"] is False
    assert payload["dimension"] == 1


def test_parse_error_exits_2(capsys):
    code, records, err = run_cli(
        capsys, ["poly", "--ring", "x,y", "--expr", "x +"]
    )
    assert code == 2
    assert records == []
    assert "gaql:" in err


def test_unknown_variable_exits_2(capsys):
    code, _, err = run_cli(capsys, ["poly", "--ring", "x,y", "--expr", "x + q"])
    assert code == 2
    assert "q" in err


def test_task_file_run(tmp_path, capsys):
    task = tmp_path / "task.jsonl"
    lines = [
        {"ring": ["x", "y", "u", "v"]},
        {"poly": {"name": "h", "expr": "x*u + y*v"}},
        {"map": {"name": "F", "components": ["x", "y", "h"]}},
        {"derivation": {"name": "D", "images": ["0", "0", "y", "0 - x"]}},
        {"action": {"name": "A", "derivation": "D"}},
        {"command": {"cmd": "exp", "derivation": "D"}},
        {"command": {"cmd": "invariant", "action": "A", "poly": "h"}},
        {"command": {"cmd": "fiber", "map": "F", "point": ["0", "0", "1"]}},
        {"command": {"cmd": "jacobian-derivation", "map": "F"}},
    ]
    task.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")
    code, records, _ = run_cli(capsys, ["run", str(task)])
    assert code == 0
    assert len(records) == 4
    assert records[0]["payload"]["components"] == ["x", "y", "y*t + u", "-x*t + v"]
    assert records[1]["payload"]["invariant"] is True
    assert records[2]["payload"]["empty"] is True
    assert records[3]["payload"]["images"] == ["0", "0", "y", "-x"]


def test_task_localization_with_a_ring_variable_named_s(tmp_path, capsys):
    task = tmp_path / "task.jsonl"
    lines = [
        {"ring": ["x", "y", "s"]},
        {"map": {"name": "F", "components": ["x", "2*x*s - y^2"]}},
        {"derivation": {"name": "D", "images": ["0", "x", "y"]}},
        {"command": {"cmd": "localization", "derivation": "D", "map": "F", "poly": "s"}},
    ]
    task.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")
    code, records, _ = run_cli(capsys, ["run", str(task)])
    assert code == 0
    payload = records[0]["payload"]
    assert payload["k"] == 1
    assert payload["T"] == "1/2*s_^2 + 1/2*t2"
    assert payload["tags"] == ["s_", "t1", "t2"]


def test_task_default_target_names_avoid_ring_variables(tmp_path, capsys):
    task = tmp_path / "task.jsonl"
    lines = [
        {"ring": ["x", "y", "t1"]},
        {"map": {"name": "S", "components": ["x", "2*x*t1 - y^2"]}},
        {"derivation": {"name": "D", "images": ["0", "x", "y"]}},
        {"command": {"cmd": "subalgebra", "map": "S", "poly": "x^2"}},
        {"command": {"cmd": "localization", "derivation": "D", "map": "S", "poly": "t1"}},
    ]
    task.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")
    code, records, _ = run_cli(capsys, ["run", str(task)])
    assert code == 0
    member, local = (r["payload"] for r in records)
    assert member == {"member": True, "witness": "t1_^2", "tags": ["t1_", "t2"]}
    assert local["k"] == 1
    assert local["T"] == "1/2*s^2 + 1/2*t2"
    assert local["tags"] == ["s", "t1_", "t2"]


def test_task_number_literals_are_exact(capsys):
    text = "\n".join(
        [
            '{"ring": ["x", "y", "z"]}',
            '{"map": {"name": "F", "components": ["x", "y"]}}',
            '{"command": {"cmd": "fiber", "map": "F", "point": [12345678901234567891.0, 0.1]}}',
            '{"command": {"cmd": "fiber", "map": "F", "point": [1e-400, 2]}}',
        ]
    )
    code, records, _ = run_cli_text(capsys, text)
    assert code == 0
    assert records[0]["command"]["point"] == ["12345678901234567891", "1/10"]
    assert records[0]["payload"]["basis"] == ["x - 12345678901234567891", "y - 1/10"]
    assert records[1]["command"]["point"] == ["1/1" + "0" * 400, "2"]

    # a float is still no integer, name or expression
    for bad in ('"steps": 2.0, "box": [[0, 1], [0, 1]]', '"points": [[0, 1]], "order": 1.0'):
        line = '{"command": {"cmd": "scan", "map": "F", %s}}' % bad
        code, records, _ = run_cli_text(capsys, text + "\n" + line)
        assert code == 2 and records == []


def test_task_undeclared_name_is_load_error(tmp_path, capsys):
    task = tmp_path / "task.jsonl"
    task.write_text(json.dumps({"ring": ["x"]}) + "\n" +
                    json.dumps({"command": {"cmd": "apply", "derivation": "D", "poly": "x"}}) + "\n")
    code, records, err = run_cli(capsys, ["run", str(task)])
    assert code == 2
    assert records == []
    assert "unknown derivation" in err


def test_task_declaration_must_precede_use(tmp_path, capsys):
    task = tmp_path / "task.jsonl"
    lines = [
        {"ring": ["x"]},
        {"command": {"cmd": "poly", "poly": "p"}},
        {"poly": {"name": "p", "expr": "x"}},
    ]
    task.write_text("\n".join(json.dumps(o) for o in lines) + "\n")
    code, _, err = run_cli(capsys, ["run", str(task)])
    assert code == 2
    assert "line 2" in err


def test_task_bad_json_reports_line(tmp_path, capsys):
    task = tmp_path / "task.jsonl"
    task.write_text('{"ring": ["x"]}\n{nope}\n')
    code, _, err = run_cli(capsys, ["run", str(task)])
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize(
    "line, unknown",
    [
        ({"map": {"name": "M", "components": ["x", "y"], "tgt": ["u", "v"]}}, "['tgt']"),
        ({"action": {"name": "A", "derivation": "D", "bond": 2}}, "['bond']"),
    ],
    ids=["map", "action"],
)
def test_task_declaration_unknown_key_is_load_error(capsys, line, unknown):
    lines = [{"ring": ["x", "y", "z"]}, derivation_d("0", "x", "y"), line]
    code, records, err = run_cli_text(capsys, "\n".join(json.dumps(o) for o in lines))
    assert code == 2
    assert records == []
    assert f"line 3: {next(iter(line))} declaration does not take {unknown}" in err


def test_task_scan_refuses_steps_with_points(capsys):
    lines = [
        {"ring": ["x", "y", "z"]},
        {"map": {"name": "P", "components": ["1+x*z", "y+z+x*y*z"]}},
        command(cmd="scan", map="P", points=[[0, 0]], steps=5),
    ]
    code, records, err = run_cli_text(capsys, "\n".join(json.dumps(o) for o in lines))
    assert code == 2
    assert records == []
    assert "line 3: steps applies only to a box" in err


def test_task_stream_continues_after_command_error(capsys):
    good = [
        {"ring": ["x", "y", "z"]},
        {"map": {"name": "F", "components": ["x", "y"]}},
        {"command": {"cmd": "singular-locus", "map": "F"}},
        {"command": {"cmd": "fiber", "map": "F", "point": ["1", "1"]}},
    ]
    code, records, _ = run_cli_text(capsys, "\n".join(json.dumps(o) for o in good))
    assert code == 0 and len(records) == 2

    # a one-component map in three variables fails the singular-locus shape
    # check at run time, but the following command still executes
    bad = [
        {"ring": ["x", "y", "z"]},
        {"map": {"name": "G", "components": ["x"]}},
        {"command": {"cmd": "singular-locus", "map": "G"}},
        {"command": {"cmd": "fiber", "map": "G", "point": ["1"]}},
    ]
    code, records, _ = run_cli_text(capsys, "\n".join(json.dumps(o) for o in bad))
    assert code == 1
    assert records[0]["status"] == "error"
    assert records[0]["error"]["code"] == "invalid-argument"
    assert records[1]["status"] == "ok"


def test_task_act_after_a_failed_action_declaration_one_step_at_a_time():
    """Steps run one at a time, so a failed declaration cannot end the run:
    a later command that names the action gets an error record."""
    lines = [
        {"ring": ["x"]},
        {"derivation": {"name": "D", "images": ["x"]}},
        {"action": {"name": "A", "derivation": "D", "bound": 3}},
        {"command": {"cmd": "act", "action": "A", "poly": "x"}},
        {"command": {"cmd": "poly", "poly": "x"}},
    ]
    state, steps = cli.load_task(cli.parse_task_text("\n".join(json.dumps(o) for o in lines)))
    out = io.StringIO()
    assert [cli.run_steps(state, [step], out) for step in steps] == [1, 1, 0]
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [r["status"] for r in records] == ["error", "error", "ok"]
    assert records[0]["error"]["code"] == "not-certified"
    assert records[1]["command"]["cmd"] == "act"
    assert records[1]["error"] == {"code": "invalid-argument", "message": "'A'"}


def run_cli_text(capsys, text):
    import io
    import sys

    old = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        return run_cli(capsys, ["run", "-"])
    finally:
        sys.stdin = old


def test_determinism_excluding_timing(tmp_path, capsys):
    lines = [
        {"ring": ["x", "y", "u", "v"]},
        {"map": {"name": "F", "components": ["x", "y", "x*u+y*v"]}},
        {"derivation": {"name": "D", "images": ["0", "0", "y", "0-x"]}},
        {"command": {"cmd": "exp", "derivation": "D"}},
        {"command": {"cmd": "singular-locus", "map": "F"}},
        {"command": {"cmd": "scan", "map": "F", "box": [["-1", "1"], ["-1", "1"], ["-1", "1"]], "steps": 3}},
        {"command": {"cmd": "localization", "derivation": "D", "map": "F", "poly": "v"}},
    ]
    task = tmp_path / "task.jsonl"
    task.write_text("\n".join(json.dumps(o) for o in lines) + "\n")

    def strip_timing(records):
        out = []
        for r in records:
            r = dict(r)
            r.pop("timing")
            out.append(json.dumps(r, sort_keys=True))
        return out

    code1, records1, _ = run_cli(capsys, ["run", str(task)])
    code2, records2, _ = run_cli(capsys, ["run", str(task)])
    assert code1 == code2 == 0
    assert strip_timing(records1) == strip_timing(records2)


def test_exp_reads_no_environment(capsys, monkeypatch):
    # a variable that once set the default bound leaves the record as it is
    monkeypatch.setenv("GAQL_DEFAULT_BOUND", "2")
    code, records, _ = run_cli(capsys, ["exp", "--ring", "x,y,z", "--derivation", "0,x,y"])
    assert code == 0
    assert records[0]["status"] == "ok"
    assert records[0]["payload"]["orders"] == [1, 2, 3]


def test_a_parsed_task_loads_twice_alike():
    """load_task writes the resolved rationals into each step's echo, not
    into the parsed lines, so one parse_task_text result loads again to
    equal steps, which print the same records."""
    lines = [
        {"ring": ["x", "y", "z"]},
        {"map": {"name": "F", "components": ["1+x*z", "y+z+x*y*z"]}},
        {"derivation": {"name": "D", "images": ["0", "x", "y"]}},
        {"action": {"name": "A", "derivation": "D", "bound": 3}},
        {"command": {"cmd": "fiber", "map": "F", "point": ["1", "-0.3"]}},
        {"command": {"cmd": "scan", "map": "F", "points": [["0", "0"], ["1", "2/4"]]}},
        {"command": {"cmd": "scan", "map": "F", "box": [["-1", "1"], ["0", "1"]], "steps": 2}},
        {"command": {"cmd": "act", "action": "A", "poly": "x*z"}},
    ]
    objects = cli.parse_task_text("\n".join(json.dumps(o) for o in lines))
    parsed = copy.deepcopy(objects)
    first = cli.load_task(objects)
    assert objects == parsed
    second = cli.load_task(objects)
    assert first[1] == second[1]
    records = []
    for state, steps in (first, second):
        out = io.StringIO()
        assert cli.run_steps(state, steps, out) == 0
        records.append([{k: v for k, v in json.loads(line).items() if k != "timing"}
                        for line in out.getvalue().splitlines()])
    assert records[0] == records[1]
    # the echo shows each rational as resolved
    assert records[0][0]["command"]["point"] == ["1", "-3/10"]
    assert records[0][1]["command"]["points"] == [["0", "0"], ["1", "1/2"]]


def test_usage_error_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fiber", "--ring", "x,y"])  # missing --map/--point
    assert exc.value.code == 2


def test_each_inline_command_polynomial_is_parsed_once(monkeypatch):
    parsed = Counter()
    parse = cli.parse_polynomial

    def counting_parse(src, ring):
        parsed[src] += 1
        return parse(src, ring)

    monkeypatch.setattr(cli, "parse_polynomial", counting_parse)
    inline = ["u^2", "u*v + 1", "x*u+y*v", "v", "x^2*u + x*y*v", "y^3 - x"]
    lines = [
        {"ring": ["x", "y", "u", "v"]},
        {"map": {"name": "F", "components": ["x", "y", "x*u + y*v"]}},
        {"derivation": {"name": "D", "images": ["0", "0", "y", "0-x"]}},
        {"action": {"name": "A", "derivation": "D"}},
        {"command": {"cmd": "act", "action": "A", "poly": inline[0]}},
        {"command": {"cmd": "invariant", "derivation": "D", "poly": inline[1]}},
        {"command": {"cmd": "apply", "derivation": "D", "poly": inline[2]}},
        {"command": {"cmd": "localization", "derivation": "D", "map": "F", "poly": inline[3]}},
        {"command": {"cmd": "subalgebra", "map": "F", "poly": inline[4]}},
        {"command": {"cmd": "poly", "poly": inline[5]}},
    ]
    state, steps = cli.load_task(cli.parse_task_text("\n".join(json.dumps(o) for o in lines)))
    assert cli.run_steps(state, steps, io.StringIO()) == 0
    assert {src: parsed[src] for src in inline} == {src: 1 for src in inline}


RING3 = {"ring": ["x", "y", "z"]}
RING4 = {"ring": ["x", "y", "u", "v"]}
PUNCTURED_F = {"map": {"name": "F", "components": ["1+x*z", "y+z+x*y*z"]}}
BILINEAR_F = {"map": {"name": "F", "components": ["x", "y", "x*u+y*v"]}}


def derivation_d(*images):
    return {"derivation": {"name": "D", "images": list(images)}}


def command(**params):
    return {"command": params}


# Each subcommand invocation of the tests above, with the task file it stands for.
SUBCOMMAND_TASKS = [
    (["ring", "--ring", "x,y,z"], [RING3, command(cmd="ring")]),
    (
        ["poly", "--ring", "x,y", "--expr", "y*x + x^2 - y^2 + 1"],
        [{"ring": ["x", "y"]}, command(cmd="poly", poly="y*x + x^2 - y^2 + 1")],
    ),
    (
        ["apply", "--ring", "x,y,z", "--derivation", "0,x,y", "--poly", "z", "--k", "2"],
        [RING3, derivation_d("0", "x", "y"), command(cmd="apply", derivation="D", poly="z", k=2)],
    ),
    (
        ["nilpotency", "--ring", "x,y,z", "--derivation", "1,0,0"],
        [RING3, derivation_d("1", "0", "0"), command(cmd="nilpotency", derivation="D")],
    ),
    (
        ["exp", "--ring", "x1,x2,x3", "--derivation", "1,0,0", "--bound", "64"],
        [
            {"ring": ["x1", "x2", "x3"]},
            derivation_d("1", "0", "0"),
            command(cmd="exp", derivation="D", bound=64),
        ],
    ),
    (
        ["exp", "--ring", "x", "--derivation", "x", "--bound", "10"],
        [{"ring": ["x"]}, derivation_d("x"), command(cmd="exp", derivation="D", bound=10)],
    ),
    (
        ["invariant", "--ring", "x,y,u,v", "--derivation", "0,0,y,0-x", "--poly", "x*u+y*v"],
        [
            RING4,
            derivation_d("0", "0", "y", "0-x"),
            command(cmd="invariant", derivation="D", poly="x*u+y*v"),
        ],
    ),
    (
        ["jacobian-derivation", "--ring", "x,y,u,v", "--map", BILINEAR_MAP],
        [RING4, BILINEAR_F, command(cmd="jacobian-derivation", map="F")],
    ),
    (
        ["fiber", "--ring", "x,y,z", "--map", PUNCTURED_MAP, "--point", "0,0"],
        [RING3, PUNCTURED_F, command(cmd="fiber", map="F", point=["0", "0"])],
    ),
    (
        ["singular-locus", "--ring", "x,y,z", "--map", PUNCTURED_MAP],
        [RING3, PUNCTURED_F, command(cmd="singular-locus", map="F")],
    ),
    (
        ["scan", "--ring", "x,y,u,v", "--map", BILINEAR_MAP, "--points", "0,0,1;1,2,3;0,0,0"],
        [
            RING4,
            BILINEAR_F,
            command(cmd="scan", map="F", points=[["0", "0", "1"], ["1", "2", "3"], ["0", "0", "0"]]),
        ],
    ),
    (
        ["scan", "--ring", "x,y,z", "--map", "x,2*x*z-y^2", "--box=-2:2,-2:2", "--steps", "5"],
        [
            RING3,
            {"map": {"name": "F", "components": ["x", "2*x*z-y^2"]}},
            command(cmd="scan", map="F", box=[["-2", "2"], ["-2", "2"]], steps=5),
        ],
    ),
    (
        ["slice", "--ring", "x,y,z", "--derivation", "0,x,y"],
        [RING3, derivation_d("0", "x", "y"), command(cmd="slice", derivation="D")],
    ),
    (
        [
            "localization", "--ring", "x,y,z", "--derivation", "0,x,y",
            "--map", "x,2*x*z-y^2", "--poly", "z",
        ],
        [
            RING3,
            derivation_d("0", "x", "y"),
            {"map": {"name": "F", "components": ["x", "2*x*z-y^2"]}},
            command(cmd="localization", derivation="D", map="F", poly="z"),
        ],
    ),
    (
        ["subalgebra", "--ring", "x,y,u,v", "--map", BILINEAR_MAP, "--poly", "x^2*u + x*y*v"],
        [RING4, BILINEAR_F, command(cmd="subalgebra", map="F", poly="x^2*u + x*y*v")],
    ),
    (
        ["subalgebra", "--ring", "x,y,u,v", "--map", BILINEAR_MAP, "--poly", "u"],
        [RING4, BILINEAR_F, command(cmd="subalgebra", map="F", poly="u")],
    ),
    (
        ["fixed-locus", "--ring", "x,y,u,v", "--derivation", "0,0,y,0-x"],
        [RING4, derivation_d("0", "0", "y", "0-x"), command(cmd="fixed-locus", derivation="D")],
    ),
    (
        ["act", "--ring", "x,y,z", "--derivation", "0,x,y", "--poly", "z"],
        [RING3, derivation_d("0", "x", "y"), command(cmd="act", derivation="D", poly="z")],
    ),
    (
        ["fiber", "--ring", "x,y,z", "--map", PUNCTURED_MAP, "--point", "1,1", "--order", "lex"],
        [RING3, PUNCTURED_F, command(cmd="fiber", map="F", point=["1", "1"], order="lex")],
    ),
]


def without_timing(records):
    return [json.dumps({k: v for k, v in r.items() if k != "timing"}, sort_keys=True) for r in records]


@pytest.mark.parametrize(
    "argv, lines",
    SUBCOMMAND_TASKS,
    ids=[f"{i}-{argv[0]}" for i, (argv, _) in enumerate(SUBCOMMAND_TASKS)],
)
@pytest.mark.parametrize("one_at_a_time", [False, True], ids=["all-steps", "step-by-step"])
def test_subcommand_matches_its_task_file(capsys, argv, lines, one_at_a_time):
    code, records, _ = run_cli(capsys, argv)
    assert records
    state, steps = cli.load_task(cli.parse_task_text("\n".join(json.dumps(o) for o in lines)))
    out = io.StringIO()
    batches = [[step] for step in steps] if one_at_a_time else [steps]
    codes = [cli.run_steps(state, batch, out) for batch in batches]
    assert max(codes) == code
    assert without_timing(json.loads(line) for line in out.getvalue().splitlines()) == without_timing(records)


def test_task_huge_decimal_exponent_is_load_error_not_hang(tmp_path):
    # Fraction("1e100000000") alone runs for minutes; the exponent is refused first
    import os
    import subprocess
    import sys

    import gaql

    lines = [
        '{"ring": ["x", "y", "z"]}',
        '{"map": {"name": "F", "components": ["x", "y"]}}',
        '{"command": {"cmd": "fiber", "map": "F", "point": ["1e100000000", 0]}}',
        '{"command": {"cmd": "fiber", "map": "F", "point": [1E+100000000, 0]}}',
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(gaql.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for bad in (2, 3):
        task = tmp_path / f"task{bad}.jsonl"
        task.write_text("\n".join(lines[:2] + [lines[bad]]) + "\n")
        done = subprocess.run(
            [sys.executable, "-m", "gaql.cli", "run", str(task)],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("gaql: line 3: decimal exponent in ")
        assert done.stderr.rstrip().endswith(" exceeds 4300 in magnitude")


@pytest.mark.parametrize(
    "text, value",
    [("1e4300", 10**4300), ("-2.5E-4_300", Fraction(-25, 10**4301)), ("1e4301", None), ("7e-000004301", None)],
    ids=["1e4300", "-2.5E-4_300", "1e4301", "7e-000004301"],
)
def test_decimal_exponent_bound(text, value):
    if value is None:
        with pytest.raises(cli.TaskLoadError, match="exceeds 4300"):
            cli._decimal(text)
    else:
        assert cli._decimal(text) == value


def test_task_rationals_group_digits_on_every_python(capsys):
    lines = [
        '{"ring": ["x", "y", "z"]}',
        '{"map": {"name": "F", "components": ["x", "y"]}}',
        '{"command": {"cmd": "fiber", "map": "F", "point": ["1_000", "-1_0/4"]}}',
    ]
    code, records, _ = run_cli_text(capsys, "\n".join(lines))
    assert code == 0 and records[0]["command"]["point"] == ["1000", "-5/2"]
    for bad in ("1__0", "_1", "1_"):
        code, records, err = run_cli_text(capsys, "\n".join(lines[:2] + [lines[2].replace("1_000", bad)]))
        assert code == 2 and records == []
        assert err.startswith(f"gaql: line 3: malformed rational in point: {bad!r}")


_INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _INT_DIGIT_LIMIT, reason="no limit on integer string conversion")
def test_task_integer_past_the_digit_limit_is_load_error(capsys):
    digits = "7" * (_INT_DIGIT_LIMIT + 700)
    lines = [
        '{"ring": ["x", "y", "z"]}',
        '{"map": {"name": "F", "components": ["x", "y"]}}',
        '{"command": {"cmd": "fiber", "map": "F", "point": [%s, 0]}}' % digits,
    ]
    code, records, err = run_cli_text(capsys, "\n".join(lines))
    assert code == 2 and records == []
    assert err.startswith("gaql: line 3: Exceeds the limit")


@pytest.mark.skipif(not _INT_DIGIT_LIMIT, reason="no limit on integer string conversion")
def test_expression_number_past_the_digit_limit_is_load_error(capsys):
    digits = "9" * (_INT_DIGIT_LIMIT + 700)
    lines = ['{"ring": ["x", "y"]}', '{"command": {"cmd": "poly", "poly": "x + %s"}}' % digits]
    code, records, err = run_cli_text(capsys, "\n".join(lines))
    assert code == 2 and records == []
    assert err.startswith("gaql: line 2: in 'x + 999")
    assert err.rstrip().endswith(f": a number of more than {_INT_DIGIT_LIMIT} digits (line 1, column 5)")


@pytest.mark.skipif(not _INT_DIGIT_LIMIT, reason="no limit on integer string conversion")
def test_result_past_the_digit_limit_is_an_error_record_and_the_stream_continues(capsys):
    code, records, _ = run_cli(capsys, ["poly", "--ring", "x", "--expr", "10000000000^500*x"])
    assert code == 1 and len(records) == 1
    assert records[0]["status"] == "error"
    assert records[0]["error"] == {
        "code": "output-too-large",
        "message": f"the record holds a number of more than {_INT_DIGIT_LIMIT} digits",
    }
    assert records[0]["command"] == {"cmd": "poly", "poly": "10000000000^500*x"}
    lines = [
        '{"ring": ["x", "y"]}',
        '{"map": {"name": "F", "components": ["x", "y"]}}',
        '{"command": {"cmd": "poly", "poly": "x"}}',
        '{"command": {"cmd": "poly", "poly": "10000000000^500*x"}}',
        '{"command": {"cmd": "fiber", "map": "F", "point": ["1e4300", "1"]}}',
        '{"command": {"cmd": "poly", "poly": "y"}}',
    ]
    code, records, _ = run_cli_text(capsys, "\n".join(lines))
    assert code == 1
    assert [r["status"] for r in records] == ["ok", "error", "error", "ok"]
    assert [r.get("error", {}).get("code") for r in records[1:3]] == ["output-too-large"] * 2
    # the echo holds the point as resolved: 10^4300, all 4301 digits of it
    assert records[2]["command"]["point"] == ["1" + "0" * 4300, "1"]
    assert records[3]["payload"] == {"canonical": "y"}


def test_echo_digits_match_str():
    # every n here is below the conversion limit, so str(n) is the reference
    for n in (0, 7, -7, 10**999, 10**1000 - 1, 10**1000, -(10**1000), 10**2500 + 12345, 3**9000, -(3**9000)):
        assert cli._digits(n) == str(n)
    assert cli._echo_value(Fraction(-(10**5000), 3)) == "-1" + "0" * 5000 + "/3"


@pytest.mark.parametrize("depth", [300, 10_000])
def test_deep_parentheses_are_a_positioned_load_error(tmp_path, depth):
    import os
    import subprocess

    import gaql

    expr = "(" * depth + "x" + ")" * depth
    src = os.path.dirname(os.path.dirname(os.path.abspath(gaql.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    task = tmp_path / "task.jsonl"
    task.write_text('{"ring": ["x", "y"]}\n{"poly": {"name": "p", "expr": "y"}}\n'
                    + json.dumps({"command": {"cmd": "poly", "poly": expr}}) + "\n")
    deep = "parentheses nested more than 100 deep (line 1, column 101)"
    # the --expr message has the form of any other parse error's, such as ((x's
    for argv, prefix, suffix in (
        (["run", str(task)], f"gaql: line 3: in {expr!r}: ", deep),
        (["poly", "--ring", "x,y", "--expr", expr], f"gaql: in {expr!r}: ", deep),
        (["poly", "--ring", "x,y", "--expr", "((x"], "gaql: in '((x': ", "expected ')', found 'end of input' (line 1, column 4)"),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "gaql.cli", *argv], capture_output=True, text=True, timeout=30, env=env
        )
        assert done.returncode == 2 and done.stdout == ""
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(prefix) and done.stderr.rstrip().endswith(suffix)


def test_command_params_match_the_handler_signatures():
    """`_Command` reads a handler's parameters off its code object; they are
    the ones inspect.signature gives: the state, then keys of `_PARAMS`."""
    import inspect

    for name, spec in cli._COMMANDS.items():
        params = inspect.signature(spec.handler).parameters
        assert list(params)[0] == "state" and set(list(params)[1:]) == set(spec.params), name
        assert spec.params == tuple(key for key in cli._PARAMS if key in params), name
        required = {key for key in spec.params if params[key].default is params[key].empty}
        assert spec.required == required, name
