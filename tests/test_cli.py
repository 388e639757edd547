import json
import math

import pytest

from rmfmoments import cli
from rmfmoments.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *args):
    code, out = run_cli(capsys, *args)
    assert code == 0, out
    return json.loads(out)


def test_count_steinhaus_small(capsys):
    doc = run_json(capsys, "count", "--model", "steinhaus", "--k", "2", "--x", "2")
    assert doc["command"] == "count"
    assert doc["results"]["value"] == 6
    assert doc["results"]["tuple_space_size"] == 16
    assert doc["manifest"]["seed"] == 60493


def test_count_rademacher_routes(capsys):
    doc = run_json(capsys, "count", "--model", "rademacher", "--k", "2", "--x", "3")
    assert doc["results"]["value"] == 21
    assert doc["results"]["routes_agree"] is True


def test_count_char(capsys):
    doc = run_json(capsys, "count", "--model", "char", "--k", "2", "--x", "10", "--q", "101")
    assert doc["results"]["value"] == "278/1"
    assert doc["results"]["congruence_count"] == 278
    assert doc["results"]["float_error"] < 1e-6


def test_constants_beta_rational(capsys):
    doc = run_json(capsys, "constants", "--name", "beta", "--k", "3")
    assert doc["results"]["value"] == "1/8"
    assert doc["results"]["routes_agree"] is True


def test_constants_a2(capsys):
    doc = run_json(capsys, "constants", "--name", "a", "--k", "2")
    assert doc["results"]["value"] == pytest.approx(6 / math.pi**2, abs=1e-8)
    assert doc["results"]["tail_bound"] < 1e-8


def test_bound_digits(capsys):
    doc = run_json(capsys, "bound")
    assert doc["results"]["f_min"] == pytest.approx(math.sqrt(2 / 3), abs=1e-8)
    assert doc["results"]["amplitude_bound"] == pytest.approx((2 / 3) ** 0.25, abs=1e-3)


def test_rmt_exact(capsys):
    doc = run_json(capsys, "rmt", "--k", "1", "--L", "3", "--z", "1.5")
    w = 1.5**2
    assert doc["results"]["value"] == pytest.approx((w**4 - 1) / (w - 1), rel=1e-12)


def test_conjecture_half(capsys):
    doc = run_json(capsys, "conjecture", "--k", "0.5", "--sigma", "0")
    assert doc["results"]["coefficient"] == pytest.approx(0.8767654870944583, abs=1e-9)
    assert doc["results"]["quarter_power"] == pytest.approx(
        (math.e / (math.e - 1)) ** 0.25, rel=1e-12
    )


def test_conjecture_marks_the_refuted_case(capsys):
    # sigma = 0 with 0 < k < 1 carries the note; its numbers are unchanged
    doc = run_json(capsys, "conjecture", "--k", "0.5", "--sigma", "0")
    assert "refuted" in doc["results"]["note"] and "Harper" in doc["results"]["note"]
    for k, sigma in (("0", "0"), ("0.5", "0.25"), ("0.3", "0.1")):
        doc = run_json(capsys, "conjecture", "--k", k, "--sigma", sigma)
        assert "note" not in doc["results"]


def test_simulate_seeded(capsys):
    a = run_json(
        capsys, "simulate", "--model", "steinhaus", "--x", "100", "--trials", "200"
    )
    b = run_json(
        capsys, "simulate", "--model", "steinhaus", "--x", "100", "--trials", "200"
    )
    assert a["results"]["mean"] == b["results"]["mean"]
    assert a["manifest"]["seed"] == 60493


def test_json_byte_roundtrip(capsys):
    _, out = run_cli(capsys, "count", "--model", "steinhaus", "--k", "2", "--x", "3")
    doc = json.loads(out)
    assert json.dumps(doc, indent=2) + "\n" == out


def test_float_format_17_digits(capsys):
    _, out = run_cli(capsys, "constants", "--name", "a", "--k", "2")
    doc = json.loads(out)
    # re-parsing and re-serializing is lossless: floats print as their repr
    assert json.loads(json.dumps(doc, indent=2)) == doc


def test_integral_floats_stay_floats(capsys):
    doc = run_json(capsys, "count", "--model", "steinhaus", "--k", "2", "--x", "3")
    assert isinstance(doc["params"]["x"], float) and doc["params"]["x"] == 3.0
    assert isinstance(doc["params"]["sigma"], float)
    doc = run_json(capsys, "rmt", "--mode", "rhs", "--k", "2", "--L", "0", "--z", "1.5")
    assert isinstance(doc["results"]["value"], float) and doc["results"]["value"] == 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ["rmt", "--mode", "rhs", "--k", "2", "--L", "3", "--z", "1.5"],
        ["rmt", "--mode", "ratio-table", "--k", "2", "--L-list", "3", "--z", "1.5",
         "--format", "csv"],
    ],
    ids=["json", "csv"],
)
def test_non_finite_float_refused_exit_2(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "unitary_asymptotic_rhs", lambda k, L, z: math.nan)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err


def test_global_flags_accepted_both_positions(capsys):
    a = run_json(capsys, "--seed", "11", "simulate", "--x", "50", "--trials", "150")
    b = run_json(capsys, "simulate", "--x", "50", "--trials", "150", "--seed", "11")
    assert a["results"]["mean"] == b["results"]["mean"]
    assert a["manifest"]["seed"] == 11 and b["manifest"]["seed"] == 11


def test_threads_env_override_keeps_results(capsys, monkeypatch):
    # worker count comes from the environment when no flag is given; the
    # trial streams are keyed, so results must not move
    monkeypatch.setenv("RMFMOMENTS_THREADS", "2")
    doc = run_json(capsys, "simulate", "--x", "50", "--trials", "150")
    monkeypatch.delenv("RMFMOMENTS_THREADS")
    doc2 = run_json(capsys, "simulate", "--x", "50", "--trials", "150")
    assert doc2["results"]["mean"] == doc["results"]["mean"]
    assert doc2["results"]["stderr"] == doc["results"]["stderr"]


def test_bad_threads_env_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("RMFMOMENTS_THREADS", "abc")
    assert main(["simulate", "--x", "50", "--trials", "150"]) == 2
    assert "RMFMOMENTS_THREADS" in capsys.readouterr().err
    # an explicit flag never reads the environment
    assert main(["simulate", "--x", "50", "--trials", "150", "--threads", "1"]) == 0
    capsys.readouterr()


def test_usage_error_exit_2(capsys):
    assert main(["count", "--model", "steinhaus", "--k", "2"]) == 2  # missing --x
    capsys.readouterr()
    assert main(["rmt", "--k", "2", "--z", "1.5"]) == 2  # missing --L
    capsys.readouterr()
    assert main(["count", "--model", "char", "--k", "1", "--x", "3"]) == 2  # missing --q
    capsys.readouterr()


def test_bad_flag_exit_2(capsys):
    assert main(["count", "--nonsense"]) == 2
    capsys.readouterr()


def test_resource_refusal_exit_3(capsys):
    assert main(["rmt", "--k", "2", "--L", "4000", "--z", "1.5"]) == 3
    assert "guard on memory" in capsys.readouterr().err
    assert main(["rmt", "--k", "12", "--L", "3", "--z", "1.5"]) == 3
    assert "guard on run time" in capsys.readouterr().err
    assert main(["rmt", "--k", "1", "--L", "200", "--z", "100"]) == 3
    assert "float range" in capsys.readouterr().err
    assert main(["simulate", "--x", "100000000", "--trials", "200"]) == 3
    capsys.readouterr()
    assert main(["count", "--model", "steinhaus", "--k", "2", "--x", "1e12"]) == 3
    capsys.readouterr()
    assert main(["count", "--model", "steinhaus", "--k", "1", "--x", "1e9", "--sigma", "0.25"]) == 3
    capsys.readouterr()
    assert main(["count", "--model", "steinhaus", "--k", "3", "--x", "1e4"]) == 3
    assert "guard on memory" in capsys.readouterr().err
    # refused before the samples array is allocated
    assert main(["rmt", "--mode", "mc", "--k", "2", "--L", "3", "--z", "1.5",
                 "--samples", "2000000000"]) == 3
    assert "run time" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--model", "steinhaus", "--k", "2", "--x", "2", "--format", "csv"],
        ["count", "--model", "steinhaus", "--k", "2", "--x", "2", "--format", "text"],
        ["rmt", "--k", "2", "--L", "3", "--z", "1.5", "--format", "text"],
        ["rmt", "--k", "2", "--L", "3", "--z", "1.5", "--format", "csv"],
        ["rmt", "--mode", "ratio-table", "--k", "1", "--L-list", "2,3", "--z", "1.5",
         "--format", "text"],
        ["simulate", "--helson", "--x-list", "100", "--trials", "120", "--format", "text"],
        ["bound", "--format", "csv"],
        ["verify", "--only", "3", "--format", "csv"],
    ],
    ids=["count-csv", "count-text", "rmt-text", "rmt-csv", "ratio-table-text", "helson-text",
         "bound-csv", "verify-csv"],
)
def test_format_a_subcommand_cannot_emit_exit_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot emit --format {argv[-1]}" in captured.err


def _never_called(*args, **kwargs):
    raise AssertionError("the work ran before the --format check")


@pytest.mark.parametrize(
    "name, argv",
    [
        ("run_all", ["verify", "--format", "csv"]),
        ("steinhaus_energy",
         ["count", "--model", "steinhaus", "--k", "2", "--x", "1e10", "--format", "csv"]),
    ],
    ids=["verify-csv", "count-csv"],
)
def test_format_refused_before_the_work(capsys, monkeypatch, name, argv):
    monkeypatch.setattr(cli, name, _never_called)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot emit --format {argv[-1]}" in captured.err


@pytest.mark.parametrize("group", ["unitary", "special_orthogonal"])
def test_ratio_table_at_L0_refused_before_any_row(capsys, monkeypatch, group):
    # for k >= 2 both asymptotic curves vanish at L = 0
    for name in ("unitary_truncated_moment_exact", "so_truncated_moment_exact"):
        monkeypatch.setattr(cli, name, _never_called)
    argv = ["rmt", "--mode", "ratio-table", "--group", group, "--k", "2", "--L-list", "0,3",
            "--z", "1.5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "L >= 1" in captured.err
    monkeypatch.undo()
    # k = 1 has a geometric limit at L = 0, so its table keeps the row
    doc = run_json(capsys, "rmt", "--mode", "ratio-table", "--group", group, "--k", "1",
                   "--L-list", "0,3", "--z", "1.5")
    assert [row["L"] for row in doc["results"]["rows"]] == [0, 3]


def test_formats_a_subcommand_emits(capsys):
    code, out = run_cli(capsys, "rmt", "--mode", "ratio-table", "--k", "1", "--L-list", "2,3",
                        "--z", "1.5", "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "L,exact,rhs,ratio"
    assert run_json(capsys, "bound", "--format", "json")["command"] == "bound"
    code, out = run_cli(capsys, "verify", "--only", "3", "--format", "text")
    assert code == 0 and "criterion 03 PASS" in out


def test_verify_subset(capsys):
    code, out = run_cli(capsys, "verify", "--only", "3,5")
    assert code == 0
    assert "criterion 03 PASS" in out
    assert "criterion 05 PASS" in out
    assert "2/2 criteria passed" in out


def test_verify_json_subset(capsys):
    doc = run_json(capsys, "verify", "--only", "3", "--format", "json")
    assert doc["results"]["criteria"][0]["passed"] is True


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out = run_cli(capsys, "bound", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["command"] == "bound"


def test_helson_csv_format(capsys):
    code, out = run_cli(
        capsys,
        "simulate",
        "--helson",
        "--x-list",
        "100,200",
        "--trials",
        "120",
        "--format",
        "csv",
    )
    assert code == 0
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert lines[0].startswith("x,")
    assert len(lines) == 3


def test_helson_csv_roundtrip(tmp_path, capsys):
    # --out writes the bytes stdout would carry, floats as their repr
    args = ["simulate", "--helson", "--x-list", "100", "--trials", "120", "--format", "csv"]
    _, out = run_cli(capsys, *args)
    target = tmp_path / "table.csv"
    code, rest = run_cli(capsys, *args, "--out", str(target))
    assert code == 0 and rest == ""
    assert target.read_text() == out
    header, row = out.splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["x"] == "100.0"
    assert float(cells["mean_abs"]) > 0


@pytest.mark.parametrize(
    "name, argv",
    [
        ("unitary_truncated_moment_exact",
         ["rmt", "--mode", "ratio-table", "--k", "2", "--L-list", ",", "--z", "1.5",
          "--format", "csv"]),
        ("helson_table",
         ["simulate", "--helson", "--x-list", ",", "--trials", "10", "--format", "csv"]),
        ("run_all", ["verify", "--only", ","]),
    ],
    ids=["ratio-table", "helson", "verify"],
)
def test_empty_integer_list_refused_before_the_work(capsys, monkeypatch, name, argv):
    monkeypatch.setattr(cli, name, _never_called)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: expected at least one integer" in captured.err
