"""CLI contract: subcommand routing, schemas, exit codes, CSV output."""

import json
import math

import pytest
from click.testing import CliRunner

from rifs.cli import emit_curve, main
from rifs.errors import SchemaError
from rifs.step import StepFunction, indicator

CHI01 = json.dumps({"alpha": "inf", "pieces": [{"t0": 0, "t1": 1, "v": 1}]})
TWO_BLOCK = json.dumps({"alpha": "inf", "pieces": [
    {"t0": 1, "t1": 2, "v": 3}, {"t0": 4, "t1": 6, "v": 1}]})
W_HALF = json.dumps({"pieces": [{"t0": 0, "t1": "inf", "c": 1, "a": -0.5, "b": 0}]})
GAMMA_SPACE = json.dumps({"kind": "lorentz_gamma", "alpha": "inf", "p": 2,
                          "weight": json.loads(W_HALF)})
L2_SPACE = json.dumps({"kind": "orlicz", "alpha": "inf",
                       "orlicz": {"family": "power", "params": {"p": 2}}})


@pytest.fixture
def runner():
    return CliRunner()


def test_rearrange_inline(runner):
    res = runner.invoke(main, ["rearrange", "--in", TWO_BLOCK])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["pieces"] == [{"t0": 0.0, "t1": 1.0, "v": 3.0},
                             {"t0": 1.0, "t1": 3.0, "v": 1.0}]


def test_rearrange_prints_a_narrow_piece_that_reading_back_drops(runner):
    # x* keeps the 1.5e-12-wide piece of x at t = 100, where make's width rule
    # would drop it.  The CLI prints it; from_json goes through make and
    # drops it again, so this x* does not round-trip (see StepFunction).
    x = StepFunction.make([(0, 1.5e-12, 1.0), (1, 101, 2.0)])
    res = runner.invoke(main, ["rearrange", "--in", json.dumps(x.to_json())])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["pieces"] == [{"t0": 0.0, "t1": 100.0, "v": 2.0},
                             {"t0": 100.0, "t1": 100.0 + 1.5e-12, "v": 1.0}]
    assert StepFunction.from_json(out).pieces == ((0.0, 100.0, 2.0),)


def test_rearrange_from_file(runner, tmp_path):
    p = tmp_path / "f.json"
    p.write_text(TWO_BLOCK)
    res = runner.invoke(main, ["rearrange", "--in", str(p)])
    assert res.exit_code == 0


def test_maximal_curve_csv(runner):
    res = runner.invoke(main, ["maximal", "--in", CHI01, "--grid", "0.5,1,2"])
    assert res.exit_code == 0
    rows = res.output.strip().splitlines()
    assert rows[0] == "t,value"
    assert [r.split(",") for r in rows[1:]] == [["0.5", "1.0"], ["1.0", "1.0"], ["2.0", "0.5"]]


def test_maximal_star_echoes_decreasing_input(runner):
    res = runner.invoke(main, ["maximal", "--in", CHI01, "--what", "star",
                               "--grid", "0.25,0.75"])
    assert res.exit_code == 0
    assert res.output.strip().splitlines()[1:] == ["0.25,1.0", "0.75,1.0"]


def test_emit_curve_zero_function():
    csv = emit_curve(StepFunction.zero(), "starstar", [1.0, 2.0])
    assert csv.splitlines()[1:] == ["1.0,0.0", "2.0,0.0"]


def test_emit_curve_rejects_empty_grid():
    with pytest.raises(SchemaError):
        emit_curve(indicator(0, 1), "star", [])


def test_dominates(runner):
    y = json.dumps({"alpha": "inf", "pieces": [{"t0": 0, "t1": 1, "v": 2}]})
    res = runner.invoke(main, ["dominates", "--x", CHI01, "--y", y])
    assert res.exit_code == 0
    assert json.loads(res.output) == {"dominates": True}


def test_norm(runner):
    res = runner.invoke(main, ["norm", "--space", GAMMA_SPACE, "--in", CHI01])
    assert res.exit_code == 0
    # W(1) + W_2(1) = 2 + 2/3 for w = t^(-1/2)
    assert json.loads(res.output)["norm"] == pytest.approx(math.sqrt(8.0 / 3.0), rel=1e-9)


def test_fundamental(runner):
    res = runner.invoke(main, ["fundamental", "--space", L2_SPACE, "--t", "4.0"])
    assert res.exit_code == 0
    assert json.loads(res.output)["phi"] == pytest.approx(2.0)


def test_check_reflexive(runner):
    res = runner.invoke(main, ["check", "reflexive", "--p", "2", "--weight", W_HALF])
    assert res.exit_code == 0
    verdict = json.loads(res.output)
    assert verdict["status"] == "holds"
    assert verdict["probe_log"]["V_numeric_1_to_1e6"] > 1e3


def test_check_koc_and_delta2(runner):
    psi = json.dumps({"family": "exp_minus_one", "params": {}})
    res = runner.invoke(main, ["check", "koc", "--orlicz", psi, "--alpha", "inf"])
    assert json.loads(res.output)["status"] == "fails"
    res = runner.invoke(main, ["check", "delta2", "--orlicz", psi])
    assert json.loads(res.output)["witness"]["u"] == 20.0


def test_check_embeds_l1(runner):
    res = runner.invoke(main, ["check", "embeds-l1", "--space", GAMMA_SPACE])
    assert json.loads(res.output)["status"] == "fails"


def test_project_finite(runner):
    cands = json.dumps({"members": [json.loads(CHI01),
                                    {"alpha": "inf", "pieces": []}]})
    res = runner.invoke(main, ["project", "--space", L2_SPACE,
                               "--target", CHI01, "--candidates", cands])
    assert res.exit_code == 0
    assert json.loads(res.output)["distance"] == 0.0


def test_project_hull_with_trace(runner, tmp_path):
    cands = json.dumps({"members": [
        {"alpha": "inf", "pieces": [{"t0": 0, "t1": 1, "v": 1}]},
        {"alpha": "inf", "pieces": [{"t0": 1, "t1": 2, "v": 1}]}]})
    zero = json.dumps({"alpha": "inf", "pieces": []})
    trace = tmp_path / "trace.csv"
    res = runner.invoke(main, ["project", "--space", L2_SPACE, "--target", zero,
                               "--candidates", cands, "--hull",
                               "--trace-csv", str(trace)])
    assert res.exit_code == 0
    assert json.loads(res.output)["distance"] == pytest.approx(1 / math.sqrt(2), abs=1e-4)
    assert trace.read_text().startswith("step,norm")


def test_verify_core_deterministic(runner):
    args = ["verify", "core", "--seed", "7", "--trials", "25"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2
    assert json.loads(out1)["verdict"] == "no-violation-found"


def test_verify_seed_from_environment(runner, monkeypatch):
    monkeypatch.setenv("RIFS_SEED", "99")
    res = runner.invoke(main, ["verify", "skm", "--space", GAMMA_SPACE, "--trials", "5"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["verdict"] == "no-violation-found"


def test_verify_dukm_csv(runner, tmp_path):
    l1 = json.dumps({"kind": "orlicz", "alpha": "inf",
                     "orlicz": {"family": "power", "params": {"p": 1}}})
    csv = tmp_path / "dukm.csv"
    res = runner.invoke(main, ["verify", "dukm", "--space", l1, "--nmax", "3",
                               "--csv", str(csv)])
    assert res.exit_code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0].startswith("n,norm_x")
    assert len(lines) == 4


def test_verify_limits_inf_encoding(runner):
    res = runner.invoke(main, ["verify", "limits", "--space", GAMMA_SPACE])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["phi_infinity"] == "inf"  # infinity encoded as the string "inf"


def test_verify_rotundity_reports_witness(runner):
    l1 = json.dumps({"kind": "orlicz", "alpha": "inf",
                     "orlicz": {"family": "power", "params": {"p": 1}}})
    res = runner.invoke(main, ["verify", "rotundity", "--space", l1,
                               "--trials", "50", "--dim", "4"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["verdict"] == "violation"
    assert rep["violations"][0]["sum_norm"] >= 2.0 - 1e-9


def test_domain_error_exit_code_and_stderr_json(runner):
    res = runner.invoke(main, ["rearrange", "--in", "{not json"])
    assert res.exit_code == 1
    err = json.loads(res.stderr)
    assert err["error"] == "schema"


def test_distinct_error_code_for_weight_domain(runner):
    bad_w = json.dumps({"pieces": [{"t0": 0, "t1": "inf", "c": 1, "a": 2, "b": 0}]})
    space = json.dumps({"kind": "lorentz_gamma", "alpha": "inf", "p": 2,
                        "weight": json.loads(bad_w)})
    res = runner.invoke(main, ["norm", "--space", space, "--in", CHI01])
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"] == "weight-domain"


def test_nan_exponent_is_a_schema_error(runner):
    space = json.dumps({"kind": "lorentz_gamma", "alpha": "inf", "p": math.nan,
                        "weight": json.loads(W_HALF)})
    res = runner.invoke(main, ["norm", "--space", space, "--in", CHI01])
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"] == "schema"


@pytest.mark.parametrize("args", [
    ["rearrange", "--in", '{"alpha":"inf","pieces":[{"t0":"x","t1":1,"v":1}]}'],
    ["check", "delta2", "--orlicz", '{"family":"table","params":{"points":[[1,2,3]]}}'],
    ["check", "reflexive", "--p", "2",
     "--weight", '{"pieces":[{"t0":0,"t1":"abc","c":1,"a":-0.5,"b":0}]}'],
    ["norm", "--space", json.dumps({**json.loads(L2_SPACE), "alpha": "x"}), "--in", CHI01],
], ids=["step", "orlicz-table", "weight", "space-alpha"])
def test_malformed_json_value_is_a_schema_error(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"] == "schema"


def test_non_integer_seed_in_environment_is_a_usage_error(runner, monkeypatch):
    monkeypatch.setenv("RIFS_SEED", "abc")
    res = runner.invoke(main, ["verify", "core", "--trials", "2"])
    assert res.exit_code == 2
    assert "RIFS_SEED must be an integer, got 'abc'" in res.output


def test_usage_error_exit_code(runner):
    assert runner.invoke(main, ["check", "nonsense"]).exit_code == 2
    assert runner.invoke(main, ["norm"]).exit_code == 2


def test_round_trip_parse_serialize_idempotent(runner):
    res = runner.invoke(main, ["rearrange", "--in", TWO_BLOCK])
    once = json.loads(res.output)
    res2 = runner.invoke(main, ["rearrange", "--in", json.dumps(once)])
    assert json.loads(res2.output) == once
