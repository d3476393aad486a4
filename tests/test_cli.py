import json

import numpy as np
import pytest

from hypernorm import dps, sdp, tensorsdp
from hypernorm.cli import main
from hypernorm.core import save_matrix
from hypernorm.reductions import GADGET_KAPPA
from hypernorm.sse import cycle_graph, graph_to_text
from tests.conftest import phi_state


@pytest.fixture
def files(tmp_path):
    save_matrix(tmp_path / "I2.json", np.eye(2))
    save_matrix(tmp_path / "phi2.json", phi_state(2))
    rng = np.random.default_rng(0)
    ac = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    save_matrix(tmp_path / "Ac.json", ac)
    v0 = np.kron([1.0, 0.0], [0.0, 1.0])
    save_matrix(tmp_path / "M0.json", np.outer(v0, v0).astype(complex))
    (tmp_path / "c5.txt").write_text(graph_to_text(cycle_graph(5)))
    return tmp_path


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_tensorsdp_identity(files, capsys):
    code, rep = run(["tensorsdp", "--in", str(files / "I2.json"), "--level", "4"], capsys)
    assert code == 0
    assert abs(rep["results"]["value"] - 1.0) <= 1e-6
    assert rep["config"]["level"] == 4
    assert rep["results"]["certificate"]["residual"] <= 1e-6
    # a certified stop names its witnesses (e_1 and e_2 here); 0 means the loop's own point
    assert rep["results"]["iterations"] >= 1 and rep["results"]["witnesses"] >= 0


def test_certify_hyper(files, capsys):
    code, rep = run(["certify-hyper", "--l", "4", "--d", "1"], capsys)
    assert code == 0
    r = rep["results"]
    assert r["value"] <= 9.0 + 1e-4
    assert r["certificate"]["residual"] <= 1e-6


def test_certify_hyper_reads_solver_options(files, capsys):
    code, rep = run(["certify-hyper", "--l", "4", "--d", "1", "--max-iter", "5"], capsys)
    assert code == 3


def test_unread_flag_is_rejected(files, capsys):
    # hext solves no SDP, so it has no solver options to set; pad always
    # pads in the expectation convention, so it takes no --convention
    for argv in (["quantum", "hext", "--in", str(files / "phi2.json"), "--tol", "1e-3"],
                 ["reduce", "pad", "--in", str(files / "I2.json"), "--eps", "0.2",
                  "--convention", "counting"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        capsys.readouterr()
        assert exc.value.code == 2


def test_quantum_hsep_phi(files, capsys):
    code, rep = run(["quantum", "hsep", "--in", str(files / "phi2.json")], capsys)
    assert code == 0
    assert abs(rep["results"]["value"] - 0.5) <= 1e-3
    # 64 random starts plus the 16 x 6 real Bloch-grid products of a real 2x2 input
    assert rep["results"]["starts"] == 64 + 16 * 6
    assert rep["results"]["starts"] <= rep["results"]["steps"] <= 300 * rep["results"]["starts"]


def test_quantum_hsep_no_restarts_exit_code(files, capsys):
    code, rep = run(["quantum", "hsep", "--in", str(files / "phi2.json"), "--restarts", "0"], capsys)
    assert code == 2
    assert "restart" in rep["error"]


def test_quantum_dps_and_hext(files, capsys):
    code, rep = run(["quantum", "dps", "--in", str(files / "phi2.json"), "--r", "1"], capsys)
    assert code == 0
    assert abs(rep["results"]["value"] - 0.5) <= 1e-3
    assert rep["results"]["bound"] >= rep["results"]["value"] - 1e-6
    code, rep = run(["quantum", "hext", "--in", str(files / "phi2.json"), "--r", "2"], capsys)
    assert code == 0
    assert rep["results"]["value"] >= 0.5 - 1e-9


def test_sse_analyze_and_decide(files, capsys):
    code, rep = run(["sse", "analyze", "--graph", str(files / "c5.txt"), "--delta", "0.4",
                     "--lambda", "0.4", "--q", "4"], capsys)
    assert code == 0
    assert rep["results"]["norm_check"]["passed"]
    code, rep = run(["sse", "decide", "--graph", str(files / "c5.txt"),
                     "--delta", "0.2", "--nu", "0.1"], capsys)
    assert code == 0
    assert rep["results"]["verdict"] in ("sse", "not-sse", "inconclusive-parameters")


def test_reduce_family(files, capsys):
    code, rep = run(["reduce", "tensor-forms", "--in", str(files / "I2.json"), "--audit"], capsys)
    assert code == 0 and rep["results"]["audit"]["passed"]
    code, rep = run(["reduce", "realify", "--in", str(files / "Ac.json")], capsys)
    assert code == 0 and rep["results"]["matrix"]["rows"] == 12
    assert rep["results"]["kappa"] == GADGET_KAPPA
    code, rep = run(["reduce", "m1", "--in", str(files / "M0.json"), "--k", "1"], capsys)
    assert code == 0 and abs(rep["results"]["hsep_m1"] - 1.0) <= 1e-6
    code, rep = run(["reduce", "pad", "--in", str(files / "I2.json"), "--eps", "0.2",
                     "--m-pad", "64"], capsys)
    assert code == 0 and rep["results"]["sigma_min"] >= 0.5


def test_norm24_and_lasserre(files, capsys):
    code, rep = run(["norm24", "--in", str(files / "I2.json")], capsys)
    assert code == 0 and abs(rep["results"]["norm_lower"] - 1.0) <= 1e-9
    search = rep["results"]["search"]
    assert set(search) == {"form", "starts", "steps", "newton_steps", "newton_converged", "improving_starts"}
    # I2 has 2 columns: the 8 best points of the start grid plus 2 rows, the
    # top singular vector and 64 random starts
    assert search["form"] == "rows" and search["starts"] == 8 + 2 + 1 + 64
    assert search["starts"] <= search["steps"] <= 300 * search["starts"]
    assert search["newton_steps"] >= 0 and 1 <= search["improving_starts"] <= search["starts"]
    assert isinstance(search["newton_converged"], bool)
    code, rep = run(["lasserre", "--graph", str(files / "c5.txt")], capsys)
    assert code == 0
    assert abs(rep["results"]["lasserre_value"] - rep["results"]["sos_value"]) <= 1e-5


def test_norm24_on_a_zero_matrix_reports_zero(capsys, tmp_path):
    # the zero operator once returned an empty trace, and the report died on it
    (tmp_path / "zero.json").write_text('{"rows": 2, "cols": 2, "scalar": "real", "data": [[0.0, 0.0], [0.0, 0.0]]}')
    code, rep = run(["norm24", "--in", str(tmp_path / "zero.json")], capsys)
    assert code == 0 and rep["results"]["norm_lower"] == 0.0
    search = rep["results"]["search"]
    assert set(search) == {"form", "starts", "steps", "newton_steps", "newton_converged", "improving_starts"}
    assert search["steps"] == 0


def test_lasserre_statuses_and_exit_code(files, capsys):
    code, rep = run(["lasserre", "--graph", str(files / "c5.txt")], capsys)
    assert code == 0
    assert rep["results"]["lasserre_status"] == rep["results"]["sos_status"] == "optimal"
    code, rep = run(["lasserre", "--graph", str(files / "c5.txt"), "--max-iter", "5"], capsys)
    assert code == 3


def test_lasserre_reports_bounds(files, capsys):
    code, rep = run(["lasserre", "--graph", str(files / "c5.txt")], capsys)
    res = rep["results"]
    assert code == 0 and "lasserre_bound" in res["bound_kind"]
    assert res["lasserre_bound"] >= res["lasserre_value"] - 1e-6
    assert res["sos_bound"] >= res["sos_value"] - 1e-6


def test_lasserre_report_schema(files, capsys):
    code, rep = run(["lasserre", "--graph", str(files / "c5.txt")], capsys)
    res = rep["results"]
    assert set(res) == {"lasserre_value", "sos_value", "lasserre_bound", "sos_bound", "value_gap",
                        "max_moment_discrepancy", "lasserre_converted_objective", "sos_converted_objective",
                        "converted_pe_valid", "converted_gram_min_eig", "lasserre_status", "sos_status",
                        "lasserre_iterations", "sos_iterations", "lasserre_witnesses", "sos_witnesses",
                        "bound_kind"}
    # C5 is tight: both solves stop on the first attempt, anchored on its 10 optimal cuts
    assert code == 0 and res["lasserre_iterations"] == res["sos_iterations"] == 10
    assert res["lasserre_witnesses"] == res["sos_witnesses"] == 10
    assert "rank-one moment matrix" in res["bound_kind"]


def test_lasserre_rejects_a_graph_past_eight_vertices(files, capsys):
    (files / "c9.txt").write_text(graph_to_text(cycle_graph(9)))
    code, rep = run(["lasserre", "--graph", str(files / "c9.txt")], capsys)
    assert code == 2 and "limited to 8 vertices" in rep["error"]


def test_random_suite_small(files, capsys):
    code, rep = run(["random-suite", "--dist", "sign", "--n", "3", "--m", "45",
                     "--seeds", "2", "--restarts", "16"], capsys)
    assert code == 0
    runs = rep["results"]["runs"]
    assert len(runs) == 2
    for r in runs:
        assert r["oracle"] >= r["oracle_floor"] - 0.05
        assert r["a22"] <= r["upper"] + 1e-6
        assert r["witnesses"] == 0 or r["iterations"] in sdp.ANCHOR_AT


def test_validation_failure_exit_code(files, capsys, tmp_path):
    (tmp_path / "bad.json").write_text('{"rows": 1, "cols": 2, "scalar": "real", "data": [[1.0]]}')
    code = main(["norm24", "--in", str(tmp_path / "bad.json")])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("command,name,text,words", [
    (["sse", "analyze", "--delta", "0.25", "--graph"], "empty.txt", "", "empty"),
    (["norm24", "--in"], "no_cols.json", '{"rows": 2}', "cols"),
    (["norm24", "--in"], "array.json", "[1, 2]", "JSON object"),
    (["norm24", "--in"], "null_rows.json", '{"rows": null, "cols": 1, "scalar": "real", "data": [[1.0]]}',
     "'rows'"),
    (["norm24", "--in"], "bare_complex.json", '{"rows": 1, "cols": 1, "scalar": "complex", "data": [[1.0]]}',
     "'data'"),
    (["norm24", "--in"], "null_data.json", '{"rows": 1, "cols": 1, "scalar": "real", "data": null}', "'data'"),
])
def test_malformed_input_file_exit_code(capsys, tmp_path, command, name, text, words):
    (tmp_path / name).write_text(text)
    code, rep = run(command + [str(tmp_path / name)], capsys)
    assert code == 2
    assert words in rep["error"]


@pytest.mark.parametrize("args,words", [
    (["random-suite", "--dist", "sign", "--n", "0", "--m", "4", "--seeds", "1"], "n=0"),
    (["random-suite", "--dist", "sign", "--n", "2", "--m", "0", "--seeds", "1"], "m=0"),
    (["reduce", "pad", "--in", "I2.json", "--eps", "0.2", "--m-pad", "0"], "m_pad must be >= 1"),
    (["quantum", "dps", "--in", "phi2.json", "--r", "0"], "level r must be >= 1"),
    (["quantum", "hext", "--in", "phi2.json", "--r", "0"], "level r must be >= 1"),
    (["reduce", "m1", "--in", "M0.json", "--k", "0"], "k=0"),
    (["reduce", "m1", "--in", "M0.json", "--k", "3"], "k=3"),
    # 0 once read as "not given", and no seeds once reported success with no runs
    (["quantum", "hsep", "--in", "phi2.json", "--na", "0"], "--na must be >= 1, got 0"),
    (["quantum", "hsep", "--in", "phi2.json", "--na", "-2"], "--na must be >= 1, got -2"),
    (["random-suite", "--dist", "sign", "--n", "2", "--m", "8", "--seeds", "0"], "--seeds must be >= 1, got 0"),
    (["random-suite", "--dist", "sign", "--n", "2", "--m", "8", "--seeds", "-1"], "--seeds must be >= 1, got -1"),
    (["certify-hyper", "--l", "3", "--d", "-1"], "degree must be >= 0, got -1"),
    (["certify-hyper", "--l", "-1", "--d", "0"], "cube dimension must be >= 0, got -1"),
    (["certify-hyper", "--l", "30", "--d", "0"], "cube dimension 30 exceeds the limit 15"),
])
def test_bad_size_exit_code(files, capsys, args, words):
    args = [str(files / a) if a.endswith(".json") else a for a in args]
    code, rep = run(args, capsys)
    assert code == 2
    assert words in rep["error"]


def test_sse_analyze_reports_norm_check_limit(capsys, tmp_path):
    (tmp_path / "c14.txt").write_text(graph_to_text(cycle_graph(14)))
    code, rep = run(["sse", "analyze", "--graph", str(tmp_path / "c14.txt"), "--delta", "0.3",
                     "--lambda", "0.4"], capsys)
    assert code == 2
    assert "12 vertices" in rep["error"]


def test_solver_runtime_error_exit_code(files, capsys, monkeypatch):
    def diverge(*args, **kwargs):
        raise RuntimeError("solver diverged on a feasible-by-construction program")

    monkeypatch.setattr("hypernorm.cli.tensor_sdp", diverge)
    code, rep = run(["tensorsdp", "--in", str(files / "I2.json")], capsys)
    assert code == 3
    assert "diverged" in rep["error"]


def test_inaccurate_stop_exit_code(files, capsys, monkeypatch):
    # a stop on the loop's own residuals whose recomputed residuals miss
    # 10 * tol is not convergence
    def inaccurate(problem, opts=None):
        sol = sdp.solve_sdp(problem, opts)
        sol.status = "inaccurate"
        return sol

    monkeypatch.setattr(dps, "solve_sdp", inaccurate)
    code, rep = run(["quantum", "dps", "--in", str(files / "phi2.json"), "--r", "1"], capsys)
    assert code == 3
    assert rep["results"]["status"] == "inaccurate"


@pytest.mark.parametrize("argv", [["tensorsdp", "--in", "I2.json"], ["certify-hyper", "--l", "3", "--d", "1"]])
def test_moment_reports_say_why_they_exit_3(files, capsys, monkeypatch, argv):
    # both reports carry the solver's status, so a non-optimal stop says why
    def inaccurate(problem, opts=None, **kwargs):
        sol = sdp.solve_sdp(problem, opts, **kwargs)
        sol.status = "inaccurate"
        return sol

    monkeypatch.setattr(tensorsdp, "solve_sdp", inaccurate)
    argv = [str(files / a) if a.endswith(".json") else a for a in argv]
    code, rep = run(argv, capsys)
    assert code == 3
    assert rep["results"]["status"] == "inaccurate"
    monkeypatch.undo()
    code, rep = run(argv, capsys)
    assert code == 0
    assert rep["results"]["status"] == "optimal"


@pytest.mark.parametrize("flag", [["--tol", "0"], ["--max-iter", "0"]])
def test_bad_solver_options_exit_code(files, capsys, flag):
    code, rep = run(["tensorsdp", "--in", str(files / "I2.json")] + flag, capsys)
    assert code == 2
    assert "error" in rep


def test_rerun_reproducibility(files, capsys):
    args = ["norm24", "--in", str(files / "I2.json"), "--seed", "5", "--restarts", "8"]
    code1, rep1 = run(args, capsys)
    code2, rep2 = run(args, capsys)
    assert rep1["results"]["norm_lower"] == rep2["results"]["norm_lower"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_out_file(files, capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["norm24", "--in", str(files / "I2.json"), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rep = json.loads(out.read_text())
    assert "results" in rep and "config" in rep


def test_error_report_written_to_out(files, capsys, tmp_path):
    out = tmp_path / "o.json"
    code = main(["norm24", "--in", str(tmp_path / "missing.json"), "--out", str(out)])
    assert capsys.readouterr().out == ""
    assert code == 2
    assert "error" in json.loads(out.read_text())
