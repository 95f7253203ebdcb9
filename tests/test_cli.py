"""Problem-file parsing, dispatch, report format, and exit codes."""

import subprocess
import sys

import numpy as np
import pytest

from spectrahull import ShmInstance, SpectraplexPoint, image
from spectrahull.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    EXIT_WITNESS,
    ProblemParseError,
    parse_problem,
    run,
)
from spectrahull.reductions import MaxCutInstance, SdpFeasibilityInstance

SHM_FILE = """\
shm
n 3
m 1
b 2.0
A 1   # diagonal interval family
1 0 0
0 2 0
0 0 3
"""

K2_FILE = """\
maxcut
n 2
edge 1 2 1.0
"""

CHM_FILE = """\
chm
m 2
N 3
p0 0.25 0.25
0 0
1 0
0 1
"""

SVM_FILE = """\
svm
left
n 2
m 1
A 1
1 0
0 2
right
n 2
m 1
A 1
4 0
0 5
"""

SDP_FILE = """\
sdp
n 1
m 1
b 2.0
A 1
1
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -------------------------------------------------------------------- parsing


def test_parse_minimal_shm_file():
    prob = parse_problem(SHM_FILE)
    assert prob.kind == "shm"
    inst = prob.payload
    assert isinstance(inst, ShmInstance)
    assert inst.n == 3 and inst.m == 1
    np.testing.assert_array_equal(inst.mats[0].entries, np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(inst.b, np.array([2.0]))


def test_parse_k2_edge_list():
    prob = parse_problem(K2_FILE)
    assert prob.kind == "maxcut"
    assert isinstance(prob.payload, MaxCutInstance)
    np.testing.assert_array_equal(prob.payload.weights, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_parse_chm_and_svm_and_sdp():
    chm = parse_problem(CHM_FILE)
    assert chm.kind == "chm"
    point_set, p0 = chm.payload
    assert point_set.size == 3 and point_set.dim == 2
    np.testing.assert_array_equal(p0, np.array([0.25, 0.25]))

    svm = parse_problem(SVM_FILE)
    left, right = svm.payload
    assert len(left) == len(right) == 1
    np.testing.assert_array_equal(right[0].entries, np.diag([4.0, 5.0]))

    sdp = parse_problem(SDP_FILE)
    assert isinstance(sdp.payload, SdpFeasibilityInstance)
    assert sdp.payload.n == 1


def test_parse_errors_carry_line_numbers():
    bad_b = SHM_FILE.replace("b 2.0", "b 2.0 7.0")
    with pytest.raises(ProblemParseError) as err:
        parse_problem(bad_b)
    assert err.value.line_no == 4
    assert "expected 1 values" in str(err.value)

    with pytest.raises(ProblemParseError) as err:
        parse_problem("frobnicate\nn 2\n")
    assert err.value.line_no == 1

    with pytest.raises(ProblemParseError) as err:
        parse_problem(SHM_FILE.replace("0 2 0", "0 x 0"))
    assert err.value.line_no == 7

    with pytest.raises(ProblemParseError):
        parse_problem("")


def test_parse_rejects_asymmetric_matrix():
    crooked = SHM_FILE.replace("1 0 0", "1 9 0", 1)
    with pytest.raises(ProblemParseError) as err:
        parse_problem(crooked)
    assert "A 1" in str(err.value)


def test_parse_rejects_trailing_records():
    with pytest.raises(ProblemParseError) as err:
        parse_problem(SHM_FILE + "stray 1 2 3\n")
    assert "trailing" in str(err.value)


def test_parse_rejects_bad_edges():
    with pytest.raises(ProblemParseError):
        parse_problem("maxcut\nn 2\nedge 1 3 1.0\n")
    with pytest.raises(ProblemParseError):
        parse_problem("maxcut\nn 2\nedge 1 1 1.0\n")


def test_parse_rejects_mismatched_svm_sides():
    bad = SVM_FILE.replace("right\nn 2\nm 1", "right\nn 2\nm 2") + "A 2\n1 0\n0 1\n"
    with pytest.raises(ProblemParseError):
        parse_problem(bad)


# ------------------------------------------------------------------- dispatch


def report_value(out: str, key: str) -> str:
    for line in out.splitlines():
        if line.startswith(key + " "):
            return line[len(key) + 1 :]
    raise AssertionError(f"report line {key!r} missing in:\n{out}")


def test_solve_feasible_interval(tmp_path, capsys):
    path = write(tmp_path, "interval.shm", SHM_FILE)
    code = run(["solve", "--input", path, "--epsilon", "1e-6"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert report_value(out, "status") == "Feasible"
    radius = float(report_value(out, "radius-bound"))
    assert float(report_value(out, "gap")) <= 1e-6 * radius


def test_solve_witness_reports_separator(tmp_path, capsys):
    path = write(tmp_path, "outside.shm", SHM_FILE.replace("b 2.0", "b 5.0"))
    code = run(["solve", "--input", path, "--epsilon", "1e-6"])
    out = capsys.readouterr().out
    assert code == EXIT_WITNESS
    assert report_value(out, "status") == "Witness"
    normal = float(report_value(out, "hyperplane-normal"))
    offset = float(report_value(out, "hyperplane-offset"))
    crossing = offset / normal
    # the crossing must fall strictly between the hull maximum and the target
    assert 3.0 < crossing < 5.0
    for v in (1.0, 2.0, 3.0):
        assert normal * v - offset > 0.0
    assert normal * 5.0 - offset < 0.0
    assert float(report_value(out, "eig-margin")) > 0.0


def test_feasible_terms_reproduce_the_reported_gap(tmp_path, capsys):
    path = write(tmp_path, "interval.shm", SHM_FILE)
    run(["solve", "--input", path, "--epsilon", "1e-6"])
    out = capsys.readouterr().out
    inst = parse_problem(SHM_FILE).payload
    weights, vectors = [], []
    for line in out.splitlines():
        if line.startswith("term "):
            vals = [float(t) for t in line.split()[1:]]
            weights.append(vals[0])
            vectors.append(vals[1:])
    assert len(weights) == int(report_value(out, "terms"))
    point = SpectraplexPoint(np.array(weights), np.array(vectors))
    gap = float(np.linalg.norm(image(inst, point) - inst.b))
    assert abs(gap - float(report_value(out, "gap"))) <= 1e-9 * inst.radius_bound


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    path = write(tmp_path, "interval.shm", SHM_FILE)
    args = ["solve", "--input", path, "--epsilon", "1e-4"]
    run(args)
    first = capsys.readouterr().out
    run(args)
    second = capsys.readouterr().out
    assert first == second


def test_output_flag_mirrors_stdout(tmp_path, capsys):
    path = write(tmp_path, "interval.shm", SHM_FILE)
    out_path = tmp_path / "report.txt"
    run(["solve", "--input", path, "--output", str(out_path)])
    stdout = capsys.readouterr().out
    assert out_path.read_text() == stdout


def test_verify_flag_appends_check_lines(tmp_path, capsys):
    path = write(tmp_path, "outside.shm", SHM_FILE.replace("b 2.0", "b 5.0"))
    # a bare --verify is the switch; a trailing count is accepted and ignored
    reports = []
    for flag in (["--verify"], ["--verify", "100"]):
        code = run(["solve", "--input", path, "--epsilon", "1e-6", *flag])
        out = capsys.readouterr().out
        assert code == EXIT_WITNESS, flag
        assert report_value(out, "verify").startswith("passed"), flag
        reports.append(out)
    assert reports[0] == reports[1]


def test_chm_dispatch(tmp_path, capsys):
    inside = write(tmp_path, "tri.chm", CHM_FILE)
    assert run(["solve", "--input", inside, "--epsilon", "1e-6"]) == EXIT_OK
    capsys.readouterr()
    outside = write(tmp_path, "far.chm", CHM_FILE.replace("p0 0.25 0.25", "p0 1 1"))
    code = run(["solve", "--input", outside, "--epsilon", "1e-6"])
    out = capsys.readouterr().out
    assert code == EXIT_WITNESS
    assert report_value(out, "status") == "Witness"
    assert "hyperplane-normal" in out


PENTAGON_CHM = """\
chm
m 2
N 5
p0 {p0}
0 0
2 0.5
1 2
-1 1
0.5 -1
"""

# every line of a chm report, pinned: a Feasible query two steps in and a
# Witness one step in
PENTAGON_REPORTS = (
    ("0.3 0.2", EXIT_OK, """\
kind chm
status Feasible
epsilon 0.01
radius 1.9313207915827966
gap 1.1443916996305594e-16
iterations 2
point 0.3000000000000001 0.20000000000000004
coeffs 0.81428571428571428 0.11428571428571432 0.071428571428571438 0 0
"""),
    ("2.5 2", EXIT_WITNESS, """\
kind chm
status Witness
epsilon 0.01
radius 3.640054944640259
gap 1.2480754415067654
iterations 1
hyperplane-offset -3.2019230769230766
hyperplane-normal -1.0384615384615383 -0.69230769230769229
point 1.4615384615384617 1.3076923076923077
coeffs 0 0.46153846153846156 0.53846153846153844 0 0
"""),
)


@pytest.mark.parametrize("p0, code, report", PENTAGON_REPORTS)
def test_chm_report_is_pinned(tmp_path, capsys, p0, code, report):
    path = write(tmp_path, "pentagon.chm", PENTAGON_CHM.format(p0=p0))
    assert run(["solve", "--input", path]) == code
    assert capsys.readouterr().out == report


def test_sdp_dispatch_recovers_solution(tmp_path, capsys):
    path = write(tmp_path, "tiny.sdp", SDP_FILE)
    code = run(["solve", "--input", path, "--epsilon", "1e-6"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert report_value(out, "degenerate-rhs") == "false"
    assert float(report_value(out, "alpha")) == pytest.approx(1.0 / 3.0, abs=1e-4)
    assert float(report_value(out, "solution-row")) == pytest.approx(2.0, abs=1e-4)


def test_svm_dispatch(tmp_path, capsys):
    path = write(tmp_path, "pair.svm", SVM_FILE)
    code = run(["solve", "--input", path, "--epsilon", "1e-4"])
    out = capsys.readouterr().out
    assert code == EXIT_WITNESS
    assert report_value(out, "status") == "Separated"
    assert float(report_value(out, "left-margin")) > 0.0


def test_maxcut_dispatch(tmp_path, capsys):
    path = write(tmp_path, "k2.graph", K2_FILE)
    code = run(["maxcut", "--input", path, "--epsilon", "1e-3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert report_value(out, "status") == "Converged"
    value = float(report_value(out, "value"))
    assert value == pytest.approx(-2.0, abs=1e-2)
    assert float(report_value(out, "lower")) <= value <= float(report_value(out, "upper")) + 1e-12
    assert float(report_value(out, "cut-bound")) == pytest.approx(1.0, abs=1e-2)


# ----------------------------------------------------------------- exit codes


def test_inconclusive_exit_code(tmp_path, capsys):
    path = write(tmp_path, "slow.shm", SHM_FILE.replace("b 2.0", "b 2.9"))
    code = run(["solve", "--input", path, "--epsilon", "1e-6", "--max-iters", "0"])
    out = capsys.readouterr().out
    assert code == EXIT_INCONCLUSIVE
    assert report_value(out, "status") == "Inconclusive"


def test_usage_errors(tmp_path, capsys):
    assert run(["solve"]) == EXIT_USAGE
    assert run(["solve", "--input", str(tmp_path / "missing.shm")]) == EXIT_USAGE
    shm = write(tmp_path, "interval.shm", SHM_FILE)
    assert run(["maxcut", "--input", shm]) == EXIT_USAGE
    graph = write(tmp_path, "k2.graph", K2_FILE)
    assert run(["solve", "--input", graph]) == EXIT_USAGE
    capsys.readouterr()
    witness = write(tmp_path, "outside.shm", SHM_FILE.replace("b 2.0", "b 5.0"))
    out_of_range = [
        ["solve", "--input", shm, "--epsilon", "0"],
        ["solve", "--input", shm, "--epsilon", "1.5"],
        ["solve", "--input", shm, "--epsilon", "nan"],
        ["solve", "--input", witness, "--verify", "-5"],
        ["solve", "--input", shm, "--max-iters", "-1"],
        ["maxcut", "--input", graph, "--epsilon", "inf"],
        ["maxcut", "--input", graph, "--epsilon", "nan"],
        ["maxcut", "--input", graph, "--epsilon", "0"],
        ["maxcut", "--input", graph, "--max-iters", "-1"],
        ["solve", "--input", shm, "--strict"],  # a retired flag
        ["solve", "--input", shm, "--seed", "-1", "--verify", "10"],  # a retired flag
        ["solve", "--input", shm, "--seed", "0"],  # a retired flag
    ]
    for argv in out_of_range:
        assert run(argv) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: "), argv
    unwritable = str(tmp_path / "missing-dir" / "r.txt")
    assert run(["solve", "--input", shm, "--output", unwritable]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: cannot write report: ")


def test_parse_error_exit_code(tmp_path, capsys):
    bad = write(tmp_path, "bad.shm", SHM_FILE.replace("b 2.0", "b 2.0 7.0"))
    assert run(["solve", "--input", bad]) == EXIT_PARSE
    assert "line 4" in capsys.readouterr().err
    binary = tmp_path / "binary.shm"
    binary.write_bytes(SHM_FILE.replace("b 2.0", "b 2.0\xff").encode("latin-1"))
    assert run(["solve", "--input", str(binary)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: line 4: ")
    assert "0xff" in err
    for bad in ("inf", "nan"):
        query = write(tmp_path, f"{bad}.chm", CHM_FILE.replace("p0 0.25 0.25", f"p0 {bad} 0"))
        assert run(["solve", "--input", query]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: line 4: query must be finite")


def test_runs_in_one_process_do_not_leak_into_each_other(tmp_path, capsys):
    """The parser is shared between calls; no call's flags reach the next."""
    shm = write(tmp_path, "interval.shm", SHM_FILE)
    graph = write(tmp_path, "k2.graph", K2_FILE)
    assert run(["solve", "--input", shm]) == EXIT_OK
    first = capsys.readouterr().out
    flags = ["--start", "identity", "--max-iters", "0", "--verify", "5"]
    assert run(["solve", "--input", shm, *flags]) == EXIT_OK
    assert "verify passed" in capsys.readouterr().out
    assert run(["solve", "--input", shm, "--epsilon", "2"]) == EXIT_USAGE
    assert run(["--help"]) == 0
    assert run(["maxcut", "--input", graph]) == EXIT_OK
    capsys.readouterr()
    assert run(["solve", "--input", shm]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "solve" in capsys.readouterr().out


def test_module_entry_point(tmp_path):
    path = write(tmp_path, "interval.shm", SHM_FILE)
    proc = subprocess.run(
        [sys.executable, "-m", "spectrahull.cli", "solve", "--input", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert "status Feasible" in proc.stdout


OVERFLOW_FILES = {
    # A 1 = diag(1e308, 1): the radius bound's sum of squares overflows
    "big.shm": ("solve", "shm\nn 2\nm 1\nb 0.5\nA 1\n1e308 0\n0 1\n"),
    # the query lies outside the hull, but the farthest distance overflows
    "big.chm": ("solve", "chm\nm 1\nN 2\np0 -1.7e308\n1e308\n0.5e308\n"),
    "big.graph": ("maxcut", "maxcut\nn 2\nedge 1 2 1e308\n"),
    "big.sdp": ("solve", "sdp\nn 2\nm 1\nb 1\nA 1\n1e308 0\n0 1\n"),
    "big.svm": ("solve", SVM_FILE.replace("1 0\n0 2\nright", "1e308 0\n0 2\nright")),
}


@pytest.mark.parametrize("name", sorted(OVERFLOW_FILES))
def test_overflowing_inputs_are_parse_errors(tmp_path, capsys, name):
    """An input whose scale overflows exits 4 with one error line: a run
    scaled by an infinite radius would call any gap Feasible."""
    command, text = OVERFLOW_FILES[name]
    path = write(tmp_path, name, text)
    assert run([command, "--input", path]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
