"""Command line front end.

Problem files are whitespace and line oriented.  The first meaningful line
names the kind (shm, chm, sdp, maxcut, svm); the rest declare sizes and
data.  A matrix block starts with ``A <k>`` (1-indexed) followed by one line
per row.  Lines may carry ``#`` comments.  Reports are line-oriented ``key
value`` pairs with floats printed to 17 significant digits, so identical
inputs and flags produce byte-identical output.

Exit codes: 0 feasible or intersecting, 1 witness or separated, 2
inconclusive or failed verification, 3 usage error (an unreadable problem
file or unwritable report included), 4 problem parse error (a problem file
that is not UTF-8 included).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chm import FEASIBLE, INCONCLUSIVE, WITNESS, PointSet
from .reductions import (
    MaxCutInstance,
    RecessionDirectionError,
    SdpFeasibilityInstance,
    SdpReduction,
    reduce_sdp_to_shm,
    solve_maxcut_relaxation,
)
from .shm import _query_distances, solve_chm, solve_shm, verify_certificate
from .svmsep import SEPARATED, solve_separation
from .symcore import ShmInstance, SymmetricMatrix

__all__ = ["ProblemParseError", "main", "parse_problem", "run"]

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_PARSE = 4

KINDS = ("shm", "chm", "sdp", "maxcut", "svm")


class ProblemParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class ParsedProblem:
    kind: str
    payload: object


class _Lines:
    """Comment-stripped line cursor remembering source line numbers."""

    def __init__(self, text: str):
        self.rows: list[tuple[int, list[str]]] = []
        for i, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                self.rows.append((i, stripped.split()))
        self.pos = 0

    def peek(self):
        return self.rows[self.pos] if self.pos < len(self.rows) else None

    def take(self, what: str) -> tuple[int, list[str]]:
        row = self.peek()
        if row is None:
            last = self.rows[-1][0] if self.rows else 0
            raise ProblemParseError(last, f"unexpected end of file, expected {what}")
        self.pos += 1
        return row

    def done(self) -> bool:
        return self.pos >= len(self.rows)


def _floats(line_no: int, toks: list[str], want: int | None = None) -> np.ndarray:
    try:
        out = np.array([float(t) for t in toks])
    except ValueError:
        raise ProblemParseError(line_no, f"expected numbers, got {' '.join(toks)!r}") from None
    if want is not None and out.shape[0] != want:
        raise ProblemParseError(line_no, f"expected {want} values, got {out.shape[0]}")
    return out


def _int_field(lines: _Lines, key: str) -> int:
    line_no, toks = lines.take(f"'{key} <integer>'")
    if len(toks) != 2 or toks[0] != key:
        raise ProblemParseError(line_no, f"expected '{key} <integer>', got {' '.join(toks)!r}")
    try:
        val = int(toks[1])
    except ValueError:
        raise ProblemParseError(line_no, f"'{key}' needs an integer, got {toks[1]!r}") from None
    if val <= 0:
        raise ProblemParseError(line_no, f"'{key}' must be positive")
    return val


def _matrix_block(lines: _Lines, index: int, n: int) -> np.ndarray:
    line_no, toks = lines.take(f"'A {index}'")
    if len(toks) != 2 or toks[0] != "A" or toks[1] != str(index):
        raise ProblemParseError(line_no, f"expected matrix header 'A {index}', got {' '.join(toks)!r}")
    rows = []
    for _ in range(n):
        row_no, row_toks = lines.take(f"row of matrix A {index}")
        rows.append(_floats(row_no, row_toks, n))
    mat = np.array(rows)
    try:
        return SymmetricMatrix(mat)
    except ValueError as err:
        raise ProblemParseError(line_no, f"matrix A {index}: {err}") from err


def _mat_family(lines: _Lines):
    n = _int_field(lines, "n")
    m = _int_field(lines, "m")
    return n, m


def _parse_shm_body(lines: _Lines):
    """Shared body for shm and sdp kinds: n, m, b line, m matrix blocks."""
    n, m = _mat_family(lines)
    line_no, toks = lines.take("'b <values>'")
    if toks[0] != "b":
        raise ProblemParseError(line_no, f"expected 'b <values>', got {' '.join(toks)!r}")
    b = _floats(line_no, toks[1:], m)
    mats = [_matrix_block(lines, k + 1, n) for k in range(m)]
    return tuple(mats), b


def _parse_chm(lines: _Lines):
    dim = _int_field(lines, "m")
    count = _int_field(lines, "N")
    line_no, toks = lines.take("'p0 <values>'")
    if toks[0] != "p0":
        raise ProblemParseError(line_no, f"expected 'p0 <values>', got {' '.join(toks)!r}")
    p0 = _floats(line_no, toks[1:], dim)
    if not np.isfinite(p0).all():
        raise ProblemParseError(line_no, "query must be finite")
    points = []
    for _ in range(count):
        row_no, row_toks = lines.take("a point line")
        points.append(_floats(row_no, row_toks, dim))
    point_set = PointSet(np.array(points))
    _query_distances(point_set.points, p0)
    return point_set, p0


def _parse_maxcut(lines: _Lines) -> MaxCutInstance:
    n = _int_field(lines, "n")
    edges = []
    while not lines.done():
        line_no, toks = lines.take("'edge i j w'")
        if toks[0] != "edge" or len(toks) != 4:
            raise ProblemParseError(line_no, f"expected 'edge i j w', got {' '.join(toks)!r}")
        try:
            i, j = int(toks[1]), int(toks[2])
        except ValueError:
            raise ProblemParseError(line_no, "edge endpoints must be integers") from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise ProblemParseError(line_no, f"edge endpoints must lie in [1, {n}]")
        w = float(_floats(line_no, toks[3:], 1)[0])
        edges.append((i - 1, j - 1, w))
    try:
        return MaxCutInstance.from_edges(n, edges)
    except ValueError as err:
        raise ProblemParseError(lines.rows[-1][0], str(err)) from err


def _parse_svm(lines: _Lines):
    sides = {}
    for name in ("left", "right"):
        line_no, toks = lines.take(f"'{name}'")
        if toks != [name]:
            raise ProblemParseError(line_no, f"expected side header '{name}', got {' '.join(toks)!r}")
        n, m = _mat_family(lines)
        sides[name] = tuple(_matrix_block(lines, k + 1, n) for k in range(m))
    if len(sides["left"]) != len(sides["right"]):
        raise ProblemParseError(lines.rows[-1][0], "sides must declare the same m")
    return sides["left"], sides["right"]


def parse_problem(text: str) -> ParsedProblem:
    """Parse a problem file into the matching domain object."""
    lines = _Lines(text)
    if lines.done():
        raise ProblemParseError(0, "empty problem file")
    line_no, toks = lines.take("a kind line")
    if len(toks) != 1 or toks[0].lower() not in KINDS:
        raise ProblemParseError(
            line_no, f"first line must name a kind ({', '.join(KINDS)}), got {' '.join(toks)!r}"
        )
    kind = toks[0].lower()
    try:
        if kind in ("shm", "sdp"):
            mats, b = _parse_shm_body(lines)
            payload = ShmInstance(mats, b) if kind == "shm" else SdpFeasibilityInstance(mats, b)
        elif kind == "chm":
            payload = _parse_chm(lines)
        elif kind == "maxcut":
            payload = _parse_maxcut(lines)
        else:
            payload = _parse_svm(lines)
    except ProblemParseError:
        raise
    except ValueError as err:
        raise ProblemParseError(lines.rows[min(lines.pos, len(lines.rows) - 1)][0], str(err)) from err
    if not lines.done():
        extra_no, extra = lines.peek()
        raise ProblemParseError(extra_no, f"unexpected trailing record {' '.join(extra)!r}")
    return ParsedProblem(kind, payload)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _vec(v: np.ndarray) -> str:
    return " ".join(_fmt(x) for x in v)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we own the code
        raise _UsageError(message)


def _ranged(kind, accept, rule: str):
    """An argparse type: ``kind`` of the text, rejected unless ``accept``."""

    def convert(text: str):
        val = kind(text)
        if not accept(val):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return val

    convert.__name__ = kind.__name__  # argparse names it in "invalid float value"
    return convert


_FRACTION = _ranged(float, lambda x: 0.0 < x < 1.0, "in (0, 1)")
_POSITIVE = _ranged(float, lambda x: math.isfinite(x) and x > 0.0, "finite and positive")
_COUNT = _ranged(int, lambda k: k >= 0, "non-negative")


def _add_common(sub, with_solve_flags: bool):
    sub.add_argument("--input", required=True, help="problem file path")
    sub.add_argument("--epsilon", type=_FRACTION if with_solve_flags else _POSITIVE,
                     default=1e-2)
    sub.add_argument("--output", default=None, help="also write the report to this file")
    if with_solve_flags:
        sub.add_argument("--max-iters", type=_COUNT, default=None,
                         help="pivot-step budget (default 64/epsilon^2)")
        sub.add_argument("--start", choices=("rankone-e", "identity"), default="rankone-e")
        sub.add_argument("--verify", type=_COUNT, nargs="?", const=0, metavar="IGNORED",
                         help="append an audit block; a trailing count must not be "
                         "negative and is ignored")
    else:
        sub.add_argument("--max-iters", type=_COUNT, default=200_000,
                         help="pivot-step budget per probe")


@functools.cache
def _build_parser() -> _Parser:
    # one parser per process: nothing changes it after construction, and
    # parse_args returns a fresh namespace on every call
    parser = _Parser(prog="spectrahull", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    _add_common(commands.add_parser("solve", help="decide membership or separation"), True)
    _add_common(commands.add_parser("maxcut", help="bracket the cut relaxation value"), False)
    return parser


_STATUS_EXIT = {
    FEASIBLE: EXIT_OK,
    "intersecting": EXIT_OK,
    WITNESS: EXIT_WITNESS,
    SEPARATED: EXIT_WITNESS,
    INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


def _point_lines(point) -> list[str]:
    lines = [f"terms {point.num_terms}"]
    for w, v in zip(point.weights, point.vectors):
        lines.append(f"term {_fmt(w)} {_vec(v)}")
    return lines


def _solve_and_report_shm(instance: ShmInstance, args, lines: list[str]):
    cert = solve_shm(instance, args.epsilon, args.max_iters, start=args.start)
    lines.append(f"status {cert.kind.capitalize()}")
    lines.append(f"epsilon {_fmt(cert.epsilon)}")
    lines.append(f"radius-bound {_fmt(cert.radius_bound)}")
    lines.append(f"gap {_fmt(cert.gap)}")
    lines.append(f"iterations {cert.iterations}")
    lines.append(f"oracle-calls {cert.oracle_calls}")
    if cert.kind == WITNESS:
        lines.append(f"eig-margin {_fmt(cert.eig_margin)}")
        lines.append(f"hyperplane-offset {_fmt(cert.hyperplane.offset)}")
        lines.append(f"hyperplane-normal {_vec(cert.hyperplane.normal)}")
    lines.extend(_point_lines(cert.point))
    code = _STATUS_EXIT[cert.kind]
    if args.verify is not None and cert.kind in (FEASIBLE, WITNESS):
        report = verify_certificate(instance, cert)
        lines.append(
            f"verify {'passed' if report.passed else 'FAILED'} violations {report.violations}"
        )
        lines.extend(f"verify-check {msg}" for msg in report.checks)
        if not report.passed:
            code = EXIT_INCONCLUSIVE
    return code, cert


def _run_shm(instance: ShmInstance, args, lines: list[str]) -> int:
    return _solve_and_report_shm(instance, args, lines)[0]


def _run_sdp(red: SdpReduction, args, lines: list[str]) -> int:
    code, cert = _solve_and_report_shm(red.membership, args, lines)
    lines.append(f"degenerate-rhs {'true' if red.degenerate_rhs else 'false'}")
    if cert.kind == FEASIBLE and not red.degenerate_rhs:
        try:
            x, alpha = red.recover(cert.point)
        except RecessionDirectionError as err:
            lines.append(f"recession-direction {err}")
            code = EXIT_INCONCLUSIVE
        else:
            lines.append(f"alpha {_fmt(alpha)}")
            for row in x:
                lines.append(f"solution-row {_vec(row)}")
    return code


def _run_chm(payload, args, lines: list[str]) -> int:
    point_set, target = payload
    cert = solve_chm(point_set, target, args.epsilon, args.max_iters)
    lines.append(f"status {cert.kind.capitalize()}")
    lines.append(f"epsilon {_fmt(cert.epsilon)}")
    lines.append(f"radius {_fmt(cert.radius_bound)}")
    lines.append(f"gap {_fmt(cert.gap)}")
    lines.append(f"iterations {cert.iterations}")
    if cert.kind == WITNESS:
        lines.append(f"hyperplane-offset {_fmt(cert.hyperplane.offset)}")
        lines.append(f"hyperplane-normal {_vec(cert.hyperplane.normal)}")
    lines.append(f"point {_vec(cert.image)}")
    lines.append(f"coeffs {_vec(cert.point.weights @ cert.point.vectors)}")
    if args.verify is not None:
        lines.append("verify skipped (only shm and sdp problems support it)")
    return _STATUS_EXIT[cert.kind]


def _run_svm(payload, args, lines: list[str]) -> int:
    left, right = payload
    cert = solve_separation(left, right, args.epsilon, args.max_iters)
    lines.append(f"status {cert.kind.capitalize()}")
    lines.append(f"epsilon {_fmt(cert.epsilon)}")
    lines.append(f"scale {_fmt(cert.scale)}")
    lines.append(f"gap {_fmt(cert.gap)}")
    lines.append(f"iterations {cert.iterations}")
    lines.append(f"oracle-calls {cert.oracle_calls}")
    if cert.kind == SEPARATED:
        lines.append(f"left-margin {_fmt(cert.left_margin)}")
        lines.append(f"right-margin {_fmt(cert.right_margin)}")
        lines.append(f"hyperplane-offset {_fmt(cert.hyperplane.offset)}")
        lines.append(f"hyperplane-normal {_vec(cert.hyperplane.normal)}")
    if args.verify is not None:
        lines.append("verify skipped (only shm and sdp problems support it)")
    return _STATUS_EXIT[cert.kind]


def _run_maxcut(mc: MaxCutInstance, args, lines: list[str]) -> int:
    result = solve_maxcut_relaxation(mc, epsilon=args.epsilon, max_iters=args.max_iters)
    lines.append(f"status {result.status.capitalize()}")
    lines.append(f"epsilon {_fmt(result.epsilon)}")
    lines.append(f"value {_fmt(result.value)}")
    lines.append(f"lower {_fmt(result.lower)}")
    lines.append(f"upper {_fmt(result.upper)}")
    lines.append(f"cut-bound {_fmt(mc.cut_upper_bound(result.value))}")
    lines.append(f"probes {len(result.trace)}")
    lines.append(f"widened {result.widened}")
    for row in result.matrix:
        lines.append(f"row {_vec(row)}")
    return EXIT_OK if result.converged else EXIT_INCONCLUSIVE


_RUNNERS = {
    "shm": _run_shm,
    "chm": _run_chm,
    "sdp": _run_sdp,
    "svm": _run_svm,
    "maxcut": _run_maxcut,
}


def _decode(raw: bytes) -> str:
    """Problem file bytes as UTF-8 text; a bad byte is a parse error on its line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as err:
        line_no = raw.count(b"\n", 0, err.start) + 1
        raise ProblemParseError(
            line_no, f"not UTF-8 text (byte 0x{raw[err.start]:02x})"
        ) from None


def _built(problem: ParsedProblem):
    """The payload a runner takes.  The sdp's bordered instance and the svm's
    side instances are built only here, after parsing, and their checks (a
    radius bound that overflows) can still reject the input."""
    if problem.kind == "sdp":
        return reduce_sdp_to_shm(problem.payload)
    if problem.kind == "svm":
        return tuple(ShmInstance(side, np.zeros(len(side))) for side in problem.payload)
    return problem.payload


def run(argv=None) -> int:
    """Entry point returning the exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help lands here
        return int(exc.code or 0)
    try:
        raw = Path(args.input).read_bytes()
    except OSError as err:
        print(f"error: cannot read problem file: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        problem = parse_problem(_decode(raw))
    except ProblemParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    if (args.command == "maxcut") != (problem.kind == "maxcut"):
        if args.command == "maxcut":
            print("error: the maxcut subcommand needs a maxcut problem file", file=sys.stderr)
        else:
            print("error: use the maxcut subcommand for maxcut problem files", file=sys.stderr)
        return EXIT_USAGE
    try:
        payload = _built(problem)
    except ValueError as err:
        print(f"error: {problem.kind} instance: {err}", file=sys.stderr)
        return EXIT_PARSE
    lines: list[str] = [f"kind {problem.kind}"]
    code = _RUNNERS[problem.kind](payload, args, lines)
    text_out = "\n".join(lines) + "\n"
    sys.stdout.write(text_out)
    if args.output is not None:
        try:
            Path(args.output).write_text(text_out)
        except OSError as err:
            print(f"error: cannot write report: {err}", file=sys.stderr)
            return EXIT_USAGE
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
