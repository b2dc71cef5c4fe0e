"""End-to-end tests for the command line interface.

Every invocation goes through main(argv) and must print a single JSON
report with a fixed key set, byte-identical across repeated runs.
"""
import argparse
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import k2sym
from k2sym import arith, cli, funcfield, regnum, zeta
from k2sym.cli import main

REPORT_KEYS = {"certificates", "command", "inputs", "result", "schema", "status"}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out, json.loads(out)


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), argparse exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_shape_and_hilbert(capsys):
    code, _, rep = run(capsys, ["hilbert", "--place", "2", "2", "3"])
    assert code == 0
    assert set(rep) == REPORT_KEYS
    assert rep["schema"] == 1
    assert rep["command"] == "hilbert"
    assert rep["inputs"] == {"place": "2", "x": "2", "y": "3"}
    assert rep["result"] == {"value": -1}
    assert rep["status"] == "ok"


def test_reciprocity_frozen(capsys):
    code, _, rep = run(capsys, ["reciprocity", "3", "5"])
    assert code == 0
    assert rep["result"]["factors"] == [["inf", 1], ["2", 1], ["3", -1], ["5", -1]]
    assert rep["result"]["product"] == 1


def test_negative_arguments_after_separator(capsys):
    code, _, rep = run(capsys, ["reciprocity", "--", "-1/2", "105/13"])
    assert code == 0
    assert rep["result"]["product"] == 1


def test_lift_roundtrip(capsys):
    code, _, rep = run(capsys, ["lift", "--", "-1", "3:2", "7:3"])
    assert code == 0
    assert rep["certificates"] == {"roundtrip": True}
    assert rep["status"] == "ok"


def test_birchtate_frozen(capsys):
    code, _, rep = run(capsys, ["birchtate"])
    assert code == 0
    assert rep["result"] == {
        "known_order": 2,
        "product": "2",
        "w2": 24,
        "zeta_minus1": "-1/12",
    }


def test_zeta_elliptic_frozen(capsys):
    code, _, rep = run(capsys, ["zeta", "--q", "5", "--elliptic", "1", "1"])
    assert code == 0
    assert rep["result"]["l_poly"] == [1, 3, 5]
    assert rep["result"]["zeta_minus1"] == "47/32"
    assert rep["certificates"] == {"n1": 9, "n2": 27}


def test_fflift_roundtrip(capsys):
    code, _, rep = run(capsys, ["fflift", "--q", "5", "T:3"])
    assert code == 0
    assert rep["certificates"] == {"roundtrip": True}
    terms = rep["result"]["terms"]
    assert terms == [[{"den": [1], "num": [3]}, {"den": [1], "num": [0, 1]}, 1]]


def test_fflift_tests_each_key_once(capsys, monkeypatch):
    # the parser's PlaceFq runs the irreducibility test on each key; the
    # class is then built on proven places, with no second test
    calls = []
    original = funcfield.is_irreducible

    def counted(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(funcfield, "is_irreducible", counted)
    code, _, rep = run(capsys, ["fflift", "--q", "5", "T+1:3", "T^2+2:T"])
    assert code == 0 and rep["certificates"] == {"roundtrip": True}
    assert len(calls) == 2


def test_fflift_runs_the_distinct_degree_loop_once_per_key(capsys, monkeypatch):
    # each key once, where it is tested; the value T^2+1 = (T+2)(T+3) once,
    # where lift_ff factors it, and neither again in the round trip
    calls = []
    original = arith._distinct_degree
    monkeypatch.setattr(arith, "_distinct_degree", lambda F, f: calls.append(tuple(f)) or original(F, f))
    code, _, rep = run(capsys, ["fflift", "--q", "5", "T^3+T+1:T^2+1", "T^2+2:3", "T+1:T"])
    assert code == 0 and rep["certificates"] == {"roundtrip": True}
    assert sorted(calls) == [(1, 0, 1), (1, 1), (1, 1, 0, 1), (2, 0, 1)]


def test_fflift_keys_at_the_bound_pass_it(capsys):
    # total degree 400 = 5 * 80 over F_3: the keys are read, and the first,
    # T^80+1, is refused as no place
    code, _, rep = run(capsys, FFLIFT_JUST_OVER[:-1])
    assert code == 2 and rep["result"]["error"].startswith("not a monic irreducible")


def test_weil_product(capsys):
    code, _, rep = run(capsys, ["weil", "--q", "7", "(T^2+1)/(T-2)", "T^3-T+1"])
    assert code == 0
    assert rep["result"]["product"] == 1


def test_dilog_catalan(capsys):
    code, _, rep = run(capsys, ["dilog", "i"])
    assert code == 0
    assert abs(rep["result"]["value"] - 0.9159655941772190) < 1e-12
    assert rep["result"]["real_input"] is False


# each ran for seconds and exited 0 before the factoring budget (degree at
# most 80 over F_3 and 16 over F_997)
OVER_BUDGET = [
    ["weil", "--q", "3", "T^400+T+2", "T+1"],
    ["weil", "--q", "997", "T^997-T", "T+2"],
    ["weil", "--q", "3", "*".join(["(T^1000+1)"] * 10), "T+1"],
    ["ffdecompose", "--q", "3", "T+1", "T^400+T+2"],
    ["fflift", "--q", "3", "T^400+T+2:T"],
]

# keys of total degree 401 over F_3, one more than five times the factoring
# budget 80: refused before any key is tested
FFLIFT_JUST_OVER = ["fflift", "--q", "3", "T^80+1:1", "T^80+2:1", "T^80+T:1", "T^80+T+1:1", "T^80+2*T:1", "T:1"]

# values that reduce to 0 mod their key T
FFLIFT_ZERO_VALUE = [["fflift", "--q", "5", "T:5"], ["fflift", "--q", "5", "T:T"]]


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "--place", "2", "1", "+"],
        ["hilbert", "--place", "9", "2", "3"],
        ["zeta", "--q", "5", "--elliptic", "0", "0"],
        ["cartier", "--p", "3", "--degree", "1", "t", "0"],
        ["tame", "1/0", "3", "5"],
        ["weil", "--q", "1048576", "T", "T+1"],
        ["hilbert", "--place", "2", "(" * 2000 + "2" + ")" * 2000, "3"],
        ["weil", "--q", "3", "T^999999", "T+1"],
        ["fflift", "--q", "5", "T^2:T"],
        ["fflift", "--q", "5", "2*T:3"],
        ["lift", "1", "7:3", "7:5"],
        ["fflift", "--q", "5", "T:2", "T:3"],
        ["steinberg", "--q", "5", "--zeta", "1"],
        ["steinberg", "--q", "5", "--zeta", "0"],
        ["steinberg", "--q", "9", "--zeta", "30"],
        ["steinberg", "--q", "5", "--zeta", "7"],
        ["lift", "1", "9:1"],
        ["lift", "1", "2:1"],
        ["lift", "--", "-1", "4:1"],
        ["lift", "1", "0:5"],
        ["fflift", "--q", "5", "T^2:1"],
        ["fflift", "--q", "5", "2*T:1"],
        ["fflift", "--q", "5", "T^2+1:6"],
        ["fflift", "--q", "5", "0:1"],
        ["steinberg", "--q", "1000003"],
        ["reciprocity", "0", "1"],
        ["quaternion", "0", "1"],
        ["pfister", "0", "1"],
        ["hilbert", "--place", "3", "0", "1"],
        ["conic", "--height", "0", "1", "1"],
        ["weil", "--q", "5", "0", "T+1"],
        ["weil", "--q", "5", "T+1", "0"],
        ["ffdecompose", "--q", "5", "0", "T+1"],
        ["hilbert", "--place", "318665857834031151167461", "2", "3"],
        ["hilbert", "--place", "3317044064679887385961981", "2", "3"],
        ["reciprocity", "1/0 +", "2"],
        ["conic", "--height", "0", "2", "3"],
        ["conic", "--height", "1001", "942407", "970106"],
        *OVER_BUDGET,
        FFLIFT_JUST_OVER,
        ["conic", "0", "1"],
        ["quaternion", "--place", "3", "0", "1"],
        ["pfister", "--place", "3", "0", "1"],
        ["residue", "0", "z", "1"],
        *FFLIFT_ZERO_VALUE,
    ],
    ids=["syntax", "bad-place", "singular-curve", "not-closed", "div-zero", "field-too-large",
         "deep-nesting", "huge-exponent", "reducible-key", "non-monic-key", "repeated-prime",
         "repeated-place", "square-zeta-without-witness", "zeta-zero", "zeta-beyond-field",
         "zeta-beyond-q", "composite-key-trivial", "key-2-trivial", "key-4-trivial",
         "key-0", "reducible-key-trivial", "non-monic-key-trivial", "split-key-trivial",
         "zero-key", "steinberg-beyond-field-limit", "zero-reciprocity", "zero-quaternion",
         "zero-pfister", "zero-hilbert", "conic-height-0", "zero-weil-f", "zero-weil-g",
         "zero-ffdecompose", "spsp-place", "place-beyond-prime-bound", "div-zero-before-syntax",
         "conic-height-0-unsolvable", "conic-height-above-bound", "weil-degree-400",
         "weil-degree-997", "weil-degree-10000", "ffdecompose-degree-400", "fflift-key-degree-400",
         "fflift-keys-over-bound", "zero-conic", "zero-quaternion-at-place", "zero-pfister-at-place",
         "zero-residue", "fflift-constant-zero-value", "fflift-key-as-value"],
)
def test_invalid_inputs_exit_2(capsys, argv):
    start = time.perf_counter()
    code, _, rep = run(capsys, argv)
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert rep["status"] == "invalid"
    assert "error" in rep["result"]
    if argv[-2:] == ["0", "1"]:
        # one message for a zero argument, at one place or at all of them
        assert "symbols are defined on nonzero arguments only" in rep["result"]["error"]
    if argv[0] in ("weil", "ffdecompose") and "0" in argv[-2:] or argv[:2] == ["residue", "0"]:
        # a symbol over F_q(T) or Q(i)(z) refuses a zero entry before any place is read
        assert rep["result"]["error"] == "symbol entries must be nonzero"
    if argv in OVER_BUDGET:
        # refused by the factoring budget before anything is factored
        assert "is beyond the factoring budget" in rep["result"]["error"]
    if argv in FFLIFT_ZERO_VALUE:
        # a reduced value that is 0, named by its key, as lift_ff names one
        assert rep["result"]["error"] == "value at key [0, 1] is 0, so not a unit"
    if argv == FFLIFT_JUST_OVER:
        assert rep["result"]["error"] == ("keys of total degree 401 are beyond the fflift bound: over F_3 "
                                          "at most 400, 5 times the factoring budget of one key")


@pytest.mark.parametrize("argv, key", [
    (["lift", "1", "9:1"], "key 9 "),
    (["lift", "1", "0:5"], "key 0 "),
    (["fflift", "--q", "5", "T^2:1"], "[0, 0, 1]"),
    (["fflift", "--q", "5", "0:1"], "[]"),
])
def test_a_key_that_is_no_place_is_named(capsys, argv, key):
    # checked before the coordinate is reduced, so neither a trivial
    # coordinate nor a division by the zero key hides it
    code, _, rep = run(capsys, argv)
    assert code == 2
    assert key in rep["result"]["error"]


def test_a_huge_integer_is_refused_by_its_size(capsys):
    # 7^6000 has 5071 digits, past the interpreter's int-to-str limit of 4300
    code, _, rep = run(capsys, ["reciprocity", "*".join(["7^1000"] * 6), "3"])
    assert code == 2
    assert rep["status"] == "invalid"
    assert "beyond factorization bound" in rep["result"]["error"]


def test_zeta_report_counts_points_twice(capsys, monkeypatch):
    calls = []
    count_points = zeta.count_points

    def counted(curve, n=1):
        calls.append(n)
        return count_points(curve, n)

    monkeypatch.setattr(zeta, "count_points", counted)
    code, _, rep = run(capsys, ["zeta", "--q", "23", "--elliptic", "1", "1"])
    assert code == 0
    assert sorted(calls) == [1, 2]
    assert rep["certificates"] == {"n1": count_points(zeta.CurveFq.elliptic(23, 1, 1), 1),
                                   "n2": count_points(zeta.CurveFq.elliptic(23, 1, 1), 2)}


def test_steinberg_square_zeta_with_a_witness(capsys):
    code, _, rep = run(capsys, ["steinberg", "--q", "7", "--zeta", "2"])
    assert code == 0
    assert rep["result"] == {"x": 3, "y": 3, "zeta": 2}


def test_selftest_all_ok(capsys):
    code, _, rep = run(capsys, ["selftest"])
    assert code == 0
    checks = rep["result"]["checks"]
    assert len(checks) == 10
    assert all(outcome == "ok" for _, outcome in checks)


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, ["residue", "z^2-1", "z/(z-3)", "1"])
    _, second, _ = run(capsys, ["residue", "z^2-1", "z/(z-3)", "1"])
    assert first == second
    _, third, _ = run(capsys, ["quadrec", "13", "17"])
    _, fourth, _ = run(capsys, ["quadrec", "13", "17"])
    assert third == fourth


# one well-formed argv per subcommand
EVERY_COMMAND = [
    ["hilbert", "--place", "2", "2", "3"], ["tame", "2", "3", "5"], ["conic", "1", "1"],
    ["decompose", "2", "3"], ["lift", "1", "7:3"], ["reciprocity", "2", "3"], ["quadrec", "13", "17"],
    ["moore", "2", "3"], ["weil", "--q", "9", "T^2+1", "T+2"], ["ffdecompose", "--q", "3", "T", "T+1"],
    ["fflift", "--q", "3", "T:2"], ["steinberg", "--q", "25"], ["qform", "1", "2", "3"],
    ["quaternion", "-1", "-1"], ["pfister", "2", "3"], ["dform", "--p", "3", "s", "t"],
    ["cartier", "--p", "3", "s*t"], ["numember", "--p", "3", "--degree", "2", "s*t"],
    ["zeta", "--q", "5", "--elliptic", "1", "1"], ["tateid", "--q", "5"], ["birchtate"],
    ["dilog", "i"], ["residue", "z^2-1", "z/(z-3)", "1"], ["selftest"],
]


def test_startup_does_not_import_numpy():
    # the library uses the standard library only: importing it, building the
    # parser and running every subcommand leaves numpy unloaded
    subparsers = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(argv[0] for argv in EVERY_COMMAND) == sorted(subparsers.choices)
    script = (
        "import contextlib, io, sys\n"
        "import k2sym\n"
        "assert 'numpy' not in sys.modules, 'import k2sym loaded numpy'\n"
        "import k2sym.cli\n"
        "assert k2sym.cli._build_parser.cache_info().currsize == 0, 'import built the parser'\n"
        "from k2sym.cli import main\n"
        f"for argv in {EVERY_COMMAND!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, f'{argv[0]} loaded numpy'\n"
    )
    src = str(Path(k2sym.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_conic_with_a_prime_near_the_factor_bound_is_quick():
    # 999999999989 is the largest prime below FACTOR_BOUND = 10^12; the
    # decision reads one factorization per coefficient and builds nothing of
    # the size of the prime.  The address-space cap and the timeout keep a
    # regression bounded
    script = (
        "import resource, sys\n"
        "cap = 1536 * 2**20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "from k2sym.cli import main\n"
        "sys.exit(main(['conic', '1', '999999999989']))\n"
    )
    src = str(Path(k2sym.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=10)
    assert done.returncode == 0, done.stderr
    rep = json.loads(done.stdout)
    assert rep["result"]["solvable"] and rep["certificates"]["point"] == ["1", "0"]


@pytest.mark.parametrize("f, g, log_tame", [
    ("z+1", "(z-1)^2", math.log(4)),
    ("(z-1)^3/(z+2)", "(z-1)^2*(z+3)", -math.log(576)),
    ("z+2", "(z-1)^2*(z+3)", math.log(9)),
])
def test_residue_at_a_multiple_root(capsys, f, g, log_tame):
    start = time.perf_counter()
    code, _, rep = run(capsys, ["residue", f, g, "1"])
    assert time.perf_counter() - start < 2.0
    assert code == 0 and rep["result"]["holds"]
    assert abs(rep["result"]["integral"] - log_tame) < 1e-6


@pytest.mark.parametrize("g, log_tame", [("z-2", 0.0), ("z-1/3", 150 * math.log(8 / 9))])
def test_residue_of_degree_300_holds_quickly(capsys, g, log_tame):
    # f = (z-1)^150 (z+1)^150 at 1/3 has coefficients past 2^290; a unit g
    # makes the tame symbol 1, and g = z - 1/3 makes it f(1/3) = (8/9)^150
    start = time.perf_counter()
    code, _, rep = run(capsys, ["residue", "(z-1)^150*(z+1)^150", g, "1/3"])
    assert time.perf_counter() - start < 2.0
    assert code == 0 and rep["result"]["holds"]
    assert abs(rep["result"]["integral"] - log_tame) < 1e-6


# a fixed sequence with defaults, nargs="*" lists and optional pairs that a
# shared parser could carry from one call to the next, malformed argv between
PARSER_SEQUENCE = [
    ["lift", "1", "7:3"],
    ["lift"],
    ["lift", "-1"],
    ["cartier", "--p", "3", "s*t"],
    ["cartier", "--p"],
    ["cartier", "--p", "3", "--degree", "1", "s", "t"],
    ["nosuch"],
    ["zeta", "--q", "5"],
    ["zeta", "--q", "5", "--elliptic", "1"],
    ["zeta", "--q", "5", "--elliptic", "1", "1"],
    ["zeta", "--q", "7"],
]


def _run_sequence(capsys):
    return [_outcome(capsys, argv) for argv in PARSER_SEQUENCE]


def test_cached_parser_does_not_leak_state(capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    shared = _run_sequence(capsys)
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = _run_sequence(capsys)
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 2, 0, 2, 0, 2, 0, 0]
    assert json.loads(shared[2][1])["inputs"] == {"component": [], "sign": -1}
    assert json.loads(shared[7][1])["certificates"] == {"n1": 6}


def test_residue_reports_its_convergence(capsys):
    code, _, rep = run(capsys, ["residue", "z^2-1", "z/(z-3)", "1"])
    assert code == 0
    levels = rep["certificates"]["convergence"]
    assert [n for n, _, _ in levels] == [64 * 2**k for k in range(len(levels))]
    assert levels[0][2] is None and all(delta >= 0 for _, _, delta in levels[1:])
    assert levels[-1][1] == rep["result"]["integral"] and levels[-1][2] < 1e-9


@pytest.mark.parametrize("f, cause", [
    ("z-10^400", "the zeros and poles other than the point lie farther from it than floats reach"),
    ("z-1/10^400", "a zero or pole lies nearer the point than floats reach"),
])
def test_residue_names_a_zero_beyond_floats(capsys, f, cause):
    # the loop radius 1/(4M) would overflow, or underflow to 0
    code, _, rep = run(capsys, ["residue", f, "z", "0"])
    assert code == 2 and rep["status"] == "invalid"
    assert rep["result"] == {"error": cause}


@pytest.mark.parametrize("argv", [["residue", "2", "3", "10^400"], ["dilog", "10^400"]],
                         ids=["residue", "dilog"])
def test_a_point_beyond_floats_is_named(capsys, argv):
    code, _, rep = run(capsys, argv)
    assert code == 2 and rep["status"] == "invalid"
    assert rep["result"] == {"error": "the point lies beyond what floats reach"}


def test_residue_without_convergence_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(regnum, "MAX_SAMPLES", 64)
    code, _, rep = run(capsys, ["residue", "z^2-1", "z/(z-3)", "1"])
    assert code == 2 and rep["status"] == "invalid"
    assert rep["result"] == {"error": "no convergence after 64 samples"}


# -- argv fuzzing ---------------------------------------------------------------------
# A small grammar per subcommand.  Each slot draws a well-formed atom, and
# one time in five a malformed one; out-of-domain values (a --zeta outside
# 1..q-1, a square zeta with no witness, fields that are not prime powers)
# and repeated places come from the well-formed lists.  selftest takes no
# arguments and runs its battery in test_selftest_all_ok.

RATIONAL = (["1", "-1", "2", "3", "-6", "3/4", "-7/9", "12", "105/13", "2^5", "2^-1", "((1))"],
            ["0", "(2", "1/0", "x", "", "3*", "10^1001", "1e3"])
PRIMES = (["2", "3", "5", "7", "13"], ["9", "1", "0", "-3", "x"])
FIELDS = (["2", "3", "4", "5", "7", "9", "25"], ["6", "1", "0", "-5", "x"])
IN_T = (["T", "T+1", "T^2+1", "(T^2+1)/(T-2)", "T^3-T+1", "2*T", "3", "1/T"],
        ["0", "T/0", "T^", "(T", "x", "T^1001", "s"])
PLACES_T = (["T", "T+1", "T^2+1", "T^2+T+2"], ["2*T", "T^2", "1", "0", "x"])
VALUES_T = (["1", "2", "T", "T+2"], ["0", "x"])
IN_ST = (["s", "t", "s*t", "1+s", "s^2+t", "1/s", "1/(s*t)", "1"], ["s/0", "0", "T", "(s"])
IN_Z = (["z", "z-1", "z^2-1", "z/(z-3)", "z+i", "(z-1)^2", "1/z"], ["0", "T", "z/0"])
POINTS = (["1", "0", "i", "3", "1/2+i", "-1", "2*i"], ["x", "i/0"])
SMALL = (["0", "1", "2", "3"], ["x", "-1"])
CHAR_P = (["2", "3", "5"], ["9", "1", "0", "x"])
# keys that are no place, with coordinates that reduce to the identity
NON_PLACES = {"lift": ["9:1", "2:1", "0:5"], "fflift": ["T^2:1", "0:1"]}


def _fuzz_argv(rng):
    def atom(kinds):
        good, bad = kinds
        return rng.choice(bad if rng.random() < 0.2 else good)

    def opt(flag, kinds):
        return [flag, atom(kinds)] if rng.random() < 0.6 else []

    def some(kinds, low, high):
        return [atom(kinds) for _ in range(rng.randint(low, high))]

    def elliptic():
        return ["--elliptic", atom(SMALL), atom(SMALL)] if rng.random() < 0.6 else []

    def non_place(command):
        return [rng.choice(NON_PLACES[command])] if rng.random() < 0.3 else []

    # each entry gives (options, positionals)
    grammar = {
        "hilbert": lambda: (["--place", rng.choice(["inf", atom(PRIMES)])], some(RATIONAL, 2, 2)),
        "tame": lambda: ([], some(RATIONAL, 2, 2) + [atom(PRIMES)]),
        "conic": lambda: (opt("--height", (["1", "20"], ["0", "-4", "1001", "x"])), some(RATIONAL, 2, 2)),
        "decompose": lambda: ([], some(RATIONAL, 2, 2)),
        "lift": lambda: ([], [atom((["1", "-1"], ["2", "x"]))] + [
            f"{atom((['3', '5', '7', '11'], ['4', 'x']))}:{atom((['1', '2', '3'], ['0', 'y']))}"
            for _ in range(rng.randint(0, 3))] + non_place("lift")),
        "reciprocity": lambda: ([], some(RATIONAL, 2, 2)),
        "quadrec": lambda: ([], some(PRIMES, 2, 2)),
        "moore": lambda: ([], some(RATIONAL, 2, 2)),
        "weil": lambda: (["--q", atom(FIELDS)], some(IN_T, 2, 2)),
        "ffdecompose": lambda: (["--q", atom(FIELDS)], some(IN_T, 2, 2)),
        "fflift": lambda: (["--q", atom(FIELDS)], [
            f"{atom(PLACES_T)}:{atom(VALUES_T)}" for _ in range(rng.randint(1, 3))]
            + non_place("fflift")),
        "steinberg": lambda: (["--q", atom(FIELDS)]
                              + opt("--zeta", (["0", "1", "2", "3", "4", "7", "30"], ["-1"])), []),
        "qform": lambda: ([], some(RATIONAL, 1, 4)),
        "quaternion": lambda: (opt("--place", (["inf", "2", "3", "5"], ["9", "x"])), some(RATIONAL, 2, 2)),
        "pfister": lambda: (opt("--place", (["inf", "2", "3", "5"], ["9", "x"])), some(RATIONAL, 2, 2)),
        "dform": lambda: (["--p", atom(CHAR_P)], some(IN_ST, 2, 2)),
        "cartier": lambda: (["--p", atom(CHAR_P)] + opt("--degree", (["1", "2"], ["3"])),
                            some(IN_ST, 1, 2)),
        "numember": lambda: (["--p", atom(CHAR_P), "--degree", atom((["0", "1", "2"], ["5"]))],
                             some(IN_ST, 1, 2)),
        "zeta": lambda: (["--q", atom(FIELDS)] + elliptic(), []),
        "tateid": lambda: (["--q", atom(FIELDS)] + elliptic(), []),
        "birchtate": lambda: ([], []),
        "dilog": lambda: ([], [atom(POINTS)]),
        "residue": lambda: ([], some(IN_Z, 2, 2) + [atom(POINTS)]),
    }
    command = rng.choice(sorted(grammar))
    options, positionals = grammar[command]()
    if rng.random() < 0.05 and positionals:
        positionals.pop(rng.randrange(len(positionals)))  # a missing argument
    elif rng.random() < 0.05:
        positionals.append(atom(RATIONAL))  # a stray one
    separator = ["--"] if positionals and rng.random() < 0.5 else []
    return [command, *options, *separator, *positionals]


STATUS_OF_CODE = {0: "ok", 2: "invalid", 3: "failed"}


def test_fuzzed_argv_keeps_the_report_contract(capsys):
    """300 seeded argv: each either stops in argparse (exit 2, usage on
    stderr, no report) or prints exactly one JSON report whose status
    matches an exit code of 0, 2 or 3, and 2 when a key is no place.  Any
    other exception fails the test, and so does any one call taking 2 s
    or more."""
    rng = random.Random(2024)
    start = time.perf_counter()
    for _ in range(300):
        argv = _fuzz_argv(rng)
        call = time.perf_counter()
        try:
            code, in_argparse = main(argv), False
        except SystemExit as exc:
            code, in_argparse = exc.code, True
        elapsed = time.perf_counter() - call
        assert elapsed < 2, f"{argv} took {elapsed:.2f} s"
        out = capsys.readouterr().out
        if in_argparse:
            assert code == 2 and out == "", argv
            continue
        report = json.loads(out)  # one JSON document, nothing after it
        assert set(report) == REPORT_KEYS, argv
        assert report["status"] == STATUS_OF_CODE[code], argv
        if set(argv) & set(NON_PLACES.get(argv[0], ())):
            assert code == 2, argv
    assert time.perf_counter() - start < 30


# -- one argparse pass and a one-pass report writer -------------------------------------


# argv that test the dispatch rather than a subcommand: no subcommand, help,
# a leading --, leftover arguments, abbreviated and joined options, and a
# negative number without --
DISPATCH_ARGV = [
    [], ["-h"], ["--help"], ["--", "hilbert", "--place", "2", "2", "3"], ["nosuch", "1"],
    ["hilbert", "--place", "2", "2", "3", "4"], ["quadrec", "13", "17", "--", "5"],
    ["birchtate", "extra"], ["birchtate", "--bogus"], ["hilbert", "-h"], ["steinberg", "--help"],
    ["hilbert", "--pl", "2", "2", "3"], ["hilbert", "--place=2", "2", "3"],
    ["qform", "1", "-3/4"], ["qform", "--", "1", "-3/4"], ["lift", "1", "--", "7:3", "--", "5:2"],
]


def test_one_pass_dispatch_matches_the_top_parser(capsys, monkeypatch):
    # with no subcommand map, every argv goes through the top parser, which
    # hands the subcommand's arguments to its parser a second time
    rng = random.Random(2024)
    argvs = EVERY_COMMAND + PARSER_SEQUENCE + [_fuzz_argv(rng) for _ in range(300)] + DISPATCH_ARGV
    one_pass = [_outcome(capsys, argv) for argv in argvs]
    monkeypatch.setattr(cli, "_subcommands", lambda top: {})
    through_top = [_outcome(capsys, argv) for argv in argvs]
    assert [argv for argv, a, b in zip(argvs, one_pass, through_top) if a != b] == []


def test_leftover_arguments_are_refused_by_the_top_parser(capsys):
    code, out, err = _outcome(capsys, ["hilbert", "--place", "2", "2", "3", "4"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: k2sym [-h]")
    assert err.endswith("k2sym: error: unrecognized arguments: 4\n")


LEAVES = (st.text() | st.text(alphabet='"\\/\x00\x08\x1f\x7f\xe9\u2028\U0001f600', max_size=6)
          | st.integers() | st.integers(min_value=2**64, max_value=2**400).map(lambda n: -n)
          | st.floats() | st.booleans() | st.none()
          | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e300]))
REPORT_VALUES = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(REPORT_VALUES)
def test_report_writer_is_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [Fraction(1, 2), {"a": [{1, 2}]}, [b"x"], {"a": 1j}])
def test_report_writer_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        cli._dumps(value)
