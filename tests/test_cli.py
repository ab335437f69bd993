import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from galcodes.cli import _parse_lengths, _uncapped_int_text, main
from galcodes.counting import abelian_count
from galcodes.errors import DomainError
from galcodes.groups import AbelianGroup, parse_group
from galcodes.ideals import BOUND_ENV_VAR, DEFAULT_BOUND, ExhaustiveGroupRing


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out)
    assert list(doc) == ["parameters", "result", "breakdown"]
    return doc


# -- plain output ---------------------------------------------------------------

def test_count_plain(capsys):
    code, out, _ = run(capsys, "count", "--p", "2", "--r", "2", "--s", "1",
                       "--group", "Z7", "--dual", "euclidean")
    assert code == 0
    assert out == "3\n"


def test_count_total(capsys):
    code, out, _ = run(capsys, "count", "--p", "2", "--r", "2", "--s", "1",
                       "--group", "Z2", "--dual", "none")
    assert code == 0
    assert out == "7\n"


def test_count_above_the_int_text_cap(capsys):
    # the count has 5292 digits, over the interpreter's default cap of 4300
    group = "x".join(["Z3"] * 8)
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    argv = ("count", "--p", "2", "--r", "40", "--group", group, "--dual", "none")
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    code, json_out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    # the cap is lifted for the output only
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == cap
    want = abelian_count(2, 40, 1, AbelianGroup((3,) * 8)).count
    with _uncapped_int_text():
        assert len(str(want)) > 4300
        assert out == f"{want}\n"
        assert json.loads(json_out)["result"]["count"] == want


def test_count_trivial_group_z1(capsys):
    code, out, _ = run(capsys, "count", "--p", "2", "--r", "2", "--s", "1",
                       "--group", "Z1", "--dual", "euclidean")
    assert code == 0
    assert out == "1\n"
    doc = run_json(capsys, "count", "--p", "2", "--r", "2", "--s", "1",
                   "--group", "Z1", "--dual", "euclidean", "--json")
    assert doc["parameters"]["group"] == "1"


def test_exists_plain(capsys):
    code, out, _ = run(capsys, "exists", "--p", "3", "--r", "1", "--group", "Z3")
    assert code == 0
    assert out == "false\n"
    code, out, _ = run(capsys, "exists", "--p", "2", "--r", "1", "--group", "Z6")
    assert code == 0
    assert out == "true\n"


def test_gr_info_plain(capsys):
    code, out, _ = run(capsys, "gr", "info", "--p", "2", "--r", "2", "--s", "2")
    assert code == 0
    assert out.splitlines() == [
        "ring: GR(2^2,2)",
        "characteristic: 4",
        "cardinality: 16",
        "residue-field: 4",
        "modulus: x^2 + x + 1",
        "teichmuller-generator: 0,1",
    ]


def test_gr_info_far_above_the_old_scan(capsys):
    # the full scan for this modulus took about 10 s
    code, out, _ = run(capsys, "gr", "info", "--p", "7", "--r", "2", "--s", "6")
    assert code == 0
    assert "modulus: x^6 + x^5 + x^4 + 3" in out.splitlines()


def test_classes_plain(capsys):
    code, out, _ = run(capsys, "classes", "--group", "Z7", "--q", "2")
    assert code == 0
    assert out.splitlines() == [
        "(0) (0) 1 I -",
        "(1) (1),(2),(4) 3 III (3)",
        "(3) (3),(6),(5) 3 III (1)",
    ]


def test_classes_hermitian_columns(capsys):
    code, out, _ = run(capsys, "classes", "--group", "Z5", "--q", "4")
    assert code == 0
    assert out.splitlines() == [
        "(0) (0) 1 I - II' -",
        "(1) (1),(4) 2 II - III' (2)",
        "(2) (2),(3) 2 II - III' (1)",
    ]


def test_classes_each_pairing_prints_its_own_partner(capsys):
    code, out, _ = run(capsys, "classes", "--group", "Z15", "--q", "4")
    assert code == 0
    assert out.splitlines() == [
        "(0) (0) 1 I - II' -",
        "(1) (1),(4) 2 III (11) III' (7)",
        "(2) (2),(8) 2 III (7) III' (11)",
        "(3) (3),(12) 2 II - III' (6)",
        "(5) (5) 1 III (10) II' -",
        "(6) (6),(9) 2 II - III' (3)",
        "(7) (7),(13) 2 III (2) III' (1)",
        "(10) (10) 1 III (5) II' -",
        "(11) (11),(14) 2 III (1) III' (2)",
    ]


def test_construct_plain(capsys):
    code, out, _ = run(capsys, "construct", "--p", "2", "--r", "2", "--s", "1",
                       "--group", "Z2")
    assert code == 0
    assert out == "2;0\n"


def test_enumerate_plain(capsys):
    code, out, _ = run(capsys, "enumerate", "--p", "2", "--r", "2", "--s", "1",
                       "--group", "Z3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "count 1"
    assert len(lines) == 2
    assert " | " in lines[1]


def test_enumerate_counts_match(capsys):
    code, out, _ = run(capsys, "enumerate", "--p", "2", "--r", "2", "--s", "1",
                       "--group", "Z7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "count 3"
    assert len(lines) == 4


# -- tables ----------------------------------------------------------------------

def test_table_binary_lengths(capsys):
    code, out, _ = run(capsys, "table", "--p", "2", "--s", "1",
                       "--lengths", "1..8")
    assert code == 0
    assert out.splitlines() == [
        "n,NC,NEC,NHC",
        "1,3,1,", "2,7,1,", "3,9,1,", "4,23,3,",
        "5,9,1,", "6,63,3,", "7,27,3,", "8,135,11,",
    ]


def test_table_even_degree_fills_hermitian_column(capsys):
    code, out, _ = run(capsys, "table", "--p", "2", "--s", "2",
                       "--lengths", "1..4")
    assert code == 0
    assert out.splitlines() == [
        "n,NC,NEC,NHC",
        "1,3,1,1", "2,9,1,3", "3,27,3,1", "4,45,5,7",
    ]


def test_table_odd_p(capsys):
    code, out, _ = run(capsys, "table", "--p", "3", "--s", "1",
                       "--lengths", "1..6")
    assert code == 0
    assert out.splitlines()[1:] == [
        "1,3,1,", "2,9,1,", "3,16,2,", "4,27,1,", "5,9,1,", "6,256,4,",
    ]


def test_table_single_length(capsys):
    code, out, _ = run(capsys, "table", "--p", "2", "--s", "1", "--lengths", "4")
    assert code == 0
    assert out.splitlines() == ["n,NC,NEC,NHC", "4,23,3,"]


# -- json envelope ------------------------------------------------------------------

def test_count_json(capsys):
    doc = run_json(capsys, "count", "--p", "2", "--r", "2", "--s", "1",
                   "--group", "Z6", "--dual", "euclidean", "--json")
    assert doc["parameters"]["group"] == "Z6"
    assert doc["result"]["count"] == 3
    divisors = [row["divisor"] for row in doc["breakdown"]]
    assert divisors == [1, 3]
    assert all(row["provider"] for row in doc["breakdown"])


def test_exists_json(capsys):
    doc = run_json(capsys, "exists", "--p", "2", "--r", "2", "--group", "Z2",
                   "--json")
    assert doc["result"]["exists"] is True
    assert doc["result"]["principal_ideal_ring"] is False


def test_gr_info_json(capsys):
    doc = run_json(capsys, "gr", "info", "--p", "3", "--r", "2", "--s", "1",
                   "--json")
    assert doc["result"]["ring"] == "GR(3^2,1)"
    assert doc["result"]["characteristic"] == "9"
    assert doc["result"]["modulus"] == "x + 1"


@pytest.mark.parametrize("q", ["6", "1", "0"])
def test_classes_bad_q_exits_2(capsys, q):
    code, out, err = run(capsys, "classes", "--group", "Z6", "--q", q)
    assert code == 2
    assert out == ""
    assert err == f"error: {q} is not a prime power\n"


def test_classes_json(capsys):
    doc = run_json(capsys, "classes", "--group", "Z3", "--q", "2", "--json")
    assert doc["result"]["classes"] == 2
    assert doc["breakdown"][0]["euclidean_type"] == "I"
    assert doc["breakdown"][1]["euclidean_type"] == "II"
    assert "hermitian_partner" not in doc["breakdown"][1]


def test_classes_json_partners(capsys):
    doc = run_json(capsys, "classes", "--group", "Z15", "--q", "4", "--json")
    row = doc["breakdown"][1]
    assert (row["representative"], row["euclidean_type"], row["partner"]) == ("(1)", "III", "(11)")
    assert (row["hermitian_type"], row["hermitian_partner"]) == ("III'", "(7)")
    row = doc["breakdown"][4]
    assert (row["representative"], row["partner"], row["hermitian_partner"]) == ("(5)", "(10)", "-")


def test_construct_json(capsys):
    doc = run_json(capsys, "construct", "--p", "2", "--r", "2", "--s", "1",
                   "--group", "Z2", "--json")
    assert doc["result"]["generators"] == ["2;0"]
    assert doc["result"]["ideal_size"] == 4


def test_table_json(capsys):
    doc = run_json(capsys, "table", "--p", "2", "--s", "1", "--lengths", "1..2",
                   "--format", "json")
    assert doc["result"]["rows"] == 2
    assert doc["breakdown"][1] == {"n": 2, "NC": 7, "NEC": 1, "NHC": None}


RING = ("--p", "2", "--r", "2")
KEY_LISTS = [  # argv, then the keys of parameters, of result and of the first breakdown row
    (("gr", "info", *RING, "--s", "2", "--json"), ["p", "r", "s"],
     ["ring", "characteristic", "cardinality", "residue-field", "modulus",
      "teichmuller-generator"], None),
    (("classes", "--group", "Z5", "--q", "4", "--json"), ["group", "q"], ["classes"],
     ["representative", "elements", "cardinality", "euclidean_type", "partner",
      "hermitian_type", "hermitian_partner"]),
    (("count", *RING, "--group", "Z6", "--json"), ["p", "r", "s", "group", "dual", "provider"],
     ["count", "provider"],
     ["divisor", "element_count", "orbit_size", "slot_type", "base_kind", "base_degree",
      "exponent", "base_value", "provider", "factor"]),
    (("exists", *RING, "--group", "Z2", "--json"), ["p", "r", "s", "group", "dual"],
     ["exists", "principal_ideal_ring"], None),
    (("construct", *RING, "--group", "Z2", "--json"), ["p", "r", "s", "group", "dual"],
     ["ring", "group", "generators", "ideal_size"], None),
    (("enumerate", *RING, "--group", "Z3", "--json"), ["p", "r", "s", "group", "dual"],
     ["count", "ring", "group"], ["generators"]),
    (("table", "--p", "2", "--s", "2", "--lengths", "1..2", "--format", "json"),
     ["p", "r", "s", "lengths"], ["rows"], ["n", "NC", "NEC", "NHC"]),
    (("verify", "--max-ring-size", "64", "--json"), ["max_ring_size"],
     ["total", "passed", "failed", "skipped", "status"],
     ["check", "parameters", "formula", "oracle", "oracle_kind", "status"]),
]


@pytest.mark.parametrize("argv, parameters, result, row", KEY_LISTS,
                         ids=[" ".join(argv[:2]) if argv[0] == "gr" else argv[0]
                              for argv, *_ in KEY_LISTS])
def test_json_key_order(capsys, argv, parameters, result, row):
    """The emitter prints each subcommand's keys in the order it built them."""
    doc = run_json(capsys, *argv)
    assert list(doc["parameters"]) == parameters
    assert list(doc["result"]) == result
    assert (list(doc["breakdown"][0]) if doc["breakdown"] else None) == row


# -- verify ---------------------------------------------------------------------------

def test_verify_small_bound(capsys):
    code, out, _ = run(capsys, "verify", "--max-ring-size", "1024")
    assert code == 0
    lines = out.splitlines()
    passed = [line for line in lines[:-1] if line.startswith("PASS")]
    skipped = [line for line in lines[:-1] if line.startswith("SKIP")]
    assert len(passed) + len(skipped) == len(lines) - 1
    assert len(passed) > 20 and skipped
    for line in skipped:
        size, bound = re.search(r"\|ring\| = (\d+) exceeds the exhaustive bound (\d+)$",
                                line).groups()
        assert int(size) > int(bound) == 1024
    assert lines[-1] == f"{len(passed)}/{len(passed)} checks passed, {len(skipped)} skipped"


def test_verify_defaults_to_the_library_bound(capsys, monkeypatch):
    """Without --max-ring-size, verify takes the bound every exhaustive
    engine takes, GALCODES_MAX_RING_SIZE else 2^16, and prints it."""
    monkeypatch.delenv(BOUND_ENV_VAR, raising=False)
    doc = run_json(capsys, "verify", "--json")
    assert doc["parameters"] == {"max_ring_size": DEFAULT_BOUND} and DEFAULT_BOUND == 1 << 16
    assert doc["result"]["status"] == "pass"
    monkeypatch.setenv(BOUND_ENV_VAR, "256")
    doc = run_json(capsys, "verify", "--json")
    assert doc == run_json(capsys, "verify", "--max-ring-size", "256", "--json")
    assert doc["parameters"] == {"max_ring_size": 256}
    # the option wins over the environment
    assert run_json(capsys, "verify", "--max-ring-size", "64", "--json")["parameters"] == {
        "max_ring_size": 64}


@pytest.mark.parametrize("raw, message", [
    ("abc", "GALCODES_MAX_RING_SIZE='abc' is not an integer"),
    ("0", "the exhaustive bound must be at least 1, got 0")], ids=["abc", "0"])
def test_verify_refuses_a_bad_bound_from_the_environment(capsys, monkeypatch, raw, message):
    monkeypatch.setenv(BOUND_ENV_VAR, raw)
    assert run(capsys, "verify") == (2, "", f"error: {message}\n")


def test_verify_json(capsys):
    doc = run_json(capsys, "verify", "--max-ring-size", "256", "--json")
    result = doc["result"]
    assert result["failed"] == 0
    assert result["status"] == "pass"
    assert result["total"] == len(doc["breakdown"])
    skipped = [rec for rec in doc["breakdown"] if rec["status"] == "skip"]
    assert result["skipped"] == len(skipped) > 0
    assert result["passed"] == result["total"] - result["skipped"]
    for rec in doc["breakdown"]:
        if rec["status"] == "skip":
            assert rec["reason"].endswith("exceeds the exhaustive bound 256")
            assert _ring_size(rec["parameters"]) > 256
            assert "formula" not in rec and "oracle" not in rec
            continue
        assert rec["status"] == "pass"
        assert rec["formula"] == rec["oracle"]
        assert "elapsed" not in rec


SEMISIMPLE_ROWS = [(2, 2, 1, "Z3", "euclidean"), (2, 2, 1, "Z7", "euclidean"),
                   (3, 2, 1, "Z2", "euclidean"), (3, 1, 1, "Z2", "euclidean"),
                   (2, 3, 1, "Z3", "euclidean"), (2, 2, 2, "Z3", "hermitian"),
                   (2, 2, 1, "Z15", "euclidean"), (2, 2, 2, "Z7", "hermitian"),
                   (3, 2, 1, "Z13", "euclidean"), (5, 2, 1, "Z12", "euclidean")]


def _ring(params):
    """(p, r, s, factors of G) of a verify record; r defaults to 2, G to Z(p^a) or Z(n)."""
    p, r, s = params["p"], params.get("r", 2), params["s"]
    if "group" in params:
        factors = parse_group(params["group"]).factors
    else:
        order = params["n"] if "n" in params else p**params["a"]
        factors = (order,) if order > 1 else ()
    return p, r, s, factors


def _ring_size(params):
    """|GR(p^r, s)[G]| of a verify record."""
    p, r, s, factors = _ring(params)
    return p**(r * s * AbelianGroup(factors).order)


def test_verify_runs_decomposition_at_every_size(capsys):
    doc = run_json(capsys, "verify", "--max-ring-size", "64", "--json")
    assert doc["result"]["status"] == "pass"
    recs = doc["breakdown"]
    decomposed = [rec["parameters"] for rec in recs
                  if rec["oracle_kind"] == "decomposition enumeration" and rec["status"] == "pass"]
    assert [tuple(params.values()) for params in decomposed] == SEMISIMPLE_ROWS
    assert max(map(_ring_size, decomposed)) == 5**24
    walked = [rec for rec in recs if rec["oracle_kind"] == "socle-walk enumeration"]
    assert all((_ring_size(rec["parameters"]) <= 64) == (rec["status"] == "pass")
               for rec in walked)
    assert any(rec["status"] == "pass" for rec in walked)


def test_verify_enumerates_each_ring_once(capsys, monkeypatch):
    seen = []
    ideal_stream = ExhaustiveGroupRing.ideal_stream

    def spy(eng):
        ideals = list(ideal_stream(eng))  # a refused ring raises before it is counted
        seen.append((eng.p, eng.r, eng.s, eng.group.factors))
        return iter(ideals)

    monkeypatch.setattr(ExhaustiveGroupRing, "ideal_stream", spy)
    doc = run_json(capsys, "verify", "--max-ring-size", "4096", "--json")
    assert doc["result"]["status"] == "pass"
    walked = {_ring(rec["parameters"]) for rec in doc["breakdown"]
              if rec["oracle_kind"] == "socle-walk enumeration" and rec["status"] == "pass"}
    assert sorted(seen) == sorted(walked)


# (p, s) -> largest n of the length tables that verify rechecks
LENGTH_TABLES = {(2, 1): 8, (2, 2): 4, (3, 1): 6, (3, 2): 3, (5, 1): 4}


def test_verify_length_rows_cover_the_tables(capsys):
    doc = run_json(capsys, "verify", "--max-ring-size", "4096", "--json")
    rows = [rec for rec in doc["breakdown"] if rec["check"] == "length-count"]
    want = [(p, s, n, dual) for (p, s), top in LENGTH_TABLES.items()
            for n in range(1, top + 1)
            for dual in ("none", "euclidean", "hermitian")[:3 if s % 2 == 0 else 2]]
    assert [tuple(rec["parameters"].values()) for rec in rows] == want
    assert all(p**(2 * s * n) <= 3**12 for p, s, n, _ in want)
    passed = [tuple(rec["parameters"].values()) for rec in rows if rec["status"] == "pass"]
    # run_json saw exit 0, so every other row is a skip
    assert passed == [(p, s, n, d) for p, s, n, d in want if p**(2 * s * n) <= 4096]


def test_verify_matches_the_golden_document(capsys):
    """Every row, value and status of verify at the bound 2^16, pinned byte
    for byte; a change that moves one regenerates the document on purpose."""
    golden = Path(__file__).parent / "data" / "verify_max_ring_size_65536.json"
    code, out, err = run(capsys, "verify", "--max-ring-size", "65536", "--json")
    assert (code, err) == (0, "")
    assert out == golden.read_text()


def test_classes_match_the_golden_documents(capsys):
    """classes --json pinned byte for byte on cyclic and non-cyclic groups,
    both layouts and the trivial group; a change that moves one regenerates
    the document on purpose."""
    golden = json.loads((Path(__file__).parent / "data" / "classes_golden.json").read_text())
    assert len(golden) >= 8
    for command, want in golden.items():
        code, out, err = run(capsys, *command.split())
        assert (code, err, out) == (0, "", want), command


def test_verify_timings_flag(capsys):
    code, out, _ = run(capsys, "verify", "--max-ring-size", "64", "--timings")
    assert code == 0
    assert "elapsed=" in out.splitlines()[0]


# -- determinism ------------------------------------------------------------------------

def test_output_is_byte_stable(capsys):
    for argv in (["count", "--p", "2", "--r", "2", "--s", "1", "--group", "Z6",
                  "--json"],
                 ["verify", "--max-ring-size", "512"],
                 ["enumerate", "--p", "2", "--r", "2", "--s", "1", "--group", "Z7"]):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


# -- error paths -------------------------------------------------------------------------

def test_malformed_group_exits_2(capsys):
    code, out, err = run(capsys, "count", "--p", "2", "--r", "2", "--s", "1",
                         "--group", "S3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_verify_refuses_bound_below_one(capsys, bound):
    code, out, err = run(capsys, "verify", "--max-ring-size", bound)
    assert code == 2
    assert out == ""
    assert err == f"error: the exhaustive bound must be at least 1, got {bound}\n"


def test_table_rejects_other_r(capsys):
    code, _, err = run(capsys, "table", "--p", "2", "--r", "3",
                       "--lengths", "1..2")
    assert code == 2
    assert "r = 2" in err


def test_construct_nonexistent_exits_2(capsys):
    code, _, err = run(capsys, "construct", "--p", "3", "--r", "1",
                       "--group", "Z3")
    assert code == 2
    assert "no self-dual code" in err


def test_bad_length_range_exits_2(capsys):
    code, _, err = run(capsys, "table", "--p", "2", "--lengths", "5..2")
    assert code == 2
    assert "length range" in err


@pytest.mark.parametrize("name", ["count", "exists", "construct", "enumerate"])
@pytest.mark.parametrize("argv, message", [
    (("--p", "1", "--r", "2", "--group", "Zx"), "p = 1 is not prime"),
    (("--p", "2", "--r", "0", "--group", "Z3", "--dual", "hermitian"),
     "r must be at least 1, got 0")], ids=["group", "pairing"])
def test_code_subcommands_check_the_ring_first(capsys, name, argv, message):
    """A bad ring is reported before a group that does not parse and before
    a Hermitian pairing over odd s."""
    assert run(capsys, name, *argv) == (2, "", f"error: {message}\n")


def test_bad_length_range_is_refused():
    with pytest.raises(DomainError, match=r"^cannot parse length range 'x'; expected a\.\.b$"):
        _parse_lengths("x")


def test_noncoprime_hermitian_usage(capsys):
    code, _, err = run(capsys, "count", "--p", "2", "--r", "2", "--s", "1",
                       "--group", "Z3", "--dual", "hermitian")
    assert code == 2
    assert "even degree" in err


COMMANDS = {"count": ("count", "--group", "Z3"), "table": ("table", "--lengths", "1..2"),
            "exists": ("exists", "--group", "Z2", "--json")}
BAD_RINGS = [(name, ("--p", p, "--r", "2"), f"p = {p} is not prime")
             for name in COMMANDS for p in ("-1", "0", "1", "4")]
BAD_RINGS += [(name, ("--p", "2", "--r", "0"), "r must be at least 1, got 0")
              for name in ("count", "exists")]
BAD_RINGS += [("table", ("--p", "2", "--s", "0"), "s must be at least 1, got 0")]


@pytest.mark.parametrize("name, ring, message", BAD_RINGS,
                         ids=[f"{name}:{ring[0][2:]}={ring[1]},{ring[2][2:]}={ring[3]}"
                              for name, ring, _ in BAD_RINGS])
def test_bad_ring_parameters_exit_2(name, ring, message):
    """Refused by construct_ring's rule before any Sylow split.  Run in a
    child process under a timeout, because p < 2 used to loop forever."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "galcodes.cli", *COMMANDS[name], *ring],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")
