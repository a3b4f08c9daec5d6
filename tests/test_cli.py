import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import monact
from monact.cli import build_parser, main
from monact.deciders import chain_conditions
from monact.errors import DuplicateName, InputSyntaxError, UnknownMonoidReference
from monact.monoid import zmod_mult_monoid
from monact.textio import parse_input, serialize_document

SAMPLE = """\
# two-element monoid with an idempotent
monoid M2 2
0 1
1 1

act A2 over M2 2
0 1
1 1
"""


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "sample.act"
    path.write_text(SAMPLE)
    return str(path)


def test_parse_and_serialize_round_trip():
    doc = parse_input(SAMPLE)
    assert set(doc.monoids) == {"M2"}
    assert set(doc.acts) == {"A2"}
    text = serialize_document(doc)
    again = parse_input(text)
    assert serialize_document(again) == text
    assert again.monoids["M2"].table == doc.monoids["M2"].table
    assert again.acts["A2"][1].action == doc.acts["A2"][1].action


def test_parse_unknown_monoid_reference():
    with pytest.raises(UnknownMonoidReference):
        parse_input("act A over nothing 1\n0\n")


def test_parse_duplicate_name():
    bad = SAMPLE + "\nmonoid M2 1\n0\n"
    with pytest.raises(DuplicateName):
        parse_input(bad)


def test_parse_bad_arity_reports_line():
    bad = "monoid M 2\n0 1\n1\n"
    with pytest.raises(InputSyntaxError) as err:
        parse_input(bad)
    assert err.value.line == 3


def test_parse_non_integer_names_line_and_column():
    bad = "monoid M 2\n0 1\n1 1\n\nact A over M 2\n0 1\n1 x\n"
    with pytest.raises(InputSyntaxError, match="'x' is not an integer") as err:
        parse_input(bad)
    assert (err.value.line, err.value.col) == (7, 2)


def test_parse_identity_must_be_first():
    bad = "monoid M 2\n1 0\n0 1\n"  # identity is element 1 here
    with pytest.raises(InputSyntaxError):
        parse_input(bad)


def test_validate_command(sample_file, capsys):
    assert main(["validate", sample_file]) == 0
    out = capsys.readouterr().out
    assert "monoid M2: ok" in out
    assert "act A2 over M2: ok" in out


def test_validate_large_regular_act_is_bounded(tmp_path, capsys):
    # (Z/512, *) acting on itself: 512^3 = 134M instances of the act
    # axiom if every triple were checked
    rows = "".join(" ".join(map(str, row)) + "\n" for row in zmod_mult_monoid(512).table)
    path = tmp_path / "z512.act"
    path.write_text(f"monoid Z 512\n{rows}\nact R over Z 512\n{rows}")
    start = time.perf_counter()
    assert main(["validate", str(path)]) == 0
    assert time.perf_counter() - start < 5.0
    assert "act R over Z: ok (size 512)" in capsys.readouterr().out


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/x.act"]) == 2


def test_validate_syntax_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.act"
    path.write_text("monoid M 2\n0 1\n1\n")
    assert main(["validate", str(path)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["classify", "--act", "A2"],
    ["classify", "--regular", "M2"],
    ["endos", "--act", "A2"],
    ["congruences", "--act", "A2"],
])
def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, argv, capsys):
    path = tmp_path / "binary.act"
    path.write_bytes(SAMPLE.encode() + b"\xff\xfe\n")
    assert main(argv[:1] + [str(path)] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert f"{path}: not UTF-8 text at byte {len(SAMPLE)}" in err


def test_crlf_input_reads_as_lf(tmp_path, sample_file, capsys):
    path = tmp_path / "crlf.act"
    path.write_bytes(SAMPLE.replace("\n", "\r\n").encode())
    outputs = []
    for name in (sample_file, str(path)):
        assert main(["classify", name, "--act", "A2", "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_classify_human(sample_file, capsys):
    assert main(["classify", sample_file, "--act", "A2"]) == 0
    out = capsys.readouterr().out
    assert "act A2 over M2" in out
    assert "fitting" in out
    assert "endomorphisms (2):" in out


def test_classify_json(sample_file, capsys):
    assert main(["classify", sample_file, "--act", "A2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == "1"
    assert doc["verdicts"] == []
    (report,) = doc["reports"]
    props = report["properties"]
    assert props["strongly_hopfian_index"] == 1
    assert props["fitting"] is True
    assert props["end_size"] == 2
    assert len(report["chains"]) == 2


PINNED = """\
monoid M2 2
0 1
1 1

monoid C2 2
0 1
1 0

monoid T 1
0

act A2 over M2 2
0 1
1 1

act S4 over C2 4
0 1
1 0
2 3
3 2

act P4 over T 4
0
1
2
3

act R4 over M2 4
0 1
1 1
2 3
3 3
"""


# sha256 prefixes of `monact classify FILE --act A --json` on PINNED; a
# change to one is a change to the classify document and must be
# deliberate
@pytest.mark.parametrize("act, digest", [
    ("A2", "0e564d002f7e"),
    ("S4", "b1260ce3d95e"),
    ("P4", "bf4267d87a4f"),
    ("R4", "722fd5d9766d"),
])
def test_classify_json_bytes_are_pinned(tmp_path, capsys, act, digest):
    path = tmp_path / "pinned.act"
    path.write_text(PINNED)
    assert main(["classify", str(path), "--act", act, "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:12] == digest


# the two `classify --json` documents the CI workflow also pins, so that
# an emitter regression shows in a local run too
def test_classify_json_of_the_five_point_trivial_act_is_pinned(tmp_path, capsys):
    # 3125 chain reports, which share 52 kernels and 31 images
    path = tmp_path / "trivial5.txt"
    path.write_text("monoid M 1\n0\n\nact A over M 5\n0\n1\n2\n3\n4\n")
    assert main(["classify", str(path), "--act", "A", "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:12] == "71b4bc37a10a"


def test_classify_json_of_regular_z8_is_pinned(capsys):
    assert main(["classify", "--regular", "Z8", "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:12] == "8dbbada0de7b"


def test_classify_json_with_odd_act_name(tmp_path, capsys):
    # a quote, a backslash and a non-ASCII letter in the name: the digest
    # pins above use plain names only
    name = 'A"\\\u00e9'
    path = tmp_path / "odd.act"
    path.write_text(f"monoid M2 2\n0 1\n1 1\n\nact {name} over M2 2\n0 1\n1 1\n", encoding="utf-8")
    assert main(["classify", str(path), "--act", name, "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["reports"][0]["act"] == name
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


def test_main_twice_in_a_row_gives_identical_results(sample_file, capsys):
    # the parser is built once and reused; a second run must not differ
    argvs = (
        ["classify", sample_file, "--act", "A2", "--json"],
        ["suite", "--max-monoid", "1", "--max-act", "2", "--theorems", "T1"],
        ["classify", sample_file, "--act", "missing"],
    )
    runs = []
    for _ in range(2):
        codes = [main(argv) for argv in argvs]
        runs.append((codes, capsys.readouterr()))
    assert runs[0][0] == [0, 0, 2]
    assert runs[0] == runs[1]
    assert build_parser() is build_parser()


def test_classify_regular_builtin(capsys):
    assert main(["classify", "--regular", "Z4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    props = doc["reports"][0]["properties"]
    assert props["strongly_hopfian_index"] == 2
    assert props["strongly_co_hopfian_index"] == 2
    assert props["quasi_injective"] is True


def test_classify_regular_from_file(sample_file, capsys):
    assert main(["classify", sample_file, "--regular", "M2"]) == 0
    out = capsys.readouterr().out
    assert "regular(M2)" in out


def test_classify_unknown_act(sample_file, capsys):
    assert main(["classify", sample_file, "--act", "missing"]) == 2


def test_endos_command(sample_file, capsys):
    # maps print as tuples, identity first, the rest in map order
    assert main(["endos", sample_file, "--act", "A2"]) == 0
    assert capsys.readouterr().out == "endomorphisms of A2 over M2: 2\n  0: (0, 1)\n  1: (1, 1)\n"


def test_endos_of_a_regular_act(capsys):
    assert main(["endos", "--regular", "Z4"]) == 0
    assert capsys.readouterr().out == (
        "endomorphisms of regular(Z4) over Z4: 4\n"
        "  0: (0, 1, 2, 3)\n"
        "  1: (1, 1, 1, 1)\n"
        "  2: (2, 1, 1, 2)\n"
        "  3: (3, 1, 2, 0)\n"
    )


def test_congruences_command(sample_file, capsys):
    assert main(["congruences", sample_file, "--act", "A2"]) == 0
    out = capsys.readouterr().out
    assert "congruences of A2 over M2: 2" in out


def test_suite_small_json_passes_and_is_deterministic(capsys):
    args = ["suite", "--max-monoid", "2", "--max-act", "2", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["schema_version"] == "1"
    assert all(v["passed"] for v in doc["verdicts"])
    assert len(doc["verdicts"]) == 14


def test_suite_theorem_filter(capsys):
    assert main(["suite", "--max-monoid", "1", "--max-act", "2",
                 "--theorems", "T1,T4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [v["theorem"] for v in doc["verdicts"]] == ["T1", "T4"]


def test_suite_unknown_theorem(capsys):
    assert main(["suite", "--theorems", "T99"]) == 2
    assert "T1, T2, T3, T4, T5, T6, T7, T8, T9, T10, T11, T12, T13, T14" in capsys.readouterr().err


def test_suite_refuses_a_theorem_named_twice(capsys):
    assert main(["suite", "--max-monoid", "1", "--max-act", "1", "--theorems", "T1,T1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "T1 more than once" in captured.err


@pytest.mark.parametrize("argv, reports, digest", [
    (["--seed", "7", "--samples", "12"], 154, "a2c2a0c9d279"),
    (["--max-monoid", "2", "--max-act", "3", "--seed", "7", "--samples", "3"], 17,
     "2fef79536d92"),
], ids=["short", "full"])
def test_suite_notes_samples_it_did_not_find(argv, reports, digest, capsys):
    # every draw returns an act, so --samples N adds N acts to the
    # corpus, stderr stays empty, and stdout keeps the pinned bytes
    assert main(["suite", "--json", *argv]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(json.loads(captured.out)["reports"]) == reports
    assert hashlib.sha256(captured.out.encode()).hexdigest()[:12] == digest


def test_suite_refuses_samples_without_a_seed(capsys):
    argv = ["suite", "--json", "--samples", "3", "--max-monoid", "2", "--max-act", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--samples needs --seed" in captured.err
    assert main([*argv, "--seed", "0"]) == 0


@pytest.mark.parametrize("ids", ["", ",", " , ,"])
def test_suite_refuses_an_empty_theorem_list(ids, capsys):
    assert main(["suite", "--max-monoid", "1", "--max-act", "1", "--theorems", ids]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no theorem" in captured.err


def test_suite_budget_exit_code(capsys):
    assert main(["suite", "--max-monoid", "5", "--max-act", "1"]) == 3


@pytest.mark.parametrize("argv", [
    ["--max-monoid", "0", "--samples", "1"],
    ["--max-act", "0"],
    ["--samples", "-1"],
])
def test_suite_rejects_out_of_range_sizes(argv, capsys):
    assert main(["suite", *argv]) == 2
    assert "at least" in capsys.readouterr().err


def test_suite_human_output(capsys):
    assert main(["suite", "--max-monoid", "1", "--max-act", "2"]) == 0
    out = capsys.readouterr().out
    assert "corpus:" in out
    assert "result: all passed" in out


def test_family36_rows(capsys):
    assert main(["family36", "--p", "2", "--max-n", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ["  1 1", "  2 2", "  3 3"]


def test_family36_rejects_composite(capsys):
    assert main(["family36", "--p", "1", "--max-n", "2"]) == 2
    assert main(["family36", "--p", "6", "--max-n", "2"]) == 2


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_family36_refuses_max_n_below_one(max_n, capsys):
    assert main(["family36", "--p", "2", "--max-n", max_n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-n must be at least 1" in captured.err


def test_family36_budget(capsys):
    assert main(["family36", "--p", "2", "--max-n", "5"]) == 3
    out, err = capsys.readouterr()
    assert out.splitlines()[1:] == ["  1 1", "  2 2", "  3 3", "  4 4"]
    assert err == "error: product size exceeds cap 4096\n"


# family36 over p and --max-n 1..5: {"p,n": [exit code, stdout, stderr]}
# as JSON with sorted keys, recorded from the implementation that built
# each product's table; past the cap the rows already printed stay
FAMILY36_PRIMES = (2, 3, 5, 7, 13, 61, 67, 2039, 4093, 4099)
FAMILY36_GRID_SHA256 = "d29ded5b5773e52ec1eaac19c534ac869d382a28dec2838ff68af71e7e2d97f4"


def test_family36_grid_is_pinned(capsys):
    grid = {}
    for p in FAMILY36_PRIMES:
        for n in range(1, 6):
            code = main(["family36", "--p", str(p), "--max-n", str(n)])
            grid[f"{p},{n}"] = [code, *capsys.readouterr()]
    blob = json.dumps(grid, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == FAMILY36_GRID_SHA256
    # at --max-n 5: the rows printed, each N N, and the refusal
    last = {p: (len(grid[f"{p},5"][1].splitlines()[1:]), grid[f"{p},5"][2])
            for p in FAMILY36_PRIMES}
    product = "error: product size exceeds cap 4096\n"
    zmod = "error: Z/{} exceeds the monoid size cap 4096\n"
    assert last == {2: (4, product), 3: (3, product), 5: (2, product), 7: (2, product),
                    13: (2, product), 61: (1, product), 67: (1, zmod.format(67**2)),
                    2039: (1, zmod.format(2039**2)), 4093: (1, zmod.format(4093**2)),
                    4099: (0, zmod.format(4099))}


def test_family36_refuses_a_large_p_before_trial_division(monkeypatch, capsys):
    # 2^61 - 1 is prime, but trial division would take minutes; Z/p is
    # past the size cap either way
    def refuse(p):
        raise AssertionError(f"trial division of {p}")

    monkeypatch.setattr(monact.monoid, "is_prime", refuse)
    for p in (4099, 2**61 - 1):
        assert main(["family36", "--p", str(p), "--max-n", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"Z/{p} exceeds the monoid size cap 4096" in captured.err
    monkeypatch.undo()
    assert main(["family36", "--p", "6", "--max-n", "1"]) == 2
    assert "6 is not prime" in capsys.readouterr().err


def test_congruences_of_eight_point_trivial_act(tmp_path, capsys):
    # only the identity acts: all Bell(8) = 4140 partitions are congruences;
    # the digest pins the listing order, and a longest chain merges two
    # classes at a time
    path = _trivial_act_file(tmp_path, 8)
    assert main(["congruences", path, "--act", "A"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "congruences of A over T: 4140"
    assert len(lines) == 1 + 4140
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == "aca047293071"
    with open(path) as fh:
        _, A = parse_input(fh.read()).acts["A"]
    assert chain_conditions(A) == (True, True, 4140, 8)


def test_congruences_refusal_names_the_enumeration(tmp_path, capsys):
    path = _trivial_act_file(tmp_path, 9)
    assert main(["congruences", path, "--act", "A"]) == 3
    assert capsys.readouterr().err == (
        "error: congruence enumeration: carrier size 9 exceeds cap 8\n")


@pytest.mark.parametrize("command", ["classify", "congruences"])
def test_regular_refusal_names_the_enumeration(command, capsys):
    # the builtin regular act is refused before its table is built, with
    # the phase a parsed 9-point act is refused by
    assert main([command, "--regular", "Z9"]) == 3
    assert capsys.readouterr().err == (
        "error: congruence enumeration: carrier size 9 exceeds cap 8\n")


def test_classify_budget_exit(capsys):
    # a 40-element regular act overflows the congruence-enumeration cap
    assert main(["classify", "--regular", "Z40"]) == 3


@pytest.mark.parametrize("command", ["classify", "endos", "congruences"])
def test_regular_builtin_needs_positive_modulus(command, capsys):
    assert main([command, "--regular", "Z0"]) == 2
    assert "modulus of at least 1" in capsys.readouterr().err


def test_regular_builtin_over_size_cap_builds_no_table(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("Z/4097 table built")

    monkeypatch.setattr(monact.monoid, "_relabel_table", refuse)
    assert main(["classify", "--regular", "Z4097"]) == 3
    assert "size cap 4096" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "congruences"])
def test_regular_builtin_over_congruence_cap_builds_no_table(command, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("Z/2048 table built")

    monkeypatch.setattr(monact.cli, "zmod_mult_monoid", refuse)
    start = time.perf_counter()
    assert main([command, "--regular", "Z2048"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "carrier size 2048 exceeds cap 8" in capsys.readouterr().err


def _trivial_act_file(tmp_path, m):
    path = tmp_path / f"trivial-{m}.act"
    path.write_text(f"monoid T 1\n0\n\nact A over T {m}\n" + "".join(f"{a}\n" for a in range(m)))
    return str(path)


def test_classify_refuses_a_carrier_past_the_byte_maps(tmp_path, capsys):
    path = _trivial_act_file(tmp_path, 256)
    assert main(["classify", path, "--act", "A"]) == 3
    assert "act analysis: carrier size 256 exceeds the byte-map cap of 255" in capsys.readouterr().err


def test_endos_lists_300_maps_without_an_analysis(capsys):
    # `endos` prints the hom search's tuple maps; no byte maps are made
    assert main(["endos", "--regular", "Z300"]) == 0
    out = capsys.readouterr().out
    assert "endomorphisms of regular(Z300) over Z300: 300" in out
    assert "  299: " in out


OVERFLOW_MESSAGE = "more than 4096 homomorphisms: search stopped at map 4097"


def test_classify_end_overflow_exit(tmp_path, capsys):
    # End of a 6-point act over the trivial monoid has 6^6 = 46656 elements;
    # the hom search stops at the first map past the cap
    path = _trivial_act_file(tmp_path, 6)
    assert main(["classify", path, "--act", "A", "--json"]) == 3
    assert OVERFLOW_MESSAGE in capsys.readouterr().err


def test_classify_seven_point_overflow_stops_early(tmp_path, capsys):
    # 7^7 = 823543 endomorphisms: the bound is checked inside the search,
    # so the list never grows past the cap
    path = _trivial_act_file(tmp_path, 7)
    start = time.perf_counter()
    assert main(["classify", path, "--act", "A"]) == 3
    assert time.perf_counter() - start < 2.0
    assert OVERFLOW_MESSAGE in capsys.readouterr().err


@pytest.mark.parametrize("m", [1000, 2000])
def test_endos_of_a_deep_search_overflow_exit(m, tmp_path, capsys):
    # one search level per point, past Python's recursion limit: the
    # search still stops at the first map past the cap and names itself
    path = _trivial_act_file(tmp_path, m)
    assert main(["endos", path, "--act", "A"]) == 3
    err = capsys.readouterr().err
    assert f"hom search from a {m}-point act to a {m}-point act over a 1-element monoid" in err
    assert OVERFLOW_MESSAGE in err


def test_classify_oversized_regular_act_is_refused_early(capsys):
    # 1024 points: the congruence cap refuses the act before End(A) or
    # any settle index is computed
    start = time.perf_counter()
    assert main(["classify", "--regular", "Z1024"]) == 3
    assert time.perf_counter() - start < 5.0
    assert "exceeds cap" in capsys.readouterr().err


def test_suite_json_same_without_asserts():
    # `python -O` strips assert statements; no output may depend on them
    argv = ["-m", "monact", "suite", "--max-monoid", "2", "--max-act", "3", "--json"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(monact.__file__)))
    plain = subprocess.run([sys.executable, *argv], env=env, capture_output=True, check=True)
    optimized = subprocess.run(
        [sys.executable, "-O", *argv], env=env, capture_output=True, check=True
    )
    assert plain.stdout and optimized.stdout == plain.stdout


def test_suite_failure_exit_code(monkeypatch, capsys):
    import monact.cli as cli
    from monact.harness import Corpus, SuiteResult, Verdict

    def fake_run_suite(spec):
        verdict = Verdict("T1", "stub", 1, 1, False, {"theorem": "T1"}, {})
        return SuiteResult(spec, Corpus([], []), [verdict], [])

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    assert main(["suite", "--max-monoid", "1", "--max-act", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "witness" in out
