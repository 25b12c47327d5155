import argparse
import json
import time
import tracemalloc

import pytest

from mutower import chainring, cli, lambda_mod
from mutower.chainring import RingBase
from mutower.compare import TowerSeries
from mutower.errors import InvalidInput, TooLarge
from mutower.groupring import GroupLevel, GroupSpec, poly_gen, poly_int
from mutower.invariants import mu_profile
from mutower.lambda_mod import presentation
from mutower.modfile import (
    load_presentation,
    load_tower_csv,
    presentation_from_dict,
    presentation_to_dict,
    save_presentation,
    save_tower_csv,
)
from mutower.synth import Garnish, GroundTruth, make_module

AB1 = GroupSpec.abelian(3, 1)
BASE3 = RingBase(3, 1, 1)


def write_module(path, gt, spec=AB1, base=BASE3):
    P = make_module(gt, spec, base)
    save_presentation(P, str(path))
    return P


def test_module_file_roundtrip(tmp_path):
    P = make_module(GroundTruth(0, (1, 2), seed=4), AB1, BASE3)
    d = presentation_to_dict(P)
    Q = presentation_from_dict(d)
    assert Q == P
    path = tmp_path / "m.json"
    save_presentation(P, str(path))
    assert load_presentation(str(path)) == P
    # coefficients serialized as decimal strings
    raw = json.loads(path.read_text())
    term = next(t for row in raw["matrix"] for e in row for t in e)
    assert isinstance(term["c"][0], str)


def test_module_file_parse_error_reports_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"ring": {"p": 3,\n  "e": }\n}')
    with pytest.raises(InvalidInput) as err:
        load_presentation(str(path))
    assert "line" in str(err.value)


def test_tower_csv_roundtrip(tmp_path):
    series = TowerSeries(r=1, p=3, data={(1, 0): 2, (1, 1): 6, (2, 0): 3, (2, 1): 9})
    path = tmp_path / "t.csv"
    save_tower_csv(series, str(path))
    loaded = load_tower_csv(str(path), 3, 1)
    assert loaded.data == series.data


def test_tower_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(InvalidInput):
        load_tower_csv(str(path), 3, 1)


def test_invariants_command(tmp_path, capsys):
    path = tmp_path / "m.json"
    write_module(path, GroundTruth(0, (1, 3), seed=2))
    code = cli.main(["invariants", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["representation"]["theta"] == 3
    assert report["representation"]["mu_total"] == 4
    assert report["mu_profile"]["1"] == 2
    assert report["config"]["command"] == "invariants"


def test_invariants_inconclusive_exit_code(tmp_path):
    path = tmp_path / "m.json"
    write_module(
        path,
        GroundTruth(0, (2,), (Garnish(1),), seed=1),
        spec=GroupSpec.abelian(2, 2),
        base=RingBase(2, 1, 1),
    )
    # default r=2 levels cannot round the garnish residual at p=2
    code = cli.main(["invariants", str(path), "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_invariants_parse_error_exit_code(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{broken")
    assert cli.main(["invariants", str(path)]) == 1


@pytest.mark.parametrize(
    "field, value", [("ring", {}), ("ring", 3), ("group", []), ("matrix", 5)], ids=str
)
def test_malformed_module_file_exit_code(tmp_path, capsys, field, value):
    d = presentation_to_dict(make_module(GroundTruth(0, (1,), seed=1), AB1, BASE3))
    d[field] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(d))
    with pytest.raises(InvalidInput):
        presentation_from_dict(d)
    assert cli.main(["invariants", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_oversized_levels_exit_code(tmp_path, capsys, monkeypatch):
    # level 5 of abelian(3, 2) would need a 28 GB division table; the guard
    # keeps it from being built even if the budget check were missing
    real_table = GroupLevel.division_table

    def guarded_table(level):
        assert level.order <= 3 ** 8, "oversized division table built"
        return real_table(level)

    monkeypatch.setattr(GroupLevel, "division_table", guarded_table)
    path = tmp_path / "m.json"
    write_module(path, GroundTruth(0, (1,), seed=1), spec=GroupSpec.abelian(3, 2))
    assert cli.main(["invariants", str(path), "--levels", "0,5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "lower --levels" in err


def write_relation_module(path, base):
    """A module file over O = ``base`` and the abelian r = 1 preset: two
    generators and the one relation (1, g)."""
    spec = GroupSpec.abelian(base.p, 1)
    save_presentation(presentation(spec, base, 2, [[poly_int(base, 1, 1), poly_gen(base, 1, 1)]]), str(path))


def test_huge_prime_module_exits_too_large(tmp_path, capsys):
    # p = 2^61 - 1: the primality check returns at once, level 0 runs on
    # Python ints, and level 1 (L = p) is refused by the expansion budget.
    path = tmp_path / "m.json"
    write_relation_module(path, RingBase(2 ** 61 - 1, 1, 1))
    assert cli.main(["invariants", str(path), "--levels", "0,1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "lower --levels" in err


@pytest.mark.parametrize(
    "option, value, hint", [("--n-max", "1000000000", "--n-max"), ("--levels", "0,1000000000", "lower --levels")]
)
def test_huge_n_max_or_level_exits_too_large(tmp_path, capsys, option, value, hint):
    # A coordinate mod 3^(10^9) would be a 200 MB Python int, and so would
    # L = 3^(10^9): the budget works from (p, e, f, N) and (p, r, m) and
    # refuses before either is formed.
    path = tmp_path / "m.json"
    write_relation_module(path, BASE3)
    n_max, levels = (10 ** 9, None) if option == "--n-max" else (6, [0, 10 ** 9])
    with pytest.raises(TooLarge):
        mu_profile(load_presentation(str(path)), n_max, levels)
    start = time.perf_counter()
    assert cli.main(["invariants", str(path), option, value]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and hint in err


def refuse_structure_tensor(tmp_path, capsys, monkeypatch, e):
    """`mutower invariants` on a module over O = Z_2[pi], pi^e = 2, exits 1
    with TooLarge before the structure tensor is built: the patch fails at
    once if the budget check were missing."""

    def refuse(base):
        raise AssertionError("structure tensor built above the budget")

    monkeypatch.setattr(chainring, "_structure_tensor", refuse)
    path = tmp_path / "m.json"
    write_relation_module(path, RingBase(2, e, 1))
    tracemalloc.start()
    try:
        code = cli.main(["invariants", str(path), "--levels", "0,1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "lower --levels or e*f" in err
    assert peak < 4 * 2 ** 20


def test_structure_tensor_budget_refuses_before_allocating(tmp_path, capsys, monkeypatch):
    # e = 1000: the 1000^3 structure tensor of O alone would take 8 GB, so
    # the expansion budget refuses it even at level 0.
    refuse_structure_tensor(tmp_path, capsys, monkeypatch, 1000)


def test_structure_tensor_copies_count_in_the_budget(tmp_path, capsys, monkeypatch):
    # e = 400: the tensor alone (8 k^3 = 0.5 GB) fits in 1 GiB, but the
    # elimination also holds its reduced and int64 copies (1.5 GB in all).
    assert 8 * 400 ** 3 < lambda_mod.EXPANSION_BUDGET_BYTES < 24 * 400 ** 3
    refuse_structure_tensor(tmp_path, capsys, monkeypatch, 400)


def test_parser_is_built_once_and_reused(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    # options of one call do not leak into the next
    path = tmp_path / "m.json"
    write_module(path, GroundTruth(0, (1,), seed=1))
    out = tmp_path / "r.txt"
    assert cli.main(["invariants", str(path), "--levels", "0,1,2", "--format", "text", "--out", str(out)]) == 0
    assert cli.main(["invariants", str(path), "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert config["levels"] is None and config["format"] == "json"


def write_tower(path):
    save_tower_csv(TowerSeries(r=1, p=3, data={(n, m): n * 3 ** m for n in (1, 2) for m in range(3)}), str(path))


def option_dests(command):
    """The dests of the options and positionals `build_parser` gives `command`."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if not isinstance(a, argparse._HelpAction)}


def test_each_report_echoes_exactly_the_options_its_command_parsed(tmp_path):
    module = tmp_path / "m.json"
    write_module(module, GroundTruth(0, (1,), seed=1))
    tower = tmp_path / "t.csv"
    write_tower(tower)
    runs = {
        "invariants": [str(module)],
        "compare": [str(module), str(module)],
        "tower": [str(tower), str(tower), "--dim", "1", "--ring", "3,1,1"],
        "synth": ["--out-dir", str(tmp_path / "corpus"), "--count", "1"],
        "selftest": ["--cases", "0"],
    }
    for command, args in runs.items():
        out = tmp_path / f"{command}.json"
        assert cli.main([command] + args + ["--out", str(out)]) == 0
        expect = {"command"} | option_dests(command) - {"out"}
        if command in ("invariants", "compare"):
            expect.add("m_range")
        assert set(json.loads(out.read_text())["config"]) == expect, command


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "m.json", "--bogus"],
        ["invariants", "m.json", "--n-max", "six"],
        [],
        ["tower", "t.csv", "t.csv", "--ring", "3,1,1"],
        ["invariants", "m.json", "--seed", "1"],
    ],
    ids=["unknown-option", "bad-integer", "no-command", "tower-without-dim", "dropped-option"],
)
def test_usage_errors_exit_1_with_one_error_line(tmp_path, capsys, argv):
    # the input files exist and are valid, so only the usage error can fail
    write_module(tmp_path / "m.json", GroundTruth(0, (1,), seed=1))
    write_tower(tmp_path / "t.csv")
    argv = [str(tmp_path / a) if a.endswith((".json", ".csv")) else a for a in argv]
    assert cli.main(argv) == cli.EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(["invariants", "--help"])
    assert stop.value.code == 0
    assert "--n-max" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, content, argv",
    [
        ("m.json", b'{"ring": "\xff"}', ["invariants"]),
        ("t.csv", b"n,m,ord\n1,0,\xff\n", ["tower", "--dim", "1", "--ring", "3,1,1"]),
        ("m.json", b"[" * 100000 + b"]" * 100000, ["invariants"]),
    ],
    ids=["module-not-utf8", "tower-not-utf8", "module-nested-too-deeply"],
)
def test_hostile_input_files_exit_1_with_one_error_line(tmp_path, capsys, name, content, argv):
    path = tmp_path / name
    path.write_bytes(content)
    files = [str(path)] * (2 if argv[0] == "tower" else 1)
    assert cli.main(argv[:1] + files + argv[1:]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:") and err.count("\n") == 1


# 5000 digits are past Python's default 4300-digit int-string limit.
@pytest.mark.parametrize(
    "coefficient", ['"' + "9" * 5000 + '"', "9" * 5000, json.dumps([0] * 2000)], ids=["string", "json-number", "list"]
)
def test_long_bad_integer_exits_1_with_a_short_error(tmp_path, capsys, coefficient):
    d = presentation_to_dict(make_module(GroundTruth(0, (1,), seed=1), AB1, BASE3))
    d["matrix"][0][0] = [{"c": ["@"], "e": [0]}]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(d).replace('"@"', coefficient))
    assert cli.main(["invariants", str(path)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 200


def test_saving_a_coefficient_past_the_conversion_limit_is_invalid_input(tmp_path):
    P = presentation(AB1, BASE3, 1, [[poly_int(BASE3, 10 ** 5000, 1)]])
    path = tmp_path / "m.json"
    with pytest.raises(InvalidInput, match="more than .* digits"):
        save_presentation(P, str(path))
    assert not path.exists()


def test_compare_command_exit_codes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    write_module(a, GroundTruth(0, (1, 3), seed=1))
    write_module(b, GroundTruth(0, (1, 3), seed=2))
    write_module(c, GroundTruth(0, (2, 2), seed=3))
    assert cli.main(["compare", str(a), str(b), "--out", str(tmp_path / "r1.json")]) == 0
    assert cli.main(["compare", str(a), str(c), "--out", str(tmp_path / "r2.json")]) == 3
    verdict = json.loads((tmp_path / "r2.json").read_text())["verdict"]
    assert verdict["kind"] == "unequal"
    assert verdict["witness_n"] == 2


def test_tower_command(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    eq = tmp_path / "eq.csv"
    A = TowerSeries(r=1, p=3, data={(n, m): mu * 3 ** m for n, mu in [(1, 2), (2, 3), (3, 4)] for m in range(3)})
    B = TowerSeries(r=1, p=3, data={(n, m): mu * 3 ** m for n, mu in [(1, 2), (2, 4), (3, 5)] for m in range(3)})
    save_tower_csv(A, str(a))
    save_tower_csv(B, str(b))
    save_tower_csv(A, str(eq))
    assert cli.main(["tower", str(a), str(eq), "--dim", "1", "--ring", "3,1,1", "--out", str(tmp_path / "r.json")]) == 0
    assert cli.main(["tower", str(a), str(b), "--dim", "1", "--ring", "3,1,1", "--out", str(tmp_path / "r.json")]) == 3
    # grid mismatch is an input error
    C = TowerSeries(r=1, p=3, data={(1, m): 2 * 3 ** m for m in range(2)})
    cpath = tmp_path / "c.csv"
    save_tower_csv(C, str(cpath))
    assert cli.main(["tower", str(a), str(cpath), "--dim", "1", "--ring", "3,1,1"]) == 1
    # so is a non-integer --ring
    assert cli.main(["tower", str(a), str(eq), "--dim", "1", "--ring", "3,x,1"]) == 1


@pytest.mark.parametrize(
    "option, value", [("--error-C", "abc"), ("--error-C", "1/0"), ("--error-C", "-1"), ("--dim", "0"), ("--dim", "-1")]
)
def test_tower_rejects_malformed_arguments(tmp_path, capsys, option, value):
    path = tmp_path / "a.csv"
    save_tower_csv(TowerSeries(r=1, p=3, data={(1, m): 2 * 3 ** m for m in range(3)}), str(path))
    argv = ["tower", str(path), str(path), "--ring", "3,1,1", "--dim", "1", option, value]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("n, m", [(1, -1), (0, 0), (-1, 0)])
def test_tower_rejects_points_below_the_grid(tmp_path, capsys, n, m):
    path = tmp_path / "a.csv"
    rows = [(n, m, 2), (n, m + 1, 6), (n + 2, m, 4), (n + 2, m + 1, 12)]
    path.write_text("n,m,ord\n" + "".join(f"{a},{b},{c}\n" for a, b, c in rows))
    assert cli.main(["tower", str(path), str(path), "--ring", "3,1,1", "--dim", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_tower_rejects_truncations_that_are_not_1_to_k(tmp_path, capsys):
    # Identical series with n in {1, 3}: an input error, not an Equal verdict
    # without representations.
    path = tmp_path / "a.csv"
    rows = [(n, m, (n + 1) * 3 ** m) for n in (1, 3) for m in range(3)]
    path.write_text("n,m,ord\n" + "".join(f"{a},{b},{c}\n" for a, b, c in rows))
    out = tmp_path / "r.json"
    argv = ["tower", str(path), str(path), "--ring", "3,1,1", "--dim", "1", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.rstrip().endswith("missing n = 2")
    assert not out.exists()


def test_tower_refuses_a_huge_truncation_at_once(tmp_path, capsys):
    # n = 10^12 in a 4-point CSV exits 1 with a one-line message that names
    # the first missing truncation, without building the range of n.
    path = tmp_path / "a.csv"
    rows = [(n, m, (n + 1) * 3 ** m) for n in (1, 10 ** 12) for m in range(2)]
    path.write_text("n,m,ord\n" + "".join(f"{a},{b},{c}\n" for a, b, c in rows))
    tracemalloc.start()
    try:
        code = cli.main(["tower", str(path), str(path), "--ring", "3,1,1", "--dim", "1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == cli.EXIT_ERROR and err.count("\n") == 1 and len(err) < 120
    assert err.rstrip().endswith("missing n = 2") and peak < 2 ** 20


def test_reports_are_byte_identical(tmp_path):
    path = tmp_path / "m.json"
    write_module(path, GroundTruth(1, (2,), seed=9))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert cli.main(["invariants", str(path), "--out", str(out1)]) == 0
    assert cli.main(["invariants", str(path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_synth_command_emits_loadable_corpus(tmp_path):
    out_dir = tmp_path / "corpus"
    assert (
        cli.main(
            ["synth", "--out-dir", str(out_dir), "--count", "3", "--seed", "5", "--ring", "3,1,1", "--out", str(tmp_path / "m.json")]
        )
        == 0
    )
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["modules"]) == 3
    for entry in manifest["modules"]:
        P = load_presentation(str(out_dir / entry["file"]))
        assert P.gens >= 0


def test_selftest_command(tmp_path, capsys):
    assert cli.main(["selftest", "--cases", "3", "--oracle-cases", "10", "--seed", "2"]) == 0
    capsys.readouterr()
    assert cli.main(["selftest", "--cases", "0"]) == 0
    out = capsys.readouterr().out
    assert "vacuous" in out


@pytest.mark.parametrize(
    "argv",
    [["selftest", "--cases", "-2"], ["selftest", "--oracle-cases", "-1"], ["synth", "--count", "-2", "--out-dir", "corpus"]],
    ids=["cases", "oracle-cases", "count"],
)
def test_negative_counts_are_refused(tmp_path, capsys, argv):
    argv = [str(tmp_path / a) if a == "corpus" else a for a in argv]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "must be >= 0" in err and err.count("\n") == 1
    assert not (tmp_path / "corpus").exists()


def test_selftest_report_follows_out_and_format(tmp_path, capsys):
    argv = ["selftest", "--cases", "2", "--oracle-cases", "5"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "PASS" and report["config"]["cases"] == 2
    assert [r["property"] for r in report["properties"]] == [
        "oracle-agreement",
        "roundtrip",
        "obfuscation-soundness",
        "pseudo-null-invisibility",
    ]
    out = tmp_path / "selftest.txt"
    assert cli.main(argv + ["--format", "text", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert "status: PASS" in out.read_text()


def test_selftest_detects_injected_corruption(capsys):
    code = cli.main(
        ["selftest", "--cases", "3", "--oracle-cases", "5", "--seed", "2", "--inject-corruption"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "obfuscation-soundness" in out


def test_text_format(tmp_path, capsys):
    path = tmp_path / "m.json"
    write_module(path, GroundTruth(0, (2,), seed=1))
    assert cli.main(["invariants", str(path), "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "mu_profile" in out and "theta: 2" in out
