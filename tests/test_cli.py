"""End-to-end CLI behaviour: wiring, formats, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobinc import applications, cli, field
from mobinc import sweep as sweep_module
from mobinc.bounds import BOUND_IDS
from mobinc.generators import INSTANCE_KINDS
from mobinc.pivot import MAX_PIVOT_WORK, ReductionReport

CONFIG = """
primes = 7,11
bounds = thm1-rich
generator = random-points
n = 12
k = 3
seed = 1
reps = 2
"""


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_incidence_prints_single_integer(files, capsys):
    points = files("p.txt", "1,2\n2,1\n0,0\n")
    transforms = files("t.txt", "3,0,1,4\n1,0,0,1\n")
    code, out, _ = run(capsys, "incidence", "--points", points,
                       "--transforms", transforms, "-p", "7")
    assert code == 0
    assert out.strip() == "4"  # 3 on the curved map, 1 fixed point of identity


@pytest.mark.parametrize("limit, code", [(12, 0), (11, 2)])
def test_incidence_work_is_refused_over_the_limit(files, capsys, monkeypatch, limit, code):
    # 4 maps against points at 3 distinct abscissae need 12 column tests;
    # the refusal comes before any is made.
    points = files("p.txt", "1,2\n1,3\n2,1\n0,0\n0,4\n")
    transforms = files("t.txt", "3,0,1,4\n1,0,0,1\n1,1,0,1\n2,0,0,1\n")
    monkeypatch.setattr(cli, "MAX_INCIDENCE_PAIRS", limit)
    if code:
        monkeypatch.setattr(cli, "count_incidences", _work_unreachable)
    status, out, err = run(capsys, "incidence", "--points", points,
                           "--transforms", transforms, "-p", "7")
    assert status == code
    if code:
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: the incidences of 4 maps and points at 3 distinct "
                              "abscissae need 12 column tests, over the limit")
    else:
        assert out == "7\n"  # 3 on the curved map, 1 on x, 1 on x + 1, 2 on 2x


def test_rich_enum_match(files, capsys):
    points = files("p.txt", "1,2\n2,1\n0,0\n")
    code, out, err = run(capsys, "rich-enum", "--points", points,
                         "-p", "7", "-k", "3", "--method", "both")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["1,0,5,6", "MATCH"]
    assert "timing pivot_ms=" in err and "timing brute_ms=" in err


def test_rich_enum_single_method(files, capsys):
    points = files("p.txt", "0,0\n1,1\n2,2\n3,3\n4,4\n")
    code, out, _ = run(capsys, "rich-enum", "--points", points,
                       "-p", "5", "-k", "3", "--method", "brute")
    assert code == 0
    assert out.strip() == "1,0,0,1"
    assert "MATCH" not in out


def test_rich_enum_pivot_with_no_rich_maps(files, capsys):
    points = files("p.txt", "1,2\n2,1\n")
    code, out, _ = run(capsys, "rich-enum", "--points", points,
                       "-p", "7", "-k", "3", "--method", "pivot")
    assert code == 0
    assert out == ""


def test_rich_enum_mismatch_exits_1(files, capsys, monkeypatch):
    from mobinc.incidence import TransformSet

    monkeypatch.setattr(
        cli, "rich_transforms_pivot",
        lambda P, k: TransformSet([], P.ctx),
    )
    points = files("p.txt", "0,0\n1,1\n2,2\n3,3\n4,4\n")
    code, out, err = run(capsys, "rich-enum", "--points", points,
                         "-p", "5", "-k", "3", "--method", "both")
    assert code == 1
    assert "MISMATCH" in out
    assert err.splitlines() == ["internal error: mismatch: pivot-only=0 brute-only=1"]


def test_rich_enum_mismatch_counts_a_map_the_scan_drops(files, capsys, monkeypatch):
    from mobinc.incidence import TransformSet, rich_transforms_brute

    def scan_minus_one(P, k):
        return TransformSet(list(rich_transforms_brute(P, k))[1:], P.ctx)

    monkeypatch.setattr(cli, "rich_transforms_brute", scan_minus_one)
    points = files("p.txt", "0,0\n1,1\n2,2\n3,3\n4,4\n1,2\n2,1\n0,3\n")
    code, out, err = run(capsys, "rich-enum", "--points", points,
                         "-p", "5", "-k", "3", "--method", "both")
    assert code == 1
    assert out.endswith("MISMATCH\n")
    # The timing lines follow the match test: main's diagnostic is alone.
    assert err.splitlines() == ["internal error: mismatch: pivot-only=1 brute-only=0"]


def _scan_unreachable(*args, **kwargs):
    raise AssertionError("rich_transforms_brute was called")


def _grid_file(files, p, n, row=0):
    """n distinct points mod p, one per line, filling the rows y = row,
    row + 1, ... in turn."""
    return files("grid.txt", "".join(f"{i % p},{row + i // p}\n" for i in range(n)))


# The scan limit, 547*(C(200,2) + 16) steps of p*(min(m(m-1)/2, p*m) + 16)
# for m points off the axis y = 0, falls between 147 and 148 such points at
# p = 1009 and between 46 and 47 at p = 9973.
@pytest.mark.parametrize("p, n, method", [
    (1009, 148, None),
    (9973, 48, "brute"),
])
def test_rich_enum_refuses_unbounded_scan(files, capsys, monkeypatch, p, n, method):
    # Refused once the points are loaded, before either enumerator runs.
    monkeypatch.setattr(cli, "rich_transforms_brute", _scan_unreachable)
    monkeypatch.setattr(cli, "rich_transforms_pivot", _scan_unreachable)
    argv = ["rich-enum", "--points", _grid_file(files, p, n, row=1), "-p", str(p), "-k", "3"]
    if method:
        argv += ["--method", method]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    work = p * (n * (n - 1) // 2 + 16)
    assert f"m={n} of them" in err and f"= {work} steps" in err and "--method pivot" in err


def test_rich_enum_pivot_is_not_limited_by_the_scan(files, capsys, monkeypatch):
    monkeypatch.setattr(cli, "rich_transforms_brute", _scan_unreachable)
    code, out, _ = run(capsys, "rich-enum", "--points", _grid_file(files, 1009, 3),
                       "-p", "1009", "-k", "3", "--method", "pivot")
    assert code == 0 and out == ""


def test_rich_enum_admits_scan_at_p1009(files, capsys, monkeypatch):
    monkeypatch.setattr(cli, "rich_transforms_brute", _scan_unreachable)
    with pytest.raises(AssertionError, match="rich_transforms_brute"):
        run(capsys, "rich-enum", "--points", _grid_file(files, 1009, 147, row=1),
            "-p", "1009", "-k", "3", "--method", "brute")


def test_rich_enum_scans_few_points_at_a_large_prime(files, capsys):
    # p^2 * n steps, the former count, refused these 10 points; the scan
    # walks the p + 1 rows of PGL(2, 2477) with 45 point pairs each.
    p, rng = 2477, random.Random(2477)
    points = files("p.txt", "".join(f"{v // p},{v % p}\n"
                                     for v in rng.sample(range(p * p), 10)))
    code, out, _ = run(capsys, "rich-enum", "--points", points, "-p", str(p), "-k", "3")
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "MATCH" and len(lines) - 1 == 120


@pytest.mark.parametrize("p, n, k", [(1009, 60, 1), (1009, 60, 2), (211, 300, 3)])
@pytest.mark.parametrize("method", ["brute", "both"])
def test_rich_enum_refuses_unbounded_listing(files, capsys, monkeypatch, p, n, k, method):
    # The scan's steps are admitted, but the maps it would keep are over
    # C(200, 3); refused before either enumerator runs.
    monkeypatch.setattr(cli, "rich_transforms_brute", _scan_unreachable)
    monkeypatch.setattr(cli, "rich_transforms_pivot", _scan_unreachable)
    code, out, err = run(capsys, "rich-enum", "--points", _grid_file(files, p, n),
                         "-p", str(p), "-k", str(k), "--method", method)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{n} points at p={p} and k={k} may list" in err and "C(200,3) = 1313400" in err


@pytest.mark.parametrize("p, n, k", [(61, 120, 3), (1009, 54, 3), (101, 60, 1)])
def test_rich_enum_admits_bounded_listing(files, capsys, monkeypatch, p, n, k):
    monkeypatch.setattr(cli, "rich_transforms_brute", _scan_unreachable)
    with pytest.raises(AssertionError, match="rich_transforms_brute"):
        run(capsys, "rich-enum", "--points", _grid_file(files, p, n),
            "-p", str(p), "-k", str(k), "--method", "brute")


def _pivot_unreachable(*args, **kwargs):
    raise AssertionError("the pivot enumeration was called")


@pytest.mark.parametrize("argv", [
    ["rich-enum", "-k", "3", "--method", "pivot"],
    ["rich-enum", "-k", "3", "--method", "both"],
    ["beck", "--json"],
])
def test_pivot_work_is_refused(files, capsys, monkeypatch, argv):
    # At p=17 the group scan of 201 points is admitted; n^3 is over 200^3.
    for name in ("rich_transforms_brute", "rich_transforms_pivot", "beck_statistics"):
        monkeypatch.setattr(cli, name, _pivot_unreachable)
    code, out, err = run(capsys, *argv, "-p", "17", "--points", _grid_file(files, 17, 201))
    assert MAX_PIVOT_WORK == 200**3
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "201 points" in err and "200^3" in err


@pytest.mark.parametrize("argv, stub", [
    (["rich-enum", "-k", "3", "--method", "pivot"], "rich_transforms_pivot"),
    (["beck"], "beck_statistics"),
])
def test_pivot_work_admits_200_points(files, capsys, monkeypatch, argv, stub):
    monkeypatch.setattr(cli, stub, _pivot_unreachable)
    with pytest.raises(AssertionError, match="pivot enumeration was called"):
        run(capsys, *argv, "-p", "17", "--points", _grid_file(files, 17, 200))


def test_energy_subcommand(files, capsys):
    hyper = files("h.txt", "0,0,1\n0,1,1\n1,0,1\n1,1,1\n")
    code, out, _ = run(capsys, "energy", "-p", "7", "--hyperbolas", hyper, "--json")
    assert code == 0
    record = json.loads(out)
    assert set(record) == {"size", "energy", "m", "ratio"}
    assert record["size"] == 4 and record["m"] == 2

    transforms = files("t.txt", "1,0,0,1\n1,1,0,1\n")
    code, out, _ = run(capsys, "energy", "-p", "5", "--transforms", transforms)
    assert code == 0
    assert out.strip() == "size=2 energy=6"


def test_energy_requires_exactly_one_input(files, capsys):
    code, _, err = run(capsys, "energy", "-p", "7")
    assert code == 2 and "error:" in err
    empty = files("h.txt", "# no translates\n")
    transforms = files("t.txt", "1,0,0,1\n")
    for argv in (["--hyperbolas", empty], ["--transforms", transforms, "--hyperbolas", empty]):
        code, out, err = run(capsys, "energy", "-p", "7", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def _energy_unreachable(*args, **kwargs):
    raise AssertionError("the energy was computed")


def _energy_family_file(files, flag, n):
    """n distinct maps mod 17, or n distinct hyperbola translates mod 23."""
    if flag == "--transforms":
        ctx = field.FieldContext(17)
        lines = ("%d,%d,%d,%d" % field.class_from_index(i, ctx).as_tuple() for i in range(n))
    else:
        lines = (f"{i // 23 % 23},{i % 23},{1 if i < 529 else -1}" for i in range(n))
    return files("family.txt", "".join(line + "\n" for line in lines))


@pytest.mark.parametrize("flag, p", [("--transforms", "17"), ("--hyperbolas", "23")])
def test_energy_work_is_refused(files, capsys, monkeypatch, flag, p):
    # Refused once the family is loaded, before any quotient is formed.
    monkeypatch.setattr(cli, "energy", _energy_unreachable)
    monkeypatch.setattr(cli, "energy_report", _energy_unreachable)
    code, out, err = run(capsys, "energy", "-p", p, flag,
                         _energy_family_file(files, flag, 1001))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "1001 maps" in err and "1000^2" in err
    with pytest.raises(AssertionError, match="energy was computed"):
        run(capsys, "energy", "-p", p, flag, _energy_family_file(files, flag, 1000))


def test_repr_report_and_table(files, capsys):
    a = files("a.txt", "1\n2\n3\n4\n")
    code, out, _ = run(capsys, "repr", "-p", "101", "--a", a, "--b", a, "--json")
    assert code == 0
    record = json.loads(out)
    assert tuple(record) == ("n", "k", "max_r", "bound_shape", "ratio",
                             "hypothesis_ok")
    assert record["n"] == 4 and record["max_r"] == 3
    assert record["hypothesis_ok"] is True

    code, out, _ = run(capsys, "repr", "-p", "101", "--a", a, "--b", a, "--table")
    assert code == 0
    table = dict(line.split(",") for line in out.strip().splitlines())
    assert table["4"] == "3"


def test_repr_strict_exit(files, capsys):
    a = files("a.txt", "1\n2\n3\n")
    code, _, err = run(capsys, "repr", "-p", "7", "--a", a, "--b", a, "--strict")
    assert code == 2
    assert "hypothesis" in err


def test_beck_subcommand(files, capsys):
    points = files("p.txt", "\n".join(f"{x},{x}" for x in range(5)) + "\n")
    code, out, _ = run(capsys, "beck", "-p", "5", "--points", points, "--json")
    assert code == 0
    record = json.loads(out)
    assert tuple(record) == ("n", "max_richness", "defined_count",
                             "rich_threshold_lo", "rich_threshold_hi",
                             "constant")
    assert record["defined_count"] == 1 and record["max_richness"] == 5


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
@pytest.mark.parametrize("constant", ["0", "-1", "nan"])
def test_beck_rejects_nonpositive_constant(files, capsys, constant, json_flag):
    points = files("p.txt", "\n".join(f"{x},{x}" for x in range(5)) + "\n")
    code, out, err = run(capsys, "beck", "-p", "5", "--points", points,
                         "--constant", constant, *json_flag)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_expander_subcommands(files, capsys):
    a = files("a.txt", "1\n2\n")
    code, out, _ = run(capsys, "expander", "shift-invert", "-p", "7",
                       "--a", a, "--json")
    assert code == 0
    record = json.loads(out)
    assert tuple(record) == ("kind", "input_size", "output_size",
                             "exponent", "ratio")
    assert record["output_size"] == 4
    b = files("b.txt", "0\n1\n")
    code, out, _ = run(capsys, "expander", "rational", "-p", "5",
                       "--a", b, "--json")
    assert code == 0
    assert json.loads(out)["output_size"] == 4


def test_equiv_count_subcommand(files, capsys):
    ground = files("a.txt", "0\n1\n2\n3\n4\n")
    pattern = files("s.txt", "0\n1\n2\n")
    code, out, _ = run(capsys, "equiv-count", "-p", "5", "--a", ground,
                       "--s", pattern, "--json")
    assert code == 0
    assert json.loads(out) == {"map_count": 60, "subset_count": 10}


def _work_unreachable(*args, **kwargs):
    raise AssertionError("the capped work was started")


def _values_file(files, n):
    return files(f"v{n}.txt", "".join(f"{v}\n" for v in range(n)))


@pytest.mark.parametrize("command, stub, limit", [
    (["expander", "rational"], "expander_report", "60^4"),
    (["equiv-count"], "projective_equivalence_count", "60*59*58"),
])
def test_quadratic_commands_refuse_unbounded_work(files, capsys, monkeypatch,
                                                  command, stub, limit):
    # 61 values: |A|^4 and |A|(|A|-1)(|A|-2) are over their limits, and the
    # refusal comes before the value set or any target is computed.
    monkeypatch.setattr(cli, stub, _work_unreachable)
    extra = ["--s", _values_file(files, 4)] if command == ["equiv-count"] else []
    code, out, err = run(capsys, *command, "-p", "1009", "--a", _values_file(files, 61),
                         *extra)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert limit in err and "at most 60" in err


def test_expander_shift_invert_refuses_unbounded_work(files, capsys, monkeypatch):
    # n*min(n(n-1), p-1) steps: 300 values at p = 99991 need 26910000, over
    # 60^4, and are refused before the value set is computed; 200 values
    # need at most 200*199*200 = 7960000 at any p and reach it.
    monkeypatch.setitem(applications._EXPANDERS, applications.SHIFT_INVERT,
                        (_work_unreachable, 6 / 5))
    argv = ["expander", "shift-invert", "-p", "99991", "--a"]
    code, out, err = run(capsys, *argv, _values_file(files, 300))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "300*min(300*299, 99990) = 26910000" in err and "60^4" in err
    with pytest.raises(AssertionError, match="capped work"):
        run(capsys, *argv, _values_file(files, 200))


@pytest.mark.parametrize("command, stub, n", [
    (["expander", "rational"], "expander_report", 60),
    (["expander", "shift-invert"], "expander_report", 61),
    (["equiv-count"], "projective_equivalence_count", 60),
])
def test_quadratic_commands_admit_bounded_work(files, capsys, monkeypatch,
                                               command, stub, n):
    monkeypatch.setattr(cli, stub, _work_unreachable)
    extra = ["--s", _values_file(files, 4)] if command == ["equiv-count"] else []
    with pytest.raises(AssertionError, match="capped work"):
        run(capsys, *command, "-p", "1009", "--a", _values_file(files, n), *extra)


def test_verify_reduction_exhaustive(capsys):
    code, out, _ = run(capsys, "verify-reduction", "-p", "7", "--exhaustive",
                       "--jobs", "1")
    assert code == 0
    summary, status = out.strip().splitlines()
    assert status == "OK"
    assert "violations=0" in summary
    assert "pivots=49" in summary
    assert "transforms=1764" in summary


def test_verify_reduction_sampled(capsys):
    code, out, _ = run(capsys, "verify-reduction", "-p", "13",
                       "--samples", "4", "--seed", "3", "--jobs", "1")
    assert code == 0
    assert "pivots=4" in out


def test_verify_reduction_parallel_matches(capsys):
    code, out1, _ = run(capsys, "verify-reduction", "-p", "5", "--exhaustive",
                        "--jobs", "1")
    assert code == 0
    code, out2, _ = run(capsys, "verify-reduction", "-p", "5", "--exhaustive",
                        "--jobs", "2")
    assert code == 0
    assert out1 == out2


def _unreachable(*args, **kwargs):
    raise AssertionError("check_reduction was called")


@pytest.mark.parametrize("argv", [
    ("-p", "59", "--exhaustive"),
    ("-p", "1048573", "--exhaustive"),
    ("-p", "1009", "--samples", "8"),
    ("-p", "751", "--samples", "1"),
    ("-p", "13", "--samples", "0"),
    ("-p", "13", "--samples", "-1"),
])
def test_verify_reduction_refuses_unbounded_work(capsys, monkeypatch, argv):
    # Refused before any pivot is listed or sampled, let alone checked.
    monkeypatch.setattr(cli, "check_reduction", _unreachable)
    code, out, err = run(capsys, "verify-reduction", *argv, "--jobs", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--samples" in err
    assert "at most 0" not in err


def test_verify_reduction_admits_sampled_p53(capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_reduction", _unreachable)
    with pytest.raises(AssertionError, match="check_reduction"):
        run(capsys, "verify-reduction", "-p", "53", "--samples", "8", "--jobs", "1")


def test_verify_reduction_admits_one_sample_at_p743(capsys, monkeypatch):
    # 751^3 > 53^5 >= 743^3: the refusal at p = 751 points here.
    monkeypatch.setattr(cli, "check_reduction", _unreachable)
    with pytest.raises(AssertionError, match="check_reduction"):
        run(capsys, "verify-reduction", "-p", "743", "--samples", "1", "--jobs", "1")


@pytest.mark.parametrize("p", [5, 23])
def test_verify_reduction_samples_the_same_pivots(capsys, monkeypatch, p):
    # Reference: a seeded sample of the p^2 cells, decoded and sorted.
    drawn = []

    def record(ctx, pivots, jobs):
        drawn.append(pivots)
        return ReductionReport(p, len(pivots), 0, 0, 0, 0, 0)

    monkeypatch.setattr(cli, "check_reduction", record)
    for n in (1, 8, p * p):
        for seed in (0, 1, 17, -1):
            code, _, _ = run(capsys, "verify-reduction", "-p", str(p), "--samples",
                             str(n), "--seed", str(seed), "--jobs", "1")
            assert code == 0
            expected = sorted((v // p, v % p)
                              for v in random.Random(seed).sample(range(p * p), n))
            assert drawn.pop() == expected


def test_verify_reduction_failure_exits_1(capsys, monkeypatch):
    report = ReductionReport(7, 1, 42, 1512, 1, 0, 0)
    monkeypatch.setattr(cli, "check_reduction", lambda *args, **kwargs: report)
    code, out, err = run(capsys, "verify-reduction", "-p", "7", "--samples", "1",
                         "--jobs", "1")
    assert code == 1
    assert out == ("p=7 pivots=1 transforms=42 triples=1512 violations=1 "
                   "line-collisions=0 det-mismatches=0\n")
    assert err == "internal error: REDUCTION CHECK FAILED\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", ["verify-reduction", "sweep"])
def test_jobs_below_one_is_refused(files, capsys, monkeypatch, command, jobs):
    # Refused before any work starts, not run serially.
    monkeypatch.setattr(cli, "check_reduction", _unreachable)
    monkeypatch.setattr(cli, "sweep", _unreachable)
    argv = (["verify-reduction", "-p", "5", "--exhaustive"] if command == "verify-reduction"
            else ["sweep", "--config", files("sweep.cfg", CONFIG)])
    code, out, err = run(capsys, *argv, "--jobs", jobs)
    assert code == 2 and out == ""
    assert err == f"error: --jobs must be at least 1, got {jobs}\n"


def test_tripped_guard_exits_1(files, capsys, monkeypatch):
    monkeypatch.setattr(sweep_module, "energy", lambda T: 0)
    config = files("sweep.cfg", "primes = 7\nbounds = thm3-energy\n"
                                "generator = random-transforms\nseed = 1\n")
    code, out, err = run(capsys, "sweep", "--config", config, "--jobs", "1")
    assert code == 1 and out == ""
    assert err.startswith("internal error:") and err.count("\n") == 1


class NoPool:
    """Stands in for field.Process in tests that must start no process."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a worker pool was started")


def test_jobs_capped_at_cpu_count(files, capsys, monkeypatch):
    # With one CPU no pool may start, whatever --jobs asks for.
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(field, "Process", NoPool)
    config = files("sweep.cfg", CONFIG)
    for argv in (["sweep", "--config", config],
                 ["verify-reduction", "-p", "5", "--exhaustive"]):
        code, serial, _ = run(capsys, *argv, "--jobs", "1")
        assert code == 0
        code, capped, _ = run(capsys, *argv, "--jobs", "64")
        assert code == 0
        assert capped == serial


def test_sweep_formats_and_determinism(files, capsys):
    config = files("sweep.cfg", CONFIG)
    code, out1, _ = run(capsys, "sweep", "--config", config, "--jobs", "1")
    assert code == 0
    code, out2, _ = run(capsys, "sweep", "--config", config, "--jobs", "2")
    assert code == 0
    assert out1 == out2
    first = json.loads(out1.splitlines()[0])
    assert first["bound"] == "thm1-rich"

    code, out_csv, _ = run(capsys, "sweep", "--config", config,
                           "--format", "csv", "--jobs", "1")
    assert code == 0
    assert out_csv.splitlines()[0].startswith("bound,p,size,rep,")
    assert len(out_csv.strip().splitlines()) == 1 + len(out1.strip().splitlines())


def test_sweep_seed_override_changes_rows(files, capsys):
    config = files("sweep.cfg", CONFIG)
    _, base, _ = run(capsys, "sweep", "--config", config, "--jobs", "1")
    _, other, _ = run(capsys, "sweep", "--config", config, "--jobs", "1",
                      "--seed", "2")
    assert base != other


def test_sweep_timing_flag(files, capsys):
    config = files("sweep.cfg", CONFIG)
    code, out, _ = run(capsys, "sweep", "--config", config, "--jobs", "1",
                       "--timing")
    assert code == 0
    assert "wall_ms" in out.splitlines()[0]


def test_sweep_strict_flags_hypothesis_violations(files, capsys):
    # 12 points at p=7 exceed p^{15/26}, so thm1-rich hypotheses fail
    config = files("sweep.cfg", CONFIG)
    code, out, err = run(capsys, "sweep", "--config", config, "--jobs", "1",
                         "--strict")
    assert code == 2
    assert out  # rows still emitted
    assert "violate" in err


def test_bad_inputs_exit_2(files, capsys):
    code, _, err = run(capsys, "incidence", "--points", "missing.txt",
                       "--transforms", "missing.txt", "-p", "7")
    assert code == 2 and "error:" in err
    points = files("p.txt", "1,1\n")
    code, _, err = run(capsys, "incidence", "--points", points,
                       "--transforms", points, "-p", "6")
    assert code == 2 and "not a prime" in err
    config = files("bad.cfg", "primes = 7\nbounds = nope\ngenerator = ap\nseed = 1\n")
    code, _, err = run(capsys, "sweep", "--config", config)
    assert code == 2 and "unknown bound" in err


def test_singular_transform_row_names_its_file_and_line(files, capsys):
    points = files("p.txt", "1,1\n")
    transforms = files("t.txt", "1,0,0,1\n1,2,2,4\n")
    code, out, err = run(capsys, "incidence", "-p", "5", "--points", points,
                         "--transforms", transforms)
    assert code == 2 and out == ""
    assert err == f"error: {transforms}, line 2: (1,2,2,4) has zero determinant mod 5\n"


def test_repeated_calls_in_one_process_give_the_same_output(files, capsys):
    # One parser serves every call of the process: a usage error and a
    # refused input between two runs of each subcommand change nothing.
    f = _pinned_files(files)
    values61 = _values_file(files, 61)
    cases = [
        ["incidence", "-p", "13", "--points", f["P13"], "--transforms", f["T13"]],
        ["energy", "-p", "13", "--transforms", f["T13"]],
        ["energy", "-p", "13", "--hyperbolas", f["H13"], "--json"],
        ["repr", "-p", "101", "--a", f["A101"], "--b", f["A101"]],
        ["beck", "-p", "13", "--points", f["P13"]],
        ["expander", "shift-invert", "-p", "31", "--a", f["A31"]],
        ["expander", "rational", "-p", "31", "--a", f["A31"]],
        ["equiv-count", "-p", "31", "--a", f["A31"], "--s", f["S31"]],
        ["rich-enum", "-p", "11", "-k", "3", "--points", f["P11"], "--method", "both"],
        ["rich-enum", "-p", "11", "-k", "3", "--points", f["P11"], "--method", "pivot"],
        ["verify-reduction", "-p", "13", "--samples", "5", "--seed", "4", "--jobs", "1"],
    ]
    first = [run(capsys, *argv)[:2] for argv in cases]
    assert all(code == 0 for code, _ in first)
    with pytest.raises(SystemExit) as exc:
        cli.main([*cases[0], "--bogus"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: unrecognized arguments")
    code, out, err = run(capsys, "expander", "rational", "-p", "1009", "--a", values61)
    assert code == 2 and out == "" and err.startswith("error: the rational value set")
    assert [run(capsys, *argv)[:2] for argv in cases] == first


def test_cached_parser_calls_a_replaced_function(files, capsys, monkeypatch):
    transforms = files("t.txt", "1,0,0,1\n2,0,0,1\n")
    assert run(capsys, "energy", "-p", "7", "--transforms", transforms)[0] == 0
    assert cli._parser() is cli._parser()
    calls = []
    monkeypatch.setattr(cli, "energy", lambda T: calls.append(len(T)) or 99)
    code, out, _ = run(capsys, "energy", "-p", "7", "--transforms", transforms)
    assert (code, out, calls) == (0, "size=2 energy=99\n", [2])


@pytest.mark.parametrize("generator, extra, expected_code", [
    ("cartesian", "a = 3", 0),  # a single value is a list of one
    ("cartesian", "a = 1,x", 2),
    ("ap", "step = x", 2),
])
def test_sweep_generator_values(files, capsys, generator, extra, expected_code):
    config = files("gen.cfg", "primes = 7\nbounds = thm2-incidence\n"
                   f"generator = {generator}\nseed = 1\n{extra}\n")
    code, out, err = run(capsys, "sweep", "--config", config, "--jobs", "1")
    assert code == expected_code
    if expected_code == 0:
        assert json.loads(out.splitlines()[0])["n_a"] == 1
    else:
        assert err.startswith("error:") and err.count("\n") == 1


def _pinned_files(files):
    """Seeded input files for the pinned CLI cases, by name."""
    rng = random.Random(9)
    lines = lambda rows: "".join(",".join(map(str, row)) + "\n" for row in rows)  # noqa: E731
    maps = []
    while len(maps) < 12:
        a, b, c, d = (rng.randrange(13) for _ in range(4))
        if (a * d - b * c) % 13:
            maps.append((a, b, c, d))
    return {
        "P13": files("p13.txt", lines((v // 13, v % 13) for v in rng.sample(range(169), 20))),
        "T13": files("t13.txt", lines(maps)),
        "P11": files("p11.txt", lines((v // 11, v % 11) for v in rng.sample(range(121), 14))),
        "H13": files("h13.txt", lines((a, b, 1) for a in (0, 2, 5) for b in (1, 3, 4))),
        "A101": files("a101.txt", lines([v] for v in (1, 2, 3, 4))),
        "A7": files("a7.txt", lines([v] for v in (1, 2, 3))),
        "A31": files("a31.txt", lines([v] for v in rng.sample(range(31), 8))),
        "S31": files("s31.txt", lines([v] for v in (0, 1, 5))),
    }


# The first 16 hex digits of the sha256 of (exit code, stdout, stderr without
# its timing lines) for each case of the test below.
PINNED_CLI = {
    "incidence": "3951eec0e1967016",
    "rich-enum-pivot": "29bbc587ffc06e85",
    "rich-enum-brute": "29bbc587ffc06e85",
    "rich-enum-both": "2cb661667aeb0cf6",
    "energy-maps": "cb3ed1223638d691",
    "energy-hyperbolas": "3f11c95bf3a60abc",
    "repr": "5312c57fbf4aed1b",
    "repr-table": "17d95514c4a59531",
    "repr-strict": "d2b3cb59f12da804",
    "beck": "b05e5998e48641d4",
    "beck-constant": "85b6b53d071c92c8",
    "expander-shift-invert": "f080ee975f0a975d",
    "expander-rational": "b04fde23fe5f4937",
    "equiv-count": "e89d4f5aa0b417cf",
    "verify-reduction-exhaustive": "e35eb67d384739ea",
    "verify-reduction-sampled": "3fbb0d018d2f89ec",
    "energy-maps-json": "f1a350a640149e20",
    "energy-hyperbolas-json": "d3f8023c37c4a619",
    "repr-json": "db364cde8358eda8",
    "repr-table-json": "17d95514c4a59531",
    "repr-strict-json": "5d15ab4e6e207042",
    "beck-json": "63f7c320e1194d3a",
    "beck-constant-json": "f847b4e371670fc3",
    "expander-shift-invert-json": "a627192db6de291f",
    "expander-rational-json": "c2ba0db1a543d64e",
    "equiv-count-json": "7ae918c4dabcacb6",
}


def test_cli_bytes_are_pinned(files, capsys):
    f = _pinned_files(files)
    cases = {
        "incidence": ["incidence", "-p", "13", "--points", f["P13"], "--transforms", f["T13"]],
        **{f"rich-enum-{method}": ["rich-enum", "-p", "11", "-k", "3", "--points", f["P11"],
                                   "--method", method] for method in ("pivot", "brute", "both")},
        "energy-maps": ["energy", "-p", "13", "--transforms", f["T13"]],
        "energy-hyperbolas": ["energy", "-p", "13", "--hyperbolas", f["H13"]],
        "repr": ["repr", "-p", "101", "--a", f["A101"], "--b", f["A101"]],
        "repr-table": ["repr", "-p", "101", "--a", f["A101"], "--b", f["A101"], "--table"],
        "repr-strict": ["repr", "-p", "7", "--a", f["A7"], "--b", f["A7"], "--strict"],
        "beck": ["beck", "-p", "13", "--points", f["P13"]],
        "beck-constant": ["beck", "-p", "13", "--points", f["P13"], "--constant", "2.5"],
        "expander-shift-invert": ["expander", "shift-invert", "-p", "31", "--a", f["A31"]],
        "expander-rational": ["expander", "rational", "-p", "31", "--a", f["A31"]],
        "equiv-count": ["equiv-count", "-p", "31", "--a", f["A31"], "--s", f["S31"]],
        "verify-reduction-exhaustive": ["verify-reduction", "-p", "7", "--exhaustive",
                                        "--jobs", "1"],
        "verify-reduction-sampled": ["verify-reduction", "-p", "13", "--samples", "5",
                                     "--seed", "4", "--jobs", "1"],
    }
    cases.update({f"{name}-json": [*argv, "--json"] for name, argv in cases.items()
                  if name.split("-")[0] in ("energy", "repr", "beck", "expander", "equiv")})
    digests = {}
    for name, argv in cases.items():
        code, out, err = run(capsys, *argv)
        err = "".join(line for line in err.splitlines(keepends=True)
                      if not line.startswith("timing "))
        digests[name] = hashlib.sha256(repr((code, out, err)).encode()).hexdigest()[:16]
    assert digests == PINNED_CLI


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


# Non-primes, negatives, the smallest primes, 13, and 2^61 - 1.
FUZZ_PRIMES = ("-7", "-1", "0", "1", "4", "9", "2", "3", "5", "7", "13",
               str(2**61 - 1))

_cell = st.one_of(
    st.integers(-30, 30).map(str),
    st.sampled_from(("", "x", " 4 ", "1.5", "+2", "nan", "1e3", str(10**30))),
)
_line = st.one_of(
    st.lists(_cell, max_size=5).map(",".join).map(str.encode),
    st.sampled_from((b"# comment", b"1,2 # note", b"\t", b"=", b"\r")),
    st.binary(max_size=6),
)


def _rows(arity):
    row = st.lists(st.integers(-30, 30), min_size=arity, max_size=arity)
    return st.lists(row.map(lambda r: ",".join(map(str, r)).encode()), max_size=12)


def _contents(arity):
    """Rows of the expected arity, of another arity, or malformed lines."""
    other = st.integers(1, 4).flatmap(_rows)
    return st.one_of(_rows(arity), other, st.lists(_line, max_size=12)).map(b"\n".join)


_small = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(("x", "", "1.5")))


def _listed(values, size):
    return st.lists(values, max_size=size).map(",".join)


_config_values = {
    "primes": _listed(st.sampled_from(FUZZ_PRIMES + ("x",)), 2),
    "bounds": _listed(st.sampled_from(BOUND_IDS + ("bogus",)), 2),
    "generator": st.sampled_from(INSTANCE_KINDS + ("bogus",)),
    "seed": _small,
    "constant": st.sampled_from(("1", "0.5", "0", "-1", "nan", "inf", "x")),
    "sizes": _listed(_small, 2),
    "a": _listed(_small, 3),
    "b": _listed(_small, 3),
    **{key: _small for key in ("reps", "k", "n", "na", "nb", "nt", "nh", "eps",
                               "start", "step", "ratio", "b_start")},
}
_required = ("primes", "bounds", "generator", "seed")
_config = st.one_of(
    st.fixed_dictionaries(
        {key: _config_values[key] for key in _required},
        optional={key: v for key, v in _config_values.items() if key not in _required},
    ).map(lambda config: [f"{key} = {v}".encode() for key, v in config.items()]),
    st.lists(st.one_of(_line, st.sampled_from(sorted(_config_values)).flatmap(
        lambda key: _config_values[key].map(lambda v: f"{key} = {v}".encode())
    )), max_size=10),
).map(b"\n".join)


@st.composite
def _invocation(draw):
    """A subcommand's argv with two file slots, the bytes of both files, and
    the usage error planted in argv, if any."""
    # weighted toward real primes, so that valid runs are common too
    prime = draw(st.sampled_from(FUZZ_PRIMES + ("2", "3", "5", "7", "13") * 2))
    json_flag = draw(st.sampled_from(((), ("--json",))))
    command = draw(st.sampled_from((
        "incidence", "rich-enum", "energy", "repr", "beck", "expander",
        "equiv-count", "verify-reduction", "sweep",
    )))
    arity = (1, 1)  # values per line expected in each file
    if command == "incidence":
        argv, arity = ["--points", "{0}", "--transforms", "{1}"], (2, 4)
    elif command == "rich-enum":
        argv, arity = ["--points", "{0}", "-k", draw(st.sampled_from("-1 0 2 3 4".split())),
                       "--method", draw(st.sampled_from(("pivot", "brute", "both")))], (2, 2)
    elif command == "energy":
        argv, arity = draw(st.sampled_from((
            (["--transforms", "{0}"], (4, 4)), (["--hyperbolas", "{0}"], (3, 3)),
            (["--transforms", "{0}", "--hyperbolas", "{1}"], (4, 3)), ([], (1, 1)),
        )))
        argv = argv + list(json_flag)
    elif command == "repr":
        argv = ["--a", "{0}", "--b", "{1}", *draw(st.sampled_from(
            ((), ("--table",), ("--strict",), ("--strict", "--json"))))]
    elif command == "beck":
        argv, arity = ["--points", "{0}", "--constant",
                       draw(st.sampled_from(("1", "2.5", "0", "-1", "nan", "inf"))),
                       *json_flag], (2, 2)
    elif command == "expander":
        argv = [draw(st.sampled_from(("shift-invert", "rational"))),
                "--a", "{0}", *json_flag]
    elif command == "equiv-count":
        argv = ["--a", "{0}", "--s", "{1}", *json_flag]
    elif command == "verify-reduction":
        argv = ["--samples", draw(st.sampled_from(("-1", "0", "1", "2"))),
                "--seed", draw(st.sampled_from(("0", "-5"))), "--jobs", "1",
                *draw(st.sampled_from(((), ("--exhaustive",))))]
    else:
        argv = ["--config", "{0}", "--jobs", "1", *draw(st.sampled_from(
            ((), ("--format", "csv"), ("--strict",), ("--seed", "3"))))]
    if command != "sweep":
        argv += ["-p", prime]
    # Usage errors that argparse itself rejects.
    flaw = draw(st.sampled_from((None,) * 6 + ("missing", "unknown", "int", "choice", "jobs")))
    if flaw == "missing":
        at = argv.index("--config" if command == "sweep" else "-p")
        del argv[at:at + 2]
    elif flaw == "unknown":
        argv.append("--no-such-flag")
    elif flaw == "int":
        argv += ["--jobs" if command == "sweep" else "-p", "x"]
    elif flaw == "jobs":
        # Refused by verify-reduction and sweep, unknown to the others.
        argv += ["--jobs", "0"]
    elif flaw == "choice":
        if command == "rich-enum":
            argv += ["--method", "bogus"]
        elif command == "expander":
            argv[0] = "bogus"
        elif command == "sweep":
            argv += ["--format", "bogus"]
        else:
            command = "bogus"
    first = _config if command == "sweep" else _contents(arity[0])
    return [command, *argv], (draw(first), draw(_contents(arity[1]))), flaw


@settings(max_examples=200, deadline=None)
@given(_invocation(), st.sampled_from((False,) * 7 + (True,)))
def test_cli_contract_under_fuzzed_files(invocation, missing_file):
    # Any input: exit 0, 1 or 2; a failure writes exactly one stderr line,
    # `error:` on exit 2 and `internal error:` on exit 1.
    argv, contents, flaw = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(field, "Process", NoPool):
        paths = [os.path.join(tmp, f"in{i}.txt") for i in range(2)]
        for path, data in zip(paths, contents):
            if not (missing_file and path == paths[1]):
                with open(path, "wb") as handle:
                    handle.write(data)
        argv = [arg.format(*paths) for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # how argparse reports a usage error
                code = exc.code
    assert code in (0, 1, 2)
    if flaw:
        assert code == 2, (argv, flaw)
    if code:
        text = err.getvalue()
        assert text.endswith("\n") and text.count("\n") == 1, (argv, text)
        assert text.startswith("error:" if code == 2 else "internal error:"), (argv, text)
