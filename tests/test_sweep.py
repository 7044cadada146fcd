"""Sweep configs, row computation, formats, determinism."""

import hashlib
import json
import time

import pytest

from mobinc import cli, field, generators
from mobinc import sweep as sweep_module
from mobinc.bounds import BOUND_IDS, dyadic_threshold
from mobinc.field import FieldContext
from mobinc.generators import INSTANCE_KINDS
from mobinc.io import parse_config_text
from mobinc.sweep import (
    ROW_FIELDS,
    SweepConfig,
    rows_to_csv,
    rows_to_jsonl,
    sweep,
)

DEMO_CONFIG = """
# small demo config
primes = 7,11
bounds = thm1-rich
generator = random-points
n = 12
k = 3
seed = 1
reps = 5
"""


def config_from(text):
    return SweepConfig.from_mapping(parse_config_text(text))


def test_config_parsing():
    config = config_from(DEMO_CONFIG)
    assert config.primes == (7, 11)
    assert config.bounds == ("thm1-rich",)
    assert config.generator == "random-points"
    assert config.seed == 1 and config.reps == 5 and config.k == 3
    assert config.params == {"n": 12}


def test_config_validation_errors(monkeypatch):
    with pytest.raises(ValueError, match="sweep primes must be primes >= 5, got 4"):
        config_from("primes = 4\nbounds = thm1-rich\ngenerator = random-points\nseed = 1")
    with pytest.raises(ValueError, match="sweep primes must be primes >= 5, got 3"):
        config_from("primes = 3\nbounds = thm1-rich\ngenerator = random-points\nseed = 1")
    with pytest.raises(ValueError, match="unknown bound identifier 'thm9'"):
        config_from("primes = 7\nbounds = thm9\ngenerator = random-points\nseed = 1")
    with pytest.raises(ValueError, match="unknown generator 'bogus'"):
        config_from("primes = 7\nbounds = thm1-rich\ngenerator = bogus\nseed = 1")
    with pytest.raises(ValueError, match=r"config is missing keys: \['seed'\]"):
        config_from("primes = 7\nbounds = thm1-rich\ngenerator = random-points")
    for extra, message in (("k = 2", "rich-transformation bounds need k >= 3"),
                           ("k = 1", "k must be at least 2"),
                           ("reps = 0", "reps must be at least 1")):
        with pytest.raises(ValueError, match=message):
            config_from(
                f"primes = 7\nbounds = thm1-rich\ngenerator = random-points\nseed = 1\n{extra}"
            )
    # A malformed typed value names its key.
    for extra, message in (("primes = x", "'primes' must be a comma list of integers"),
                           ("k = 2.5", "'k' must be an integer, got '2.5'"),
                           ("constant = abc", "'constant' must be a number"),
                           ("sizes = 3,y", "'sizes' must be a comma list of integers")):
        with pytest.raises(ValueError, match=message):
            config_from(
                f"primes = 7\nbounds = thm1-rich\ngenerator = random-points\nseed = 1\n{extra}"
            )
    for constant in ("nan", "0", "-1", "inf"):
        with pytest.raises(ValueError, match="positive and finite"):
            config_from(
                "primes = 7\nbounds = thm1-rich\ngenerator = random-points\n"
                f"seed = 1\nconstant = {constant}"
            )

    def no_trial_division(n):
        raise AssertionError(f"is_prime({n}) called on an oversized prime")

    # The bound is tested before primality, which would not finish for 2^61-1.
    monkeypatch.setattr(sweep_module, "is_prime", no_trial_division)
    with pytest.raises(ValueError, match="exceeds the limit"):
        config_from(
            "primes = 2305843009213693951\nbounds = thm1-rich\n"
            "generator = random-points\nseed = 1"
        )


def test_sweep_demo_config_rows():
    rows = sweep(config_from(DEMO_CONFIG))
    assert len(rows) == 10  # 2 primes x 5 reps x 1 bound
    for row in rows:
        assert row["bound"] == "thm1-rich"
        assert row["n_points"] == 12
        assert row["lhs"] >= 1  # 12 points in these small planes force rich maps
        assert row["ratio"] > 0
        assert row["delta"] >= 3.0
        assert row["rhs_max"] >= max(t for t in
                                     (row["rhs_term1"], row["rhs_term2"]) if t)


def test_sweep_determinism_and_parallel_merge(monkeypatch):
    # No serial budget, so that two jobs fork.
    monkeypatch.setattr(field, "SERIAL_BUDGET_S", 0)
    config = config_from(DEMO_CONFIG)
    first = rows_to_jsonl(sweep(config))
    second = rows_to_jsonl(sweep(config))
    parallel = rows_to_jsonl(sweep(config, jobs=2))
    assert first == second == parallel


def test_sweep_all_bounds_once():
    config = config_from(
        """
        primes = 7
        bounds = thm1-incidence,thm1-rich,thm2-incidence,thm2-rich,thm3-energy,thm4-hyperbola,cor-krich-lines
        generator = random-points
        n = 10
        na = 3
        nb = 3
        nt = 6
        nh = 5
        k = 3
        seed = 42
        reps = 1
        """
    )
    rows = sweep(config)
    assert [row["bound"] for row in rows] == sorted(config.bounds)
    by_bound = {row["bound"]: row for row in rows}
    assert by_bound["thm1-incidence"]["n_transforms"] == 6
    # delta splits the incidence row at |T| and the rich row at its count
    assert by_bound["thm1-incidence"]["delta"] == pytest.approx(
        dyadic_threshold(10, 6), rel=1e-11
    )
    rich_count = max(1, by_bound["thm1-rich"]["lhs"])
    assert by_bound["thm1-rich"]["delta"] == pytest.approx(
        dyadic_threshold(10, rich_count), rel=1e-11
    )
    assert by_bound["thm2-rich"]["n_points"] == 9  # 3 x 3 grid
    assert by_bound["thm3-energy"]["energy"] >= 36  # >= |T|^2
    assert by_bound["thm4-hyperbola"]["m_stat"] >= 1
    assert by_bound["cor-krich-lines"]["delta"] is None
    for row in rows:
        assert row["hyp_flags"]
        assert isinstance(row["hyp_ok"], bool)


def test_sweep_sizes_schedule():
    config = config_from(
        """
        primes = 11
        bounds = thm1-rich
        generator = random-points
        sizes = 6,9
        k = 3
        seed = 5
        reps = 2
        """
    )
    rows = sweep(config)
    assert [(row["size"], row["rep"]) for row in rows] == [
        (6, 0), (6, 1), (9, 0), (9, 1)
    ]
    assert [row["n_points"] for row in rows] == [6, 6, 9, 9]


def test_jsonl_field_order_and_csv_header():
    rows = sweep(config_from(DEMO_CONFIG))
    jsonl = rows_to_jsonl(rows)
    lines = jsonl.strip().split("\n")
    assert len(lines) == 10
    for line in lines:
        assert tuple(json.loads(line).keys()) == ROW_FIELDS
    csv_text = rows_to_csv(rows)
    header = csv_text.split("\n", 1)[0]
    assert header == ",".join(ROW_FIELDS)
    assert csv_text.endswith("\n")


def test_timing_field_is_opt_in():
    rows = sweep(config_from(DEMO_CONFIG))
    assert "wall_ms" not in json.loads(rows_to_jsonl(rows).splitlines()[0])
    timed = json.loads(rows_to_jsonl(rows, timing=True).splitlines()[0])
    assert "wall_ms" in timed and timed["wall_ms"] >= 0
    header = rows_to_csv(rows, timing=True).split("\n", 1)[0]
    assert header.endswith(",wall_ms")


def test_empty_prime_list_yields_empty_stream():
    config = SweepConfig(primes=(), bounds=("thm1-rich",),
                         generator="random-points", seed=1)
    rows = sweep(config)
    assert rows == []
    assert rows_to_jsonl(rows) == ""
    assert rows_to_csv(rows) == ",".join(ROW_FIELDS) + "\n"


@pytest.mark.parametrize("text, component", [
    ("bounds = thm1-rich\ngenerator = random-points\nn = 0", "point set"),
    ("bounds = thm2-incidence\ngenerator = ap\nna = 0", "scalar set A"),
    ("bounds = thm4-hyperbola\ngenerator = random-points\nnh = 0",
     "hyperbola family"),
    # rep 0 draws three points with no map through them (two share a row
    # or a column), so it has no 3-rich transform
    ("bounds = thm1-incidence\ngenerator = transforms-defined-by\nn = 3\n"
     "reps = 4", "transform set"),
])
def test_empty_component_names_its_cell(tmp_path, capsys, text, component):
    path = tmp_path / "sweep.cfg"
    path.write_text(f"primes = 11\nseed = 1\n{text}\n", encoding="utf-8")
    code = cli.main(["sweep", "--config", str(path), "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "p=11" in captured.err and "rep=" in captured.err
    assert component in captured.err


def _pivot_unreachable(*args, **kwargs):
    raise AssertionError("the pivot enumeration was called")


@pytest.mark.parametrize("text, refused, admitted", [
    ("bounds = thm1-rich\ngenerator = random-points", "n = 201", "n = 200"),
    ("bounds = thm1-incidence\ngenerator = transforms-defined-by", "n = 201",
     "n = 200"),
    ("bounds = thm2-rich\ngenerator = ap", "na = 67\nnb = 3", "na = 50\nnb = 4"),
], ids=["thm1-rich", "defined-by", "thm2-rich"])
def test_pivot_work_is_refused_per_cell(tmp_path, capsys, monkeypatch, text,
                                        refused, admitted):
    monkeypatch.setattr(sweep_module, "rich_counts", _pivot_unreachable)
    monkeypatch.setattr(generators, "rich_transforms_pivot", _pivot_unreachable)
    path = tmp_path / "sweep.cfg"
    argv = ["sweep", "--config", str(path), "--jobs", "1"]
    path.write_text(f"primes = 67\nseed = 1\n{text}\n{refused}\n", encoding="utf-8")
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "p=67" in captured.err and "rep=0" in captured.err
    assert "201 points" in captured.err and "200^3" in captured.err
    path.write_text(f"primes = 67\nseed = 1\n{text}\n{admitted}\n", encoding="utf-8")
    with pytest.raises(AssertionError, match="pivot enumeration was called"):
        cli.main(argv)


def _draw_unreachable(*args, **kwargs):
    raise AssertionError("the points were drawn")


@pytest.mark.parametrize("generator, bounds", [
    ("random-points", "thm1-rich"),
    ("random-transforms", "thm1-rich"),
    ("random-points", "cor-krich-lines"),
    ("random-transforms", "cor-krich-lines"),
], ids=["random-points", "random-transforms", "lines-random-points",
        "lines-random-transforms"])
def test_rich_points_are_refused_before_the_draw(tmp_path, capsys, monkeypatch,
                                                 generator, bounds):
    limit, most = ("C(2000, 2)", 2000) if bounds == "cor-krich-lines" else ("200^3", 200)
    monkeypatch.setattr(generators, "_sample_points", _draw_unreachable)
    path = tmp_path / "sweep.cfg"
    argv = ["sweep", "--config", str(path), "--jobs", "1"]
    text = f"primes = 9973\nseed = 1\nbounds = {bounds}\ngenerator = {generator}\n"
    path.write_text(text + "n = 1000000\n", encoding="utf-8")
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "p=9973" in captured.err and "rep=0" in captured.err
    assert "1000000 points" in captured.err and limit in captured.err
    path.write_text(text + f"n = {most}\n", encoding="utf-8")
    with pytest.raises(AssertionError, match="points were drawn"):
        cli.main(argv)


def _transforms_unreachable(*args, **kwargs):
    raise AssertionError("the transforms were drawn")


@pytest.mark.parametrize("generator", ["random-transforms", "random-points"])
def test_energy_transforms_are_refused_before_the_draw(tmp_path, capsys, monkeypatch,
                                                        generator):
    # random-points leaves the transforms to the random fill-in.
    monkeypatch.setattr(generators, "_sample_transforms", _transforms_unreachable)
    path = tmp_path / "sweep.cfg"
    argv = ["sweep", "--config", str(path), "--jobs", "1"]
    text = f"primes = 67\nseed = 1\nbounds = thm3-energy\ngenerator = {generator}\n"
    path.write_text(text + "nt = 1001\n", encoding="utf-8")
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "p=67" in captured.err and "rep=0" in captured.err
    assert "1001 maps" in captured.err and "1000^2" in captured.err
    path.write_text(text + "nt = 1000\n", encoding="utf-8")
    with pytest.raises(AssertionError, match="transforms were drawn"):
        cli.main(argv)


def _energy_unreachable(*args, **kwargs):
    raise AssertionError("the energy row was computed")


def test_energy_of_generated_transforms_is_refused(tmp_path, capsys, monkeypatch):
    # 22 points at p = 101 define over 1000 maps through three of them; 20
    # points define fewer.  The row is refused before its incidence count.
    monkeypatch.setattr(sweep_module, "energy", _energy_unreachable)
    monkeypatch.setattr(sweep_module, "count_incidences", _energy_unreachable)
    path = tmp_path / "sweep.cfg"
    argv = ["sweep", "--config", str(path), "--jobs", "1"]
    text = "primes = 101\nseed = 1\nbounds = thm3-energy\ngenerator = transforms-defined-by\n"
    path.write_text(text + "n = 22\n", encoding="utf-8")
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "p=101" in captured.err and "maps needs" in captured.err
    assert "1000^2" in captured.err
    path.write_text(text + "n = 20\n", encoding="utf-8")
    with pytest.raises(AssertionError, match="energy row was computed"):
        cli.main(argv)


def _maps_unreachable(*args, **kwargs):
    raise AssertionError("the defined maps were built")


def test_defined_maps_are_counted_before_they_are_built(tmp_path, capsys, monkeypatch):
    # 100 points at p = 9973 define 160446 maps through three of them: the
    # row is refused on that count, before the generator builds one map.
    monkeypatch.setattr(generators, "rich_transforms_pivot", _maps_unreachable)
    path = tmp_path / "sweep.cfg"
    argv = ["sweep", "--config", str(path), "--jobs", "1"]
    text = "primes = 9973\nseed = 1\nbounds = thm3-energy\ngenerator = transforms-defined-by\n"
    path.write_text(text + "n = 100\n", encoding="utf-8")
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: sweep cell p=9973 size=None rep=0 under generator "
        "transforms-defined-by: the energy of 160446 maps needs 160446^2 = "
        "25742918916 quotients, over the limit 1000^2 = 1000000; give at most 1000 maps\n"
    )
    # 14 points define few enough maps; their row keeps its bytes.
    monkeypatch.undo()
    path.write_text(text + "n = 14\n", encoding="utf-8")
    assert cli.main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "b17bf6322e41933a202043bf62cfc6137253976fe8a1bccd238035fce49f47ca"


def _grid_unreachable(*args, **kwargs):
    raise AssertionError("the grid was built")


@pytest.mark.parametrize("generator, bounds", [
    ("ap", "thm2-rich"),
    ("cartesian", "thm2-rich"),
    ("ap", "thm1-rich"),
    ("cartesian", "thm1-rich"),
    # random scalars fill in, and their grid is the points
    ("random-transforms", "thm1-rich,thm2-incidence"),
    ("ap", "cor-krich-lines"),
    ("cartesian", "cor-krich-lines"),
    ("random-transforms", "cor-krich-lines,thm2-incidence"),
])
def test_rich_grid_is_refused_before_it_is_built(tmp_path, capsys, monkeypatch,
                                                 generator, bounds):
    limit = "C(2000, 2)" if bounds.startswith("cor-krich-lines") else "200^3"
    monkeypatch.setattr(sweep_module, "cartesian_points", _grid_unreachable)
    path = tmp_path / "sweep.cfg"
    path.write_text(f"primes = 9973\nseed = 1\nbounds = {bounds}\n"
                    f"generator = {generator}\nna = 700\nnb = 700\n", encoding="utf-8")
    code = cli.main(["sweep", "--config", str(path), "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "p=9973" in captured.err and "rep=0" in captured.err
    assert "490000 points" in captured.err and limit in captured.err


def _incidence_draw_unreachable(*args, **kwargs):
    raise AssertionError("the incidence row's points, maps or grid were drawn")


@pytest.mark.parametrize("text, refused, admitted, error", [
    ("bounds = thm1-incidence\ngenerator = random-points",
     "n = 200001\nnt = 1", "n = 200000\nnt = 1", "200001 points"),
    ("bounds = thm1-incidence\ngenerator = random-points",
     "n = 2001\nnt = 2000", "n = 2000\nnt = 2000", "4002000 column tests"),
    # random scalars fill in, and their 10 x 20 grid, not n, is the points
    ("bounds = thm1-incidence,thm2-rich\ngenerator = random-transforms\n"
     "na = 10\nnb = 20\nn = 100001", "nt = 20001", "nt = 20000", "4000200 column tests"),
    ("bounds = thm1-incidence\ngenerator = random-transforms",
     "nt = 200001\nn = 1", "nt = 200000\nn = 1", "200001 maps"),
    ("bounds = thm2-incidence\ngenerator = ap",
     "na = 1000\nnb = 1000", "na = 1000\nnb = 200", "1000000 points"),
    ("bounds = thm3-energy\ngenerator = cartesian\nna = 100\nnb = 100",
     "nt = 401", "nt = 400", "4010000 column tests"),
    # the hyperbola grid's family is one translate per pair of its A x B
    ("bounds = thm4-hyperbola\ngenerator = hyperbola-grid",
     "na = 45\nnb = 45", "na = 44\nnb = 45", "4100625 column tests"),
    ("bounds = thm4-hyperbola\ngenerator = random-points\nna = 1\nnb = 1",
     "nh = 200001", "nh = 200000", "200001 maps"),
], ids=["points", "pairs", "grid-as-points", "maps", "grid", "energy-pairs", "hyperbola-grid",
        "hyperbolas"])
def test_incidence_rows_are_refused_before_the_draw(tmp_path, capsys, monkeypatch,
                                                    text, refused, admitted, error):
    for name in ("_sample_points", "_sample_transforms", "_sample_hyperbolas",
                 "_grid_hyperbolas"):
        monkeypatch.setattr(generators, name, _incidence_draw_unreachable)
    monkeypatch.setattr(sweep_module, "cartesian_points", _incidence_draw_unreachable)
    path = tmp_path / "sweep.cfg"
    argv = ["sweep", "--config", str(path), "--jobs", "1"]
    path.write_text(f"primes = 9973\nseed = 1\n{text}\n{refused}\n", encoding="utf-8")
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: sweep cell p=9973 size=None rep=0 under generator ")
    assert captured.err.count("\n") == 1 and error in captured.err
    path.write_text(f"primes = 9973\nseed = 1\n{text}\n{admitted}\n", encoding="utf-8")
    with pytest.raises(AssertionError, match="were drawn"):
        cli.main(argv)


def test_defined_maps_of_an_incidence_row_are_counted_first(tmp_path, capsys, monkeypatch):
    # 80 random points at p = 9973 define about C(80, 3) maps, whose
    # incidences with the 80 points are over the column-test limit; 60 points are not.
    monkeypatch.setattr(generators, "rich_transforms_pivot", _maps_unreachable)
    path = tmp_path / "sweep.cfg"
    argv = ["sweep", "--config", str(path), "--jobs", "1"]
    text = "primes = 9973\nseed = 1\nbounds = thm1-incidence\ngenerator = transforms-defined-by\n"
    path.write_text(text + "n = 80\n", encoding="utf-8")
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: sweep cell p=9973 size=None rep=0 ")
    assert captured.err.count("\n") == 1 and "up to 80 distinct abscissae" in captured.err
    assert "2000^2" in captured.err
    path.write_text(text + "n = 60\n", encoding="utf-8")
    with pytest.raises(AssertionError, match="defined maps were built"):
        cli.main(argv)


@pytest.mark.parametrize("params", [
    {"na": 3, "nb": 4}, {"a": [1, 68, 2], "na": 9, "nb": 5}, {"b": 7, "na": 2, "nb": 1},
])
def test_grid_family_size_is_the_generated_family_size(params):
    ctx = FieldContext(67)
    family = generators.generate_instance("hyperbola-grid", params, 5, ctx).hyperbolas
    assert sweep_module._grid_family_size(params, 5, ctx) == len(family)


@pytest.mark.parametrize("bound, generator, sizes, key, value", [
    ("thm1-incidence", "random-points", "n = -1", "n", -1),
    ("thm1-incidence", "random-transforms", "nt = -2", "nt", -2),
    ("thm2-incidence", "ap", "na = -1", "na", -1),
    ("thm2-incidence", "ap", "na = 3\nnb = -3", "nb", -3),
    ("thm4-hyperbola", "random-hyperbolas", "nh = -1", "nh", -1),
])
def test_negative_sizes_name_the_key_and_the_cell(tmp_path, capsys, bound, generator,
                                                  sizes, key, value):
    path = tmp_path / "sweep.cfg"
    path.write_text(f"primes = 67\nseed = 1\nbounds = {bound}\ngenerator = {generator}\n"
                    f"{sizes}\n", encoding="utf-8")
    code = cli.main(["sweep", "--config", str(path), "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: sweep cell p=67 size=None rep=0 under generator {generator}: "
        f"generator parameter {key!r} must be at least 0, got {value}\n"
    )


@pytest.mark.parametrize("text", [
    # thm1-rich counts the random points, not the 15 x 15 grid
    "bounds = thm1-rich,thm2-incidence\ngenerator = random-points\nna = 15",
    # 1 and 68 are one scalar mod 67: the grid holds 2 x 67, not 3 x 67 = 201
    "bounds = thm2-rich\ngenerator = cartesian\na = 1,68,2\nnb = 67",
], ids=["points-generator", "listed-duplicates"])
def test_grid_no_rich_row_counts_is_admitted(tmp_path, capsys, monkeypatch, text):
    monkeypatch.setattr(sweep_module, "rich_counts", lambda P, k: {})
    path = tmp_path / "sweep.cfg"
    path.write_text(f"primes = 67\nseed = 1\n{text}\n", encoding="utf-8")
    assert cli.main(["sweep", "--config", str(path), "--jobs", "1"]) == 0
    assert capsys.readouterr().err == ""


_CELL = "error: sweep cell p=9973 size=None rep=0 under generator "
_PIVOT_201 = ("the pivot enumeration of 201 points needs about 201^3 = 8120601 steps, "
              "over the limit 200^3 = 8000000; give at most 200 points")
_MEMBERS_490000 = ("an incidence count over 490000 points is over the limit of "
                   "2*10^5 = 200000 points; give fewer points")
_LINES_490000 = ("the rich lines of 490000 points need 120049755000 point pairs, over "
                 "the limit C(2000, 2) = 1999000; give at most 2000 points")
_PAIRS_160446 = ("the incidences of 160446 maps and points at up to 100 distinct abscissae "
                 "need up to 16044600 column tests, over the limit 2000^2 = 4000000; give "
                 "fewer points or maps")
_ENERGY_160446 = ("the energy of 160446 maps needs 160446^2 = 25742918916 quotients, "
                  "over the limit 1000^2 = 1000000; give at most 1000 maps")
_ENERGY_1001 = ("the energy of 1001 maps needs 1001^2 = 1002001 quotients, over the "
                "limit 1000^2 = 1000000; give at most 1000 maps")


@pytest.mark.parametrize("generator, bounds, sizes, error", [
    ("random-points", "thm1-rich,thm3-energy", "n = 201\nna = 700\nnb = 700", _PIVOT_201),
    ("random-points", "thm3-energy,thm1-rich", "n = 201\nna = 700\nnb = 700",
     _MEMBERS_490000),
    ("ap", "thm1-incidence,cor-krich-lines", "na = 700\nnb = 700", _MEMBERS_490000),
    ("ap", "cor-krich-lines,thm1-incidence", "na = 700\nnb = 700", _LINES_490000),
    ("transforms-defined-by", "thm1-incidence,thm3-energy", "n = 100", _PAIRS_160446),
    ("transforms-defined-by", "thm3-energy,thm1-incidence", "n = 100", _ENERGY_160446),
    # the energy limit fires before the empty A is found
    ("ap", "thm1-incidence,thm3-energy", "na = 0\nnb = 4\nnt = 1001", _ENERGY_1001),
], ids=["rich-energy", "energy-rich", "incidence-lines", "lines-incidence",
        "defined-by-incidence-energy", "defined-by-energy-incidence", "energy-before-empty"])
def test_first_over_limit_row_in_bounds_order_is_reported(tmp_path, capsys, generator,
                                                          bounds, sizes, error):
    path = tmp_path / "sweep.cfg"
    path.write_text(f"primes = 9973\nseed = 1\nbounds = {bounds}\n"
                    f"generator = {generator}\n{sizes}\n", encoding="utf-8")
    code = cli.main(["sweep", "--config", str(path), "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"{_CELL}{generator}: {error}\n"


def test_impossible_progression_is_refused_naming_its_cell(tmp_path, capsys):
    # No geometric progression mod 9973 has 20000 distinct terms; the draw
    # that comes before every limit refuses it at once.
    path = tmp_path / "sweep.cfg"
    path.write_text("primes = 9973\nseed = 1\nbounds = thm2-rich\ngenerator = gp\n"
                    "na = 20000\n", encoding="utf-8")
    start = time.perf_counter()
    code = cli.main(["sweep", "--config", str(path), "--jobs", "1"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"{_CELL}gp: no geometric progression of 20000 distinct terms found mod 9973\n")


@pytest.mark.parametrize("p, generator, bound, text, size, error", [
    (7, "random-points", "thm1-rich", "sizes = 50", 50,
     "cannot draw 50 distinct points in F_7^2"),
    (7, "random-scalars", "thm2-rich", "sizes = 8", 8, "cannot draw 8 distinct scalars mod 7"),
    (7, "ap", "thm2-rich", "na = 8", None, "progression of 8 distinct terms mod 7"),
    (5, "random-transforms", "thm1-incidence", "nt = 200", None,
     "PGL(2,5) has only 120 elements"),
    (5, "random-hyperbolas", "thm4-hyperbola", "nh = 60", None,
     "only 50 distinct translates mod 5"),
])
def test_a_failed_draw_names_its_cell(tmp_path, capsys, p, generator, bound, text, size,
                                      error):
    # The cell at p = 11 draws; the one at the second, smaller prime cannot.
    path = tmp_path / "sweep.cfg"
    path.write_text(f"primes = 11,{p}\nseed = 1\nbounds = {bound}\n"
                    f"generator = {generator}\n{text}\n", encoding="utf-8")
    code = cli.main(["sweep", "--config", str(path), "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: sweep cell p={p} size={size} rep=0 under generator {generator}: {error}\n")


def _sweep_unreachable(*args, **kwargs):
    raise AssertionError("the sweep started its cells")


def test_rows_held_by_a_sweep_are_capped(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sweep_module, "parallel_map", _sweep_unreachable)
    path = tmp_path / "sweep.cfg"
    path.write_text("primes = 11,13\nseed = 1\nbounds = thm1-rich\n"
                    "generator = random-points\nreps = 1000000000\n", encoding="utf-8")
    code = cli.main(["sweep", "--config", str(path), "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: the sweep holds 2000000000 rows until it sorts them, over the limit "
        "10^5 = 100000; give fewer primes, sizes, reps or bounds\n"
    )
    # 2 primes x 2 sizes x 25000 reps x 1 bound is exactly the cap
    config_from("primes = 11,13\nsizes = 3,4\nseed = 1\nbounds = thm1-rich\n"
                "generator = random-points\nreps = 25000\n")


def _unread_draw(*args, **kwargs):
    raise AssertionError("a component no row reads was drawn")


@pytest.mark.parametrize("generator, bound, sizes, unread", [
    ("hyperbola-grid", "thm1-rich", "na = 700\nnb = 700", ("_grid_hyperbolas",)),
    ("transforms-defined-by", "thm2-rich", "n = 201",
     ("rich_transforms_pivot", "_sample_points")),
    # a lone point row draws the generator's points, as random-points does
    ("transforms-defined-by", "thm1-rich", "n = 150", ("rich_transforms_pivot",)),
], ids=["hyperbola-grid", "defined-by", "defined-by-points"])
def test_components_no_row_reads_are_not_drawn(tmp_path, capsys, monkeypatch, generator,
                                               bound, sizes, unread):
    for name in unread:
        monkeypatch.setattr(generators, name, _unread_draw)
    path = tmp_path / "sweep.cfg"
    path.write_text(f"primes = 9973\nseed = 1\nbounds = {bound}\n"
                    f"generator = {generator}\n{sizes}\n", encoding="utf-8")
    assert cli.main(["sweep", "--config", str(path), "--jobs", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.count("\n") == 1


_NOT_INTEGERS = "must be an integer or a comma list of integers, got "


@pytest.mark.parametrize("text, error", [
    ("generator = ap\nstep = 2.5", f"config key 'step' {_NOT_INTEGERS}'2.5'"),
    ("generator = ap\nstart = x", f"config key 'start' {_NOT_INTEGERS}'x'"),
    ("generator = ap\na = 1,x", f"config key 'a' {_NOT_INTEGERS}'1,x'"),
    ("generator = ap\nna =", f"config key 'na' {_NOT_INTEGERS}''"),
    ("generator = ap\ncolour = blue", f"config key 'colour' {_NOT_INTEGERS}'blue'"),
    # the work refusals read these sizes before the generator does
    ("generator = random-points\nn = 3,4",
     "generator parameter 'n' must be an integer, got [3, 4]"),
    ("generator = ap\nna = 3,4",
     "generator parameter 'na' must be an integer, got [3, 4]"),
    ("generator = cartesian\nnb = 3,4",
     "generator parameter 'nb' must be an integer, got [3, 4]"),
])
def test_generator_parameter_errors_name_the_key(tmp_path, capsys, text, error):
    path = tmp_path / "sweep.cfg"
    path.write_text(f"primes = 13\nseed = 1\nbounds = thm1-rich,thm2-rich\n{text}\n",
                    encoding="utf-8")
    if error.startswith("generator parameter"):
        # read in the cell, so the error names it
        generator = text.split("\n")[0].removeprefix("generator = ")
        error = f"sweep cell p=13 size=None rep=0 under generator {generator}: {error}"
    code = cli.main(["sweep", "--config", str(path), "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize("key, value, expected", [
    ("step", 2.5, _NOT_INTEGERS),
    ("step", True, _NOT_INTEGERS),
    ("step", [1, 2.5], _NOT_INTEGERS),
    ("step", "2.5", _NOT_INTEGERS),
    ("seed", 2.5, "must be an integer, got "),
    ("primes", [13.0], "must be a comma list of integers, got "),
])
def test_library_values_must_be_integers(key, value, expected):
    # a mapping from a library caller holds values, not text: a float or a
    # bool is refused, not truncated to an integer
    raw = {"primes": "13", "seed": 1, "bounds": "thm1-rich", "generator": "ap", "step": 2}
    assert SweepConfig.from_mapping(raw).params == {"step": 2}
    with pytest.raises(ValueError, match=f"config key '{key}' {expected}"):
        SweepConfig.from_mapping({**raw, key: value})


def test_one_rich_enumeration_per_point_set(monkeypatch):
    calls = []
    original = sweep_module.rich_counts

    def counted(P, k):
        calls.append(P.points)
        return original(P, k)

    monkeypatch.setattr(sweep_module, "rich_counts", counted)
    text = "primes = 11,13\nsizes = 3,4\nreps = 2\nk = 3\nseed = 3\n"
    cells = 2 * 2 * 2
    both = "bounds = thm1-rich,thm2-rich\n"

    # Under ap both rich rows count the grid: one enumeration per cell.
    ap = text + "generator = ap\n"
    rows = sweep(config_from(ap + both))
    assert len(calls) == cells
    for bound in ("thm1-rich", "thm2-rich"):
        alone = sweep(config_from(ap + f"bounds = {bound}\n"))
        assert [r["lhs"] for r in rows if r["bound"] == bound] == [
            r["lhs"] for r in alone
        ]

    # Under random-points the two rows count different sets.
    calls.clear()
    sweep(config_from(text + "generator = random-points\n" + both))
    assert len(calls) == 2 * cells


def test_one_incidence_count_per_point_and_map_set(monkeypatch):
    calls = []
    original = sweep_module.count_incidences

    def counted(P, T):
        calls.append((P.points, T.keys))
        return original(P, T)

    monkeypatch.setattr(sweep_module, "count_incidences", counted)
    text = "primes = 11,13\nsizes = 3,4\nreps = 2\nk = 3\nseed = 3\nnt = 40\n"
    cells = 2 * 2 * 2
    three = "bounds = thm1-incidence,thm2-incidence,thm3-energy\n"

    # Under ap all three rows count the grid against the same maps: one
    # count per cell, and each row's lhs as when it runs alone.
    ap = text + "generator = ap\n"
    rows = sweep(config_from(ap + three))
    assert len(calls) == cells
    for bound in ("thm1-incidence", "thm2-incidence", "thm3-energy"):
        alone = sweep(config_from(ap + f"bounds = {bound}\n"))
        assert [r["lhs"] for r in rows if r["bound"] == bound] == [
            r["lhs"] for r in alone
        ]

    # Under random-points thm1-incidence counts the drawn points, the other
    # two rows the grid of random scalars.
    calls.clear()
    sweep(config_from(text + "generator = random-points\n" + three))
    assert len(calls) == 2 * cells


# Every bound under every generator, plus progressions with unequal sides and
# b_ parameters; each config's JSONL and CSV bytes are pinned by their
# sha256, or by the ValueError text of a config that fails.
PINNED_BASE = (
    f"primes = 11,13\nbounds = {','.join(BOUND_IDS)}\nsizes = 3,4,6\n"
    "reps = 2\nk = 3\n"
)
PINNED_CONFIGS = {kind: f"generator = {kind}\n" for kind in INSTANCE_KINDS}
PINNED_CONFIGS.update({
    "ap-unequal": "generator = ap\nna = 3\nnb = 5\nstart = 2\nstep = 3\n"
                  "b_start = 1\nb_step = 4\n",
    "defined-by-n8": "generator = transforms-defined-by\nn = 8\n",
    "gp-unequal": "generator = gp\nna = 3\nnb = 4\nratio = 2\nb_start = 3\n"
                  "b_ratio = 6\n",
})
PINNED = {
    ('random-points', 1): '9ae7dffe06aa0e5ccecd4b0624f942335d092f7af5a7bfae36f892b27e62ebe6',
    ('random-points', 7): '7799da9554ab53c40d274b4e1b90fb9c5be7d5383e0d2112659d39718f230331',
    ('random-scalars', 1): 'a454c9ee0df243fafa27066b9d0335ddadba7202cf2ccd6b03ef898e8f31f2a5',
    ('random-scalars', 7): 'a4739d98cc838a53ea274eb2a36feaf3d781777f2164910da359ce61f7b4a5d2',
    ('ap', 1): '5d39842aaaf8f0fe8f0579e9576af93af3fc04b48c367df5718bcc4be8c79074',
    ('ap', 7): '01ff4dc6c5a42e2434c0cbae8bd079087ccae984d9c37804382753d10d52c787',
    ('gp', 1): '01c927c55221a89aabe74ab92416fd8bdb3f12c3e087403a27e37b3f6e9f1445',
    ('gp', 7): 'bb349dae5a917012ef70ef40c5813c7a725b20b430ba1fc0f21626b62dc2bc1b',
    ('cartesian', 1): '74b0ed3790ab7056f06b7cf366df968e7442511d41d92a93b6c98ddff2bd1298',
    ('cartesian', 7): '4431ff6dd3b68827c7035e1133b9074dc2115c262977b91dae1309ba26418303',
    ('random-transforms', 1): '501378a513b516bf2e2bfb0ba00acb432c3d75a4d5cbb20cf1b7fe85f4fd1d32',
    ('random-transforms', 7): 'c8b243bda46c0b14646abd848e76d25267e3a875cd190f2f2eeb0c645bd174be',
    ('transforms-defined-by', 1): 'ValueError: sweep cell p=11 size=3 rep=1 under generator transforms-defined-by: the transform set is empty',
    ('transforms-defined-by', 7): 'ValueError: sweep cell p=11 size=3 rep=0 under generator transforms-defined-by: the transform set is empty',
    ('hyperbola-grid', 1): '7b12d1a6f1c74fc072ed4784a803bbc942870ed773df6ca536ab5e3777c342bd',
    ('hyperbola-grid', 7): '64e77cf403e90817650c05c702ff08de11e5c63e1ef6986ed9bb3c3b29cd45e5',
    ('random-hyperbolas', 1): '9c3df42439363f9527030b62d2b1204012b82c70cba54b161cec928d59ce0023',
    ('random-hyperbolas', 7): 'faebc7b44ce71436e54861c2348e4a09f1aa40e1e6e7f5897a845e6513023b45',
    ('ap-unequal', 1): '40bb243b3d89ad47f1b3175eae0b1a82a01150870e36f34d8847b111beda8828',
    ('ap-unequal', 7): '2d4107a45193a212eb57ff9d2b7bcf944c966ce0e5b296b592f1224a5c204a8f',
    ('defined-by-n8', 1): 'f156fdaa02824e14f150535ef5c1ea7ab46aa1f785d3817ed0656041ddd3d71f',
    ('defined-by-n8', 7): '3291c26b6aa0800c8bbe41d43ffd42c53bd1ee24936625742041d570ae8765cb',
    ('gp-unequal', 1): 'e7a66be8c6116ebe9d0caf4a48fdfa648bf975f16129b2bd113cb500dd262588',
    ('gp-unequal', 7): '2e48356301533c3be5608c51b2f1f114de5674a8d35c4c7c0a53a5ff93aab2a1',
}


def _pinned_digest(text):
    try:
        rows = sweep(config_from(text))
    except ValueError as exc:
        return f"ValueError: {exc}"
    data = (rows_to_jsonl(rows) + rows_to_csv(rows)).encode()
    return hashlib.sha256(data).hexdigest()


def test_sweep_bytes_are_pinned():
    observed = {
        (name, seed): _pinned_digest(PINNED_BASE + extra + f"seed = {seed}\n")
        for name, extra in PINNED_CONFIGS.items()
        for seed in (1, 7)
    }
    assert observed == PINNED
