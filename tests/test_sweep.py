"""Sweep configs, row computation, formats, determinism."""

import json

import pytest

from mobinc import cli
from mobinc import sweep as sweep_module
from mobinc.bounds import dyadic_threshold
from mobinc.errors import ConfigError
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
    with pytest.raises(ConfigError):
        config_from("primes = 4\nbounds = thm1-rich\ngenerator = random-points\nseed = 1")
    with pytest.raises(ConfigError):
        config_from("primes = 3\nbounds = thm1-rich\ngenerator = random-points\nseed = 1")
    with pytest.raises(ConfigError):
        config_from("primes = 7\nbounds = thm9\ngenerator = random-points\nseed = 1")
    with pytest.raises(ConfigError):
        config_from("primes = 7\nbounds = thm1-rich\ngenerator = bogus\nseed = 1")
    with pytest.raises(ConfigError):
        config_from("primes = 7\nbounds = thm1-rich\ngenerator = random-points")
    with pytest.raises(ConfigError):
        config_from(
            "primes = 7\nbounds = thm1-rich\ngenerator = random-points\nseed = 1\nk = 2"
        )
    for constant in ("nan", "0", "-1", "inf"):
        with pytest.raises(ConfigError, match="positive and finite"):
            config_from(
                "primes = 7\nbounds = thm1-rich\ngenerator = random-points\n"
                f"seed = 1\nconstant = {constant}"
            )

    def no_trial_division(n):
        raise AssertionError(f"is_prime({n}) called on an oversized prime")

    # The bound is tested before primality, which would not finish for 2^61-1.
    monkeypatch.setattr(sweep_module, "is_prime", no_trial_division)
    with pytest.raises(ConfigError, match="exceeds the limit"):
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


def test_sweep_determinism_and_parallel_merge():
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


def test_one_rich_enumeration_per_point_set(monkeypatch):
    calls = []
    original = sweep_module.pivot_multiplicities

    def counted(P, k):
        calls.append(P.points)
        return original(P, k)

    monkeypatch.setattr(sweep_module, "pivot_multiplicities", counted)
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
