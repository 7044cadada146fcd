"""Field context, canonical forms, evaluation, composition, interpolation."""

import copy
import itertools
import multiprocessing
import os
import pickle
import random
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobinc import field
from mobinc.field import (
    INFINITY,
    PAD,
    FieldContext,
    MoebiusMap,
    canonical_key,
    class_from_index,
    graph_tables,
    group_order,
    is_prime,
)

from reference import enumerate_group, identity, projective_points, through

CTX5 = FieldContext(5)
CTX7 = FieldContext(7)


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 101]
    composites = [0, 1, 4, 6, 9, 15, 1024]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in composites)


def test_context_rejects_bad_moduli(monkeypatch):
    for bad in (0, 1, 4, 15, -7, 7.0, True):
        with pytest.raises(ValueError):
            FieldContext(bad)

    def no_trial_division(n):
        raise AssertionError(f"is_prime({n}) called on an oversized modulus")

    # The bound is tested before primality, which would not finish for 2^61-1.
    monkeypatch.setattr(field, "is_prime", no_trial_division)
    for huge in ((1 << 20) + 7, (1 << 61) - 1):
        with pytest.raises(ValueError, match="desk-scale limit"):
            FieldContext(huge)


def test_context_accepts_degenerate_small_fields():
    assert FieldContext(2).p == 2
    assert FieldContext(3).p == 3


def test_inverse_examples():
    assert CTX7.inv(1) == 1
    assert CTX7.inv(3) == 5  # 3*5 = 15 = 1 mod 7
    assert CTX7.inv(6) == 6  # 6*6 = 36 = 1 mod 7
    with pytest.raises(ZeroDivisionError):
        CTX7.inv(0)
    with pytest.raises(ZeroDivisionError):
        CTX7.inv(7)


def test_inverse_table_complete():
    for p in (2, 3, 5, 13, 101):
        ctx = FieldContext(p)
        for x in range(1, p):
            assert x * ctx.inv(x) % p == 1


def test_canonicalization_examples():
    assert MoebiusMap(2, 4, 0, 2, CTX5).as_tuple() == (1, 2, 0, 1)
    assert MoebiusMap(1, 0, 0, 1, CTX5).as_tuple() == (1, 0, 0, 1)
    with pytest.raises(ValueError, match="zero determinant"):
        MoebiusMap(1, 2, 2, 4, CTX5)


@given(
    a=st.integers(0, 6), b=st.integers(0, 6),
    c=st.integers(0, 6), d=st.integers(0, 6),
    lam=st.integers(1, 6),
)
def test_canonical_form_scaling_invariant(a, b, c, d, lam):
    if (a * d - b * c) % 7 == 0:
        return
    f = MoebiusMap(a, b, c, d, CTX7)
    g = MoebiusMap(lam * a, lam * b, lam * c, lam * d, CTX7)
    assert f == g
    assert f.as_tuple() == g.as_tuple()


def test_canonical_forms_count_all_tuples_p5():
    # every nonsingular 4-tuple collapses onto exactly |PGL(2,5)| = 120 forms
    forms = set()
    nonsingular = 0
    for a, b, c, d in itertools.product(range(5), repeat=4):
        if (a * d - b * c) % 5 == 0:
            continue
        nonsingular += 1
        forms.add(MoebiusMap(a, b, c, d, CTX5).as_tuple())
    assert nonsingular == 480
    assert len(forms) == 120 == group_order(5)
    assert forms == {f.as_tuple() for f in enumerate_group(CTX5)}


def test_canonical_key_is_the_map_key():
    # one canonicalization rule: every nonsingular 4-tuple at p = 5, and
    # seeded tuples with scaled copies at p = 101
    for a, b, c, d in itertools.product(range(5), repeat=4):
        if (a * d - b * c) % 5:
            assert canonical_key(a, b, c, d, CTX5) == MoebiusMap(a, b, c, d, CTX5).key()
        else:
            with pytest.raises(ValueError, match=r"^\(.*\) has zero determinant mod 5$"):
                canonical_key(a, b, c, d, CTX5)
    ctx = FieldContext(101)
    rng = random.Random(101)
    checked = 0
    while checked < 2000:
        a, b, c, d = (rng.randrange(-300, 300) for _ in range(4))
        if (a * d - b * c) % 101 == 0:
            continue
        key = MoebiusMap(a, b, c, d, ctx).key()
        lam = rng.randrange(1, 101)
        assert canonical_key(a, b, c, d, ctx) == key
        assert canonical_key(lam * a, lam * b, lam * c, lam * d, ctx) == key
        checked += 1


def test_enumerate_group_sizes():
    for p in (2, 3, 5, 7):
        members = list(enumerate_group(FieldContext(p)))
        assert len(members) == group_order(p)
        assert len(set(members)) == len(members)


def _group_by_nested_loops(ctx):
    """The group order as nested loops over canonical forms: the reference
    for class_from_index, which enumerate_group streams."""
    p = ctx.p
    for b in range(p):
        for c in range(p):
            bc = b * c % p
            for d in range(p):
                if d != bc:
                    yield MoebiusMap(1, b, c, d, ctx)
    for c in range(1, p):
        for d in range(p):
            yield MoebiusMap(0, 1, c, d, ctx)


def test_group_order_matches_nested_loops():
    for p in (2, 3, 5, 7, 11):
        ctx = FieldContext(p)
        reference = [f.as_tuple() for f in _group_by_nested_loops(ctx)]
        assert [f.as_tuple() for f in enumerate_group(ctx)] == reference
        for i in (-1, group_order(p)):
            with pytest.raises(IndexError):
                class_from_index(i, ctx)


def test_eval_examples():
    ident = identity(CTX7)
    assert ident(4) == 4
    recip = MoebiusMap(0, 1, 1, 0, CTX5)  # 1/x
    assert recip(0) is INFINITY
    assert recip(INFINITY) == 0
    f = MoebiusMap(3, 1, 1, 2, CTX7)
    assert f(5) is INFINITY  # 5 + 2 = 0 mod 7
    assert f(1) == 6  # 4 * inv(3) = 4 * 5 = 20 = 6


def test_eval_at_infinity_affine():
    f = MoebiusMap(2, 3, 0, 1, CTX7)
    assert f(INFINITY) is INFINITY


def test_eval_is_bijection_exhaustive_p5():
    domain = projective_points(CTX5)
    for f in enumerate_group(CTX5):
        images = {f(x) if f(x) is INFINITY else f(x) for x in domain}
        assert len(images) == 6


def _assert_graph_tables(maps, ctx):
    """Each table holds f(x) at x < p and f(INFINITY) at p, INFINITY written
    as p, and PAD at every index above p."""
    p = ctx.p
    tables = list(graph_tables([f.key() for f in maps], ctx))
    assert len(tables) == len(maps)
    for f, table in zip(maps, tables):
        images = [f(x) for x in [*range(p), INFINITY]]
        assert list(table[: p + 1]) == [p if y is INFINITY else y for y in images], f
        assert table[p + 1:] == bytes([PAD]) * (255 - p), f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_graph_tables_agree_with_eval_on_the_whole_group(p):
    ctx = FieldContext(p)
    _assert_graph_tables(list(enumerate_group(ctx)), ctx)


def test_graph_tables_agree_with_eval_at_p251():
    ctx = FieldContext(251)
    indices = random.Random(251).sample(range(group_order(251)), 2000)
    maps = [class_from_index(i, ctx) for i in indices]
    assert {f.c == 0 for f in maps} == {f.a == 0 for f in maps} == {True, False}
    _assert_graph_tables(maps, ctx)
    with pytest.raises(ValueError, match="p < 255"):
        next(graph_tables([identity(FieldContext(257)).key()], FieldContext(257)))


def test_compose_examples():
    ident = identity(CTX5)
    f = MoebiusMap(1, 1, 0, 1, CTX5)  # x + 1
    g = MoebiusMap(2, 0, 0, 1, CTX5)  # 2x
    assert g.as_tuple() == (1, 0, 0, 3)
    assert (ident * f) == f
    assert (f * g).as_tuple() == (1, 3, 0, 3)  # 2x + 1
    assert f * f.inverse() == ident
    assert f.inverse() * f == ident


def test_compose_is_matrix_product_everywhere_p5():
    members = list(enumerate_group(CTX5))
    rng = random.Random(7)
    domain = projective_points(CTX5)
    for _ in range(300):
        f, g = rng.choice(members), rng.choice(members)
        h = f * g
        for x in domain:
            assert h(x) == f(g(x))


def test_compose_associative_random():
    members = list(enumerate_group(CTX7))
    rng = random.Random(11)
    for _ in range(200):
        f, g, h = (rng.choice(members) for _ in range(3))
        assert (f * g) * h == f * (g * h)


def test_compose_modulus_mismatch():
    with pytest.raises(ValueError, match="mixed moduli 5 and 7"):
        identity(CTX5) * identity(CTX7)


def test_inverse_examples():
    ident = identity(CTX5)
    assert ident.inverse() == ident
    assert MoebiusMap(1, 1, 0, 1, CTX5).inverse().as_tuple() == (1, 4, 0, 1)
    recip = MoebiusMap(0, 1, 1, 0, CTX5)
    assert recip.inverse() == recip


def test_through_examples():
    ident = through((0, 1, 2), (0, 1, 2), CTX5)
    assert ident == identity(CTX5)
    recip = through((0, 1, INFINITY), (INFINITY, 1, 0), CTX5)
    assert recip.as_tuple() == (0, 1, 1, 0)
    f = through((0, 1, 2), (1, 0, 3), CTX5)
    assert f.as_tuple() == (1, 4, 4, 4)
    assert (f(0), f(1), f(2)) == (1, 0, 3)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_through_is_unique_in_group(p):
    ctx = FieldContext(p)
    rng = random.Random(p)
    points = projective_points(ctx)
    for _ in range(5):
        src = tuple(rng.sample(points, 3))
        dst = tuple(rng.sample(points, 3))
        f = through(src, dst, ctx)
        matching = [
            g for g in enumerate_group(ctx)
            if all(g(s) is d if d is INFINITY else g(s) == d
                   for s, d in zip(src, dst))
        ]
        assert matching == [f]


def test_through_degenerate_triples():
    with pytest.raises(ValueError, match="need three pairwise-distinct points"):
        through((0, 0, 1), (0, 1, 2), CTX5)
    with pytest.raises(ValueError, match="need three pairwise-distinct points"):
        through((0, 1, 2), (3, INFINITY, INFINITY), CTX5)
    with pytest.raises(ValueError, match="need three pairwise-distinct points"):
        through((0, 1, 6), (0, 1, 2), CTX5)  # 6 = 1 mod 5


@settings(max_examples=50)
@given(st.integers(0, 6), st.integers(0, 6))
def test_affine_constructor(slope, intercept):
    if slope % 7 == 0:
        with pytest.raises(ValueError, match="zero determinant"):
            MoebiusMap(slope, intercept, 0, 1, CTX7)
        return
    f = MoebiusMap(slope, intercept, 0, 1, CTX7)
    assert f.c == 0
    for x in range(7):
        assert f(x) == (slope * x + intercept) % 7


def test_map_hash_and_repr():
    f = MoebiusMap(3, 0, 1, 4, CTX7)
    g = MoebiusMap(6, 0, 2, 8, CTX7)
    assert f == g and hash(f) == hash(g)
    assert "p=7" in repr(f)
    assert copy.copy(f) == f and pickle.loads(pickle.dumps(f)) == f
    assert repr(INFINITY) == "INFINITY"


def test_parallel_map_keeps_unit_order():
    # 83 units over two workers go in two strided shares of 42 and 41
    # units; the results stay in unit order
    units = list(range(-40, 43))
    assert field.parallel_map(abs, units, 2) == [abs(u) for u in units]
    assert field.parallel_map(abs, [], 2) == []


def test_parallel_map_raises_the_lowest_failing_unit():
    # With two workers, 'x8' is in the caller's share and 'x1' in the
    # worker's; the error is 'x1's, as in a serial run
    units = ["0", "x1", *map(str, range(2, 8)), "x8", "9", "10", "11"]
    with pytest.raises(ValueError, match="'x1'"):
        field.parallel_map(int, units, 2)


# Each unit below is (the caller's pid, a value), so that a unit knows where
# it runs under any start method.

def _pid_of(unit):
    return unit[1], os.getpid()


def _exit_off_caller(unit):
    caller, code = unit
    if os.getpid() != caller:
        os._exit(code)
    return code


def _unpicklable_off_caller(unit):
    caller, _ = unit
    return None if os.getpid() == caller else (lambda: None)


def _interrupted_in_caller(unit):
    caller, _ = unit
    if os.getpid() == caller:
        raise KeyboardInterrupt
    time.sleep(60)


@pytest.fixture
def started(monkeypatch):
    """The processes parallel_map starts on a two-CPU machine; none may
    outlive the case."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    processes = []

    def record(*args, **kwargs):
        processes.append(multiprocessing.Process(*args, **kwargs))
        return processes[-1]

    monkeypatch.setattr(field, "Process", record)
    yield processes
    assert multiprocessing.active_children() == []


def test_parallel_map_caller_runs_share_zero(started):
    caller = os.getpid()
    results = field.parallel_map(_pid_of, [(caller, i) for i in range(9)], 2)
    assert [i for i, _ in results] == list(range(9))
    [worker] = started
    assert {pid for _, pid in results[::2]} == {caller}
    assert {pid for _, pid in results[1::2]} == {worker.pid} != {caller}


def test_parallel_map_names_a_dead_workers_exit_code(started):
    caller = os.getpid()
    with pytest.raises(RuntimeError, match="exit code 3"):
        field.parallel_map(_exit_off_caller, [(caller, 3), (caller, 3)], 2)


def test_parallel_map_unpicklable_result_prints_no_traceback(started, capfd):
    caller = os.getpid()
    with pytest.raises(RuntimeError, match="exit code 1"):
        field.parallel_map(_unpicklable_off_caller, [(caller, 0), (caller, 1)], 2)
    assert "Traceback" not in capfd.readouterr().err


def test_parallel_map_interrupt_terminates_the_workers(started):
    caller = os.getpid()
    begin = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        field.parallel_map(_interrupted_in_caller, [(caller, 0), (caller, 1)], 2)
    assert time.monotonic() - begin < 5
    [worker] = started
    assert worker.exitcode == -signal.SIGTERM
