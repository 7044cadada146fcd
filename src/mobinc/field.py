"""Arithmetic in F_p and the keys of Moebius transformations.

A Moebius transformation x -> (ax + b)/(cx + d) with ad - bc != 0 acts as a
bijection of the projective line F_p u {infinity}.  Scalar multiples of
(a, b, c, d) give the same map, so every map has one canonical form: the
first nonzero entry in the order (a, b, c, d) is scaled to 1.  The package
holds each map as its key, the integer ((a*p + b)*p + c)*p + d of its
canonical entries: canonical_key builds it, key_entries decodes it, and two
keys are equal exactly when their maps are the same element of PGL(2, p).

Field elements are plain Python ints reduced mod p; a FieldContext carries
the modulus and a precomputed inverse table so division is a lookup.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from multiprocessing import Pipe
from time import perf_counter
from typing import Callable, Iterable, Iterator, Sequence


# Keep p*p products comfortably inside machine-word range and the inverse
# table small; this library targets desk-scale moduli.
MAX_MODULUS = 1 << 20

# Below this prime every residue, and every index up to p, is a byte other
# than PAD, so a byte kernel can fill its entries with PAD and have each
# bytes.translate table map PAD to a fixed byte (the graph tables, the
# reduction check's lanes).  From p = 257 on those kernels take their
# integer paths.
PAD = 255


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class FieldContext:
    """The prime field F_p.

    Construction validates that p is prime (and below MAX_MODULUS) and
    builds the inverse table inv[x] for x in 1..p-1.
    """

    __slots__ = ("p", "_inv")

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"modulus {p!r} is not a prime")
        # Bound first: trial division of a huge modulus would not finish.
        if p >= MAX_MODULUS:
            raise ValueError(f"modulus {p} exceeds the desk-scale limit {MAX_MODULUS}")
        if not is_prime(p):
            raise ValueError(f"modulus {p!r} is not a prime")
        self.p = p
        inv = [0] * p
        if p > 1:
            inv[1 % p] = 1 % p
        for x in range(2, p):
            inv[x] = (-(p // x) * inv[p % x]) % p
        self._inv = inv

    def __eq__(self, other):
        return isinstance(other, FieldContext) and other.p == self.p

    def __hash__(self):
        return hash(("FieldContext", self.p))

    def __repr__(self):
        return f"FieldContext(p={self.p})"


def same_context(a: FieldContext, b: FieldContext) -> FieldContext:
    if a.p != b.p:
        raise ValueError(f"mixed moduli {a.p} and {b.p}")
    return a


# The caller of parallel_map runs units by itself until it has spent this
# long, and only then starts workers for the units left: about twice what
# starting and joining one fork worker costs, 2.1-2.3 ms from a bare
# interpreter and 3.4-3.6 ms with the whole package imported (median of 41
# parallel_map(abs, [1, 2], 2) calls, 2-core x86-64, CPython 3.11, fork).
# So work that a worker could not shorten by more than it costs never
# starts one: an exhaustive reduction check at p = 17, about 1.5-2.5 ms,
# runs in the caller, while one at p = 53, about 0.1 s, still forks.
SERIAL_BUDGET_S = 0.006

# The pool's workers fork on Linux whatever the default start method, which
# Python 3.14 makes forkserver there: a parallel_map(abs, [1, 2], 2) call with
# the whole package imported took a median 74 ms under forkserver against
# 2.8 ms under fork (20 calls, 2-core x86-64, CPython 3.11), so the budget
# above holds only for fork.  Elsewhere fork is unsafe or missing, and the
# default context stays.
Process = (multiprocessing.get_context("fork").Process if sys.platform == "linux"
           else multiprocessing.Process)


def parallel_map(fn: Callable, units: Sequence, jobs: int = 1) -> list:
    """[fn(u) for u in units] over up to min(jobs, CPU count) processes.

    The package's pool.  With more than one job the caller first runs units
    in order by itself, until it has spent SERIAL_BUDGET_S, so that work
    shorter than that starts no process; the units left go to fork_join.
    The budget is read between units, so the head overruns it by at most
    the unit in progress, and work of few units that each outlast the
    budget loses up to one unit's worth of parallelism: a caller that knows
    its every unit outlasts the budget calls fork_join instead.  A failure
    in the head raises before any process starts; results and failures are
    otherwise fork_join's, in unit order.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    head = []
    if jobs > 1:
        deadline = perf_counter() + SERIAL_BUDGET_S
        while len(head) < len(units) and perf_counter() < deadline:
            head.append(fn(units[len(head)]))
    return head + fork_join(fn, units[len(head):], jobs)


def fork_join(fn: Callable, units: Sequence, jobs: int = 1) -> list:
    """[fn(u) for u in units] over w = min(jobs, CPU count, len(units)) processes.

    parallel_map's split of units over workers, with no serial head, and
    the package's only one: share k holds units[k::w], so that units listed
    by rising cost spread evenly over the shares.  The caller is worker 0
    and runs share 0 itself; each of w - 1 worker processes runs one other
    share and sends its results, and its first failure, once through a
    one-way pipe.  The results come back in unit order.  A failure raises
    the exception of the lowest failing unit, as a serial run does.  A
    worker that sends nothing, because it died, was killed or its result
    would not pickle, raises a RuntimeError naming its exit code.  No
    worker outlives the call, whether it returns or raises.  With w = 1 fn
    runs in this process alone; otherwise fn, the units and their results
    must pickle.
    """
    w = max(1, min(jobs, os.cpu_count() or 1, len(units)))
    if w == 1:
        return [fn(u) for u in units]
    workers = []
    try:
        for k in range(1, w):
            recv, send = Pipe(duplex=False)
            worker = Process(target=_send_share, args=(send, fn, units[k::w]), daemon=True)
            worker.start()
            # Only the worker holds the send end, so its death reads as end of file.
            send.close()
            workers.append((worker, recv))
        shares = [_run_batch(fn, units[::w])]
        # Read every share before joining: a worker blocks until its pipe is read.
        for worker, recv in workers:
            try:
                shares.append(recv.recv())
            except (EOFError, OSError):
                worker.join()
                raise RuntimeError(f"a parallel_map worker sent no result "
                                   f"(exit code {worker.exitcode})") from None
    finally:
        for worker, recv in workers:
            recv.close()
            worker.terminate()
            worker.join()
    # Share k runs its units in order, so its failure is unit k + w * len(done).
    failed = {k + w * len(done): exc for k, (done, exc) in enumerate(shares) if exc}
    if failed:
        raise failed[min(failed)]
    results = [None] * len(units)
    for k, (done, _) in enumerate(shares):
        results[k::w] = done
    return results


def _run_batch(fn: Callable, batch: Sequence) -> tuple:
    """fn over the batch in order, up to the first failure, and that failure."""
    done = []
    try:
        for u in batch:
            done.append(fn(u))
    except Exception as exc:
        return done, exc
    return done, None


def _send_share(conn, fn: Callable, share: Sequence) -> None:
    """A parallel_map worker: send _run_batch's (done, exc) once.  A send that
    fails leaves by SystemExit(1), which prints no traceback; the caller
    then reads end of file and reports the exit code."""
    try:
        conn.send(_run_batch(fn, share))
    except Exception:
        raise SystemExit(1) from None


def canonical_key(a: int, b: int, c: int, d: int, ctx: FieldContext) -> int:
    """The key of the map of (a, b, c, d), with no map built: the package's one
    canonicalization rule.  Entries are reduced mod p, a singular matrix is
    refused, and the lead entry (a, or b when a = 0) is scaled to 1."""
    p = ctx.p
    a %= p
    b %= p
    c %= p
    d %= p
    if (a * d - b * c) % p == 0:
        raise ValueError(f"({a},{b},{c},{d}) has zero determinant mod {p}")
    s = ctx._inv[a if a else b]
    return (((a * s % p) * p + b * s % p) * p + c * s % p) * p + d * s % p


def key_entries(key: int, p: int) -> tuple[int, int, int, int]:
    """(a, b, c, d) of a map key ((a*p + b)*p + c)*p + d: the package's one
    decoder of map keys, and the inverse of canonical_key on canonical
    entries."""
    key, d = divmod(key, p)
    key, c = divmod(key, p)
    a, b = divmod(key, p)
    return a, b, c, d


def graph_tables(keys: Iterable[int], ctx: FieldContext) -> Iterator[bytes]:
    """The graph of each map key as a 256-byte bytes.translate table, p < PAD.

    Index x < p holds f(x), index p holds f(infinity), infinity written as
    p, and every index above p holds PAD, which every table maps to PAD.
    A map with c != 0 is t + s/(x + u), u = d/c, t = a/c, s = (bc - ad)/c^2:
    its table is the window x + u of the doubled reciprocal table (0 and
    infinity swapped) sent through "times s" and then "plus t".  A map with
    c = 0 has a = 1 and is x/d + b/d: the identity sent through "times 1/d"
    and "plus b/d".  "Times s" is every s-th byte of range(p) laid p times,
    "plus t" a window of the doubled range(p); both are built once per s
    and t of a call.  No Python code runs per point.
    """
    p, inv = ctx.p, ctx._inv
    if p >= PAD:
        raise ValueError(f"graph tables need p < {PAD}, got {p}")
    residues = bytes(range(p))
    ring, mul = residues * 2, residues * p
    tail = bytes([p]) + bytes([PAD]) * (PAD - p)
    identity = residues + tail
    # The reciprocal of x + u, for u and x in range(p), and of infinity + u.
    recip = bytes([p, *inv[1:]]) * 2
    back = bytes([0]) + tail[1:]
    times, plus = {}, {}
    for key in keys:
        a, b, c, d = key_entries(key, p)
        if c:
            w = inv[c]
            u, s, t = d * w % p, (b * c - a * d) * w * w % p, a * w % p
            table = recip[u:u + p] + back
        else:
            s = inv[d]
            t = b * s % p
            table = identity
        if s not in times:
            times[s] = mul[: s * p : s] + tail
        if t not in plus:
            plus[t] = ring[t:t + p] + tail
        yield table.translate(times[s]).translate(plus[t])


def group_order(p: int) -> int:
    """|PGL(2, p)| = p(p-1)(p+1)."""
    return p * (p - 1) * (p + 1)


def class_key(i: int, p: int) -> int:
    """The key of the i-th element of PGL(2, p) in the package's one fixed order.

    Canonical forms with a = 1 (b, c free, d != bc), then a = 0, b = 1
    (c nonzero, d free), lexicographic within each block.  Used for seeded
    sampling without replacement from the whole group.
    """
    order = group_order(p)
    if not 0 <= i < order:
        raise IndexError(f"index {i} outside PGL(2,{p}) of order {order}")
    block = p * p * (p - 1)
    if i < block:
        b, r = divmod(i, p * (p - 1))
        c, j = divmod(r, p - 1)
        bc = b * c % p
        d = j if j < bc else j + 1
        return ((p + b) * p + c) * p + d
    return p * p + p + i - block
