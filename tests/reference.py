"""Pointwise references that the tests check the library against.

No product path calls these; each states one definition a map or a point
at a time.  The library holds every map as its key; here a map is a
MoebiusMap, the group algebra of PGL(2, p) on the projective line
F_p u {INFINITY}: evaluation, composition and inverse, built on the
library's canonical_key and decoded by its key_entries.  Sets of maps go
to and from TransformSet through their keys (keyed, maps_of, entries).
Three-point interpolation, the identity, the points of the projective line
and the whole group as a stream in field.class_key order are stated on
maps; lies_on and richness count through incidence.incidences_of, never
through the graph tables; hyperbola_to_moebius builds the map of one
translate.  equivalence_by_targets counts a pattern's embeddings one
target triple at a time.  The pivot vocabulary states the reduction of
the pivot module's docstring one map at a time: the maps through a pivot,
their conjugates and lines, the transplant of the points, and the
pullback of a line, each line a NonVertical (slope, intercept) or a
Vertical (x).
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from mobinc.energy import HyperbolaTranslate, _hyperbola_key
from mobinc.field import (FieldContext, canonical_key, class_key, group_order, key_entries,
                          same_context)
from mobinc.incidence import PointSet, ScalarSet, TransformSet, columns, incidences_of


class _Infinity:
    """The point at infinity on the projective line (a singleton)."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __reduce__(self):
        return (_Infinity, ())


INFINITY = _Infinity()

ProjectivePoint = Union[int, _Infinity]


class MoebiusMap:
    """An element of PGL(2, p): the class of the matrix (a, b, c, d).

    Instances are immutable by convention and always canonical, so equality
    and hashing work directly on the four entries.  Calling the map
    evaluates it on a projective point; ``f * g`` is the composition
    x -> f(g(x)); ``f.inverse()`` is the group inverse.
    """

    __slots__ = ("a", "b", "c", "d", "ctx")

    def __new__(cls, a: int, b: int, c: int, d: int, ctx: FieldContext):
        return cls.from_key(canonical_key(a, b, c, d, ctx), ctx)

    def __getnewargs__(self):
        """Let pickle and copy rebuild the map through __new__."""
        return (self.a, self.b, self.c, self.d, self.ctx)

    def __call__(self, x: ProjectivePoint) -> ProjectivePoint:
        p = self.ctx.p
        if x is INFINITY:
            if self.c == 0:
                return INFINITY
            return self.a * self.ctx._inv[self.c] % p
        den = (self.c * x + self.d) % p
        if den == 0:
            return INFINITY
        return (self.a * x + self.b) * self.ctx._inv[den] % p

    def __mul__(self, other):
        """Composition: (f * g)(x) = f(g(x)), i.e. the matrix product."""
        if not isinstance(other, MoebiusMap):
            return NotImplemented
        ctx = same_context(self.ctx, other.ctx)
        a = self.a * other.a + self.b * other.c
        b = self.a * other.b + self.b * other.d
        c = self.c * other.a + self.d * other.c
        d = self.c * other.b + self.d * other.d
        return MoebiusMap(a, b, c, d, ctx)

    def inverse(self) -> "MoebiusMap":
        """Group inverse (the adjugate matrix, canonicalized)."""
        return MoebiusMap(self.d, -self.b, -self.c, self.a, self.ctx)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def key(self) -> int:
        """The canonical entries as the integer ((a*p + b)*p + c)*p + d.

        Keys sort in as_tuple order; key_entries and from_key invert them.
        """
        p = self.ctx.p
        return ((self.a * p + self.b) * p + self.c) * p + self.d

    @classmethod
    def from_key(cls, key: int, ctx: FieldContext) -> "MoebiusMap":
        """The map of the key of a canonical map."""
        m = object.__new__(cls)
        m.a, m.b, m.c, m.d = key_entries(key, ctx.p)
        m.ctx = ctx
        return m

    def __eq__(self, other):
        if not isinstance(other, MoebiusMap):
            return NotImplemented
        return (
            self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
            and self.ctx.p == other.ctx.p
        )

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d, self.ctx.p))

    def __repr__(self):
        return f"MoebiusMap({self.a},{self.b},{self.c},{self.d}; p={self.ctx.p})"


def keyed(maps: Iterable[MoebiusMap], ctx: FieldContext) -> TransformSet:
    """The TransformSet of the maps' keys."""
    return TransformSet((f.key() for f in maps), ctx)


def maps_of(T: TransformSet) -> list[MoebiusMap]:
    """The members of T as maps, in key order."""
    return [MoebiusMap.from_key(key, T.ctx) for key in T.keys]


def entries(T: TransformSet) -> list[tuple[int, int, int, int]]:
    """The canonical entries (a, b, c, d) of the members of T, in key order."""
    return [key_entries(key, T.ctx.p) for key in T.keys]


def projective_points(ctx: FieldContext) -> list[ProjectivePoint]:
    return [*range(ctx.p), INFINITY]


def identity(ctx: FieldContext) -> MoebiusMap:
    return MoebiusMap(1, 0, 0, 1, ctx)


def through(
    src: Iterable[ProjectivePoint],
    dst: Iterable[ProjectivePoint],
    ctx: FieldContext,
) -> MoebiusMap:
    """The unique map sending the distinct triple src onto dst, in order.

    Built by composing the standard maps of each triple onto
    (0, 1, INFINITY), which avoids any case analysis on vanishing
    unknowns of a linear system.
    """
    src = _normalize_triple(src, ctx)
    dst = _normalize_triple(dst, ctx)
    ms = _to_zero_one_inf(src, ctx)
    md = _to_zero_one_inf(dst, ctx)
    p = ctx.p
    # md^{-1} (adjugate) times ms.
    e, f, g, h = md[3], (-md[1]) % p, (-md[2]) % p, md[0]
    a = (e * ms[0] + f * ms[2]) % p
    b = (e * ms[1] + f * ms[3]) % p
    c = (g * ms[0] + h * ms[2]) % p
    d = (g * ms[1] + h * ms[3]) % p
    return MoebiusMap(a, b, c, d, ctx)


def _normalize_triple(points, ctx):
    pts = tuple(x if x is INFINITY else x % ctx.p for x in points)
    if len(pts) != 3 or len(set(pts)) != 3:
        raise ValueError(f"need three pairwise-distinct points, got {pts}")
    return pts


def _to_zero_one_inf(triple, ctx):
    """Matrix sending the distinct triple (p1, p2, p3) to (0, 1, INFINITY)."""
    p = ctx.p
    p1, p2, p3 = triple
    if p1 is INFINITY:
        # x -> (p2 - p3)/(x - p3)
        return (0, (p2 - p3) % p, 1, (-p3) % p)
    if p2 is INFINITY:
        # x -> (x - p1)/(x - p3)
        return (1, (-p1) % p, 1, (-p3) % p)
    if p3 is INFINITY:
        # x -> (x - p1)/(p2 - p1)
        return (1, (-p1) % p, 0, (p2 - p1) % p)
    u = (p2 - p3) % p
    v = (p2 - p1) % p
    return (u, (-p1 * u) % p, v, (-p3 * v) % p)


def equivalence_by_targets(A: ScalarSet, S: ScalarSet) -> dict:
    """projective_equivalence_count one ordered target triple at a time.

    Every ordered triple t = (t1, t2, t3) of distinct elements of A is the
    target of the reference triple S[:3]; each later s, with cross-ratio
    lam = (s - r1)(r2 - r3)/((s - r3)(r2 - r1)), goes to
    z = (t1 u - lam v t3)/(u - lam v), u = t2 - t3 and v = t2 - t1, or to
    infinity when u = lam v.  A target is kept when every z lies in A, and
    its image set is gathered into a set.
    """
    p, inv = A.ctx.p, A.ctx._inv
    r1, r2, r3 = S.values[:3]
    scale = (r2 - r3) * inv[(r2 - r1) % p]
    lams = [(s - r1) * scale * inv[(s - r3) % p] % p for s in S.values[3:]]
    members = set(A.values)
    map_count = 0
    images = set()
    for target in permutations(A.values, 3):
        t1, t2, t3 = target
        u, v = t2 - t3, t2 - t1
        image = list(target)
        for lam in lams:
            lv = lam * v
            den = (u - lv) % p
            if not den:
                break
            z = (t1 * u - lv * t3) * inv[den] % p
            if z not in members:
                break
            image.append(z)
        else:
            map_count += 1
            images.add(frozenset(image))
    return {"map_count": map_count, "subset_count": len(images)}


def enumerate_group(ctx: FieldContext) -> Iterator[MoebiusMap]:
    """Every element of PGL(2, p) exactly once, streamed in field.class_key
    order.  Nothing is kept: each call regenerates the maps."""
    p = ctx.p
    return (MoebiusMap.from_key(class_key(i, p), ctx) for i in range(group_order(p)))


def lies_on(s: tuple[int, int], f: MoebiusMap) -> bool:
    """True iff the affine point s = (x, y) satisfies y = f(x), x not a pole."""
    p = f.ctx.p
    x, y = s
    return incidences_of(f.key(), ((x % p, (y % p,)),), f.ctx) == 1


def richness(f: MoebiusMap, P: PointSet) -> int:
    """Number of points of P lying on f."""
    return incidences_of(f.key(), columns(P.points), P.ctx)


def hyperbola_to_moebius(h: HyperbolaTranslate, ctx: FieldContext) -> MoebiusMap:
    """The transformation whose graph is the translate (poles excluded)."""
    return MoebiusMap.from_key(_hyperbola_key(h, ctx), ctx)


def transforms_through_pivot(
    T: TransformSet, q: tuple[int, int]
) -> tuple[TransformSet, TransformSet]:
    """Split the members of T passing through q into (affine, curved) parts."""
    ctx = T.ctx
    p = ctx.p
    q1, q2 = q[0] % p, q[1] % p
    affine, curved = [], []
    for key, f in zip(T.keys, maps_of(T)):
        if f(q1) == q2:
            (affine if f.c == 0 else curved).append(key)
    return TransformSet.from_sorted(affine, ctx), TransformSet.from_sorted(curved, ctx)


def conjugate_through_pivot(
    f: MoebiusMap, q: tuple[int, int]
) -> tuple[int, int, int, int]:
    """The unreduced conjugate matrix of f at pivot q, before any rescaling.

    f must pass through q with c != 0.  The result is upper triangular with
    entries ((q1+d, -1), (0, a-q2)) taken from the c = 1 scaling of f, and
    its determinant equals det of that scaling exactly.
    """
    ctx = f.ctx
    p = ctx.p
    q1, q2 = q[0] % p, q[1] % p
    if f.c == 0:
        raise ValueError(f"{f!r} is affine; the conjugate needs c != 0")
    if f(q1) != q2:
        raise ValueError(f"{f!r} does not map {q1} to {q2}")
    s = ctx._inv[f.c]
    a = f.a * s % p
    d = f.d * s % p
    # a = q2 would force det = 0, so the bottom-right entry is nonzero.
    return ((q1 + d) % p, p - 1, 0, (a - q2) % p)


class NonVertical(NamedTuple):
    slope: int
    intercept: int


class Vertical(NamedTuple):
    x: int


AffineLine = Union[NonVertical, Vertical]


def line_image(f: MoebiusMap, q: tuple[int, int]) -> NonVertical:
    """The affine line that the curved map f through q conjugates to.

    The intercept is -1/(a - q2), which is never zero, and the slope is
    (q1 + d)/(a - q2), which is never zero either (slope 0 would need
    d = -q1, putting the pole of f at q1).
    """
    ctx = f.ctx
    p = ctx.p
    A, B, _, D = conjugate_through_pivot(f, q)
    s = ctx._inv[D]
    return NonVertical(A * s % p, B * s % p)


def transplant_points(P: PointSet, q: tuple[int, int]) -> tuple[PointSet, int]:
    """Move P to the line side of the pivot reduction at q.

    Points on the rows x = q1 or y = q2 are dropped; the count of dropped
    points is returned alongside.  On the kept domain the move is injective
    (each coordinate is separately invertible).
    """
    p, inv = P.ctx.p, P.ctx._inv
    q1, q2 = q[0] % p, q[1] % p
    kept = [(inv[(q1 - x) % p], inv[(q2 - y) % p]) for x, y in P.points if x != q1 and y != q2]
    return PointSet(kept, P.ctx), len(P) - len(kept)


def line_through(
    s: tuple[int, int], t: tuple[int, int], ctx: FieldContext
) -> AffineLine:
    """The unique line through two distinct points, in canonical form."""
    p = ctx.p
    x1, y1 = s[0] % p, s[1] % p
    x2, y2 = t[0] % p, t[1] % p
    if (x1, y1) == (x2, y2):
        raise ValueError(f"need two distinct points, got {s!r} twice")
    if x1 == x2:
        return Vertical(x1)
    m = (y2 - y1) * ctx._inv[(x2 - x1) % p] % p
    return NonVertical(m, (y1 - m * x1) % p)


def point_on_line(s: tuple[int, int], line: AffineLine, ctx: FieldContext) -> bool:
    p = ctx.p
    if isinstance(line, Vertical):
        return s[0] % p == line.x
    return (s[1] - line.slope * s[0] - line.intercept) % p == 0


def line_preimage(
    line: AffineLine, q: tuple[int, int], ctx: FieldContext
) -> Optional[MoebiusMap]:
    """The map through q whose transplanted graph is the line, or None.

    The line t2 = s*t1 + i pulls back to a map of determinant s, curved when
    i != 0 (the inverse of line_image) and affine of slope 1/s when i = 0.
    Vertical and horizontal lines are the only ones with no preimage.
    """
    if isinstance(line, Vertical) or line.slope == 0:
        return None
    q1, q2 = q
    s, i = line
    return MoebiusMap(1 - i * q2, q2 * s + i * q1 * q2 - q1, -i, s + i * q1, ctx)
