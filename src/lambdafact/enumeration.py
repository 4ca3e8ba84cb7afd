"""Brute-force generation of permutations, set partitions and rooted forests,
plus the colored-forest bijection that explains the tree-count convolution
identity combinatorially.

Everything here is deliberately exhaustive and simple: these generators are
the ground truth that the closed-form routes in `sequences` are checked
against, and they are built on `itertools`, `Counter` and `math.prod`.
Cutoffs keep every stream at desk scale: a size is an int in 0..cutoff,
checked by `polynomial.check_index` at the call, before the stream is read
(the generator `enumerate_m_star` at its first map), and anything else
raises ValueError rather than silently grinding.

Vertex labels are 1-based throughout.  An endofunction on [n] is stored as
a tuple `image` with image[i-1] = sigma(i).  A rooted forest on [m] is a
parent tuple of the same shape where parent 0 marks a root, with all edges
oriented toward the roots.

The bijection has one kernel per direction, and every entry point checks
(n, lam) first: `_fixed_tail` checks them, and a map's length if given,
before it builds the fixed tail.  `sigma_to_pair` validates a member,
then rewrites it and walks its cycles, and its output is a pair by
construction; `_pair_to_head` checks that a pair is in that form on plain
tuples and rewrites it back in one loop.  The census maps each member
forward and compares the head it maps back with the member's own.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations as _permutations, product as _product
from math import prod
from typing import Iterable, Iterator, NamedTuple, Sequence

from .polynomial import Polynomial, check_index
from .symbols import lam as _lam, u as _u

PERMUTATION_CUTOFF = 8
FOREST_CUTOFF = 7
MSTAR_CUTOFF = 10 ** 6
MSTAR_ENTRIES = 2 * 10 ** 8  # the census's maps times their length n+lam+1
PERMANENT_CUTOFF = 10

Pairs = tuple[tuple[int, int], ...]


class _Image(NamedTuple):  # a NamedTuple cannot define __new__; its subclass can
    image: tuple[int, ...]


class Endofunction(_Image):
    """A self-map of [n], n = len(image), with image[i-1] = sigma(i)."""

    __slots__ = ()

    def __new__(cls, image: Sequence[int]):
        image = tuple(image)  # a list would stay mutable and unhashable
        n = len(image)
        for v in image:
            if not (isinstance(v, int) and 1 <= v <= n):
                raise ValueError(f"image value {v!r} outside [{n}]")
        return tuple.__new__(cls, (image,))

    def __call__(self, i: int) -> int:
        return self.image[i - 1]


class ColoredForestPermutation(NamedTuple):
    """A rooted forest, a permutation of its roots, and colored fixed points.

    parent: forest on [n+1] (0 marks roots); pi: sorted (root, image) pairs
    forming a permutation of the root set; colors: sorted (vertex, color)
    pairs whose domain is exactly the fixed points of pi.
    """

    parent: tuple[int, ...]
    pi: Pairs
    colors: Pairs


# ---- permutations and the families they count ----


def permutations_with_fix(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """All permutations of [n] (1-based image tuples) with fixed-point counts."""
    check_index(n, "permutation enumeration size n", PERMUTATION_CUTOFF)
    return ((p, sum(v == i for i, v in enumerate(p, start=1)))
            for p in _permutations(range(1, n + 1)))


def set_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Set partitions of [n] as restricted growth strings (block of element i+1
    is rgs[i]; blocks are numbered from 0 in order of first appearance).

    Built breadth first in lexicographic order: each string grows by every
    block up to one new block, one position at a time."""
    check_index(n, "set partition enumeration size n", PERMUTATION_CUTOFF)
    rgs = [(0,)] if n else [()]
    for _ in range(n - 1):
        rgs = [s + (b,) for s in rgs for b in range(max(s) + 2)]
    return iter(rgs)


class EnumeratedFamilies(NamedTuple):
    """Exhaustively computed statistics for one n."""

    n: int
    lambda_factorial: Polynomial  # fixed-point generating polynomial in λ
    bell: Polynomial              # block-count generating polynomial in u
    hermite: Polynomial           # involution fixed-point polynomial in u
    derangements: int
    involutions: int
    matchings: int


def oracle_polynomials(n: int) -> EnumeratedFamilies:
    """Compute the named families by direct enumeration (n <= cutoff)."""
    fix_counts: Counter[int] = Counter()
    inv_fix_counts: Counter[int] = Counter()
    for p, fix in permutations_with_fix(n):
        fix_counts[fix] += 1
        if all(p[v - 1] == i for i, v in enumerate(p, start=1)):
            inv_fix_counts[fix] += 1
    block_counts = Counter(max(rgs, default=-1) + 1 for rgs in set_partitions(n))

    def gf(var: Polynomial, counts: Counter[int]) -> Polynomial:
        return sum((var ** j * c for j, c in counts.items()), Polynomial.zero())

    return EnumeratedFamilies(
        n=n,
        lambda_factorial=gf(_lam, fix_counts),
        bell=gf(_u, block_counts),
        hermite=gf(_u, inv_fix_counts),
        derangements=fix_counts[0],
        involutions=inv_fix_counts.total(),
        matchings=inv_fix_counts[0],
    )


# ---- rooted forests ----


def _cycle_vertices(f: Sequence[int]) -> set[int]:
    """The vertices on the cycles of the map v -> f[v-1] on [len(f)], where
    a value 0 (a root marker) ends the path.

    Each walk runs from an unvisited vertex until it meets a visited one;
    if that vertex was visited by the same walk, it closes a new cycle.
    Every vertex is visited once.
    """
    walk = [-1] + [0] * len(f)
    cycles: set[int] = set()
    for start in range(1, len(f) + 1):
        v = start
        while not walk[v]:
            walk[v] = start
            v = f[v - 1]
        if walk[v] == start:
            while v not in cycles:
                cycles.add(v)
                v = f[v - 1]
    return cycles


def is_forest(parent: Sequence[int]) -> bool:
    """True iff following parents from every vertex reaches a root (0).

    A parent value that is not an int in [0..len(parent)] is not a parent
    map at all and raises ValueError naming the value.
    """
    m = len(parent)
    for p in parent:  # at these sizes one pass beats min and max
        if not (isinstance(p, int) and 0 <= p <= m):
            raise ValueError(f"parent value {p} outside [0..{m}]")
    return not _cycle_vertices(parent)


def forests(m: int) -> Iterator[tuple[int, ...]]:
    """All rooted labeled forests on [m], as parent tuples (0 marks roots).

    Generated by filtering the (m+1)**m maps [m] -> [m] u {root marker}
    for acyclicity, in lexicographic order.
    """
    check_index(m, "forest enumeration size m", FOREST_CUTOFF)
    return filter(is_forest, _product(range(0, m + 1), repeat=m))


# ---- the colored bijection ----


def census_exceeds(n: int, lam: int, cutoff: int) -> bool:
    """Whether the (n+lam)**(n+1) members at (n, lam) are more than cutoff.
    They are once n+lam > cutoff, or n+lam >= 2 and n+1 > cutoff.bit_length(),
    so no larger power is formed."""
    return (n + lam > cutoff or (n + lam > 1 and n >= cutoff.bit_length())
            or (n + lam) ** (n + 1) > cutoff)


@lru_cache(maxsize=64, typed=True)
def _fixed_tail(n: int, lam: int, size: int | None = None) -> tuple[int, ...]:
    """The image values n+2..n+lam+1 of the fixed color vertices, after the
    bijection layer's one check of (n, lam) and of the size of a map, if
    given, so none is built for a map of another size; typed, so 1.0 and
    True miss."""
    check_index(n, "n")
    check_index(lam, "lam")
    if size is not None and size != n + lam + 1:
        raise ValueError(f"expected a map on [{n + lam + 1}], got [{size}]")
    return tuple(range(n + 2, n + lam + 2))


def enumerate_m_star(n: int, lam: int) -> Iterator[Endofunction]:
    """Self-maps of [n+lam+1] with nothing mapping to n+1 and every vertex
    above n+1 fixed, streamed in lexicographic order of the image tuple.
    Their count (n+lam)**(n+1) and their entries are bounded before a tail is built."""
    check_index(n, "n")
    check_index(lam, "lam")
    if census_exceeds(n, lam, MSTAR_CUTOFF):
        raise ValueError(f"the maps at n={n}, lam={lam} exceed the cutoff {MSTAR_CUTOFF}")
    if census_exceeds(n, lam, MSTAR_ENTRIES // (n + lam + 1)):
        raise ValueError(f"the maps at n={n}, lam={lam} exceed {MSTAR_ENTRIES} entries")
    tail = _fixed_tail(n, lam)
    allowed = tuple(v for v in range(1, n + lam + 2) if v != n + 1)
    for head in _product(allowed, repeat=n + 1):
        yield tuple.__new__(Endofunction, (head + tail,))  # a member by construction


def _validate_m_star(sigma: Endofunction, n: int, lam: int) -> None:
    """Raise ValueError, naming the first violation, unless sigma is a member."""
    if type(n) is not int or type(lam) is not int:  # before the cache, which cannot hash a list
        check_index(n, "n")
        check_index(lam, "lam")
    image = sigma.image
    if _fixed_tail(n, lam, len(image)) == image[n + 1:] and n + 1 not in image[: n + 1]:
        return
    if n + 1 in image:
        raise ValueError(
            f"vertex {image.index(n + 1) + 1} maps to the forbidden vertex {n + 1}"
        )
    for k in range(n + 2, len(image) + 1):
        if image[k - 1] != k:
            raise ValueError(f"vertex {k} must be fixed, maps to {image[k - 1]}")


def sigma_to_pair(sigma: Endofunction, n: int, lam: int) -> ColoredForestPermutation:
    """Map a member of the restricted family to (forest, root permutation,
    colored fixed points).

    One pass rewrites sigma's first n+1 values into the map tau on [n+1] by
    three rules: a fixed point in [n] becomes an edge to n+1; an edge into
    color vertex n+j+1 becomes a fixed point colored j; other edges are
    copied, and the color vertices are dropped.  The same pass walks tau's
    cycles: their vertices are the roots, each sent by pi to its tau image,
    and every other vertex has its tau image as parent.  Only a colored
    vertex is its own tau image, so pi fixes exactly the colored ones.
    """
    _validate_m_star(sigma, n, lam)
    image, m = sigma.image, n + 1
    tau = [0] * (m + 1)
    walk = [0] * (m + 1)  # the walk that reached each vertex; -1 once on a cycle
    pi, colors = [], []
    for start in range(1, m + 1):
        v = start
        while not walk[v]:
            walk[v] = start
            s = image[v - 1]
            if s > m:  # an edge into color vertex s: a fixed point colored s-n-1
                colors.append((v, s - m))
                s = v
            elif s == v:  # a fixed point in [n]: an edge to n+1
                s = m
            tau[v] = v = s
        while walk[v] == start:  # this walk closed a new cycle: its vertices are roots
            walk[v] = -1
            pi.append((v, tau[v]))
            v = tau[v]
    parent = tau[1:]
    for v, _ in pi:
        parent[v - 1] = 0
    pi.sort()
    colors.sort()
    return tuple.__new__(ColoredForestPermutation, (tuple(parent), tuple(pi), tuple(colors)))


def _pair_to_head(
    parent: Sequence[int], pi: Pairs, colors: Pairs, n: int, lam: int
) -> tuple[int, ...]:
    """The first n+1 image values of a pair's member, after checking that the
    pair has sigma_to_pair's form: a forest on [n+1], pi permuting its roots,
    colors in [1..lam] on pi's fixed points, each sorted by strictly rising vertex.
    One loop sends each vertex to its tau image and inverts the rewriting rules."""
    if len(parent) != n + 1:
        raise ValueError(f"forest must cover [{n + 1}]")
    if not is_forest(parent):  # also rejects a parent value outside [0..n+1]
        raise ValueError("parent map contains a cycle")
    perm = dict(pi)
    roots = [v for v, p in enumerate(parent, start=1) if p == 0]
    if [v for v, _ in pi] != roots or set(perm.values()) != set(roots):
        raise ValueError("pi must permute exactly the roots of the forest")
    color = dict(colors)
    if [v for v, _ in colors] != [v for v, w in pi if v == w]:
        raise ValueError("colors must be assigned to exactly the fixed points")
    head = []
    for i, t in enumerate(parent, start=1):
        if not t:  # a root: its tau image is its pi image
            t = perm[i]
            if t == i:  # a colored fixed point: an edge into its color vertex
                j = color[i]
                if not (isinstance(j, int) and 1 <= j <= lam):
                    raise ValueError(f"color {j!r} of vertex {i} outside [1..{lam}]")
                t = n + 1 + j
        if t == n + 1:  # an edge to n+1: a fixed point in [n]
            t = i
        head.append(t)
    return tuple(head)


def pair_to_sigma(pair: ColoredForestPermutation, n: int, lam: int) -> Endofunction:
    """Inverse of sigma_to_pair."""
    if type(n) is not int or type(lam) is not int:  # before the cache, which cannot hash a list
        check_index(n, "n")
        check_index(lam, "lam")
    tail = _fixed_tail(n, lam)
    return Endofunction(_pair_to_head(pair.parent, pair.pi, pair.colors, n, lam) + tail)


def exhaustive_roundtrip(n: int, lam: int) -> dict[int, int]:
    """Round-trip every member of the restricted family through the bijection.

    Returns the census {k: count} keyed by forest component count minus one.
    Raises RuntimeError if any round trip fails; success proves the map
    injective, and the caller can compare the census against the
    closed-form counts.
    """
    strata: dict[int, int] = {}
    for sigma in enumerate_m_star(n, lam):
        image = sigma.image
        try:
            parent, pi, colors = sigma_to_pair(sigma, n, lam)  # proves the fixed tail
            back = _pair_to_head(parent, pi, colors, n, lam)
        except ValueError as exc:
            raise RuntimeError(f"round trip failed at sigma={image}: {exc}") from exc
        if back != image[: n + 1]:
            raise RuntimeError(f"round trip failed at sigma={image}: got the head {back}")
        k = parent.count(0) - 1
        strata[k] = strata.get(k, 0) + 1
    return strata


# ---- permanents ----


def ryser_permanent(rows: Sequence[Sequence[int]]) -> int:
    """Exact permanent of a small square integer matrix by Ryser's
    inclusion-exclusion over the column subsets S: the sum of
    (-1)^(n-|S|) times the product of the row sums over S."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    return sum((-1) ** (n - k) * prod(sum(r[j] for j in cols) for r in rows)
               for k in range(n + 1) for cols in combinations(range(n), k))


def permanent_check(n: int) -> int:
    """Permanent of the all-ones matrix minus the identity (counts derangements)."""
    check_index(n, "permanent size n", PERMANENT_CUTOFF)
    rows = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    return ryser_permanent(rows)


# ---- DOT rendering ----


def _digraph(name: str, nodes: Iterable[str], edges: Iterable[str]) -> str:
    """Graphviz text: the header, one line per node, then per edge, and the brace."""
    return "\n".join([f"digraph {name} {{", *(f"  {line};" for line in (*nodes, *edges)), "}"])


def endofunction_to_dot(sigma: Endofunction) -> str:
    """Graphviz text for a functional digraph; cycle edges are drawn bold."""
    cycles = _cycle_vertices(sigma.image)
    vertices = range(1, len(sigma.image) + 1)
    edges = (f"{v} -> {sigma(v)}" + (" [style=bold]" if v in cycles else "") for v in vertices)
    return _digraph("sigma", map(str, vertices), edges)


def pair_to_dot(pair: ColoredForestPermutation) -> str:
    """Graphviz text for (forest, root permutation, colors).

    Tree edges point toward the roots; permutation edges are bold; colored
    fixed points carry their color in the node label.
    """
    colors = dict(pair.colors)
    nodes = (f'{v} [label="{v} (c{colors[v]})"]' if v in colors else str(v)
             for v in range(1, len(pair.parent) + 1))
    edges = [f"{v} -> {p}" for v, p in enumerate(pair.parent, start=1) if p]
    edges += (f"{v} -> {w} [style=bold]" for v, w in pair.pi)
    return _digraph("pair", nodes, edges)
