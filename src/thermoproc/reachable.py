"""Reachable-set geometry for a qutrit with two degenerate excited levels.

System: levels (g, e1, e2) with energies (0, E, E), always started in the
ground state [1, 0, 0].  Everything is parameterized by the two-level pair
weight gamma = 1/(1 + e^{-beta E}), so q = (1-gamma)/gamma is the Boltzmann
factor of the gap.

Regions computed:

  - TP: the exact polytope reachable by Gibbs-stochastic matrices, from the
    permutation vertices of the thermo-majorization cone;
  - ETP-approx: the convex hull of the orbit of the start state under the
    three extremal two-level swaps (the (e1, e2) one is a plain swap), plus
    the Gibbs point.  This orbit-hull is an approximation of the swap-
    sequence region and is labeled as such everywhere;
  - MTP: the exact polygon reachable by Markovian thermal processes, the
    convex hull of the images of the start state under sequences of full
    two-level thermalizations (Lostaglio & Korzekwa, "Continuous
    thermomajorization and a complete set of laws for Markovian thermal
    processes", PRA 2022);
  - MTP-path: the straight mixing segment from the start state to the Gibbs
    point, an inner path of the MTP polygon (still what fig3 exports);
  - MMTP2-points: the four states produced by the listed memory-assisted
    sequences with a qubit memory (A_1, A_2, B_1, B_2): A_1 and B_1 each a
    protocol of the blocks (g, e1, e2) on ``memory``'s one evaluator, A_2
    and B_2 their e1 <-> e2 mirrors.  The B points fall outside the MTP
    polygon at every pair weight, which is the separation this module
    exists to exhibit: the memory closes part of the gap between MTP and
    TP.  They do not escape the swap sequences below gamma ~ 0.855: there
    one swap and two partial swaps reach B exactly.

Plot coordinates: barycentric map onto the equilateral triangle with
g -> (0, 0), e1 -> (1, 0), e2 -> (1/2, sqrt(3)/2).

Geometry only, no I/O: ``cli`` writes the regions through its one CSV writer.

The orbit closure and the hull chain run on Python floats: each step works
on a 2- or 3-element point, where a numpy call would cost more than the
arithmetic.  The orbit's states carry their rounded dedup keys with the
frontier, so an image rounds only the coordinates its swap changes.  The
turn test is spelled out as the same IEEE operations as ``_cross2``, so the
hull keeps its vertices, and its tolerance scales with the points' span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PopulationVector
from .majorization import thermo_majorizes, tp_reach_vertices
from .memory import _protocol_totals

TRIANGLE_E2 = (0.5, math.sqrt(3.0) / 2.0)
DEDUP_DECIMALS = 12
# a chain turn of at most this times the squared coordinate span is no left turn
HULL_TOLERANCE = 1.0e-15


def _cross2(u, v):
    """z-component of the 2-d cross product; works on rows as well."""
    u = np.asarray(u)
    v = np.asarray(v)
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def bary_xy(points) -> np.ndarray:
    """Map (p_g, p_e1, p_e2) rows to 2-d triangle coordinates."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    x = pts[:, 1] + TRIANGLE_E2[0] * pts[:, 2]
    y = TRIANGLE_E2[1] * pts[:, 2]
    return np.column_stack([x, y])


@dataclass
class SimplexRegion:
    """A tagged set of qutrit states: polygon, path, or bare points."""

    tag: str
    kind: str  # "polygon" | "path" | "points"
    vertices: np.ndarray  # (n, 3) rows of populations

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.vertices, dtype=np.float64))
        if pts.shape[1] != 3:
            raise ValueError("vertices must be rows of 3 populations")
        # written so that a NaN, which fails every comparison, fails the checks
        if pts.size and not (pts.min() >= -1.0e-12
                             and np.abs(pts.sum(axis=1) - 1.0).max() <= 1.0e-9):
            raise ValueError("vertices must be probability rows")
        if self.kind == "polygon" and len(pts) >= 3:
            xy = bary_xy(pts)
            edges = np.roll(xy, -1, axis=0) - xy
            cross = _cross2(edges, np.roll(edges, -1, axis=0))
            if not cross.min() >= -1.0e-12:
                raise ValueError("polygon vertices are not in convex CCW order")
        self.vertices = pts

    def xy(self) -> np.ndarray:
        return bary_xy(self.vertices)


def qutrit_gibbs(gamma: float) -> np.ndarray:
    q = (1.0 - gamma) / gamma
    return np.array([1.0, q, q]) / (1.0 + 2.0 * q)


def qutrit_mmtp2_vertices(gamma):
    """The four memory-assisted vertices (A_1, A_2, B_1, B_2) from [1, 0, 0].

    A_s runs the qubit-memory swap simulation between g and e_s and refreshes
    the memory; B_s chains the e_s simulation and then the e_sbar one before
    the single final refresh, keeping the intermediate correlations.
    Returned in the order A_1, A_2, B_1, B_2.  Only A_1 and B_1 are run: e1
    and e2 are degenerate and start empty, so the evaluator does the same
    float operations on the swapped blocks, and A_2, B_2 are the e1 <-> e2
    mirrors of A_1, B_1 to the bit.

    ``gamma`` is one pair weight or a sequence of them; a sequence gives one
    such list per weight, from one evaluator call per protocol with one
    weight per row, each vertex bit for bit that of its own call.
    """
    scalar = not hasattr(gamma, "__iter__")
    gammas = np.array([gamma] if scalar else gamma, dtype=np.float64)
    # written so that a NaN, which fails every comparison, is rejected
    if not np.all((0.5 < gammas) & (gammas < 1.0)):
        raise ValueError("gamma must lie in (1/2, 1)")
    # blocks g, e1, e2 (0, 1, 2) of two memory slots each, all the mass on g
    start = np.broadcast_to((1.0, 0.0, 0.0), (len(gammas), 3))
    (a_g, a_1, a_2), (b_g, b_1, b_2) = (
        _protocol_totals([2] * len(gammas), sweeps, start, (0, 1, 2))
        for sweeps in (((0, 1, gammas),), ((0, 1, gammas), (0, 2, gammas))))
    vertices = [[PopulationVector(p) for p in ((ag, a1, a2), (ag, a2, a1),
                                               (bg, b1, b2), (bg, b2, b1))]
                for ag, a1, a2, bg, b1, b2 in zip(a_g, a_1, a_2, b_g, b_1, b_2)]
    return vertices[0] if scalar else vertices


def etp_orbit_points(gamma: float, depth: int = 8) -> np.ndarray:
    """All states within ``depth`` extremal swaps of [1, 0, 0], plus Gibbs.

    Breadth-first closure, deduplicated at 1e-12: two states are one when
    their coordinates round to the same ``DEDUP_DECIMALS`` places.  Each
    frontier state carries its rounded key.  The swaps (g, e1), (g, e2)
    and (e1, e2) map p to

        (p_g (1-q) + p_e1, q p_g, p_e2),
        (p_g (1-q) + p_e2, p_e1, q p_g),
        (p_g, p_e2, p_e1),

    so an image rounds only the coordinates that change: p_g (1-q) + p_e1,
    p_g (1-q) + p_e2 and q p_g, the last shared by the first two images.
    The others reuse the parent's rounded values: three ``round`` calls per
    state, where rounding every image anew takes nine.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    q = (1.0 - gamma) / gamma
    keep = 1.0 - q
    start = (1.0, 0.0, 0.0)  # its coordinates round to themselves: its own key
    seen = {start: start}
    frontier = [(start, start)]
    for _ in range(depth):
        nxt = []
        for p, (k_g, k_1, k_2) in frontier:
            p_g, p_1, p_2 = p
            stay = p_g * keep
            pumped = q * p_g
            k_pumped = round(pumped, DEDUP_DECIMALS)
            for img, key in (
                    ((stay + p_1, pumped, p_2),
                     (round(stay + p_1, DEDUP_DECIMALS), k_pumped, k_2)),
                    ((stay + p_2, p_1, pumped),
                     (round(stay + p_2, DEDUP_DECIMALS), k_1, k_pumped)),
                    ((p_g, p_2, p_1), (k_g, k_2, k_1))):
                if key not in seen:
                    seen[key] = img
                    nxt.append((img, key))
        if not nxt:
            break
        frontier = nxt
    gibbs = tuple(qutrit_gibbs(gamma))
    key = tuple(round(x, DEDUP_DECIMALS) for x in gibbs)
    if key not in seen:
        seen[key] = gibbs
    return np.array(list(seen.values()))


def convex_hull_xy(points_xy: np.ndarray) -> np.ndarray:
    """Indices of the convex hull of 2-d points, CCW (Andrew monotone chain).

    The chain runs over every point in lexicographic order, on Python
    floats: each turn test is ``_cross2(a - o, p - o)`` spelled out for the
    chain's last two points o and a, the same IEEE operations in the same
    order, without a numpy call per point.  A turn of at most
    ``HULL_TOLERANCE`` times the squared largest coordinate span is no left
    turn, so collinear and repeated points drop out at any scale.
    """
    pts = np.asarray(points_xy, dtype=np.float64)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    span = float(np.ptp(pts, axis=0).max()) if len(pts) else 0.0
    tolerance = HULL_TOLERANCE * span * span
    # the chain runs over positions in ``order``, mapped back at the end
    xy = pts[order].tolist()

    def build(indices):
        chain = []
        for i in indices:
            px, py = xy[i]
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = xy[chain[-2]], xy[chain[-1]]
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= tolerance:
                    chain.pop()
                else:
                    break
            chain.append(i)
        return chain

    positions = range(len(xy))
    return order[build(positions)[:-1] + build(positions[::-1])[:-1]]


def etp_orbit_hull(gamma: float, depth: int = 8) -> SimplexRegion:
    """Convex hull of the swap orbit; an approximation of the swap-sequence region."""
    points = etp_orbit_points(gamma, depth)
    hull = convex_hull_xy(bary_xy(points))
    return SimplexRegion("ETP-approx", "polygon", points[hull])


def tp_region(gamma: float) -> SimplexRegion:
    """Exact polytope reachable from [1, 0, 0] by Gibbs-stochastic matrices."""
    vertices = tp_reach_vertices(np.array([1.0, 0.0, 0.0]), qutrit_gibbs(gamma))
    points = np.array([v.probs for v in vertices])
    hull = convex_hull_xy(bary_xy(points))
    return SimplexRegion("TP", "polygon", points[hull])


def mtp_region(gamma: float) -> SimplexRegion:
    """Exact polygon reachable from [1, 0, 0] by Markovian thermal processes.

    Its vertices are the start state and the images of full thermalizations
    of (g, e1), then (g, e2), and their mirrors.  The polygon is closed under
    the three full two-level thermalizations, so it holds every state that
    partial thermalizations and their continuous-time limits can reach.
    """
    g = gamma
    return SimplexRegion("MTP", "polygon", [
        [1.0, 0.0, 0.0],
        [g, 1.0 - g, 0.0],
        [g * g, 1.0 - g, g * (1.0 - g)],
        [g * g, g * (1.0 - g), 1.0 - g],
        [g, 0.0, 1.0 - g],
    ])


def mtp_mixing_path(gamma: float) -> SimplexRegion:
    """Straight mixing segment from [1, 0, 0] to the Gibbs point, 17 points."""
    ts = np.linspace(0.0, 1.0, 17)[:, None]
    start = np.array([1.0, 0.0, 0.0])
    pts = (1.0 - ts) * start + ts * qutrit_gibbs(gamma)
    return SimplexRegion("MTP-path", "path", pts)


def mmtp2_point_regions(gamma: float):
    """The A and B vertex pairs as two point regions."""
    a1, a2, b1, b2 = (v.probs for v in qutrit_mmtp2_vertices(gamma))
    return (SimplexRegion("MMTP2-A", "points", np.array([a1, a2])),
            SimplexRegion("MMTP2-B", "points", np.array([b1, b2])))


def hull_margin(region: SimplexRegion, point) -> float:
    """Signed distance (triangle coordinates) from a state to a polygon boundary.

    Positive when the point lies outside the polygon, negative inside.
    """
    if region.kind != "polygon":
        raise ValueError("margin is defined against polygon regions")
    poly = region.xy()
    pt = bary_xy(np.asarray(point, dtype=np.float64))[0]
    n = len(poly)
    inside = True
    dist = math.inf
    for i in range(n):
        a = poly[i]
        b = poly[(i + 1) % n]
        edge = b - a
        if _cross2(edge, pt - a) < 0.0:
            inside = False
        t = float(np.dot(pt - a, edge) / max(np.dot(edge, edge), 1.0e-300))
        t = min(1.0, max(0.0, t))
        dist = min(dist, float(np.linalg.norm(pt - (a + t * edge))))
    return -dist if inside else dist


def inside_tp_cone(gamma: float, point):
    """Thermo-majorization membership of a state in the cone of [1, 0, 0];
    rows of states give one verdict each."""
    return thermo_majorizes(np.array([1.0, 0.0, 0.0]), np.asarray(point),
                            qutrit_gibbs(gamma))

