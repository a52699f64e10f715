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
    sequences with a qubit memory (A_1, A_2, B_1, B_2).  The B points fall
    outside the MTP polygon at every pair weight, which is the separation
    this module exists to exhibit: the memory closes part of the gap
    between MTP and TP.  They do not escape the swap sequences below
    gamma ~ 0.855: there one swap and two partial swaps reach B exactly.

Plot coordinates: barycentric map onto the equilateral triangle with
g -> (0, 0), e1 -> (1, 0), e2 -> (1/2, sqrt(3)/2).

Geometry only, no I/O: ``cli`` writes the regions through its one CSV writer.

The orbit closure and the hull chain run on Python floats: each step works
on a 2- or 3-element point, where a numpy call would cost more than the
arithmetic.  The turn test is spelled out as the same IEEE operations as
``_cross2``, so the hull keeps its vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import memory_sweep
from .core import PopulationVector
from .majorization import thermo_majorizes, tp_reach_vertices

TRIANGLE_E2 = (0.5, math.sqrt(3.0) / 2.0)
DEDUP_DECIMALS = 12


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


def qutrit_mmtp2_vertices(gamma: float):
    """The four memory-assisted vertices (A_1, A_2, B_1, B_2) from [1, 0, 0].

    A_s runs the qubit-memory swap simulation between g and e_s and refreshes
    the memory; B_s chains the e_s simulation and then the e_sbar one before
    the single final refresh, keeping the intermediate correlations.
    Returned in the order A_1, A_2, B_1, B_2.
    """
    if not (0.5 < gamma < 1.0):
        raise ValueError("gamma must lie in (1/2, 1)")
    # composite basis: (system level) x (memory slot), memory fastest;
    # g slots 0..1, e1 slots 2..3, e2 slots 4..5
    def start():
        v = np.zeros(6)
        v[0] = v[1] = 0.5
        return v

    def marginal(v):
        return PopulationVector(v.reshape(3, 2).sum(axis=1))

    out = []
    for target in (1, 2):  # A_s
        v = start()
        memory_sweep(v, 2, gamma, 0, 2 * target)
        out.append(marginal(v))
    for target in (1, 2):  # B_s
        other = 3 - target
        v = start()
        memory_sweep(v, 2, gamma, 0, 2 * target)
        memory_sweep(v, 2, gamma, 0, 2 * other)
        out.append(marginal(v))
    return out


def _swap_maps(gamma: float):
    q = (1.0 - gamma) / gamma

    def swap_g_e1(p):
        return (p[0] * (1.0 - q) + p[1], q * p[0], p[2])

    def swap_g_e2(p):
        return (p[0] * (1.0 - q) + p[2], p[1], q * p[0])

    def swap_e1_e2(p):
        return (p[0], p[2], p[1])

    return (swap_g_e1, swap_g_e2, swap_e1_e2)


def etp_orbit_points(gamma: float, depth: int = 8) -> np.ndarray:
    """All states within ``depth`` extremal swaps of [1, 0, 0], plus Gibbs.

    Breadth-first closure, deduplicated at 1e-12.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    maps = _swap_maps(gamma)
    start = (1.0, 0.0, 0.0)

    def key(p):
        return tuple(round(x, DEDUP_DECIMALS) for x in p)

    seen = {key(start): start}
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for p in frontier:
            for f in maps:
                img = f(p)
                k = key(img)
                if k not in seen:
                    seen[k] = img
                    nxt.append(img)
        if not nxt:
            break
        frontier = nxt
    gibbs = tuple(qutrit_gibbs(gamma))
    if key(gibbs) not in seen:
        seen[key(gibbs)] = gibbs
    return np.array(list(seen.values()))


def convex_hull_xy(points_xy: np.ndarray) -> np.ndarray:
    """Indices of the convex hull of 2-d points, CCW (Andrew monotone chain).

    The chain runs on Python floats: each turn test is ``_cross2(a - o, p - o)``
    spelled out, the same IEEE operations in the same order, without a numpy
    call per point.
    """
    pts = np.asarray(points_xy, dtype=np.float64)
    order = np.lexsort((pts[:, 1], pts[:, 0])).tolist()
    xy = pts.tolist()

    def build(indices):
        chain = []
        for i in indices:
            px, py = xy[i]
            while len(chain) >= 2:
                ox, oy = xy[chain[-2]]
                ax, ay = xy[chain[-1]]
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 1.0e-15:
                    chain.pop()
                else:
                    break
            chain.append(i)
        return chain

    lower = build(order)
    upper = build(order[::-1])
    return np.array(lower[:-1] + upper[:-1], dtype=np.intp)


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

