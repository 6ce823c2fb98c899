"""Seeded circuit generator for the benchmark workloads.

Every circuit is a star-shaped polygon: its vertices sit at strictly
increasing angles around a center point, so the polygon is simple.  The
generator states, per circuit, how many of the two degeneracies (+-1, 0) it
encloses and the signed enclosure count that the trace winding must equal,
and it keeps every edge (hence every sample) a stated margin away from both
degeneracies, far beyond the package's own SINGULAR_GUARD of 1e-6.  The
enclosure and the margin are computed here, not taken
from the package, so the benchmark's correctness gate stays independent of
the code it measures.
"""

import math

import numpy as np

DEGENERACIES = ((1.0, 0.0), (-1.0, 0.0))


def winding_number(vertices, point):
    """Signed number of turns of the closed polygon around point."""
    x0, y0 = point
    total = 0.0
    for (x1, y1), (x2, y2) in zip(vertices, vertices[1:] + vertices[:1]):
        step = math.atan2(y2 - y0, x2 - x0) - math.atan2(y1 - y0, x1 - x0)
        total += (step + math.pi) % (2.0 * math.pi) - math.pi
    return round(total / (2.0 * math.pi))


def enclosure_count(vertices):
    """Strength-weighted count: +1 per turn around (1, 0), -1 around (-1, 0)."""
    return winding_number(vertices, DEGENERACIES[0]) - winding_number(
        vertices, DEGENERACIES[1]
    )


def segment_distance(a, b, p):
    """Euclidean distance from point p to the segment a-b."""
    ax, ay = a
    dx, dy = b[0] - ax, b[1] - ay
    t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / (dx * dx + dy * dy)
    t = min(1.0, max(0.0, t))
    return math.hypot(ax + t * dx - p[0], ay + t * dy - p[1])


def degeneracy_margin(vertices):
    """Smallest distance from any polygon edge to either degeneracy."""
    return min(
        segment_distance(a, b, s)
        for a, b in zip(vertices, vertices[1:] + vertices[:1])
        for s in DEGENERACIES
    )


def _star(center, angles, radii):
    return tuple(
        (center[0] + r * math.cos(a), center[1] + r * math.sin(a))
        for a, r in zip(angles, radii)
    )


def _orient(vertices, rng):
    return vertices[::-1] if rng.random() < 0.5 else vertices


def _round(vertices):
    # short decimal vertices make circuit JSON files exact and readable
    return tuple((round(float(x), 6), round(float(y), 6)) for x, y in vertices)


def star_polygon(rng, enclosed, n_vertices, margin, around=None):
    """Random simple polygon enclosing 0, 1 or 2 degeneracies.

    0: a polygon above or below the b1 axis; 1: a polygon around the
    degeneracy ``around``; 2: a polygon around both (its signed count is 0,
    because the two degeneracies carry opposite strengths).  The traversal
    sense is random.  Resamples until the margin and enclosure hold.
    """
    while True:
        if enclosed == 0:
            center = (rng.uniform(-1.0, 1.0), rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 1.5))
            r_lo, r_hi = 0.3, 0.7
        elif enclosed == 1:
            center = (around[0] + rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
            r_lo, r_hi = 0.4, 0.85
        else:
            center = (rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
            r_lo, r_hi = 1.5, 2.1
        slot = 2.0 * math.pi / n_vertices
        start = rng.uniform(0.0, 2.0 * math.pi)
        angles = start + slot * (np.arange(n_vertices) + rng.uniform(-0.3, 0.3, n_vertices))
        radii = rng.uniform(r_lo, r_hi, n_vertices)
        verts = _round(_orient(_star(center, angles, radii), rng))
        inside = sum(winding_number(verts, s) != 0 for s in DEGENERACIES)
        if inside == enclosed and degeneracy_margin(verts) >= margin:
            return verts


def close_pass_polygon(rng, n_vertices, distance, around):
    """Polygon around the degeneracy ``around`` with one edge passing close.

    One edge is a chord at the given distance from the degeneracy; the
    other vertices spread over the far side.  Near the chord the
    interference phase turns quickly, which is where adaptive refinement
    inserts samples.
    """
    while True:
        radius = rng.uniform(0.5, 0.7)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        half = math.acos(distance / radius)
        far = np.sort(rng.uniform(phi + half + 0.3, phi - half + 2.0 * math.pi - 0.3, n_vertices - 2))
        angles = [phi - half, phi + half, *far]
        radii = [radius, radius, *rng.uniform(0.4, 0.8, n_vertices - 2)]
        verts = _round(_orient(_star(around, angles, radii), rng))
        if (
            winding_number(verts, around) != 0
            and 0.9 * distance <= degeneracy_margin(verts) <= 1.1 * distance
        ):
            return verts
