"""Row-by-row oracles of the Cantor audit, kept as the audit read before it
measured a window in closed form: ``window_rows`` sums every reached grid
point's share of a window, and ``verify_levels_rows`` is the whole P0-P5
audit over that kernel, with the P2(i) on-stage test run through
``_nearest`` for every leaf, the P1 neighbour sweep on the default sort and
P4's gauges evaluated at every leaf radius.  The tests compare the package's
``cantor.verify_levels`` and ``cantor._neighborhood_in_window`` with them.
"""

import math

import numpy as np

from lspkit.cantor import (
    AUDIT_RTOL,
    AuditReport,
    PropertyAudit,
    _distinct,
    _points_disjoint,
    _stage_radii,
    child_sublevel_count,
    root_sublevel_count,
)
from lspkit.covering import _nearest, _slice_rows
from lspkit.dimfun import eval_gauge
from lspkit.measure import _merge_union, _union_length_in


def window_rows(cloud, u, centers, half_widths):
    """Lengths of the disjoint u-intervals about the sorted cloud's points
    inside the windows [c - w, c + w]: every point a window reaches is
    gathered, its share taken relative to the point, and the shares summed
    per window in point order."""
    lo = centers - half_widths
    hi = centers + half_widths
    i0 = cloud.searchsorted(lo - u)
    i1 = cloud.searchsorted(hi + u)
    rows, owner = _slice_rows(i0, i1)
    p = cloud[rows]
    seg = np.clip(np.minimum(u, hi[owner] - p) - np.maximum(-u, lo[owner] - p), 0.0, None)
    return np.bincount(owner, weights=seg, minlength=len(centers))


def _neighborhood_in_window(cloud, u, centers, half_widths, disjoint):
    if disjoint:
        return window_rows(cloud, u, centers, half_widths)
    lo = centers - half_widths
    hi = centers + half_widths
    p = cloud[cloud.searchsorted(lo - u).min(initial=len(cloud)) : cloud.searchsorted(hi + u).max(initial=0)]
    return _union_length_in(_merge_union(p - u, p + u), lo, hi)


def _overlapping_dilates(centers, radii):
    """Centers of the balls whose 3-dilate overlaps that of the next ball in
    center order (a 1-D neighbour sweep), in center order."""
    order = np.argsort(centers)
    c, r = centers[order], radii[order]
    return c[:-1][c[1:] - c[:-1] < 3.0 * (r[1:] + r[:-1]) * (1 - AUDIT_RTOL)]


def verify_levels_rows(tree, params):
    """``cantor.verify_levels``, every window measured row by row."""
    pair = params.gauges
    consts = tree.constants
    props = {}
    props["P0"] = PropertyAudit("P0", bool(tree.root.radius > 0), details={"root": True})

    p1_viol, p2_viol, p3_viol, p4_viol, p5_viol = [], [], [], [], []
    p2_details = {"d1_hat": math.inf, "d2_hat": 0.0, "iv_max_ratio": 0.0}
    loc, root = tree.level, tree.root
    c = loc.c_center
    r = loc.c_radius
    # P1: 3-dilates pairwise disjoint and inside the root
    p1_viol += [("overlap", float(x)) for x in _overlapping_dilates(c, r)]
    outside = np.abs(c - root.center[0]) + 3.0 * r > root.radius * (1 + AUDIT_RTOL)
    p1_viol += [("outside-parent", float(x)) for x in c[outside]]

    # P2 per selection ball
    ua = _stage_radii(params.stages, loc.a_j)
    counts = np.bincount(loc.c_aidx, minlength=len(loc.a_radius))
    p2_viol += [("empty-selection", int(k)) for k in np.nonzero(counts == 0)[0]]
    # (i) radii match the stage radius; centers on the stage set
    if not np.allclose(r, ua[loc.c_aidx], rtol=1e-12, atol=0):
        p2_viol.append(("radius-mismatch", None))
    for j in _distinct(loc.c_j):
        sel = loc.c_j == j
        tol = max(1e-12, 1e-9 * params.stages.upsilon(int(j)))
        on = np.abs(_nearest(params.stages.sorted_points(int(j)), c[sel]) - c[sel]) <= tol
        if not np.all(on):
            p2_viol.append(("center-off-stage", int(j)))
    # (ii) 3L inside A; (iii) handled by P1 within A via construction,
    # checked here per selection ball
    ac = loc.a_center[loc.c_aidx]
    ar = loc.a_radius[loc.c_aidx]
    if np.any(np.abs(c - ac) + 3.0 * r > ar * (1 + AUDIT_RTOL)):
        p2_viol.append(("3L-outside-A", None))
    # 3A disjoint within each sublevel + inside the root
    for i in _distinct(loc.a_sublevel):
        sel = loc.a_sublevel == i
        ac_i = loc.a_center[sel]
        ar_i = loc.a_radius[sel]
        if len(_overlapping_dilates(ac_i, ar_i)):
            p2_viol.append(("3A-overlap", int(i)))
        if np.any(np.abs(ac_i - root.center[0]) + 3.0 * ar_i > root.radius * (1 + AUDIT_RTOL)):
            p2_viol.append(("3A-outside-parent", int(i)))
    # (v) cardinality envelope relative to (f/g)^(kappa/(1-kappa))
    fu = eval_gauge(pair.f, ua)
    gu = eval_gauge(pair.g, ua)
    envelope = (fu / gu) ** (pair.kappa / (1.0 - pair.kappa))
    with np.errstate(divide="ignore"):
        ratios = counts / envelope
    p2_details["d1_hat"] = min(p2_details["d1_hat"], float(np.min(ratios)))
    p2_details["d2_hat"] = max(p2_details["d2_hat"], float(np.max(ratios)))
    # (iv) measure sandwich, exact 1-D intervals against the stage cloud
    iv_bound = 2.0 * 7.0 * (consts["c2"] / consts["c1"])
    vol_l_per_a = np.bincount(loc.c_aidx, weights=2.0 * r, minlength=len(loc.a_radius))
    for j in _distinct(loc.a_j):
        sel = np.nonzero(loc.a_j == j)[0]
        u = params.stages.upsilon(int(j))
        cloud = params.stages.sorted_points(int(j))
        disjoint = _points_disjoint(cloud, u)
        ca = loc.a_center[sel]
        ra = loc.a_radius[sel]
        vol_a = _neighborhood_in_window(cloud, u, ca, ra, disjoint)
        vol_half = _neighborhood_in_window(cloud, u, ca, ra / 2.0, disjoint)
        vol_l = vol_l_per_a[sel]
        for t in np.nonzero(vol_l > vol_a * (1 + 1e-9))[0]:
            p2_viol.append(("iv-upper", int(sel[t])))
        for t in np.nonzero(vol_half > iv_bound * vol_l)[0]:
            p2_viol.append(("iv-lower", int(sel[t])))
        pos = vol_l > 0
        if np.any(pos):
            p2_details["iv_max_ratio"] = max(
                p2_details["iv_max_ratio"], float(np.max(vol_half[pos] / vol_l[pos]))
            )

    # P3 per sublevel
    vg_b = eval_gauge(pair.g, root.radius)
    for i in _distinct(loc.a_sublevel):
        sel = loc.a_sublevel == i
        mass = float(np.sum(eval_gauge(pair.g, loc.a_radius[sel])))
        if mass < consts["c6"] * vg_b * (1 - AUDIT_RTOL):
            p3_viol.append((int(i), mass, consts["c6"] * vg_b))

    # P4 between consecutive sublevels
    def f_and_h(i):  # f and h = f / g**kappa at the target radii of sublevel i
        f = eval_gauge(pair.f, loc.c_radius[loc.c_sublevel == i])
        return {"f": f, "h": f / eval_gauge(pair.g, loc.c_radius[loc.c_sublevel == i]) ** pair.kappa}

    subs = _distinct(loc.c_sublevel).tolist()
    for a, b in zip(subs[:-1], subs[1:]):
        va, vb = f_and_h(a), f_and_h(b)
        p4_viol += [(int(a), int(b), k) for k in "fh" if np.max(vb[k]) > 0.5 * np.min(va[k]) * (1 + AUDIT_RTOL)]

    # P5: recorded sublevel count equals formula; leaf formula >= 2
    formula = root_sublevel_count(consts, params.eta)
    built = len(_distinct(loc.a_sublevel))
    if loc.l_b != formula or built != formula:
        p5_viol.append((loc.l_b, formula, built))
    leaf_counts = np.array([child_sublevel_count(consts, pair, float(rr)) for rr in _distinct(loc.c_radius)])
    if np.any(leaf_counts < 2):
        p5_viol.append(("leaf-l_b<2", int(np.min(leaf_counts))))

    props["P1"] = PropertyAudit("P1", not p1_viol, p1_viol)
    props["P2"] = PropertyAudit("P2", not p2_viol, p2_viol, p2_details)
    props["P3"] = PropertyAudit("P3", not p3_viol, p3_viol)
    props["P4"] = PropertyAudit("P4", not p4_viol, p4_viol)
    props["P5"] = PropertyAudit("P5", not p5_viol, p5_viol)
    return AuditReport(properties=props)
