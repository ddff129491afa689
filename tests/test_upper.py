"""Simplex partition upper route: closed-form piece diameter, exact pass
test, and the projected-ascent oracle that checks the closed form."""

import functools
import math

import numpy as np
import pytest
from mpmath import mp

from borsuk.exactnum import PRECISION_BITS
from borsuk.upper import (
    partition_table,
    piece_diameter,
    simplex_partition_check,
)


def _split_chord(d, s):
    # farthest pair of a regular d-simplex facet projection: uniform
    # centroids of an (s, d-s) split of the d+1 vertices, lifted back to
    # the sphere; chord^2 = 2 + 2*sqrt(st / ((d+1-s)(d+1-t)))
    t = d - s
    return math.sqrt(2 + 2 * math.sqrt(s * t / ((d + 1 - s) * (d + 1 - t))))


def _closed_form_unit(d):
    return max(_split_chord(d, s) for s in range(1, d))


# ---------------------------------------------------------------------------
# ascent oracle: projected gradient ascent over pairs of points of one
# facet, written as convex weight vectors; it assumes nothing about which
# pairs are farthest, so it checks the disjoint-support step of the
# closed form, which is not proven.  Only practical for small d.

_ORACLE_MAX_DIMENSION = 12
_MAX_ITERS = 4000
_ETA_MIN = 1e-13


def simplex_vertices(d, r):
    """Vertices of a regular simplex inscribed in the radius-r sphere.

    Returns a (d+1, d) array with |v_i| = r and <v_i, v_j> = -r^2/d.
    Built from the centered coordinate frame in R^(d+1) pushed through
    an orthonormal basis of the sum-zero hyperplane.
    """
    # rows of H: orthonormal basis of {x : sum x = 0} in R^(d+1)
    H = np.zeros((d, d + 1))
    for j in range(1, d + 1):
        H[j - 1, :j] = 1.0
        H[j - 1, j] = -float(j)
        H[j - 1] /= np.sqrt(j * (j + 1.0))
    U = np.eye(d + 1) - 1.0 / (d + 1)
    V = U @ H.T
    # rows come out with norm sqrt(d/(d+1)); rescale to radius r
    V *= r / np.sqrt(np.sum(V[0] ** 2))
    return V


def _project_rows(Y):
    """Euclidean projection of each row onto the probability simplex."""
    S, m = Y.shape
    U = np.sort(Y, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1) - 1.0
    idx = np.arange(1, m + 1)
    cond = U - css / idx > 0
    # cond[:, 0] is always true; take the last true index per row
    rho = m - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(S), rho] / (rho + 1.0)
    return np.maximum(Y - theta[:, None], 0.0)


def _radial(L, F):
    W = L @ F
    norms = np.sqrt(np.sum(W * W, axis=1))
    return W / norms[:, None], norms


def _pair_objective(L, M, F):
    P, _ = _radial(L, F)
    Q, _ = _radial(M, F)
    diff = P - Q
    return np.sum(diff * diff, axis=1)


def _pair_gradients(L, M, F):
    P, nl = _radial(L, F)
    Q, nm = _radial(M, F)
    u = P - Q
    tl = (u - P * np.sum(P * u, axis=1)[:, None]) / nl[:, None]
    tm = (-u - Q * np.sum(Q * (-u), axis=1)[:, None]) / nm[:, None]
    return tl @ F.T, tm @ F.T


def _start_points(d, restarts, seed):
    """Deterministic starts: vertex pairs, subset splits, Dirichlet draws."""
    Ls = []
    Ms = []
    eye = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            Ls.append(eye[i])
            Ms.append(eye[j])
    centroid = np.full(d, 1.0 / d)
    for i in range(d):
        Ls.append(eye[i])
        Ms.append(centroid)
    # balanced splits of the facet vertex set
    s = d // 2
    if s >= 1:
        idx = np.arange(d)
        for shift in range(d):
            rolled = np.roll(idx, shift)
            lo, hi = rolled[:s], rolled[s:]
            wl = np.zeros(d)
            wl[lo] = 1.0 / len(lo)
            wm = np.zeros(d)
            wm[hi] = 1.0 / len(hi)
            Ls.append(wl)
            Ms.append(wm)
    rng = np.random.default_rng([seed, d])
    if restarts > 0:
        Ls.append(rng.dirichlet(np.ones(d), size=restarts))
        Ms.append(rng.dirichlet(np.ones(d), size=restarts))
    L = np.vstack([np.atleast_2d(x) for x in Ls])
    M = np.vstack([np.atleast_2d(x) for x in Ms])
    return L, M


@functools.lru_cache(maxsize=None)
def _ascent_unit_diameter(d, restarts=12, seed=0):
    """Largest distance between two points of one projected facet, r = 1."""
    assert 2 <= d <= _ORACLE_MAX_DIMENSION
    F = simplex_vertices(d, 1.0)[:-1]
    L, M = _start_points(d, restarts, seed)
    f = _pair_objective(L, M, F)
    eta = np.full(len(f), 0.25)
    for _ in range(_MAX_ITERS):
        active = eta >= _ETA_MIN
        if not active.any():
            break
        gL, gM = _pair_gradients(L, M, F)
        Lc = _project_rows(L + eta[:, None] * gL)
        Mc = _project_rows(M + eta[:, None] * gM)
        fc = _pair_objective(Lc, Mc, F)
        improve = active & (fc > f + 1e-18)
        L[improve] = Lc[improve]
        M[improve] = Mc[improve]
        f[improve] = fc[improve]
        eta[improve] = np.minimum(eta[improve] * 1.25, 1.0)
        eta[active & ~improve] *= 0.5
    else:
        raise AssertionError("ascent did not converge at d=%d" % d)
    # stationarity probe: a frozen start must not admit an improving step
    gL, gM = _pair_gradients(L, M, F)
    probe = _pair_objective(
        _project_rows(L + 1e-6 * gL), _project_rows(M + 1e-6 * gM), F
    )
    assert float((probe - f).max()) <= 1e-10 * (1.0 + float(f.max()))
    return float(np.sqrt(f.max()))


def test_simplex_vertices_regular_and_centered():
    for d in (2, 3, 7):
        V = simplex_vertices(d, 1.25)
        assert V.shape == (d + 1, d)
        assert np.allclose(V.sum(axis=0), 0, atol=1e-12)
        norms = np.linalg.norm(V, axis=1)
        assert np.allclose(norms, 1.25, rtol=1e-12)
        G = V @ V.T
        off = G[~np.eye(d + 1, dtype=bool)]
        # all pairs at the same angle: Gram -r^2/d off the diagonal
        assert np.allclose(off, -1.25 ** 2 / d, rtol=1e-10)


def test_piece_diameter_triangle_closed_form():
    # d=2: three arcs of a circle, piece diameter r*sqrt(3)
    assert piece_diameter(2, 0.5) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    assert piece_diameter(2, 1.0) == pytest.approx(math.sqrt(3), abs=1e-12)


@pytest.mark.parametrize("d", range(2, 13))
def test_piece_diameter_matches_balanced_split_form(d):
    # the ascent searches every pair, overlapping supports included
    assert _ascent_unit_diameter(d) == pytest.approx(_closed_form_unit(d), rel=1e-9)
    assert piece_diameter(d, 1.0) == pytest.approx(_ascent_unit_diameter(d), rel=1e-9)
    assert piece_diameter(d, 1.0) == pytest.approx(_closed_form_unit(d), rel=1e-12)


def test_piece_diameter_even_d_simplification():
    for d in (4, 8, 12, 40, 10 ** 6):
        want = 2 * math.sqrt((d + 1) / (d + 2))
        assert piece_diameter(d, 1.0) == pytest.approx(want, rel=1e-12)
        if d <= 12:
            assert _closed_form_unit(d) == pytest.approx(want, rel=1e-12)


def test_piece_diameter_homothety_and_determinism():
    unit = piece_diameter(5, 1.0)
    assert piece_diameter(5, 0.51) == pytest.approx(0.51 * unit, rel=1e-12)
    assert piece_diameter(7, 0.52) == piece_diameter(7, 0.52)
    # the oracle is seeded: same starts, same value
    assert _ascent_unit_diameter(7, 9, 3) == _ascent_unit_diameter.__wrapped__(7, 9, 3)


def test_piece_diameter_input_checks():
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        piece_diameter(1, 0.6)
    with pytest.raises(ValueError, match="radius must be positive"):
        piece_diameter(4, -1.0)
    with pytest.raises(TypeError):
        piece_diameter(4, 0.6, restarts=5)
    # no dimension cap: the closed form holds for every d >= 2
    assert piece_diameter(13, 1.0) == pytest.approx(_closed_form_unit(13), rel=1e-12)


def test_partition_pieces_beat_diameter_one():
    # r = 1/2 + 0.01/d: d+2 caps each strictly below diameter 1
    for d in range(2, 11):
        rep = simplex_partition_check(d, c_r=0.01)
        assert rep.piece_diam < 1
        assert rep.passes
        assert rep.r == pytest.approx(0.5 + 0.01 / d, rel=1e-15)


def _diameter_mp(d, c_r):
    # r * chord at 300 bits from the split formula, maximised over the
    # small splits and those near the middle rather than taken at d//2
    middle = range(max(1, d // 2 - 20), min(d, d // 2 + 21))
    splits = set(range(1, min(d, 40))) | set(middle)
    with mp.workprec(300):
        r = mp.mpf(1) / 2 + mp.mpf(c_r) / d
        return max(
            r * mp.sqrt(2 + 2 * mp.sqrt(mp.mpf(s * (d - s)) / ((d + 1 - s) * (s + 1))))
            for s in splits
        )


def test_partition_check_exact_past_ascent_range():
    # r * closed form, no fit and no dimension cap
    for d, want in ((13, 0.96741), (14, 0.96963)):
        rep = simplex_partition_check(d, c_r=0.01)
        assert rep.piece_diam == pytest.approx(rep.r * _closed_form_unit(d), rel=1e-12)
        assert rep.piece_diam == pytest.approx(want, abs=1e-5)
        assert rep.passes
    rep = simplex_partition_check(40, c_r=0.01)
    assert rep.piece_diam == pytest.approx(rep.r * 2 * math.sqrt(41 / 42), rel=1e-12)
    assert rep.passes
    # c_r = 0.3 is past the threshold c_r < 1/4 + O(1/d): the piece exceeds 1
    rep = simplex_partition_check(40, c_r=0.3)
    assert rep.piece_diam == pytest.approx(1.00284, abs=1e-5)
    assert not rep.passes
    rep = simplex_partition_check(10 ** 6, c_r=0.01)
    assert rep.passes and rep.piece_diam < 1


def test_partition_pass_is_the_exact_comparison():
    # the exact verdict against a 300-bit one; none of these is a tie
    for d in (2, 3, 13, 40, 41, 999, 10 ** 6):
        for c_r in (0.0, 0.01, 0.2, 0.24, 0.26, 0.3, 1.0, 10.0):
            rep = simplex_partition_check(d, c_r=c_r)
            diam = _diameter_mp(d, c_r)
            assert abs(diam - 1) > 1e-20
            assert rep.passes == (diam < 1)
            assert rep.piece_diam == pytest.approx(float(diam), rel=1e-12)


def test_partition_table_shape():
    rows = partition_table(range(2, 7), c_r=0.01)
    assert [r.d for r in rows] == [2, 3, 4, 5, 6]
    assert all(r.passes for r in rows)


def covering_log_upper(r, d):
    """ln of (2r)^d, the growth scale no partition argument can beat.

    Any covering-based upper bound for the radius-r sphere costs at most
    exponentially many pieces with base 2r, so lower-bound bases must be
    compared against this ceiling.  Requires r > 1/2; the log is a
    120-bit mpmath float.
    """
    if r <= 0.5:
        raise ValueError("radius not above one half")
    if d < 1:
        raise ValueError("dimension must be positive")
    with mp.workprec(PRECISION_BITS):
        return d * mp.log(2 * mp.mpf(r))


def test_covering_log_upper():
    lr = covering_log_upper(0.75, 10 ** 6)
    assert isinstance(lr, mp.mpf)
    assert float(lr) == pytest.approx(10 ** 6 * math.log(1.5), rel=1e-12)
    with pytest.raises(ValueError, match="radius not above one half"):
        covering_log_upper(0.5, 100)
