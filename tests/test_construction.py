"""Sigma(n) rows, the exact image Gram, exact geometry, embedding."""

import dataclasses
import io
import itertools
from fractions import Fraction

import numpy as np
import pytest

from borsuk import construction
from borsuk.construction import (
    embed,
    export_points,
    geometry,
    materialize,
    sigma_matrix,
    sign_vectors,
)
from borsuk.exactnum import binomial
from borsuk.params import plan_fixed
from diameter_oracle import diameter_scan, image_gram


def _brute_sigma(n):
    out = []
    for signs in itertools.product((1, -1), repeat=n - 1):
        v = (1,) + signs
        if sum(v) == 0:
            out.append(v)
    return out


def _rows(n):
    return [tuple(row) for row in sigma_matrix(n).tolist()]


def test_sign_vectors_against_brute_enumeration():
    for n in (4, 8, 12):
        got = _rows(n)
        want = _brute_sigma(n)
        assert sorted(got) == sorted(want)
        assert len(got) == binomial(n - 1, n // 2 - 1)
    # the benchmark's per-layer name is the same function
    assert sign_vectors is sigma_matrix


def test_sign_vectors_pinned_n4():
    assert _rows(4) == [
        (1, 1, -1, -1),
        (1, -1, 1, -1),
        (1, -1, -1, 1),
    ]


def test_sign_vector_invariants():
    X = sigma_matrix(8)
    assert X.dtype == np.int8
    assert (X[:, 0] == 1).all()
    assert (X.sum(axis=1) == 0).all()
    assert np.isin(X, (1, -1)).all()
    assert len(set(_rows(8))) == X.shape[0]
    for n in (0, 6, -4):
        with pytest.raises(ValueError, match="positive multiple of 4"):
            sigma_matrix(n)
    with pytest.raises(ValueError, match="enumeration too large"):
        sigma_matrix(28)


def test_inner_and_matrix_agree():
    # the int8 rows multiplied in int64 against plain Python ints
    X = sigma_matrix(8)
    G = X.astype(np.int64) @ X.T.astype(np.int64)
    rows = _rows(8)
    for i, x in enumerate(rows):
        for j, y in enumerate(rows):
            assert sum(u * v for u, v in zip(x, y)) == G[i, j]


def test_tensor_inner_identity_against_materialized():
    # (x*, y*) = t^(2k) + 2k a^(2k-1) t with t the base inner product
    for n, k, a in [(4, 1, 4), (4, 2, 4), (8, 1, 4), (8, 1, 12)]:
        X = sigma_matrix(n)
        mats = materialize(X, k, a)
        assert mats.shape == (X.shape[0], n ** (2 * k) + n)
        H = image_gram(X.astype(np.int64) @ X.T, k, a)
        want = mats @ mats.T
        for i, j in itertools.product(range(X.shape[0]), repeat=2):
            assert H[i, j] == pytest.approx(want[i, j], rel=1e-9)


def test_tensor_inner_exact_integer_path():
    # word block dotted exactly in integers, tail block exactly via t
    n, k, a = 4, 2, 4
    X = sigma_matrix(n).astype(np.int64)
    H = image_gram(X @ X.T, k, a)
    tail_w = 2 * k * a ** (2 * k - 1)
    for i, j in itertools.product(range(X.shape[0]), repeat=2):
        x, y = X[i], X[j]
        wx, wy = x, y
        for _ in range(2 * k - 1):
            wx = np.multiply.outer(wx, x).reshape(-1)
            wy = np.multiply.outer(wy, y).reshape(-1)
        t = int(x @ y)
        exact = int(wx @ wy) + tail_w * t
        assert H[i, j] == exact
        assert type(H[i, j]) is int


def test_image_gram_exact_past_int64():
    # 24**30 is far past int64; the object route keeps every digit
    H = image_gram(np.array([[24, -4]]), 15, 4)
    assert H[0, 0] == 24 ** 30 + 30 * 4 ** 29 * 24
    assert H[0, 1] == 4 ** 30 - 30 * 4 ** 29 * 4
    with pytest.raises(ValueError, match="tensor power"):
        image_gram(np.array([4]), 0, 4)
    with pytest.raises(ValueError, match="multiple of 4"):
        image_gram(np.array([4]), 1, 6)


def test_pair_distance_sq_brute():
    # |x* - y*|^2 = 2 h(n) - 2 h(t) against materialized coordinates
    n, k, a = 8, 1, 4
    X = sigma_matrix(n)
    mats = materialize(X, k, a)
    H = image_gram(X.astype(np.int64) @ X.T, k, a)
    for i, j in itertools.combinations(range(X.shape[0]), 2):
        d2 = float(np.sum((mats[i] - mats[j]) ** 2))
        assert 2 * H[i, i] - 2 * H[i, j] == pytest.approx(d2, rel=1e-9)


def test_geometry_frozen_example():
    ps = plan_fixed(0.9, 256)
    geo = geometry(ps)
    assert geo.diam_sq == 800
    assert geo.rho_sq == 336
    assert geo.r_prime_sq == Fraction(336, 800) == Fraction(21, 50)
    assert geo.scale_sq == Fraction(1, 800)
    assert not geo.degenerate
    assert geo.lift_height_sq == ps.rsq - Fraction(21, 50)


def test_geometry_degenerate_flag():
    ps = plan_fixed(0.64, 65)  # a = 12 >= n = 8
    geo = geometry(ps)
    assert geo.degenerate
    scan = diameter_scan(sigma_matrix(ps.n), ps.k, ps.a)
    # closed form is only an upper bound here: nothing attains -a
    assert scan.diam_sq_scaled < 1
    assert scan.attaining_inner != -ps.a


def test_diameter_scan_attains_closed_form():
    ps = plan_fixed(0.9, 256)
    geo = geometry(ps)
    X = sigma_matrix(ps.n)
    scan = diameter_scan(X, ps.k, ps.a)
    assert scan.diam_sq == geo.diam_sq
    assert scan.diam_sq_scaled == 1
    assert scan.attaining_inner == -ps.a
    i, j = scan.pairs[0]
    assert int(X[i].astype(np.int64) @ X[j]) == -ps.a


def test_diameter_scan_input_checks():
    with pytest.raises(ValueError, match="empty point set"):
        diameter_scan(sigma_matrix(4)[:0], 1, 4)
    with pytest.raises(ValueError, match="multiple of 4"):
        diameter_scan(sigma_matrix(4), 1, 6)
    one = diameter_scan(sigma_matrix(4)[:1], 1, 4)
    assert one.diam_sq == 0 and one.pairs == () and one.attaining_inner is None


def test_embed_lands_on_sphere():
    ps = plan_fixed(0.9, 256)
    geo = geometry(ps)
    X = sigma_matrix(ps.n)
    pts = embed(ps, geo, X)
    assert pts.shape == (X.shape[0], ps.d)
    norms = np.linalg.norm(pts, axis=1)
    assert np.allclose(norms, 0.9, rtol=1e-12, atol=0)
    # pairwise diameter exactly 1 after scaling
    d2 = np.sum((pts[None, :, :] - pts[:, None, :]) ** 2, axis=-1)
    assert float(d2.max()) == pytest.approx(1.0, rel=1e-12)


def test_embed_dimension_guard():
    ps = plan_fixed(0.9, 256)
    geo = geometry(ps)
    small = dataclasses.replace(ps, d=100)
    with pytest.raises(ValueError, match="ambient dimension insufficient"):
        embed(small, geo, sigma_matrix(ps.n)[:1])


def test_export_points_format():
    ps = plan_fixed(0.9, 256)
    geo = geometry(ps)
    buf = io.StringIO()
    export_points(buf, ps, geo, sigma_matrix(ps.n)[:3])
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# borsuk-omega d=256")
    assert len(lines) == 4
    row = np.array([float(tok) for tok in lines[1].split()])
    assert len(row) == ps.d
    assert np.linalg.norm(row) == pytest.approx(0.9, rel=1e-12)


def _repr_lines(pts):
    return "".join(" ".join(map(repr, row)) + "\n" for row in pts.tolist())


def _first_difference(got, want):
    # (line, got, want) at the first differing line, or None: pytest's own
    # report on two unequal exports diffs megabytes of text for minutes
    pairs = itertools.zip_longest(got.split("\n"), want.split("\n"))
    return next(((i, g, w) for i, (g, w) in enumerate(pairs) if g != w), None)


# (r, d, rows, n, k): Sigma(12); Sigma(16) with no zero tail (16**2 + 16 + 1
# = 273) and with one; k = 2 on a row subset; one row; no rows (--limit 0)
_EXPORT_CASES = [
    (0.9, 256, slice(None), 12, 1),
    (0.9, 273, slice(None, None, 4), 16, 1),
    (0.9, 400, slice(None, None, 4), 16, 1),
    (0.6, 4200, slice(None, None, 3), 8, 2),
    (0.9, 400, slice(5, 6), 16, 1),
    (0.9, 256, slice(0), 12, 1),
]


def test_export_points_blocks_match_one_pass(monkeypatch):
    # the bytes are repr of embed's floats, whatever the block boundaries
    for r, d, rows, n, k in _EXPORT_CASES:
        ps = plan_fixed(r, d)
        assert (ps.n, ps.k) == (n, k)
        geo = geometry(ps)
        X = sigma_matrix(ps.n)[rows]
        monkeypatch.undo()
        whole = io.StringIO()
        export_points(whole, ps, geo, X)
        head, body = whole.getvalue().split("\n", 1)
        assert head == "# borsuk-omega d=%d r=%r n=%d k=%d a=%d p=%d" % (
            ps.d, ps.r, ps.n, ps.k, ps.a, ps.p)
        assert _first_difference(body, _repr_lines(embed(ps, geo, X))) is None
        for floats in (1, 7 * ps.d):  # blocks of one row and of seven
            monkeypatch.setattr(construction, "_EXPORT_FLOATS", floats)
            blocked = io.StringIO()
            export_points(blocked, ps, geo, X)
            assert _first_difference(blocked.getvalue(), whole.getvalue()) is None


@pytest.mark.parametrize("value", [0, 2, -3])
def test_export_points_refuses_entries_off_plus_minus_one(value):
    ps = plan_fixed(0.9, 256)
    X = sigma_matrix(ps.n)[:3].copy()
    X[1, 4] = value
    buf = io.StringIO()
    with pytest.raises(ValueError, match=r"rows must be \+-1 vectors"):
        export_points(buf, ps, geometry(ps), X)
    with pytest.raises(ValueError, match=r"of length n=12"):
        export_points(buf, ps, geometry(ps), sigma_matrix(8))
    assert buf.getvalue() == ""


def test_materialize_cap():
    with pytest.raises(ValueError, match="materialization too large"):
        materialize(sigma_matrix(12)[:1], 4, 4)
