"""Sigma(n) rows, the exact image Gram, exact geometry, embedding."""

import dataclasses
import io
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from borsuk.construction import (
    diameter_scan,
    embed,
    export_points,
    geometry,
    image_gram,
    materialize,
    sigma_matrix,
    sign_vectors,
)
from borsuk.exactnum import binomial
from borsuk.params import plan_fixed


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


def test_export_points_blocks_match_one_pass(monkeypatch):
    # block boundaries change nothing in the bytes written
    from borsuk import construction

    ps = plan_fixed(0.9, 256)
    geo = geometry(ps)
    X = sigma_matrix(ps.n)[:50]
    whole = io.StringIO()
    export_points(whole, ps, geo, X)
    monkeypatch.setattr(construction, "_EXPORT_FLOATS", 7 * ps.d)
    blocked = io.StringIO()
    export_points(blocked, ps, geo, X)
    assert blocked.getvalue() == whole.getvalue()
    want = "".join(" ".join(repr(float(c)) for c in pt) + "\n"
                   for pt in embed(ps, geo, X))
    assert whole.getvalue().split("\n", 1)[1] == want


def test_materialize_cap():
    with pytest.raises(ValueError, match="materialization too large"):
        materialize(sigma_matrix(12)[:1], 4, 4)
