"""Tests for the LAPACK routines reached in numpy's bundled OpenBLAS."""

import numpy as np
import pytest

from isospec import _openblas

pytestmark = pytest.mark.skipif(not _openblas.found(), reason="numpy bundles no OpenBLAS here")


def _factored(M, seed):
    """(F, tau, Q): dgeqrf's output on a Gaussian and the Q dorgqr forms."""
    rng = np.random.default_rng(seed)
    f = np.asfortranarray(rng.standard_normal((M, M)))
    work = np.empty(_openblas.lwork(M))
    tau = _openblas.dgeqrf(f, work)
    q = f.copy(order="F")
    _openblas.dorgqr(q, tau, work)
    return f, tau, q


@pytest.mark.parametrize("M", [2, 33, 300])
def test_dormqr_matches_the_formed_q(M):
    f, tau, q = _factored(M, M)
    rng = np.random.default_rng(M + 1)
    c, v = np.asfortranarray(rng.standard_normal((M, M))), rng.standard_normal(M)
    work = np.empty(_openblas.lwork(M))
    cases = [("L", "N", c, q @ c), ("R", "T", c, c @ q.T), ("L", "T", c, q.T @ c),
             ("R", "N", c, c @ q), ("L", "N", v, q @ v), ("L", "T", v, q.T @ v)]
    for side, trans, arg, want in cases:
        got = arg.copy(order="F")
        _openblas.dormqr(side, trans, f, tau, got, work)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (side, trans, arg.ndim)


def test_dormqr_applies_a_nonsquare_c_from_either_side():
    f, tau, q = _factored(20, 0)
    rng = np.random.default_rng(1)
    tall, wide = np.asfortranarray(rng.standard_normal((20, 3))), rng.standard_normal((3, 20))
    work = np.empty(_openblas.lwork(20))
    got = tall.copy(order="F")
    _openblas.dormqr("L", "N", f, tau, got, work)
    assert np.abs(got - q @ tall).max() <= 1e-13 * np.abs(q @ tall).max()
    got = np.asfortranarray(wide)
    _openblas.dormqr("R", "T", f, tau, got, work)
    assert np.abs(got - wide @ q.T).max() <= 1e-13 * np.abs(wide @ q.T).max()


def test_dormqr_rejects_what_lapack_cannot_read():
    f, tau, _ = _factored(8, 0)
    work = np.empty(_openblas.lwork(8))
    c = np.random.default_rng(0).standard_normal((8, 8))
    with pytest.raises(ValueError, match="Fortran-ordered"):
        _openblas.dormqr("L", "N", f, tau, c, work)  # C-ordered
    with pytest.raises(ValueError, match="Fortran-ordered"):
        _openblas.dormqr("L", "N", np.ascontiguousarray(f), tau, c.T, work)
    with pytest.raises(ValueError, match="does not meet"):
        _openblas.dormqr("L", "N", f, tau, np.zeros((7, 8), order="F"), work)
    with pytest.raises(ValueError, match="vector"):
        _openblas.dormqr("R", "N", f, tau, np.zeros(8), work)
    with pytest.raises(ValueError, match="side"):
        _openblas.dormqr("X", "N", f, tau, c.T, work)
    with pytest.raises(ValueError, match="tau"):
        _openblas.dormqr("L", "N", f, tau[:4], c.T, work)


def test_more_work_than_asked_keeps_the_bits():
    M = 200
    rng = np.random.default_rng(3)
    g = rng.standard_normal((M, M))
    out = []
    for size in (_openblas.lwork(M), 4 * _openblas.lwork(M)):
        f = np.asfortranarray(g)
        work = np.empty(size)
        tau = _openblas.dgeqrf(f, work)
        c = np.asfortranarray(g)
        _openblas.dormqr("L", "N", f, tau, c, work)
        _openblas.dorgqr(f, tau, work)
        out.append((f, tau, c))
    assert all(np.array_equal(a, b) for a, b in zip(*out))


def test_level3_routines_match_numpy_on_blocks():
    # every operand a block of a larger Fortran-ordered array, as the
    # two-sided reflector update passes them
    rng = np.random.default_rng(4)

    def block(rows, cols):
        return np.asfortranarray(rng.standard_normal((rows + 3, cols + 2)))[2 : 2 + rows, 1 : 1 + cols]

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    a, b, c = block(7, 5), block(6, 5), block(7, 6)
    for ta, tb, x, y in (("N", "T", a, b), ("T", "N", a.T.copy(order="F"), b.T.copy(order="F"))):
        got = c.copy(order="F")
        _openblas.dgemm(ta, tb, -0.5, x, y, 2.0, got)
        close(got, -0.5 * a @ b.T + 2.0 * c)
    s = block(7, 7)
    full = np.triu(s) + np.triu(s, 1).T
    got = block(7, 6)
    _openblas.dsymm("U", 1.5, s, c, 0.0, got)  # s's lower part is noise
    close(got, 1.5 * full @ c)
    y, z = block(7, 3), block(7, 3)
    got = s.copy(order="F")
    _openblas.dsyr2k("U", -1.0, y, z, 1.0, got)
    close(np.triu(got), np.triu(s - y @ z.T - z @ y.T))
    assert np.array_equal(np.tril(got, -1), np.tril(s, -1))
    t = block(3, 3)
    for side, want in (("R", y @ np.triu(t).T), ("L", np.triu(t).T @ c[:3])):
        got = (y if side == "R" else c[:3]).copy(order="F")
        _openblas.dtrmm(side, "U", "T", 1.0, t, got)
        close(got, want)


def test_dlarft_gives_the_block_reflector():
    f, tau, _ = _factored(12, 5)
    v, t = f[3:, 3:7], np.zeros((4, 4), order="F")
    _openblas.dlarft(v, tau[3:7], t)
    unit = np.tril(v, -1) + np.eye(9, 4)
    product = np.eye(9)
    for i in range(4):
        product = product @ (np.eye(9) - tau[3 + i] * np.outer(unit[:, i], unit[:, i]))
    assert np.abs(product - (np.eye(9) - unit @ t @ unit.T)).max() <= 1e-14


def test_level3_routines_reject_rows_that_are_not_contiguous():
    c_ordered = np.zeros((4, 4))
    fortran = np.zeros((4, 4), order="F")
    with pytest.raises(ValueError, match="Fortran-ordered"):
        _openblas.dgemm("N", "N", 1.0, c_ordered, fortran, 0.0, fortran.copy(order="F"))
    with pytest.raises(ValueError, match="do not meet"):
        _openblas.dgemm("N", "N", 1.0, fortran, np.zeros((3, 4), order="F"), 0.0, fortran)
    with pytest.raises(ValueError, match="writeable"):
        frozen = np.zeros((4, 4), order="F")
        frozen.flags.writeable = False
        _openblas.dsyr2k("U", 1.0, fortran, fortran, 1.0, frozen)


def test_blas_threads_restores_the_count_on_every_way_out():
    lib = _openblas._library()
    original = lib.get()
    lib.put(2)
    try:
        with _openblas.blas_threads(1):
            assert lib.get() == 1
        assert lib.get() == 2
        with pytest.raises(RuntimeError, match="inside"):
            with _openblas.blas_threads(1):
                assert lib.get() == 1
                raise RuntimeError("inside")
        assert lib.get() == 2
    finally:
        lib.put(original)


def test_qr_of_a_tall_matrix_matches_numpys():
    rng = np.random.default_rng(6)
    a = np.asfortranarray(rng.standard_normal((40, 7)))
    q, r = np.linalg.qr(a)
    work = np.empty(_openblas.lwork(40))
    tau = _openblas.dgeqrf(a, work)
    assert np.abs(np.triu(a[:7]) - r).max() <= 1e-13 * np.abs(r).max()
    _openblas.dorgqr(a, tau, work)
    assert np.abs(a - q).max() <= 1e-13
    with pytest.raises(ValueError, match="no more columns than rows"):
        _openblas.dgeqrf(np.zeros((3, 5), order="F"), work)
