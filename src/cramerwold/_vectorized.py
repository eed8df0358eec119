"""NumPy kernels: the profile function, pairwise sums and Monte Carlo values.

Each branch of the profile 1F1(1/2; D/2; -s) (see :mod:`cramerwold.phi`) is
written once here.  Exact mode evaluates the Kummer transform
``exp(-s) * 1F1((D-1)/2; D/2; s)`` in two branches: its all-positive series
for s <= 40 or s < D, and a large-argument expansion for s >= max(D, 40),
a polynomial in 1/s of a degree fixed per D.  Against mpmath's ``hyp1f1`` at
40 digits the series is within 4.7e-15 relative up to D = 784 and 1.1e-14 at
D = 3072, the expansion within 1e-15 at every D; both two-branch profiles
(exact, and the 2-D Bessel fit) pick their branch per value in one selector.
Every pairwise kernel (the profile sums, the latent gradient and Mardia's
Gram route) walks one tile size over its pair matrix, a symmetric one only
the tiles on and above the diagonal; the profile sums and the gradient take
their tiles of squared distances from one centred walk.  The kernels take
gamma and scale pair distances by 1/(4 gamma) and norms by 1/(2 + 4 gamma)
themselves; the gradient evaluates the asymptotic profile on the arguments
the sums use and differentiates it as -(2/(2D-3)) phi**3.  The Monte Carlo
evaluators run NumPy's SIMD ``exp`` over contiguous (points, directions)
strips, in direction chunks shared by threads on every CPU the process may
use; no value depends on its thread.
"""

import functools
import itertools
import math
import os
import threading

import numpy as np

# Profile modes: the values of the str enum phi.PhiMode, so either form works.
MODE_EXACT = "exact"
MODE_ASYMPTOTIC = "asymptotic"
MODE_BESSEL2 = "bessel2"

SERIES_SWITCH = 40.0  # the series serves s <= 40 or s < D, the expansion the rest
# The series scales its sums by exp(-460) ~ 1e-200 when they pass exp(460),
# so exp(-s) * sum cannot overflow; an integer exponent folds back exactly.
_RESCALE_LOG = 460.0
_RESCALE = math.exp(-_RESCALE_LOG)

# Side of the square tiles every pairwise kernel walks.  A tile's 16k float64
# elements (128 KiB) leave room in L2 for its squared distances, its profile
# values and the few temporaries of a profile branch: measured on a 2-CPU Xeon
# (2 MiB L2) this is both faster in absolute terms at large n and keeps the
# time-vs-n scaling cleanly quadratic (doubling ratio ~3.3 instead of ~7 with
# un-blocked Gram matrices).
_TILE = 128
# Elements per Monte-Carlo strip (points x directions): 512 KiB of float64,
# which stays in L2 while a strip goes through its subtract, square, scale,
# exp and sum passes.  n = 64 gets 1024 directions per chunk; measured at
# n = 64, 1024 beat 256, 512 and 2048 directions per chunk.
_MC_STRIP_ELEMS = 1 << 16


def _phi_series_vec(dim, s):
    # exp(-s) * 1F1((dim-1)/2; dim/2; s), all-positive Kummer recurrence.
    # The sum is at most exp(s), so only s > 460 rescales.  The stop bound is
    # under half an ulp of the sum and later terms only shrink, so terms added
    # past an element's stop (for its batch, or until the next 4th-term test)
    # leave it unchanged.  Past k = 2s each term is under half the last.
    b = 0.5 * dim
    c = 0.5 * (dim - 1.0)
    term = np.ones_like(s)
    total = np.ones_like(s)
    scaled = np.zeros_like(s)
    smax = float(s.max())
    rescale = smax > _RESCALE_LOG
    for k in range(200 + 2 * int(smax)):
        term *= (c + k) / ((b + k) * (k + 1.0))
        term *= s
        total += term
        if rescale:
            big = total > 1.0 / _RESCALE
            term[big] *= _RESCALE
            total[big] *= _RESCALE
            scaled[big] += _RESCALE_LOG
        if k % 4 == 3 and np.all(term <= 5e-17 * total):
            break
    scaled -= s
    return np.multiply(total, np.exp(scaled, out=scaled), out=total)


@functools.lru_cache(maxsize=None)
def _expansion_coeffs(dim):
    # The terms (1/2)_k (3/2 - dim/2)_k / (k! s0^k) at the smallest s served,
    # s0 = max(dim, 40), up to the first that stops shrinking or falls under
    # 1e-17 of the sum.  The term ratio |(k+1/2)(k+3/2-dim/2)| / ((k+1) s) falls
    # as s grows, so that degree serves every s >= s0.  Odd dims end early.
    # Scaled by s0^-k they stay under 1, where (1/2)_k (3/2 - dim/2)_k / k!
    # alone would overflow from dim ~ 1e6.
    s0 = max(dim, SERIES_SWITCH)
    terms = [1.0]
    for k in itertools.count():
        terms.append(terms[-1] * (0.5 + k) * (1.5 - 0.5 * dim + k) / ((k + 1.0) * s0))
        if not 1e-17 * abs(sum(terms)) < abs(terms[-1]) < abs(terms[-2]):
            return tuple(terms)


def _phi_expansion_vec(dim, s):
    # Large-argument expansion of exp(-s) * 1F1((dim-1)/2; dim/2; s),
    #   Gamma(dim/2) / Gamma((dim-1)/2) * s^(-1/2) * sum_k c_k (s0/s)^k,
    # guarded by s >= s0 = max(dim, 40): there the term ratio stays under 2/3
    # and the dropped exponentially small part under 1e-17 relative.
    s0 = max(dim, SERIES_SWITCH)
    return _gamma_ratio(dim) / np.sqrt(s) * _horner(s0 / s, _expansion_coeffs(dim))


def _gamma_ratio(dim):
    # Gamma(x + 1/2) / Gamma(x), x = (dim-1)/2, without a difference of lgammas
    if dim <= 40:
        return math.gamma(0.5 * dim) / math.gamma(0.5 * (dim - 1.0))
    x = 0.5 * (dim - 1.0)
    return math.sqrt(x) * math.exp(-1 / (8 * x) + 1 / (192 * x**3) - 1 / (640 * x**5)
                                   + 17 / (14336 * x**7) - 31 / (18432 * x**9))


def _phi_exact_vec(dim, s):
    return _two_branches(s, (s <= SERIES_SWITCH) | (s < dim),
                         lambda t: _phi_series_vec(dim, t), lambda t: _phi_expansion_vec(dim, t))


def _two_branches(s, first, f, g):
    """f(s) where ``first`` holds and g(s) elsewhere; neither is called on no
    values (the series sizes its loop by the largest s it is given)."""
    out = np.empty_like(s)
    for mask, branch in ((first, f), (~first, g)):
        if mask.any():
            out[mask] = branch(s[mask])
    return out


def _horner(x, coeffs):
    # c[0] + x * (c[1] + x * (... + x * c[-1])), in place and in that order
    p = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        p *= x
        p += c
    return p


def _phi_bessel2_vec(s):
    # Abramowitz-Stegun 9.8.1 in (s/7.5)^2 for s <= 7.5, 9.8.2 in 7.5/s above
    small = (1.0, 3.5156229, 3.0899424, 1.2067492, 0.2659732, 0.0360768, 0.0045813)
    big = (0.39894228, 0.01328592, 0.00225319, -0.00157565, 0.0091628, -0.02057706,
           0.02635537, -0.01647633, 0.00392377)
    return _two_branches(s, s <= 7.5, lambda t: np.exp(-0.5 * t) * _horner((t / 7.5) ** 2, small),
                         lambda t: np.sqrt(2.0 / t) * _horner(7.5 / t, big))


def phi_values(dim, s, mode):
    """Vectorized profile function over an array of nonnegative s."""
    s = np.asarray(s, dtype=np.float64)
    if mode == MODE_ASYMPTOTIC:
        return 1.0 / np.sqrt(1.0 + 4.0 * s / (2.0 * dim - 3.0))
    if mode == MODE_BESSEL2:
        return _phi_bessel2_vec(s)
    if mode == MODE_EXACT:
        return _phi_exact_vec(float(dim), s)
    raise ValueError(f"unknown phi mode {mode!r}")


def _pair_d2_chunk(xc, y, nxc, ny):
    d2 = nxc[:, None] + ny[None, :] - 2.0 * (xc @ y.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _tiles(n, k, upper=False):
    """Row and column slices of the _TILE x _TILE blocks of an n x k pair
    matrix; with ``upper``, only the blocks on and above the diagonal."""
    for lo in range(0, n, _TILE):
        for col in range(lo if upper else 0, k, _TILE):
            yield slice(lo, lo + _TILE), slice(col, col + _TILE)


def _centred_tiles(x, y, upper=False):
    """(rows, cols, x tile, y tile, squared distances) per block of _tiles(n, k,
    upper), on samples centred on their joint mean so that the Gram trick cancels
    no large common offset; with ``y is x`` each step is done once."""
    n, k = x.shape[0], y.shape[0]
    xsum = x.sum(axis=0)
    centre = (xsum + (xsum if y is x else y.sum(axis=0))) / (n + k)
    xc = x - centre
    yc = xc if y is x else y - centre
    nx = np.einsum("ij,ij->i", xc, xc)
    ny = nx if y is x else np.einsum("ij,ij->i", yc, yc)
    for rows, cols in _tiles(n, k, upper):
        xt, yt = xc[rows], yc[cols]
        yield rows, cols, xt, yt, _pair_d2_chunk(xt, yt, nx[rows], ny[cols])


@functools.lru_cache(maxsize=None)
def _strict_upper(side):
    """Flat indices of the pairs i < j in a side x side tile, built once per side."""
    i, j = np.triu_indices(side, 1)
    flat = i * side + j
    flat.flags.writeable = False
    return flat


def sum_phi_cross(x, y, gamma, mode):
    n, dim = x.shape
    scale = 1.0 / (4.0 * gamma)
    # phi is even in the pair and phi(0) = 1 exactly in every mode, so a
    # self-sum is n plus twice the sum over the pairs i < j: it walks the
    # tiles on and above the diagonal, and a diagonal tile takes only its
    # strict upper triangle.
    same = y is x or (x.shape == y.shape and np.array_equal(x, y))
    parts = []
    for rows, cols, _, _, d2 in _centred_tiles(x, x if same else y, upper=same):
        if same and rows == cols:
            d2 = d2.ravel()[_strict_upper(d2.shape[0])]
        parts.append(float(phi_values(dim, d2 * scale, mode).sum()))
    total = math.fsum(parts)
    return n + 2.0 * total if same else total


def sum_phi_norms(x, gamma, mode):
    dim = x.shape[1]
    nx = np.einsum("ij,ij->i", x, x)
    return float(phi_values(dim, nx * (1.0 / (2.0 + 4.0 * gamma)), mode).sum())


def cw_normal_asym_grad(z, gamma):
    # d/ds of the asymptotic profile is -(2/(2D-3)) phi**3; -2/(2D-3) is in c1.
    n, dim = z.shape
    c1 = -2.0 / (2.0 * dim - 3.0) / (2.0 * n * n * math.sqrt(math.pi))
    c_pair = c1 / (gamma * math.sqrt(gamma))
    c_norm = -c1 * (2.0 * n / math.sqrt(gamma + 0.5)) / (1.0 + 2.0 * gamma)
    scale = 1.0 / (4.0 * gamma)
    pair = np.zeros_like(z)
    for rows, _, zr, zc, d2 in _centred_tiles(z, z):
        p = phi_values(dim, d2 * scale, MODE_ASYMPTOTIC)
        w = p * p * p
        pair[rows] += w.sum(axis=1)[:, None] * zr - w @ zc
    nz = np.einsum("ij,ij->i", z, z)
    p = phi_values(dim, nz * (1.0 / (2.0 + 4.0 * gamma)), MODE_ASYMPTOTIC)
    return c_pair * pair + c_norm * (p * p * p)[:, None] * z


def mardia_sums(x):
    n, dim = x.shape
    cube_parts = []
    if dim * dim < n:
        # sum_{j,k} (x_j . x_k)^3 is the squared Frobenius norm of the
        # third-moment tensor T_abc = sum_j x_ja x_jb x_jc (Mardia 1970);
        # slice a of T is X^T diag(x_.a) X.  O(n D^3) instead of O(n^2 D).
        for a in range(dim):
            t = (x * x[:, a:a + 1]).T @ x
            cube_parts.append(float((t * t).sum()))
    else:
        # The Gram matrix is symmetric: each tile above the diagonal counts twice.
        for rows, cols in _tiles(n, n, upper=True):
            g = x[rows] @ x[cols].T
            part = float((g * g * g).sum())
            cube_parts.append(part if rows == cols else 2.0 * part)
    nx = np.einsum("ij,ij->i", x, x)
    return math.fsum(cube_parts), float((nx * nx).sum())


def _mc_strip_add(points, centre, q, buf, acc):
    """Add exp(-q * (points - centre)**2), summed over rows, into ``acc``.

    ``points`` holds one point per row and one direction per column;
    ``buf`` is scratch with at least as many rows and the same width.
    """
    strip = buf[:points.shape[0]]
    np.subtract(points, centre, out=strip)
    np.square(strip, out=strip)
    strip *= -q
    np.exp(strip, out=strip)
    acc += strip.sum(axis=0)


def _mc_self_sums(a, q, buf):
    """Per-column Gaussian self-sums over all ordered pairs of rows of ``a``.

    The kernel is even, so the pairs i < j are summed once and doubled; the
    diagonal adds exactly 1 per point.
    """
    acc = np.zeros(a.shape[1])
    for i in range(a.shape[0] - 1):
        _mc_strip_add(a[i + 1:], a[i], q, buf, acc)
    return a.shape[0] + 2.0 * acc


def _each_chunk(chunk, total, width):
    """Call ``chunk(lo)`` for each lo in range(0, total, width) on the caller and
    one helper thread per other usable CPU (none for one chunk).  The helpers
    are joined before this returns; the first error any thread raised is raised."""
    starts = range(0, total, width)
    pending = iter(starts)
    lock = threading.Lock()
    errors = []

    def work():
        try:
            while not errors:
                with lock:
                    lo = next(pending, None)
                if lo is None:
                    return
                chunk(lo)
        except BaseException as exc:
            errors.append(exc)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    helpers = [threading.Thread(target=work) for _ in range(min(cpus or 1, len(starts)) - 1)]
    try:
        for thread in helpers:
            thread.start()
        work()
    finally:
        errors.append(None)  # a helper stops before its next chunk
        for thread in helpers:
            if thread.is_alive():
                thread.join()
    if errors[0] is not None:
        raise errors[0]


def mc_pair_values(px, py, gamma):
    """Per-direction smoothed L2 distances between two projected samples.

    ``px``/``py`` hold one direction per row.  Each chunk of directions is
    transposed to a (points, directions) layout and the pair sums are built
    from contiguous strips, one point against the rest, in a reused buffer.
    """
    ndir, n = px.shape
    k = py.shape[1]
    q = 1.0 / (4.0 * gamma)
    c0 = 1.0 / (2.0 * math.sqrt(math.pi * gamma))
    inv_nn = 1.0 / (n * n)
    inv_kk = 1.0 / (k * k)
    inv_nk = 1.0 / (n * k)
    vals = np.empty(ndir)
    width = max(1, _MC_STRIP_ELEMS // max(n, k))
    def chunk(lo):
        a = np.ascontiguousarray(px[lo:lo + width].T)
        b = np.ascontiguousarray(py[lo:lo + width].T)
        buf = np.empty((max(n, k), a.shape[1]))
        sxx = _mc_self_sums(a, q, buf)
        syy = _mc_self_sums(b, q, buf)
        sxy = np.zeros(a.shape[1])
        for i in range(n):
            _mc_strip_add(b, a[i], q, buf, sxy)
        v = c0 * (sxx * inv_nn + syy * inv_kk - 2.0 * (sxy * inv_nk))
        if n == k:
            # Where both projected samples coincide the distance is exactly
            # 0; the self and cross sums need not cancel in the last ulp.
            v[(a == b).all(axis=0)] = 0.0
        vals[lo:lo + width] = np.maximum(v, 0.0)

    _each_chunk(chunk, ndir, width)
    return vals


def mc_normal_values(px, gamma):
    """Per-direction smoothed L2 distances between a projected sample and N(0,1)."""
    ndir, n = px.shape
    q = 1.0 / (4.0 * gamma)
    c0 = 1.0 / (2.0 * math.sqrt(math.pi * gamma))
    prior_self = 1.0 / (2.0 * math.sqrt(math.pi * (1.0 + gamma)))
    cross_var = 1.0 + 2.0 * gamma
    cross_c = 1.0 / math.sqrt(2.0 * math.pi * cross_var)
    inv_nn = 1.0 / (n * n)
    vals = np.empty(ndir)
    width = max(1, _MC_STRIP_ELEMS // n)
    def chunk(lo):
        a = np.ascontiguousarray(px[lo:lo + width].T)
        s_self = _mc_self_sums(a, q, np.empty_like(a))
        across = a * a
        across *= -1.0 / (2.0 * cross_var)
        np.exp(across, out=across)
        s_cross = across.sum(axis=0)
        v = c0 * (s_self * inv_nn) + prior_self - (2.0 / n) * cross_c * s_cross
        vals[lo:lo + width] = np.maximum(v, 0.0)

    _each_chunk(chunk, ndir, width)
    return vals
