"""NumPy kernels: the profile function, pairwise sums and Monte Carlo values.

Each branch of the profile 1F1(1/2; D/2; -s) (see :mod:`cramerwold.phi`) is
written once here.  Exact mode sums the all-positive Kummer transform
``exp(-s) * 1F1((D-1)/2; D/2; s)`` as a series for s <= 40, a large-argument
expansion for s >= max(D, 40), and 200-node Gauss-Legendre quadrature of the
interval integral in the window between.  The pairwise sums work on
cache-sized chunks of the squared-distance matrix; the Monte Carlo evaluators
run NumPy's SIMD ``exp`` over contiguous (points, directions) strips.
"""

import math

import numpy as np

MODE_EXACT = 0
MODE_ASYMPTOTIC = 1
MODE_BESSEL2 = 2

SERIES_SWITCH = 40.0  # series below, expansion or quadrature above
QUAD_NODES = 200

_GLX, _GLW = np.polynomial.legendre.leggauss(QUAD_NODES)

# Pairwise work per chunk for the closed-form sums.  Sized so a chunk's
# intermediates stay cache-resident: measured on the target host this is both
# faster in absolute terms at large n and keeps the time-vs-n scaling cleanly
# quadratic (doubling ratio ~3.3 instead of ~7 with un-blocked Gram matrices).
# 16k elements leaves room for the half-dozen temporaries of the masked
# large-argument expansion loop without spilling out of L2.
_CHUNK_ELEMS = 1 << 14
# Elements per Monte-Carlo strip (points x directions): 512 KiB of float64,
# which stays in L2 while a strip goes through its subtract, square, scale,
# exp and sum passes.  n = 64 gets 1024 directions per chunk; measured at
# n = 64, 1024 beat 256, 512 and 2048 directions per chunk.
_MC_STRIP_ELEMS = 1 << 16


def _phi_series_vec(dim, s):
    # exp(-s) * 1F1((dim-1)/2; dim/2; s), all-positive Kummer recurrence
    b = 0.5 * dim
    c = 0.5 * (dim - 1.0)
    term = np.ones_like(s)
    total = np.ones_like(s)
    for k in range(500):
        term = term * ((c + k) / ((b + k) * (k + 1.0))) * s
        total += term
        if np.all(term <= 1e-16 * total):
            break
    return np.exp(-s) * total


def _phi_expansion_vec(dim, s):
    # Large-argument expansion of exp(-s) * 1F1((dim-1)/2; dim/2; s):
    #   Gamma(dim/2) / Gamma((dim-1)/2) * s^(-1/2)
    #     * sum_k (1/2)_k (3/2 - dim/2)_k / (k! * s^k),
    # truncated per element at its smallest term.  The dropped exponentially
    # small branch is below 1e-17 relative for every s this path serves.
    # Guarded by s >= max(dim, 40): there the term ratio stays under ~1/4,
    # so the sum reaches machine accuracy without intermediate growth
    # (which for s < dim would amplify rounding).
    b = 0.5 * dim
    term = np.ones_like(s)
    total = np.ones_like(s)
    active = np.ones(s.shape, dtype=bool)
    for k in range(80):
        nxt = term * (0.5 + k) * (1.5 - b + k) / ((k + 1.0) * s)
        stop = (np.abs(nxt) >= np.abs(term)) | (np.abs(nxt) <= 1e-17 * np.abs(total))
        total = np.where(active, total + nxt, total)
        term = np.where(active & ~stop, nxt, term)
        active &= ~stop
        if not active.any():
            break
    const = math.exp(math.lgamma(0.5 * dim) - math.lgamma(0.5 * (dim - 1.0)))
    return const / np.sqrt(s) * total


def _phi_quad_vec(dim, s):
    # 200-node Gauss-Legendre quadrature of
    #   C(dim) * integral_{-1}^{1} exp(-s x^2) (1 - x^2)^((dim-3)/2) dx
    # after rescaling x = u / sqrt(s); the exp(-u^2) factor kills the
    # endpoint region, so the dim = 2 endpoint singularity never matters
    # for the s > 40 range this path serves.
    half = np.minimum(np.sqrt(s), 8.5)
    p = 0.5 * (dim - 3.0)
    u = half[:, None] * _GLX[None, :]
    base = 1.0 - u * u / s[:, None]
    pos = base > 0.0
    logbase = np.log(np.maximum(base, 1e-300))
    integrand = np.where(pos, np.exp(-u * u + p * logbase), 0.0)
    const = math.exp(math.lgamma(0.5 * dim) - math.lgamma(0.5) - math.lgamma(0.5 * (dim - 1.0)))
    return const / np.sqrt(s) * (half * (integrand @ _GLW))


def _phi_exact_vec(dim, s):
    out = np.empty_like(s)
    small = s <= SERIES_SWITCH
    if small.any():
        out[small] = _phi_series_vec(dim, s[small])
    tail = (~small) & (s >= dim)
    if tail.any():
        out[tail] = _phi_expansion_vec(dim, s[tail])
    mid = (~small) & (~tail)
    if mid.any():
        out[mid] = _phi_quad_vec(dim, s[mid])
    return out


def _phi_bessel2_vec(s):
    out = np.empty_like(s)
    small = s <= 7.5
    if small.any():
        # Abramowitz-Stegun 9.8.1 with t = s/7.5
        t2 = (s[small] / 7.5) ** 2
        poly = 1.0 + t2 * (3.5156229 + t2 * (3.0899424 + t2 * (1.2067492
               + t2 * (0.2659732 + t2 * (0.0360768 + t2 * 0.0045813)))))
        out[small] = np.exp(-0.5 * s[small]) * poly
    big = ~small
    if big.any():
        # Abramowitz-Stegun 9.8.2
        u = 7.5 / s[big]
        poly = 0.39894228 + u * (0.01328592 + u * (0.00225319 + u * (-0.00157565
               + u * (0.0091628 + u * (-0.02057706 + u * (0.02635537
               + u * (-0.01647633 + u * 0.00392377)))))))
        out[big] = np.sqrt(2.0 / s[big]) * poly
    return out


def phi_values(dim, s, mode):
    """Vectorized profile function over an array of nonnegative s."""
    s = np.asarray(s, dtype=np.float64)
    if mode == MODE_ASYMPTOTIC:
        return 1.0 / np.sqrt(1.0 + 4.0 * s / (2.0 * dim - 3.0))
    if mode == MODE_BESSEL2:
        return _phi_bessel2_vec(s)
    if mode == MODE_EXACT:
        return _phi_exact_vec(float(dim), s)
    raise ValueError(f"unknown mode code {mode!r}")


def phi_asymptotic_derivative_values(dim, s):
    """d/ds of the asymptotic profile: -(2/(2D-3)) (1 + 4s/(2D-3))**-1.5."""
    r = 2.0 * dim - 3.0
    t = 1.0 + 4.0 * s / r
    return -(2.0 / r) / (t * np.sqrt(t))


def _pair_d2_chunk(xc, y, nxc, ny):
    d2 = nxc[:, None] + ny[None, :] - 2.0 * (xc @ y.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def sum_phi_cross(x, y, scale, mode):
    n, dim = x.shape
    k = y.shape[0]
    nx = np.einsum("ij,ij->i", x, x)
    ny = np.einsum("ij,ij->i", y, y)
    # In a self-sum (y holds the same points as x) the diagonal pairs a point
    # with itself.  The Gram trick leaves rounding noise there that grows
    # with the offset of the point, so those distances are set to exact 0.
    self_sum = y is x or (x.shape == y.shape and np.array_equal(x, y))
    rows = max(1, min(n, _CHUNK_ELEMS // max(k, 1)))
    parts = []
    for lo in range(0, n, rows):
        d2 = _pair_d2_chunk(x[lo:lo + rows], y, nx[lo:lo + rows], ny)
        if self_sum:
            np.fill_diagonal(d2[:, lo:], 0.0)
        parts.append(float(phi_values(dim, d2 * scale, mode).sum()))
    return math.fsum(parts)


def sum_phi_norms(x, scale, mode):
    dim = x.shape[1]
    nx = np.einsum("ij,ij->i", x, x)
    return float(phi_values(dim, nx * scale, mode).sum())


def cw_normal_asym_grad(z, gamma):
    n, dim = z.shape
    c1 = 1.0 / (2.0 * n * n * math.sqrt(math.pi))
    c_pair = c1 / (gamma * math.sqrt(gamma))
    c_norm = -c1 * (2.0 * n / math.sqrt(gamma + 0.5)) / (1.0 + 2.0 * gamma)
    nz = np.einsum("ij,ij->i", z, z)
    rows = max(1, min(n, _CHUNK_ELEMS // max(n, 1)))
    pair = np.empty_like(z)
    for lo in range(0, n, rows):
        zc = z[lo:lo + rows]
        d2 = _pair_d2_chunk(zc, z, nz[lo:lo + rows], nz)
        w = phi_asymptotic_derivative_values(dim, d2 / (4.0 * gamma))
        pair[lo:lo + rows] = w.sum(axis=1)[:, None] * zc - w @ z
    wn = phi_asymptotic_derivative_values(dim, nz / (2.0 + 4.0 * gamma))
    return c_pair * pair + c_norm * wn[:, None] * z


def mardia_sums(x):
    n = x.shape[0]
    rows = max(1, min(n, _CHUNK_ELEMS // n))
    cube_parts = []
    for lo in range(0, n, rows):
        g = x[lo:lo + rows] @ x.T
        cube_parts.append(float((g * g * g).sum()))
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
    for lo in range(0, ndir, width):
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
    for lo in range(0, ndir, width):
        a = np.ascontiguousarray(px[lo:lo + width].T)
        s_self = _mc_self_sums(a, q, np.empty_like(a))
        across = a * a
        across *= -1.0 / (2.0 * cross_var)
        np.exp(across, out=across)
        s_cross = across.sum(axis=0)
        v = c0 * (s_self * inv_nn) + prior_self - (2.0 / n) * cross_c * s_cross
        vals[lo:lo + width] = np.maximum(v, 0.0)
    return vals
