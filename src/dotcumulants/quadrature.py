"""Multi-dimensional quadrature oracle for the transmission-eigenvalue
ensembles (n <= 3).

Two integration schemes, both order-adaptive (the rule size is grown until
two consecutive refinements agree to the requested relative tolerance):

* even beta: tensor Gauss-Jacobi on the box [0,1]^n with the weight
  T^alpha (1-T)^{delta/2} absorbed exactly into the rule; the remaining
  integrand (Vandermonde^beta times the statistic) is polynomial or entire,
  so convergence is immediate or exponential.

* beta=1: the integrand has |T_k - T_j| kinks on the box, so we integrate
  n! times the ordered sector.  The substitution T = sin^2(theta) turns the
  weight into sin^{2 alpha + 1} cos^{delta + 1}, and every physical beta=1
  parameter set has 2 alpha + 1 and delta + 1 nonnegative integers, making
  the whole integrand a trig polynomial; the simplex is mapped to a box by
  theta_j = t_j * theta_{j+1}, leaving an analytic integrand for tensor
  Gauss-Legendre.  Non-integer exponents degrade to algebraic convergence
  and may end in quadrature-failure, which carries the achieved bound.

The computed normalization is cross-checked against the closed-form
log-normalization, which catches both quadrature and bookkeeping faults.

No tensor grid is built in full.  Axis j of the n-dimensional grid is a
view of the rule vector with shape (1,)*j + (size,) + (1,)*(n-1-j), and each
intermediate (theta_j, its sine and cosine and their powers, T_j, T_j(1-T_j))
is computed on the axes it depends on; numpy broadcasting carries it to the
full size**n points only where the product weight, the density, G, P and
the integrand products need them.  Every point still goes through the same
float operations in the same order as with full grids, sums of the T_j
included (left to right), so the results are the same to the last bit.

scipy's Gauss rules are memoised per (family, size, parameters) as
read-only arrays.  The memo is bounded (least recently used first out): an
adaptive pass needs at most the eight sizes of ``_SIZES`` per parameter
set, and a whole benchmark sweep asks for 66 distinct rules, so 256 entries
of at most 96 nodes keep every repeat a hit at a fixed, small memory cost.

The beta=1 pass depends on (alpha, delta) only through s_j^(2 alpha + 1)
and c_j^(delta + 1).  Everything else (the sines and cosines, the
Vandermonde factors, n! times the product weight, the Jacobian, and the
powers of G and P that the statistics read) is built once per (size, n) as
read-only arrays and kept in a second memo, ``_GRIDS``, bounded by
``GRID_MEMO_BYTES`` (least recently used first out; a grid larger than the
ceiling alone is used for its call and not kept).  Each pass then runs its
density chain in place in one fresh array, with the same ufuncs in the same
order as a pass that builds everything anew, so a cold memo, a warm memo
and any call order give the same bits.
"""

from __future__ import annotations

import collections
import functools
import math

import numpy as np
from scipy.special import roots_genlaguerre, roots_jacobi, roots_legendre

from .ensembles import log_selberg
from .errors import QuadratureFailureError, UnsupportedBetaError
from .params import DelayParams, TransportParams

_SIZES = (8, 12, 16, 24, 32, 48, 64, 96)

_ROOTS = {"jacobi": roots_jacobi, "legendre": roots_legendre, "laguerre": roots_genlaguerre}


@functools.lru_cache(maxsize=256)
def _rule(family, size, *parameters):
    """scipy's Gauss rule ``family`` of ``size`` nodes, as read-only arrays."""
    x, w = _ROOTS[family](size, *parameters)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_jacobi_01(size, a, b):
    """Nodes/weights for integral of T^a (1-T)^b g(T) over [0,1]."""
    x, w = _rule("jacobi", size, b, a)
    return (1.0 + x) / 2.0, w * 2.0 ** (-(a + b + 1.0))


def _axes(vector, n):
    """n broadcastable views of ``vector``, the j-th along axis j of n."""
    return [vector.reshape((1,) * j + (-1,) + (1,) * (n - 1 - j)) for j in range(n)]


def _grids(nodes, weights, n):
    """Tensor grid: the n node axes and the product weight over all of them."""
    T = _axes(nodes, n)
    W = _axes(weights, n)
    wprod = W[0]
    for m in W[1:]:
        wprod = wprod * m
    return T, wprod


def _vandermonde_power(T, beta):
    v = 1.0
    n = len(T)
    for i in range(n):
        for j in range(i + 1, n):
            v = v * np.abs(T[j] - T[i]) ** beta
    return v


def _box_pass(p, size, stats_fn):
    a, b = float(p.alpha), float(p.delta) / 2.0
    nodes, weights = gauss_jacobi_01(size, a, b)
    T, wprod = _grids(nodes, weights, p.n)
    base = wprod * _vandermonde_power(T, p.beta)
    return stats_fn(_Sums(lambda: T, keep_powers=False), base)


class _Sums:
    """G = sum_j T_j and P = sum_j T_j (1 - T_j) on one grid, and the powers
    of them that the statistics read; ``nodes()`` gives the T_j.

    The sums are kept once built.  With ``keep_powers`` every power is kept
    too, as a memoised grid holds them; without it each power is built at
    every call, as one pass needs them."""

    def __init__(self, nodes, keep_powers):
        self._nodes = nodes
        self._keep_powers = keep_powers
        self.arrays = {}
        self.nbytes = 0

    def __call__(self, name, power=1):
        """The sum ``name`` ("G" or "P") to ``power``; read-only if kept
        (the first power is the sum itself: x**1 is x, bit for bit)."""
        key = (name, power)
        if key not in self.arrays:
            total = self.arrays.get((name, 1))
            if total is None:
                T = self._nodes()
                total = self._keep((name, 1), _sum_axes(
                    T if name == "G" else [Tj * (1.0 - Tj) for Tj in T]))
            if power != 1:
                if not self._keep_powers:
                    return total**power
                self._keep(key, total**power)
        return self.arrays[key]

    def _keep(self, key, array):
        array.setflags(write=False)
        self.arrays[key] = array
        self.nbytes += array.nbytes
        return array


class _SectorGrid:
    """Everything of a beta=1 ordered-sector pass that depends on the rule
    size and n alone: the sines and cosines of theta_j, the Vandermonde
    factors T_j - T_i, the product weight times n!, the Jacobian, and the
    statistics' sums and powers (``sums``).  All arrays are read-only."""

    def __init__(self, size, n):
        x, w = _rule("legendre", size)
        t, wprod = _grids((x + 1.0) / 2.0, w / 2.0, n)
        # theta_j = t_j * theta_{j+1} lives on axes j..n-1 only
        theta = [None] * n
        theta[n - 1] = (math.pi / 2.0) * t[n - 1]
        for j in range(n - 2, -1, -1):
            theta[j] = t[j] * theta[j + 1]
        jac = math.pi / 2.0
        for j in range(1, n):
            jac = jac * theta[j]
        self.s = [np.sin(th) for th in theta]
        self.c = [np.cos(th) for th in theta]
        T = self.nodes()
        # ordered: T_i <= T_j, so (T_j - T_i)^beta needs no abs, and beta = 1
        self.vandermonde = [T[j] - T[i] for i in range(n) for j in range(i + 1, n)]
        self.weight = math.factorial(n) * wprod
        self.jac = np.asarray(jac)
        own = self.s + self.c + self.vandermonde + [self.weight, self.jac]
        for array in own:
            array.setflags(write=False)
        self._own_bytes = sum(array.nbytes for array in own)
        # a grid the memo cannot keep holds one power at a time
        self.sums = _Sums(self.nodes, keep_powers=self._own_bytes <= GRID_MEMO_BYTES)

    def nodes(self):
        return [sj * sj for sj in self.s]

    @property
    def nbytes(self):
        return self._own_bytes + self.sums.nbytes


#: byte ceiling of the beta=1 grid memo: it holds the grids of the benchmark
#: sweep (n <= 3, up to 48 nodes a side, 10.2 MiB with the powers of G to
#: order 3), not one of 64 or more nodes at n = 3 with its powers
GRID_MEMO_BYTES = 16 * 2**20

#: (size, n) -> _SectorGrid, least recently used first
_GRIDS = collections.OrderedDict()


def _grid_memo_bytes():
    return sum(grid.nbytes for grid in _GRIDS.values())


def _keep_grid(key, grid):
    """Make ``grid`` the memo's newest entry and evict the least recently
    used ones down to the ceiling; a grid above the ceiling alone is not kept
    and evicts nothing."""
    _GRIDS.pop(key, None)
    if grid.nbytes <= GRID_MEMO_BYTES:
        _GRIDS[key] = grid
        while _grid_memo_bytes() > GRID_MEMO_BYTES:
            _GRIDS.popitem(last=False)


def _ordered_pass(p, size, stats_fn):
    key = (size, p.n)
    grid = _GRIDS.get(key) or _SectorGrid(*key)
    a2, d1 = 2.0 * float(p.alpha) + 1.0, float(p.delta) + 1.0
    # the density chain runs in place in one fresh array: the same products
    # in the same order as 2 s_j^a2 c_j^d1 ... (T_j - T_i) n! wprod jac
    dens = grid.s[0] ** a2
    dens *= 2.0
    dens *= grid.c[0] ** d1
    for j in range(1, p.n):
        dens *= 2.0
        dens *= grid.s[j] ** a2
        dens *= grid.c[j] ** d1
    for factor in grid.vandermonde:
        dens *= factor
    dens *= grid.weight
    dens *= grid.jac
    out = stats_fn(grid.sums, dens)
    _keep_grid(key, grid)  # after the statistics, which may add sums
    return out


def _transport_pass(p, size, stats_fn):
    if p.beta in (2, 4):
        return _box_pass(p, size, stats_fn)
    return _ordered_pass(p, size, stats_fn)


def _sum_axes(parts):
    """Left-to-right sum of per-axis arrays, as ``sum(axis=0)`` of their
    stack adds its rows."""
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


def _adaptive(pass_fn, rel_tol, what):
    prev, hits, err = None, 0, None
    for size in _SIZES:
        vals = np.asarray(pass_fn(size), dtype=float)
        if prev is not None:
            scale = np.maximum(np.abs(vals), np.abs(prev))
            scale[scale == 0.0] = 1.0
            err = float(np.max(np.abs(vals - prev) / scale))
            if err <= rel_tol:
                hits += 1
                if hits >= 2:
                    return vals, err
            else:
                hits = 0
        prev = vals
    raise QuadratureFailureError(
        f"{what}: no convergence to {rel_tol:g} (last change {err})",
        achieved=err,
    )


#: relative tolerances of ``transport_raw_moments`` and ``delay_norm_quadrature``
RAW_MOMENTS_REL_TOL = 1e-10
DELAY_NORM_REL_TOL = 1e-8


def transport_raw_moments(p: TransportParams, pairs):
    """Raw moments E[G^l P^k] for each (l,k) in ``pairs``, by quadrature to
    relative tolerance ``RAW_MOMENTS_REL_TOL``.

    Returns (moments dict, error estimate).  The computed normalization is
    checked against the closed-form Selberg constant; disagreement beyond
    100x the tolerance is reported as a quadrature failure.
    """
    pairs = [t for t in pairs if t != (0, 0)]

    def stats(sums, base):
        # a zeroth power is a factor 1.0 and is left out, which changes no bit
        out = [base.sum()]
        scratch = np.empty_like(base)
        for l, k in pairs:
            term = np.multiply(base, sums("G", l), out=scratch) if l else base
            if k:
                term = np.multiply(term, sums("P", k), out=scratch)
            out.append(term.sum())
        return out

    vals, err = _adaptive(lambda size: _transport_pass(p, size, stats), RAW_MOMENTS_REL_TOL,
                          f"transport moments {p.describe()}")
    Z = vals[0]
    if Z <= 0:
        raise QuadratureFailureError("nonpositive normalization")
    log_ref = log_selberg(p)
    if abs(math.log(Z) - log_ref) > max(100 * RAW_MOMENTS_REL_TOL, 1e-8):
        raise QuadratureFailureError(
            f"normalization disagrees with the Selberg constant: "
            f"log Z = {math.log(Z):.12g} vs {log_ref:.12g}"
        )
    moments = {(0, 0): 1.0}
    for (l, k), v in zip(pairs, vals[1:]):
        moments[(l, k)] = v / Z
    return moments, err


def transport_mgf_value(p: TransportParams, z, w, rel_tol=1e-8):
    """E[exp(-z G - w P)] by quadrature (the joint moment generating function)."""

    def stats(sums, base):
        G, P = sums("G"), sums("P")
        return [base.sum(), (base * np.exp(-z * G - w * P)).sum()]

    vals, _ = _adaptive(lambda size: _transport_pass(p, size, stats), rel_tol, f"mgf {p.describe()}")
    return vals[1] / vals[0]


def delay_norm_quadrature(p: DelayParams):
    """log of the delay-time normalization by generalized Gauss-Laguerre
    quadrature in the inverse coordinates, to relative tolerance
    ``DELAY_NORM_REL_TOL`` (even beta only: the Vandermonde power must be
    polynomial for the box rule)."""
    if p.beta not in (2, 4):
        raise UnsupportedBetaError("box quadrature cross-check needs even beta")
    omega = float(p.omega)
    if omega <= -1:
        raise QuadratureFailureError("weight exponent not integrable")

    def one_pass(size):
        x, w = _rule("laguerre", size, omega)
        T, wprod = _grids(x, w, p.n)
        base = wprod * _vandermonde_power(T, p.beta)
        return [base.sum()]

    vals, _ = _adaptive(one_pass, DELAY_NORM_REL_TOL, f"delay norm {p.describe()}")
    val = vals[0]
    if val <= 0:
        raise QuadratureFailureError("nonpositive normalization")
    return math.log(val)
