"""Dictionary-based plant models and their analytic derivatives.

The nonlinear part of a plant is spanned by a known dictionary of basis
terms, each of which vanishes at the origin: monomials of total degree
at least one, ``sin(x_k)``, and ``cos(x_k) - 1``.  Restricting to these
three kinds gives a linearization at the origin read off the term kinds
(degree-1 monomials and ``sin`` have a unit slope there, every other
term is flat) and sound interval Lipschitz bounds.

The "remainder" of a dictionary is its value minus its linearization at
the origin; it is the quantity the controller acts on, and it vanishes
at zero together with its slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DisturbanceOutOfBoundsError
from .polytope import Box

# ---------------------------------------------------------------------------
# dictionary terms


@dataclass(frozen=True)
class Monomial:
    """``prod_k x_k ** exponents[k]`` with total degree >= 1."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if any(e < 0 for e in exps):
            raise ValueError("monomial exponents must be non-negative")
        if sum(exps) < 1:
            raise ValueError("monomial must have total degree >= 1 (must vanish at 0)")
        object.__setattr__(self, "exponents", exps)


@dataclass(frozen=True)
class SinTerm:
    """``sin(x_k)``."""

    coord: int


@dataclass(frozen=True)
class CosM1Term:
    """``cos(x_k) - 1`` (shifted so the term vanishes at the origin)."""

    coord: int


Term = Monomial | SinTerm | CosM1Term


def term_from_json(obj: dict) -> Term:
    kind = obj.get("kind")
    if kind == "monomial":
        return Monomial(tuple(obj["exponents"]))
    if kind == "sin":
        return SinTerm(int(obj["coord"]))
    if kind == "cosm1":
        return CosM1Term(int(obj["coord"]))
    raise ValueError(f"unknown term kind {kind!r}")


# ---------------------------------------------------------------------------
# interval helpers for the Lipschitz bound


def _interval_mul(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(products), max(products)


def _interval_pow(lo: float, hi: float, k: int) -> tuple[float, float]:
    if k == 0:
        return 1.0, 1.0
    if k % 2 == 1 or lo >= 0.0:
        return lo ** k, hi ** k
    if hi <= 0.0:
        return hi ** k, lo ** k
    return 0.0, max(abs(lo), abs(hi)) ** k


def _interval_cos(lo: float, hi: float) -> tuple[float, float]:
    if hi - lo >= 2.0 * math.pi:
        return -1.0, 1.0
    vals = [math.cos(lo), math.cos(hi)]
    # critical points of cos: k*pi
    k = math.ceil(lo / math.pi)
    while k * math.pi <= hi:
        vals.append(1.0 if k % 2 == 0 else -1.0)
        k += 1
    return min(vals), max(vals)


def _interval_sin(lo: float, hi: float) -> tuple[float, float]:
    return _interval_cos(lo - math.pi / 2.0, hi - math.pi / 2.0)


# ---------------------------------------------------------------------------
# dictionary


class Dictionary:
    """An ordered list of basis terms over an n-dimensional state."""

    def __init__(self, terms, dim: int):
        terms = list(terms)
        if not terms:
            raise ValueError("dictionary needs at least one term")
        dim = int(dim)
        for t in terms:
            if isinstance(t, Monomial) and len(t.exponents) != dim:
                raise DimensionMismatchError(
                    f"monomial exponent vector has length {len(t.exponents)}, state dim is {dim}"
                )
            if isinstance(t, (SinTerm, CosM1Term)) and not 0 <= t.coord < dim:
                raise DimensionMismatchError(
                    f"term coordinate {t.coord} out of range for state dim {dim}"
                )
        self.terms = terms
        self.dim = dim
        # each monomial's coordinates repeated by their exponents: (1, 0, 1) -> (0, 2)
        self._factors = [tuple(k for k, e in enumerate(t.exponents) for _ in range(e))
                         if isinstance(t, Monomial) else () for t in terms]
        # (term, coordinate) of each term with a unit slope at the origin:
        # degree-1 monomials and sin; every other term is flat there
        self._slopes = [(j, t.coord) if isinstance(t, SinTerm) else (j, factors[0])
                        for j, (t, factors) in enumerate(zip(terms, self._factors))
                        if isinstance(t, SinTerm) or len(factors) == 1]
        # each monomial's (first factor, later factors), when every term is one
        self._chains = ([(factors[0], factors[1:]) for factors in self._factors]
                        if all(isinstance(t, Monomial) for t in terms) else None)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"point has dim {x.shape[-1]}, dictionary expects {self.dim}"
            )
        return x

    def values(self, x) -> np.ndarray:
        """Term values at ``x``; batched when ``x`` has shape (k, n).

        A monomial is the left-to-right product of its coordinates, each
        repeated by its exponent: ``(2, 0)`` is ``x0 * x0`` and ``(1, 0, 1)``
        is ``x0 * x2``.  Every value is thus a fixed chain of correctly
        rounded multiplications, the same on every CPU, where a float
        ``pow`` depends on which SIMD kernel numpy picks.  On one point of
        shape (n,) a dictionary of monomials alone runs those chains on
        Python floats, the same IEEE products (signed zeros included), so
        the values are bitwise those of the batched path; ``sin`` and
        ``cos - 1`` terms always take the numpy path.
        """
        x = self._check_point(x)
        if x.ndim == 1 and self._chains is not None:
            # one point: the same chains on Python floats, which are IEEE
            # doubles too, without numpy's per-call cost
            point = x.tolist()
            values = []
            for first, rest in self._chains:
                value = point[first]
                for k in rest:
                    value *= point[k]
                values.append(value)
            return np.array(values)
        out = np.empty(x.shape[:-1] + (self.n_terms,))
        self._write_values(x, out)
        return out

    def _write_values(self, x: np.ndarray, out: np.ndarray) -> None:
        """Write term ``j``'s value at the points ``x`` into ``out[..., j]``,
        reading coordinate ``k`` from ``x[..., k]``."""
        for j, (t, factors) in enumerate(zip(self.terms, self._factors)):
            col = out[..., j]
            if isinstance(t, Monomial):
                if len(factors) == 1:
                    col[...] = x[..., factors[0]]
                else:
                    np.multiply(x[..., factors[0]], x[..., factors[1]], out=col)
                    for k in factors[2:]:
                        col *= x[..., k]
            elif isinstance(t, SinTerm):
                col[...] = np.sin(x[..., t.coord])
            else:
                np.subtract(np.cos(x[..., t.coord]), 1.0, out=col)

    def linearization(self) -> np.ndarray:
        """(N, n) slope of the term vector at the origin: one at each unit slope."""
        lin = np.zeros((self.n_terms, self.dim))
        for j, k in self._slopes:
            lin[j, k] = 1.0
        return lin

    def remainder(self, x) -> np.ndarray:
        """Term values minus their linearization (each unit slope's coordinate);
        vanishes at the origin."""
        x = self._check_point(x)
        return self._less_slopes(self.values(x), x)

    def _less_slopes(self, values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Subtract each unit slope's coordinate of ``x`` from the term
        ``values`` in place: the remainder, from values already computed."""
        for j, k in self._slopes:
            values[..., j] -= x[..., k]
        return values

    def lift(self, out: np.ndarray) -> np.ndarray:
        """Write ``r(x)`` into rows ``out[n:]`` of an ``(n + N, k)`` buffer,
        reading the coordinate-major states ``x`` from rows ``out[:n]``.

        The rows are written by the code that writes :meth:`values`' columns,
        then take :meth:`remainder`'s unit-slope subtraction, so the result is
        bitwise ``remainder(out[:n].T).T``.
        """
        n = self.dim
        if out.ndim != 2 or out.shape[0] != n + self.n_terms:
            raise DimensionMismatchError(
                f"lift buffer has shape {out.shape}, expected ({n + self.n_terms}, k)")
        x = out[:n]
        # transposed, a row of the buffer is a column as values writes it
        self._write_values(x.T, out[n:].T)
        for j, k in self._slopes:
            out[n + j] -= x[k]
        return out

    def lipschitz_bound(self, box: Box) -> float:
        """Sound bound on the remainder's Lipschitz constant over ``box``.

        Bounds each entry of the remainder Jacobian by interval arithmetic
        and takes the largest row sum (the induced infinity norm), so
        ``|remainder(x) - remainder(y)|_inf <= L |x - y|_inf`` on the box.
        """
        if box.dim != self.dim:
            raise DimensionMismatchError("box dimension does not match dictionary")
        lin = self.linearization()
        worst = 0.0
        for j, t in enumerate(self.terms):
            row = 0.0
            for k in range(self.dim):
                lo_k, hi_k = float(box.lo[k]), float(box.hi[k])
                if isinstance(t, Monomial):
                    ek = t.exponents[k]
                    if ek == 0:
                        iv = (0.0, 0.0)
                    else:
                        iv = (float(ek), float(ek))
                        iv = _interval_mul(iv, _interval_pow(lo_k, hi_k, ek - 1))
                        for l, el in enumerate(t.exponents):
                            if l != k and el > 0:
                                iv = _interval_mul(
                                    iv, _interval_pow(float(box.lo[l]), float(box.hi[l]), el))
                elif isinstance(t, SinTerm):
                    iv = _interval_cos(lo_k, hi_k) if k == t.coord else (0.0, 0.0)
                else:
                    if k == t.coord:
                        slo, shi = _interval_sin(lo_k, hi_k)
                        iv = (-shi, -slo)
                    else:
                        iv = (0.0, 0.0)
                shift = lin[j, k]
                row += max(abs(iv[0] - shift), abs(iv[1] - shift))
            worst = max(worst, row)
        return worst

    def remainder_bounds(self, box: Box) -> tuple[np.ndarray, np.ndarray]:
        """Per-term ``(c, d)`` with ``|r_j(x)| <= c_j * rho**d_j`` on ``rho * box``, ``rho > 0``:
        with ``M = max(|lo|, |hi|)``, ``prod_k M_k**e_k`` for a monomial of degree ``d >= 2``,
        0 for degree 1, ``M**3 / 6`` (``d = 3``) for ``sin``, ``M**2 / 2`` (``d = 2``) for cos - 1."""
        if box.dim != self.dim:
            raise DimensionMismatchError("box dimension does not match dictionary")
        reach = np.maximum(np.abs(box.lo), np.abs(box.hi))
        bounds = [(reach[t.coord] ** 3 / 6.0, 3) if isinstance(t, SinTerm)
                  else (reach[t.coord] ** 2 / 2.0, 2) if isinstance(t, CosM1Term)
                  else (math.prod(reach[list(factors)]) if len(factors) > 1 else 0.0,
                        len(factors))
                  for t, factors in zip(self.terms, self._factors)]
        coeffs, degrees = zip(*bounds)
        return np.array(coeffs), np.array(degrees, dtype=float)

    @classmethod
    def from_json(cls, obj: list, dim: int) -> "Dictionary":
        return cls([term_from_json(t) for t in obj], dim)


# ---------------------------------------------------------------------------
# plant


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray   # (horizon + 1, n)
    inputs: np.ndarray   # (horizon, m)


@dataclass(frozen=True, eq=False)
class PlantModel:
    """Ground-truth dynamics ``x+ = a1 x + a2 * terms(x) + b u + w``.

    Immutable after construction; hidden from synthesis, which sees only
    collected data and the dictionary.
    """

    a1: np.ndarray
    a2: np.ndarray
    b: np.ndarray
    dictionary: Dictionary
    w_bound: float = 0.0

    def __post_init__(self):
        a1 = np.atleast_2d(np.asarray(self.a1, dtype=float))
        a2 = np.atleast_2d(np.asarray(self.a2, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        n = a1.shape[0]
        if a1.shape != (n, n):
            raise DimensionMismatchError(f"a1 must be square, got {a1.shape}")
        if a2.shape != (n, self.dictionary.n_terms):
            raise DimensionMismatchError(
                f"a2 has shape {a2.shape}, expected ({n}, {self.dictionary.n_terms})"
            )
        if b.shape[0] != n:
            raise DimensionMismatchError(f"b has {b.shape[0]} rows, expected {n}")
        if self.dictionary.dim != n:
            raise DimensionMismatchError("dictionary dimension does not match a1")
        for name, mat in (("a1", a1), ("a2", a2), ("b", b)):
            if not np.isfinite(mat).all():
                raise ValueError(f"{name} must be finite")
        if not 0.0 <= self.w_bound < math.inf:
            raise ValueError("disturbance bound must be finite and non-negative")
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "b", b)

    @property
    def state_dim(self) -> int:
        return self.a1.shape[0]

    @property
    def input_dim(self) -> int:
        return self.b.shape[1]

    def linear_base(self) -> np.ndarray:
        """Linearized open-loop state matrix: a1 plus a2 times the dictionary slope."""
        return self.a1 + self.a2 @ self.dictionary.linearization()

    def closed_loop(self, controller) -> tuple[np.ndarray, np.ndarray]:
        """``(L, R)`` of the true closed loop ``x+ = L x + R r(x) + w`` under
        ``u = k1 x + k2 r(x)``: ``L = linear_base() + b k1``, ``R = a2 + b k2``."""
        return self.linear_base() + self.b @ controller.k1, self.a2 + self.b @ controller.k2

    def _check_bound(self, w: np.ndarray) -> None:
        size = np.abs(w)
        if np.any(size > self.w_bound + 1e-12):
            raise DisturbanceOutOfBoundsError(
                f"|w|_inf = {np.nanmax(size):.6g} exceeds bound {self.w_bound:.6g}"
            )

    def _check_w(self, w) -> np.ndarray:
        if w is None:
            return np.zeros(self.state_dim)
        w = np.asarray(w, dtype=float).reshape(-1)
        if w.size != self.state_dim:
            raise DimensionMismatchError("disturbance has wrong dimension")
        self._check_bound(w)
        return w

    def step(self, x, u, w=None) -> np.ndarray:
        """One exact step of the true dynamics."""
        x = np.asarray(x, dtype=float).reshape(-1)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        w = self._check_w(w)
        return self.a1 @ x + self.a2 @ self.dictionary.values(x) + self.b @ u + w

    def simulate(self, controller, x0, horizon: int, disturbances=None) -> Trajectory:
        """Closed-loop rollout with ``u = k1 x + k2 remainder(x)``.

        ``controller`` is anything with ``k1`` (m, n) and ``k2`` (m, N)
        attributes.  ``disturbances`` is an optional (horizon, n) array; each
        row must respect the plant's bound.  Pre-generated streams make runs
        reproducible regardless of evaluation order.  The whole stream is
        checked before the first step, and each step is :meth:`step`'s
        expression, with a zero disturbance when none is given.
        """
        n = self.state_dim
        x = np.asarray(x0, dtype=float).reshape(-1)
        k1 = np.atleast_2d(np.asarray(controller.k1, dtype=float))
        k2 = np.atleast_2d(np.asarray(controller.k2, dtype=float))
        if disturbances is None:
            noise = np.zeros((horizon, n))
        else:
            noise = np.asarray(disturbances, dtype=float)
            if noise.ndim < 1 or len(noise) < horizon or noise[:horizon].size != horizon * n:
                raise DimensionMismatchError(
                    f"disturbances have shape {noise.shape}, expected ({horizon}, {n})")
            noise = noise[:horizon].reshape(horizon, n)
            self._check_bound(noise)
        a1, a2, b, dictionary = self.a1, self.a2, self.b, self.dictionary
        states = np.empty((horizon + 1, n))
        inputs = np.empty((horizon, k1.shape[0]))
        states[0] = x
        for t in range(horizon):
            terms = dictionary.values(x)
            u = k1 @ x + k2 @ dictionary._less_slopes(terms.copy(), x)
            x = a1 @ x + a2 @ terms + b @ u + noise[t]
            states[t + 1] = x
            inputs[t] = u
        return Trajectory(states=states, inputs=inputs)
