"""Ensemble parameter records.

``TransportParams`` describes the transmission-eigenvalue ensemble on [0,1]^n
(symmetry index beta in {1,2,4}, weight exponents alpha and delta/2, channel
number n).  ``DelayParams`` describes the inverse-spectrum ensemble behind the
Wigner delay time; it stores the weight exponent b as an independent field
because the dimension lattice shifts n while b stays fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rational import floor_rational, rat, rational_str

_ALLOWED_BETA = (1, 2, 4)


def lattice_step(beta):
    """Dimension step i(beta) of the lattice coupling: 1 for beta=4, 2 for
    beta=1, and None for beta=2, whose recurrences close at a single n."""
    return {1: 2, 4: 1}.get(beta)


def eta_factor(beta):
    """Weight eta of the quartic terms in the recurrences: 4 for beta=4 and
    1 for beta in {1,2}."""
    return 4 if beta == 4 else 1


@dataclass(frozen=True)
class TransportParams:
    beta: int
    alpha: object
    delta: object
    n: int

    def __post_init__(self):
        if self.beta not in _ALLOWED_BETA:
            raise ValueError(f"beta must be one of {_ALLOWED_BETA}, got {self.beta}")
        object.__setattr__(self, "alpha", rat(self.alpha))
        object.__setattr__(self, "delta", rat(self.delta))
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("n must be a positive integer")
        if not self.alpha > -1:
            raise ValueError("alpha must exceed -1 for an integrable weight")
        if not self.delta > -2:
            raise ValueError("delta/2 must exceed -1 for an integrable weight")

    @property
    def eta14(self):
        return eta_factor(self.beta)

    @property
    def i_shift(self):
        return lattice_step(self.beta)

    @property
    def chi12(self):
        return 2 if self.beta == 2 else 1

    @property
    def extended_validity(self):
        """True when beta=1 and n is odd: the Pfaffian route behind the
        recurrences assumes even n, and the closed forms are evaluated at odd
        n by rational continuation."""
        return self.beta == 1 and self.n % 2 == 1

    def shifted(self, m):
        """Same ensemble at dimension n + m * i_shift (lattice point)."""
        step = self.i_shift
        if step is None:
            raise ValueError("beta=2 has no dimension lattice")
        return TransportParams(self.beta, self.alpha, self.delta, self.n + m * step)

    def with_n(self, n):
        return TransportParams(self.beta, self.alpha, self.delta, n)

    def describe(self):
        return {
            "beta": self.beta,
            "alpha": rational_str(self.alpha),
            "delta": rational_str(self.delta),
            "n": self.n,
        }


def default_delay_exponent(beta, n):
    """The physical weight exponent b = 3*beta*n/2 + 2 - beta."""
    return rat(3 * beta * n, 2) + 2 - beta


@dataclass(frozen=True)
class DelayParams:
    beta: int
    n: int
    b: object = field(default=None)

    def __post_init__(self):
        if self.beta not in _ALLOWED_BETA:
            raise ValueError(f"beta must be one of {_ALLOWED_BETA}, got {self.beta}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("n must be a positive integer")
        b = default_delay_exponent(self.beta, self.n) if self.b is None else rat(self.b)
        object.__setattr__(self, "b", b)

    @property
    def omega(self):
        """b - 2 - beta*(n-1); equals beta*n/2 at the default b."""
        return self.b - 2 - self.beta * (self.n - 1)

    @property
    def q(self):
        """Number of finite cumulants: floor(b - 2 - beta*(n-1))."""
        return floor_rational(self.omega)

    @property
    def eta14(self):
        return eta_factor(self.beta)

    @property
    def i_shift(self):
        return lattice_step(self.beta)

    @property
    def has_default_b(self):
        return self.b == default_delay_exponent(self.beta, self.n)

    def shifted(self, m):
        """Lattice point at dimension n + m * i_shift with the SAME b."""
        step = self.i_shift
        if step is None:
            raise ValueError("beta=2 has no dimension lattice")
        return DelayParams(self.beta, self.n + m * step, self.b)

    def describe(self):
        return {"beta": self.beta, "n": self.n, "b": rational_str(self.b)}
