"""High-precision reference values for the geometric DGE laws, from the formulas.

Everything here is written from the definitions of the two laws, not from
the package under test:

    base CDF      A(x) = (1 - p**(x+1))**alpha        (A(-1) = 0)
    univariate    F(x) = theta*A(x) / (1 - (1-theta)*A(x))
                  f(x) = F(x) - F(x-1)
    bivariate     F(x, y) = theta*A1(x)*A2(y) / (1 - (1-theta)*A1(x)*A2(y))
                  f(x, y) = F(x,y) - F(x-1,y) - F(x,y-1) + F(x-1,y-1)

The differences cancel: in the deep tail every CDF value is within f of 1,
so a fixed working precision returns garbage once f drops below its
resolution.  Each evaluation therefore picks its own precision from a
cancellation-free lower bound on the probability it must resolve:

    A(x) - A(x-1) >= alpha * (1-p) * p**x * min((1-p**x)**(alpha-1), (1-p**(x+1))**(alpha-1))

(mean value theorem on s -> (1-s)**alpha), f(x) >= theta*(A(x) - A(x-1)) and
f(x, y) >= theta*(A1(x)-A1(x-1))*(A2(y)-A2(y-1)) (the one-copy term of the
geometric mixture).  Working with ``GUARD`` digits beyond the digits lost
to that cancellation, and to the ``1 - (1-theta)*w`` denominators, leaves
every returned probability with at least ``GUARD`` correct digits.

Values are mpmath numbers; callers convert with ``float``.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp, mpf

#: Correct significant digits every returned probability keeps.
GUARD = 30


def _digits_below(value) -> int:
    """Decimal digits between 1 and a positive mpf ``value`` (0 if >= 1)."""
    if value <= 0:
        raise ValueError("probability lower bound must be positive")
    return max(0, int(math.ceil(-float(mpmath.log10(value)))))


def _gap_lower_bound(alpha, p, x: int):
    """Cancellation-free lower bound on A(x) - A(x-1) of one base law."""
    if x == 0:
        return (1 - p) ** alpha
    # (1 - s)**(alpha - 1) over s in [p**(x+1), p**x]: smallest at the left
    # end of 1 - s when alpha >= 1, at the right end otherwise
    edge = 1 - p ** x if alpha >= 1 else 1 - p ** (x + 1)
    return alpha * (1 - p) * p ** x * edge ** (alpha - 1)


def _dps_for(lower_bound, theta) -> int:
    return GUARD + _digits_below(lower_bound) + _digits_below(theta) + 5


def _base_cdf(alpha, p, x: int):
    if x < 0:
        return mpf(0)
    return (1 - p ** (x + 1)) ** alpha


class UniLaw:
    """The univariate law at exact (binary) parameter values."""

    def __init__(self, alpha: float, p: float, theta: float):
        self.alpha, self.p, self.theta = mpf(alpha), mpf(p), mpf(theta)

    def _cdf(self, x: int):
        a = _base_cdf(self.alpha, self.p, x)
        return self.theta * a / (1 - (1 - self.theta) * a)

    def pmf(self, x: int):
        with mp.workdps(20):
            bound = self.theta * _gap_lower_bound(self.alpha, self.p, x)
        with mp.workdps(_dps_for(bound, self.theta)):
            return +(self._cdf(x) - self._cdf(x - 1))

    def cdf(self, x: int):
        with mp.workdps(GUARD + _digits_below(self.theta) + 5):
            return +self._cdf(x)

    def sf_bound(self, x: int):
        """Upper bound on P(X >= x): (1 - A(x-1)) / theta <= alpha*p**x/theta."""
        return max(self.alpha, 1) * self.p ** x / self.theta

    def loglik(self, counts: dict):
        """Sum of ``mult * log f(x)`` over a {value: multiplicity} map."""
        total = mpf(0)
        for x, mult in counts.items():
            f = self.pmf(x)
            with mp.workdps(GUARD):
                total += mult * mpmath.log(f)
        return total

    def moment(self, r: int, rel: float = 1e-25):
        """E X**r by direct summation, stopped by the geometric tail bound."""
        total = mpf(0)
        x = 0
        while True:
            x += 1
            term = self.pmf(x)
            with mp.workdps(GUARD):
                total += mpf(x) ** r * term
            # sum_{k>x} k**r P(X=k) <= sum_{k>x} k**r * sf_bound(k)
            with mp.workdps(20):
                ratio = self.p * (mpf(x + 2) / (x + 1)) ** r
                if ratio < 1:
                    tail = mpf(x + 1) ** r * self.sf_bound(x + 1) / (1 - ratio)
                    if tail < rel * total:
                        return total


class BivLaw:
    """The bivariate law at exact (binary) parameter values."""

    def __init__(self, alpha1, p1, alpha2, p2, theta):
        self.a1, self.p1 = mpf(alpha1), mpf(p1)
        self.a2, self.p2 = mpf(alpha2), mpf(p2)
        self.theta = mpf(theta)

    def _cdf(self, x: int, y: int):
        w = _base_cdf(self.a1, self.p1, x) * _base_cdf(self.a2, self.p2, y)
        return self.theta * w / (1 - (1 - self.theta) * w)

    def _pmf_dps(self, x: int, y: int) -> int:
        with mp.workdps(20):
            bound = (
                self.theta
                * _gap_lower_bound(self.a1, self.p1, x)
                * _gap_lower_bound(self.a2, self.p2, y)
            )
        return _dps_for(bound, self.theta)

    def pmf(self, x: int, y: int):
        with mp.workdps(self._pmf_dps(x, y)):
            return +(
                self._cdf(x, y) - self._cdf(x - 1, y) - self._cdf(x, y - 1) + self._cdf(x - 1, y - 1)
            )

    def cdf(self, x: int, y: int):
        with mp.workdps(GUARD + _digits_below(self.theta) + 5):
            return +self._cdf(x, y)

    def loglik(self, counts: dict):
        """Sum of ``mult * log f(x, y)`` over a {(x, y): multiplicity} map."""
        total = mpf(0)
        for (x, y), mult in counts.items():
            f = self.pmf(x, y)
            with mp.workdps(GUARD):
                total += mult * mpmath.log(f)
        return total

    def pgf(self, z1: float, z2: float, rel: float = 1e-25):
        """E z1**X z2**Y for 0 <= z_i < 1, by summation by parts on the CDF.

        Since f is the double difference of F,
        ``E z1**X z2**Y = (1-z1)(1-z2) * sum_{x,y>=0} F(x,y) z1**x z2**y``;
        F needs no cancellation, and the part outside [0,X)x[0,Y) is at most
        ``z1**X/(1-z1) + z2**Y/(1-z2)`` before the (1-z1)(1-z2) factor.
        """
        z1, z2 = mpf(z1), mpf(z2)
        if not (0 <= z1 < 1 and 0 <= z2 < 1):
            raise ValueError("reference pgf needs 0 <= z < 1")
        with mp.workdps(GUARD + _digits_below(self.theta) + 5):
            nx = int(math.ceil(math.log(float(rel) * (1 - float(z1))) / math.log(max(float(z1), 1e-300)))) + 2
            ny = int(math.ceil(math.log(float(rel) * (1 - float(z2))) / math.log(max(float(z2), 1e-300)))) + 2
            ax = [_base_cdf(self.a1, self.p1, x) for x in range(nx)]
            by = [_base_cdf(self.a2, self.p2, y) for y in range(ny)]
            tau = 1 - self.theta
            total = mpf(0)
            zx = mpf(1)
            for a in ax:
                zy = mpf(1)
                row = mpf(0)
                for b in by:
                    w = a * b
                    row += w / (1 - tau * w) * zy
                    zy *= z2
                total += row * zx
                zx *= z1
            return self.theta * (1 - z1) * (1 - z2) * total

    def cond_n_mean(self, x: int, y: int, rel: float = 1e-25):
        """E[N | X=x, Y=y] for the latent count N, by direct summation.

        ``P(N=n, X=x, Y=y) = theta*(1-theta)**(n-1) * (A1(x)**n - A1(x-1)**n)
        * (A2(y)**n - A2(y-1)**n)``.  With ``w = A1(x)*A2(y)`` and
        ``r = (1-theta)*w``, the numerator's terms past n sum to at most
        ``w * r**n * ((n+1) - n*r) / (1-r)**2``.
        """
        with mp.workdps(self._pmf_dps(x, y)):
            u, u_ = _base_cdf(self.a1, self.p1, x), _base_cdf(self.a1, self.p1, x - 1)
            v, v_ = _base_cdf(self.a2, self.p2, y), _base_cdf(self.a2, self.p2, y - 1)
            tau = 1 - self.theta
            if tau == 0:
                return mpf(1)
            r = tau * u * v
            num = den = mpf(0)
            n = 0
            while True:
                n += 1
                term = tau ** (n - 1) * (u ** n - u_ ** n) * (v ** n - v_ ** n)
                num += n * term
                den += term
                tail = u * v * r ** n * ((n + 1) - n * r) / (1 - r) ** 2
                if tail < rel * num:
                    return num / den


def chi2_upper(stat: float, df: int) -> float:
    """Upper tail probability of chi-square(df) at stat."""
    with mp.workdps(30):
        return float(mpmath.gammainc(mpf(df) / 2, mpf(stat) / 2, mpmath.inf, regularized=True))
