"""Small deterministic integer number theory: primality, factorization, primes.

Everything here is exact and seed-free.  Factorization uses trial division
for small factors, then a perfect-power test, a primality test, and Brent's
cycle-finding variant of Pollard rho (with a fixed parameter schedule and a
fixed budget) for anything left over, so results are reproducible across
runs and platforms.  A prime power reaches the primality test only as its
root.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal

# the trial-division screen of is_prime, and its Miller-Rabin witnesses from
# 2^64 on: deterministic below psi_12, the least strong pseudoprime to all
# twelve (Sorenson & Webster 2017)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 3317044064679887385961981
# Jim Sinclair's seven bases: deterministic below 2^64, each reduced mod n
# and skipped when that leaves 0
_MR_WITNESSES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

# squarings Pollard rho may spend per factorization: about 2.3 times what psi_12 needs
_RHO_BUDGET = 2**22


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test, Selfridge's parameters, odd n > 37."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # |D| < n shares a factor with n
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k of the sequence with P = 1, and Q^k, for the leading bits of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U, V = (U + n * (U & 1)) // 2 % n, (V + n * (V & 1)) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


@functools.lru_cache(maxsize=32)
def is_prime(n: int) -> bool:
    """Primality test: proven below psi_12 = 3317044064679887385961981.

    Below 2^64, Miller-Rabin with Sinclair's seven bases is deterministic;
    below psi_12, so is Miller-Rabin with the first twelve primes as
    witnesses.  From psi_12 on, a strong Lucas test is added, which makes
    it the Baillie-PSW test: no composite is known to pass it, but that is
    not a proof.  The last few answers are kept, so a prime that `factorize`
    has just proven is not proven again by `newton_polygon`'s input check.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES_64 if n < 1 << 64 else _SMALL_PRIMES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_12 or _strong_lucas(n)


@functools.cache
def word_prime(i: int) -> int:
    """The (i+1)-th largest prime below 2^61, found on first use; call in order of i.

    The one source of word-size moduli for the multi-modular algorithms.
    """
    p = word_prime(i - 1) - 2 if i else 2**61 - 1
    while not is_prime(p):
        p -= 2
    return p


class FactorizationError(ArithmeticError):
    """Pollard rho spent its whole budget without splitting a composite ``n``."""

    def __init__(self, n: int):
        self.n = n
        self.digits = Decimal(n).adjusted() + 1  # str(n) stops at 4300 digits
        super().__init__(
            f"cannot factor a {self.digits}-digit integer: Pollard rho found no factor "
            f"within {_RHO_BUDGET} squarings"
        )


def _pollard_rho(n: int, budget: int) -> tuple[int, int]:
    """A non-trivial factor of composite odd n (Brent's variant), and the squarings spent.

    Raises FactorizationError instead of spending more than ``budget`` squarings.
    """
    spent = 0

    def spend(k: int) -> None:
        nonlocal spent
        spent += k
        if spent > budget:
            raise FactorizationError(n)

    # fixed schedule of polynomial offsets keeps this deterministic
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            spend(r)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                spend(min(m, r - k))
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                spend(1)
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, spent
    raise FactorizationError(n)


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int] | None:
    """(r, k) with n = r^k and k prime, for n with no prime factor below 2^10; else None.

    Such an r is at least 2^10, so k is below log2(n) / 10.
    """
    for k in primes((n.bit_length() - 1) // 10):
        if (r := _iroot(n, k)) ** k == n:
            return r, k
    return None


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as an ordered {prime: exponent} dict.

    Trial division by the primes below 2^10; then each cofactor is either
    a perfect k-th power (k prime), prime, or split by Pollard rho.  The
    power test comes first, so a prime power p^k reaches `is_prime` only as
    p and never reaches rho.  Rho spends at most _RHO_BUDGET squarings per
    call, enough for psi_12's two 13-digit factors; past it
    FactorizationError is raised.
    """
    n = abs(n)
    if n <= 1:
        return {}
    factors: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    budget = _RHO_BUDGET
    stack = [(n, 1)] if n > 1 else []
    while stack:
        n, e = stack.pop()
        if root := _perfect_power(n):
            stack.append((root[0], e * root[1]))
        elif is_prime(n):
            factors[n] = factors.get(n, 0) + e
        else:
            d, spent = _pollard_rho(n, budget)
            budget -= spent
            stack.append((d, e))
            stack.append((n // d, e))
    return dict(sorted(factors.items()))


def prime_divisors(n: int) -> list[int]:
    """Ascending list of the primes dividing |n|."""
    return list(factorize(n))


def primes(limit: int) -> list[int]:
    """The primes up to limit >= 0, ascending, by Eratosthenes' sieve."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 1)
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(sieve[p * p :: p]))
    return [p for p, is_p in enumerate(sieve) if is_p]


# factorize trial-divides by the primes below 2^10
_TRIAL_PRIMES = tuple(primes(2**10 - 1))
