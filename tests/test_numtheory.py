import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algentropy import numtheory
from algentropy.numtheory import (
    FactorizationError,
    _strong_lucas,
    factorize,
    is_prime,
    prime_divisors,
    primes,
    word_prime,
)

from oracles import totients, trial_division_factorize, twelve_witness_is_prime

# the least strong pseudoprime to the first twelve prime bases
PSI_12 = 3317044064679887385961981


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(-3, 42):
        assert is_prime(n) == (n in primes)


def test_is_prime_carmichael_and_big():
    assert not is_prime(561)
    assert not is_prime(1729)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


def test_is_prime_past_the_deterministic_witnesses():
    # every one of the twelve Miller-Rabin witnesses passes psi_12
    assert not is_prime(PSI_12)
    assert [is_prime(2**k - 1) for k in (89, 107, 127)] == [True, True, True]
    assert not is_prime((2**89 - 1) * (2**107 - 1))
    assert not is_prime((2**61 - 1) ** 2)


# strong pseudoprimes to base 2 below 2^64, among them 3825123056546413051,
# a strong pseudoprime to the first nine prime bases
_BASE_2_PSEUDOPRIMES = (2047, 3277, 4033, 1373653, 25326001, 3215031751, 2152302898747,
                        3474749660383, 341550071728321, 3825123056546413051)


_odd_32 = st.integers(1, 2**31 - 1).map(lambda k: 2 * k + 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**64 - 1)
    | _odd_32
    | st.tuples(_odd_32, _odd_32).map(lambda t: t[0] * t[1])
    | st.sampled_from(_BASE_2_PSEUDOPRIMES)
    | st.integers(1, 200).map(lambda k: 2**61 - 1 - 2 * k)
)
def test_is_prime_below_2_64_matches_twelve_witnesses(n):
    # below 2^64 is_prime uses Sinclair's seven bases, reduced mod n
    assert is_prime(n) == twelve_witness_is_prime(n)


def test_is_prime_seven_bases_reject_strong_pseudoprimes():
    assert [n for n in _BASE_2_PSEUDOPRIMES if is_prime(n)] == []
    # a base that is 0 mod a prime (73, 193, 407521, 299210837 divide some)
    # is skipped; 2^64 - 59 is the largest prime below 2^64
    primes = (41, 73, 193, 407521, 299210837, 2**31 - 1, 2**61 - 1, 2**64 - 59)
    assert [p for p in primes if not is_prime(p)] == []


def test_strong_lucas_pseudoprimes_below_10000():
    # OEIS A217255: the odd composites below 10^4 that pass
    composite = [n for n in range(39, 10_000, 2) if any(n % p == 0 for p in range(3, 100, 2) if p < n)]
    assert [n for n in composite if _strong_lucas(n)] == [5459, 5777]
    assert all(_strong_lucas(n) for n in (9973, 9967, 7919, 101))


def test_factorize_psi_12():
    assert factorize(PSI_12) == {1287836182261: 1, 2575672364521: 1}


def test_factorize_roundtrip():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(2, 10**9)
        factors = factorize(n)
        product = 1
        for p, e in factors.items():
            assert is_prime(p)
            product *= p**e
        assert product == n


def test_factorize_large_smooth_and_semiprime():
    n = 2**30 * 3**20 * 7**5
    assert factorize(n) == {2: 30, 3: 20, 7: 5}
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q) == {p: 1, q: 1}


def _prime_at_most(k):
    while trial_division_factorize(k) != {k: 1}:
        k -= 1
    return k


# primes below 2^20, and primes just below and above the 2^10 trial-division bound
_factor_primes = st.one_of(
    st.integers(2, 2**20 - 1).map(_prime_at_most),
    st.sampled_from((1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051)),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_factor_primes, st.integers(1, 4)), max_size=4))
def test_factorize_matches_trial_division(parts):
    n = math.prod(p**e for p, e in parts)
    expected = Counter()
    for p, e in parts:
        expected[p] += e
    assert factorize(n) == trial_division_factorize(n) == dict(expected)
    assert list(factorize(n)) == sorted(expected)


def _is_perfect_power(n: int) -> bool:
    return any(numtheory._iroot(n, k) ** k == n for k in range(2, n.bit_length() + 1))


def test_factorize_finds_prime_powers_without_rho(monkeypatch):
    def no_rho(n, budget):
        raise AssertionError(f"rho called on {n}")

    tested = []

    def recording_is_prime(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr(numtheory, "_pollard_rho", no_rho)
    monkeypatch.setattr(numtheory, "is_prime", recording_is_prime)
    q = 2**61 - 1
    assert factorize(46349**2) == {46349: 2}
    assert factorize(1031**7) == {1031: 7}
    assert factorize(3**5 * 1033**6) == {3: 5, 1033: 6}
    assert factorize(q**3) == {q: 3}
    assert factorize(7 * q**2) == {7: 1, q: 2}
    assert factorize(1021**2 * 1019) == {1019: 1, 1021: 2}  # trial division alone
    # the power test runs first, so a prime power reaches is_prime only as its root
    assert sorted(tested) == [1031, 1033, 46349, q, q]
    assert not any(_is_perfect_power(n) for n in tested)


def test_rho_budget_raises_a_named_error(monkeypatch):
    monkeypatch.setattr(numtheory, "_RHO_BUDGET", 2**10)
    n = (2**31 - 1) * (2**61 - 1)
    with pytest.raises(FactorizationError) as info:
        factorize(n)
    assert info.value.n == n and info.value.digits == len(str(n)) == 28
    assert "28-digit" in str(info.value)
    assert factorize(1_000_003 * 1_000_033) == {1_000_003: 1, 1_000_033: 1}


def test_word_primes_descend_from_the_mersenne_prime():
    primes = [word_prime(i) for i in range(4)]
    assert primes[0] == 2**61 - 1
    assert all(is_prime(p) for p in primes) and primes == sorted(primes, reverse=True)
    assert not any(is_prime(n) for n in range(primes[1] + 2, primes[0], 2))
    # the first 21, as the twelve-witness test finds them
    expected = [2**61 - 1]
    while len(expected) < 21:
        p = expected[-1] - 2
        while not twelve_witness_is_prime(p):
            p -= 2
        expected.append(p)
    assert [word_prime(i) for i in range(21)] == expected


def test_prime_divisors_sorted():
    assert prime_divisors(60) == [2, 3, 5]
    assert prime_divisors(-10) == [2, 5]
    assert prime_divisors(1) == []


def test_primes():
    # Eratosthenes against the totient sieve: p is prime exactly when totient(p) = p - 1
    assert primes(0) == primes(1) == [] and primes(2) == [2]
    tot = totients(3000)
    for limit in [*range(101), 1023, 3000]:
        assert primes(limit) == [p for p in range(2, limit + 1) if tot[p] == p - 1], limit
