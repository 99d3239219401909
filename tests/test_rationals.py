"""The prime sieve against the trial division it replaced."""

import pytest

from triforms.rationals import primes

from oracles import primes_by_trial_division


@pytest.mark.parametrize("lo, hi", [
    (-7, 1), (0, 1), (1, 1), (-3, 12),          # lo <= 1
    (10, 5), (3, 2), (-10, -2),                 # hi < lo
    (2, 2), (13, 13), (4, 4), (91, 91),         # lo = hi
    (21, 3000),
    (10 ** 9, 10 ** 9 + 100),
    (10 ** 11, 10 ** 11 + 100),
])
def test_sieve_matches_trial_division(lo, hi):
    assert primes(lo, hi) == primes_by_trial_division(lo, hi)
