"""Equality of the determinant oracle's values, for the tests.

``kneading_determinant`` returns D(t) as a pair ``(num, den_factors)``,
D = num / prod (1 - t^m) over the exponents m.  The same function has
many such pairs, so tests compare values by cross-multiplying.
"""
from quintic_newton.polynomials import IntPolynomial


def same_rational(a, b) -> bool:
    """Whether the pairs ``a`` and ``b`` stand for the same function of t."""
    (num_a, den_a), (num_b, den_b) = a, b
    for m in den_b:
        num_a = num_a * IntPolynomial.one_minus_t_power(m)
    for m in den_a:
        num_b = num_b * IntPolynomial.one_minus_t_power(m)
    return num_a == num_b
