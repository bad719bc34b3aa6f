"""Tour of the scalar q-calculus layer.

Prints q-numbers against their classical values, differentiates a few
polynomials, and closes the loop with the fundamental theorem for the
Jackson integral.
"""
import numpy as np

from qcore import (
    QContext,
    big_e_variant,
    jackson_integral,
    q_derivative,
    q_exp,
    q_factorial,
    q_number,
    small_e_variant,
)


def main():
    ctx = QContext(q=0.5)

    print("q-numbers at q = 0.5 (classical value in parentheses)")
    for n in range(1, 9):
        print(f"  [{n}] = {q_number(n, ctx):.6f}  ({n})")
    print(f"  [10]! = {q_factorial(10, ctx):.6f}")
    print()

    print("q-derivative of x^3 on a few points, exact answer is [3] x^2")
    for x in (0.5, 1.0, 2.0):
        got = q_derivative(lambda t: t**3, x, ctx)
        want = q_number(3, ctx) * x * x
        print(f"  x = {x:4.1f}: D f = {got:.10f}, [3] x^2 = {want:.10f}")
    print()

    print("fundamental theorem: integral of D f over [a, b] vs f(b) - f(a)")
    coeffs = np.array([0.3, -1.0, 0.0, 2.0, 0.7])

    def f(t):
        # array-valued: the Jackson sum calls it once on the whole node vector
        return np.polyval(coeffs[::-1], t)

    a, b = 0.25, 1.5
    got = jackson_integral(lambda t: q_derivative(f, t, ctx), a, b, ctx)
    print(f"  integral = {got:.12f}")
    print(f"  f(b)-f(a) = {f(b) - f(a):.12f}")
    print()

    print("the two exponentials multiply to one: E(t) e(-t)")
    big, small = big_e_variant(ctx.q), small_e_variant(ctx.q)
    for t in (-1.0, -0.25, 0.5, 1.2):
        prod = q_exp(big, t) * q_exp(small, -t)
        print(f"  t = {t:5.2f}: {prod:.12f}")

    print()
    print("zeros of the small exponential sit on the ladder q^-k/(q-1)")
    for k in range(4):
        t = ctx.q ** (-k) / (ctx.q - 1.0)
        print(f"  k = {k}: e({t:9.3f}) = {q_exp(small, t):.3e}")


if __name__ == "__main__":
    main()
