"""Deformed Hermite polynomials: recurrence, weighted norms, classical limit."""
import argparse

import numpy as np

from qcore import QContext
from qhermite import classical_limit_gap, hermite_gram, qhermite_recurrence


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument("--kmax", type=int, default=6)
    args = ap.parse_args()

    ctx = QContext(q=args.q)
    polys = qhermite_recurrence(args.kmax, ctx)

    print(f"coefficients at q = {args.q} (constant term first)")
    for k, p in enumerate(polys):
        print(f"  H_{k}: {np.array2string(np.asarray(p.coeffs), precision=6)}")
    print()

    print("weighted Gram against the closed-form norms Lambda_k")
    print("  k   <H_k, H_k>        Lambda_k          rel gap")
    gram, lambdas = hermite_gram(args.kmax, ctx)
    for k, lam in enumerate(lambdas):
        got = gram[k, k]
        print(f"  {k}   {got:.12e}  {lam:.12e}  {abs(got - lam) / lam:.2e}")
    worst_off = np.max(np.abs(gram - np.diag(np.diag(gram))))
    print(f"  largest off-diagonal magnitude: {worst_off:.2e}")
    print()

    print("approach to the classical family (worst relative coefficient gap, k <= 5)")
    for eps in (1e-2, 1e-3, 1e-4, 1e-6):
        gap = classical_limit_gap(5, QContext(q=1.0 - eps))
        print(f"  q = 1 - {eps:.0e}: gap = {gap:.3e}")
    print("the gap shrinks linearly in 1 - q, so tight classical agreement")
    print("needs q extremely close to 1")


if __name__ == "__main__":
    main()
