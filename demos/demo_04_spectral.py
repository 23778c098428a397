#!/usr/bin/env python3
"""Kernel norms, interpolation bounds, and the density / weak-Sidon chains.

The triangular kernel of width 2n has algebra norm 1 and operator norm 2n,
so interpolation caps its dual q'-norm by (4n+1)^(1/q).  Pairing it against
a built set's window indicator turns set density into a certified lower
bound on the Lambda(q) constant, and substituting q = 2n into the resulting
inequality produces the exact integer witnesses against any weak-Sidon
constant.

An indicator's spectrum peaks at k = 0, so ||1_F||_VN = |F| exactly.  The
Leinert lower bound ||1_F||_VN / sqrt(|F|) of a quasi-independent F is
therefore sqrt(|F|) from that identity, and the 6 sqrt(6) Sidon check
|F| <= 6 sqrt(6) ||1_F||_VN holds for every such F: it certifies only that
F is quasi-independent.
"""

from freelac import (
    CyclicFunction,
    build_family,
    density_lower_bound,
    fejer_kernel,
    holder_check,
    kernel_norm_check,
    leinert_lower_bound,
    FactorSubset,
    extract_quasi_independent,
    sidon_qi_check,
    transform,
    weak_sidon_witness,
)
from freelac.cli import kernel_order


def main():
    print("=" * 72)
    print("  triangular kernel: ||K||_A = 1, ||K||_VN = 2n, dual norm capped")
    print("=" * 72)
    dual_header = "||K||_q' (q=4)"
    print(f"{'n':>3} {'p':>5} {'||K||_A':>10} {'||K||_VN':>10} "
          f"{dual_header:>15} {'(4n+1)^(1/4)':>13}")
    for n in range(1, 9):
        p = kernel_order(n)
        report = transform(fejer_kernel(n, p))
        check = kernel_norm_check(n, report, 4.0)
        flag = "ok" if check.passed else "FAIL"
        print(f"{n:>3} {p:>5} {report.norm_a:>10.6f} {report.norm_vn:>10.4f} "
              f"{check.norm_lq_prime:>15.10f} {check.kernel_bound:>13.10f} {flag}")

    family = build_family(2, (8, 16), "desk")
    print()
    print("=" * 72)
    print("  window density against the kernel: M/2 <= <K, 1_E> <= ||K||_q' ||1_E||_q")
    print("=" * 72)
    q = 4.0
    for result in family.results[:4]:
        n = result.n
        p = result.p
        window = [e for e in result.subset.exponents if e <= n]
        kernel = fejer_kernel(n, p)
        chk = holder_check(kernel, CyclicFunction.indicator(p, window), q)
        print(f"E_{n} window [1,{n}]: M={len(window)}, M/2={len(window) / 2:.1f} <= "
              f"{chk.pairing.real:.6f} <= {chk.bound:.6f}")

    print()
    print("=" * 72)
    print("  certified lower bounds extracted from the built family")
    print("=" * 72)
    print("  (Leinert bound = ||1_F||_VN / sqrt|F| = sqrt|F|, F quasi-independent)")
    print(f"{'n':>3} {'Lambda(2n) const >=':>20} {'QI size':>8} {'Leinert const >=':>17}")
    for result in family.results:
        n = result.n
        dens = density_lower_bound(result.subset, n, 2.0 * n)
        qi = extract_quasi_independent(result.subset)
        qi_subset = FactorSubset(result.subset.factor, result.subset.order, qi.subset)
        lower = leinert_lower_bound(qi_subset)
        assert sidon_qi_check(qi_subset).holds
        print(f"{n:>3} {dens:>20.10f} {len(qi.subset):>8} {lower:>17.10f}")
    print("both columns grow along the family: no single Leinert or weak-Sidon")
    print("constant can serve every factor at once")

    print()
    print("=" * 72)
    print("  exact integer witnesses against a weak-Sidon constant C")
    print("=" * 72)
    for c in ("0", "1", "2", "4", "1.5"):
        w = weak_sidon_witness(c)
        print(f"C={c:>4}: n = {w.n:>6},  n^2 = {w.lhs} > 40 C^2 n = {w.rhs}")


if __name__ == "__main__":
    main()
