"""Command-line interface: build families, verify claims, emit certificates.

Commands: primes, build, verify {pn|zs|leinert|qi}, norms, report,
witness-weak-sidon.  Exit codes: 0 all claims verified, 2 claim violated
(with witness), 3 budget refusal, 4 I/O or format error.  Verification always
recomputes from the stored exponents; cached construction data is ignored.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import math
import sys
from typing import Optional, Sequence

from . import __version__
from .builder import (
    FactorSubset,
    PROFILES,
    build_family,
    verify_pn_bruteforce,
)
from .certificates import (
    CertificateFile,
    CertificateFormatError,
    family_from_payload,
    family_to_payload,
    fmt_complex,
    fmt_float,
    make_provenance,
    read_certificate,
    write_certificate,
)
from .counting import (
    DEFAULT_SUBSET_BUDGET_BITS,
    DEFAULT_TUPLE_BUDGET,
    STRATEGY_MITM,
    STRATEGY_NAIVE,
    extract_quasi_independent,
    leinert_violation,
    z_value,
    zs_paper_target,
)
from .errors import BudgetExceeded
from .primes import FactorTable, smallest_admissible_prime
from .spectral import (
    DEFAULT_SPECTRAL_BUDGET,
    DEFAULT_TOLERANCE,
    density_lower_bound,
    fejer_coefficient,
    fejer_kernel,
    kernel_norm_check,
    leinert_lower_bound,
    transform,
    weak_sidon_witness,
)
from .words import canonical_key

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_BUDGET = 3
EXIT_IO = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit(2); keep 2 for violations
        raise _UsageError(message)


def _emit(args, kind: str, payload: dict, parameters: dict, seed=None, out=None) -> None:
    """Write the certificate to ``out`` (or ``--out``, if given) and say where."""
    timestamp = None
    if args.stamp:
        timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    provenance = make_provenance(__version__, parameters, seed=seed, timestamp=timestamp)
    out = out or args.out
    if out:
        write_certificate(out, CertificateFile(kind=kind, payload=payload, provenance=provenance))
        print(f"{'family' if kind == 'family' else 'certificate'} written: {out}")


@contextlib.contextmanager
def _budget_flag(flag: str):
    """Name ``flag`` in any budget refusal raised inside the block."""
    try:
        yield
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"{exc} (raise it with {flag})") from exc


def _load_family(path: str):
    cert = read_certificate(path)
    if cert.kind != "family":
        raise CertificateFormatError(f"expected a family certificate, got kind {cert.kind!r}")
    return family_from_payload(cert.payload)


def _zs_claim(family, strategy: str, budget: int) -> dict:
    """Z_s of the family union against ((s/2)!)^2; ``auto`` counts naively when cheap."""
    elements = family.union_words()
    s = family.s
    bound_half, bound_factorial = zs_paper_target(s)
    if strategy == "auto":
        naive_cost = math.perm(len(elements), s)
        strategy = STRATEGY_NAIVE if naive_cost <= min(budget, 250_000) else STRATEGY_MITM
    cert = z_value(elements, s, budget=budget, strategy=strategy)
    return {
        "bound_factorial": bound_factorial,
        "bound_half_square": bound_half,
        "ground_size": cert.ground_size,
        "holds": cert.value <= bound_half,
        "s": s,
        "strategy": cert.strategy,
        "tuples_examined": cert.tuples_examined,
        "value": cert.value,
        "witness_key": canonical_key(cert.witness).hex() if cert.witness else None,
    }


def _qi_claims(family, budget_bits: int):
    """Per nonempty factor: (result, witness, floor_bound, ok) of the greedy
    quasi-independent extraction against the ceil(log_3 |E_n|) floor."""
    for result in family.results:
        parent_size = len(result.subset.exponents)
        if not parent_size:
            continue
        witness = extract_quasi_independent(result.subset, budget_bits)
        floor_bound = math.ceil(math.log(parent_size, 3)) if parent_size > 1 else 0
        yield result, witness, floor_bound, witness.maximal and len(witness.subset) >= floor_bound


# ---------------------------------------------------------------- primes


def cmd_primes(args) -> int:
    print(f"{'n':>3} {'2^(n+1)':>20} {'p_n':>20}")
    for n in range(1, args.n_max + 1):
        p = smallest_admissible_prime(n)
        print(f"{n:>3} {2 ** (n + 1):>20} {p:>20}")
    return EXIT_OK


# ---------------------------------------------------------------- build


def cmd_build(args) -> int:
    n_min, n_max = PROFILES[args.profile].n_range(args.s, args.n_min, args.n_max)
    family = build_family(args.s, (n_min, n_max), args.profile, seed=args.seed)
    feasible = [r for r in family.results if r.feasible]
    for result in family.results:
        if result.feasible:
            status = "ok"
        elif family.seed is not None:
            status = "INFEASIBLE (seeded walk: dead end)"
        elif result.search_exhausted:
            status = "INFEASIBLE (exhausted)"
        else:
            status = f"INFEASIBLE (search budget: {result.nodes_searched} nodes)"
        print(
            f"n={result.n:>3} p={result.p:>8} target={result.target_size:>3} "
            f"achieved={len(result.subset):>3} pool=[1,{result.pool_bound}] {status}"
        )
    print(
        f"built {len(feasible)}/{len(family.results)} targets; "
        f"n_feasible={family.n_feasible}"
    )
    parameters = {
        "n_max": n_max,
        "n_min": n_min,
        "profile": args.profile,
        "s": args.s,
        "spectral_budget": DEFAULT_SPECTRAL_BUDGET,
        "subset_budget_bits": DEFAULT_SUBSET_BUDGET_BITS,
        "tolerance": fmt_float(DEFAULT_TOLERANCE),
        "tuple_budget": DEFAULT_TUPLE_BUDGET,
    }
    _emit(
        args,
        "family",
        family_to_payload(family),
        parameters,
        seed=args.seed,
        out=args.out or "family.json",
    )
    if not family.results or len(feasible) < len(family.results):
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------- verify


def _verify_pn(family, args) -> dict:
    claims = []
    holds = True
    for result in family.results:
        ok, witness = verify_pn_bruteforce(result.subset, family.s, args.budget_tuples)
        record = {
            "exponents": list(result.subset.exponents),
            "holds": ok,
            "n": result.n,
            "p": result.p,
        }
        if witness is not None:
            record["violating_epsilon"] = list(witness.entries)
            holds = False
        claims.append(record)
        state = "ok" if ok else f"VIOLATED by epsilon={list(witness.entries)}"
        print(f"pn n={result.n}: {state}")
    return {"claims": claims, "holds": holds, "s": family.s}


def _verify_zs(family, args) -> dict:
    claim = _zs_claim(family, args.strategy, args.budget_tuples)
    print(
        f"zs: Z_{claim['s']} = {claim['value']} over {claim['ground_size']} elements "
        f"({claim['strategy']}, {claim['tuples_examined']} tuples examined); "
        f"bounds ((s/2)!)^2 = {claim['bound_half_square']}, s! = {claim['bound_factorial']}: "
        f"{'ok' if claim['holds'] else 'VIOLATED'}"
    )
    return claim


def _verify_leinert(family, args, adhoc_subset: Optional[FactorSubset]) -> dict:
    if adhoc_subset is not None:
        s = 2 if args.s is None else args.s
        targets = [(1, adhoc_subset, FactorTable.explicit([adhoc_subset.order]))]
    else:
        s = family.s
        targets = [(r.n, r.subset, family.table) for r in family.results]
    searched = []
    first_witness = None
    for n, subset, table in targets:
        first_witness = leinert_violation(subset.words(table), s, budget=args.budget_tuples)
        searched.append({"exponents": list(subset.exponents), "n": n})
        if first_witness is not None:
            break
    holds = first_witness is None
    if holds:
        print(f"leinert: no 2s={2 * s} violation found (exhaustive)")
    else:
        exps = ["*".join(f"a_{f}^{e}" for f, e in w.pairs) for w in first_witness.elements]
        print(f"leinert: VIOLATION ({', '.join(exps)})")
    return {
        "holds": holds,
        "s": s,
        "searched": searched,
        "witness": None if holds else [
            [list(pair) for pair in w.pairs] for w in first_witness.elements
        ],
    }


def _verify_qi(family, args) -> dict:
    rows = []
    for result, witness, floor_bound, ok in _qi_claims(family, args.budget_subsets):
        rows.append(
            {
                "extracted": list(witness.subset),
                "floor_bound": floor_bound,
                "maximal": witness.maximal,
                "n": result.n,
                "ok": ok,
                "parent_size": len(witness.parent),
                "table_digest": witness.table_digest,
            }
        )
        print(
            f"qi n={result.n}: |F|={len(witness.subset)} >= {floor_bound} "
            f"maximal={witness.maximal} {'ok' if ok else 'VIOLATED'}"
        )
    return {"factors": rows, "holds": all(row["ok"] for row in rows)}


def cmd_verify(args) -> int:
    adhoc_subset = None
    family = None
    if args.exponents is not None or args.order is not None:
        if args.kind != "leinert":
            raise _UsageError("--exponents/--order are only supported for `verify leinert`")
        if args.exponents is None or args.order is None:
            raise _UsageError("--exponents and --order must be given together")
        exponents = tuple(sorted(int(x) for x in args.exponents.split(",")))
        adhoc_subset = FactorSubset(factor=1, order=args.order, exponents=exponents)
    else:
        if args.family is None:
            raise _UsageError("a family file is required (or --exponents/--order for leinert)")
        if args.s is not None:
            raise _UsageError(
                "--s applies only to ad-hoc leinert checks; a family file carries its own s"
            )
        family = _load_family(args.family)

    with _budget_flag("--budget-subsets" if args.kind == "qi" else "--budget-tuples"):
        if args.kind == "leinert":
            payload = _verify_leinert(family, args, adhoc_subset)
        else:
            verify = {"pn": _verify_pn, "zs": _verify_zs, "qi": _verify_qi}[args.kind]
            payload = verify(family, args)
    parameters = {
        "budget_subsets": args.budget_subsets,
        "budget_tuples": args.budget_tuples,
        "kind": args.kind,
        "source": args.family or "adhoc",
    }
    _emit(args, args.kind, payload, parameters)
    return EXIT_OK if payload["holds"] else EXIT_VIOLATION


# ---------------------------------------------------------------- norms


def kernel_order(scale: int) -> int:
    """Smallest order from the default prime rule exceeding 4 * scale."""
    i = 1
    while True:
        p = smallest_admissible_prime(i)
        if p > 4 * scale:
            return p
        i += 1


def cmd_norms(args) -> int:
    q_grid = [float(q) for q in args.q.split(",")] if args.q else [3.0, 4.0, 6.0, 10.0]
    scales = [args.scale] if args.scale else list(range(1, args.n_max + 1))
    all_ok = True
    kernels = []
    for n in scales:
        p = kernel_order(n)
        report = transform(fejer_kernel(n, p))
        qs = sorted(set(q_grid + [float(2 * n)]))
        checks = [kernel_norm_check(n, report, q, tolerance=args.tolerance) for q in qs]
        floor_ok = all(fejer_coefficient(n, j) >= 0.5 for j in range(1, n + 1))
        all_ok = all_ok and floor_ok and all(check.passed for check in checks)
        spectrum_values = [fmt_complex(z) for z in report.spectrum] if p <= 1024 else None
        print(
            f"scale n={n:>2} p={p:>5} ||K||_A={report.norm_a:.17g} "
            f"||K||_VN={report.norm_vn:.17g} floor>=1/2 on 1..n: {floor_ok}"
        )
        for check in checks:
            print(
                f"    q={check.q:<6g} ||K||_q' = {check.norm_lq_prime:.17g} <= "
                f"{check.interpolation_bound:.17g} <= (4n+1)^(1/q) = "
                f"{check.kernel_bound:.17g}  "
                f"{'ok' if check.passed else 'FAILED'}"
            )
        kernels.append(
            {
                "checks": [
                    {
                        "interpolation_bound": fmt_float(c.interpolation_bound),
                        "interpolation_holds": c.interpolation_holds,
                        "kernel_bound": fmt_float(c.kernel_bound),
                        "kernel_bound_holds": c.kernel_bound_holds,
                        "norm_lq_prime": fmt_float(c.norm_lq_prime),
                        "q": fmt_float(c.q),
                        "q_prime": fmt_float(c.q_prime),
                    }
                    for c in checks
                ],
                "floor_half_holds": floor_ok,
                "n": n,
                "norm_a": fmt_float(report.norm_a),
                "norm_vn": fmt_float(report.norm_vn),
                "p": p,
                "spectrum": spectrum_values,
            }
        )
    payload = {"kernels": kernels, "tolerance": fmt_float(args.tolerance)}
    _emit(args, "spectrum", payload, {"q": args.q or "3,4,6,10", "scales": scales})
    return EXIT_OK if all_ok else EXIT_VIOLATION


# ---------------------------------------------------------------- report


def cmd_report(args) -> int:
    family = _load_family(args.family)
    sections: dict[str, dict] = {}
    violated = False
    empty = not family.results

    print(f"=== family report: s={family.s} profile={family.profile} ===")

    rows = []
    for result in family.results:
        rows.append(
            {
                "achieved": len(result.subset),
                "feasible": result.feasible,
                "n": result.n,
                "p": result.p,
                "target": result.target_size,
            }
        )
        print(
            f"  n={result.n:>3} p={result.p:>8} |E_n|={len(result.subset):>3}"
            f"/{result.target_size:<3} {'ok' if result.feasible else 'infeasible'}"
        )
    sections["construction"] = {
        "n_feasible": family.n_feasible,
        "rows": rows,
        "status": "unverified (empty family)" if empty else "recorded",
    }

    if empty:
        for name in ("zs", "qi", "density"):
            sections[name] = {"status": "unverified (empty family)"}
            print(f"  {name}: unverified (empty family)")
    else:
        # tuple-count bound, recomputed fresh
        with _budget_flag("--budget-tuples"):
            claim = _zs_claim(family, "auto", args.budget_tuples)
        violated = violated or not claim["holds"]
        keys = ("bound_factorial", "bound_half_square", "holds", "strategy", "value")
        sections["zs"] = {"status": "verified", **{key: claim[key] for key in keys}}
        print(
            f"  zs: Z_{family.s} = {claim['value']} <= {claim['bound_half_square']} "
            f"[verified, {claim['strategy']}]"
        )

        # quasi-independent extraction and operator-norm lower bounds
        qi_rows = []
        density_rows = []
        with _budget_flag("--budget-subsets"):
            qi_claims = list(_qi_claims(family, args.budget_subsets))
        for result, witness, floor_bound, ok in qi_claims:
            n = result.n
            lower = leinert_lower_bound(
                FactorSubset(result.subset.factor, result.subset.order, witness.subset)
            )
            violated = violated or not ok
            qi_rows.append(
                {
                    "extracted_size": len(witness.subset),
                    "floor_bound": floor_bound,
                    "leinert_lower_bound": fmt_float(lower),
                    "maximal": witness.maximal,
                    "n": n,
                    "parent_size": len(witness.parent),
                }
            )
            q = float(2 * n)
            dens = density_lower_bound(result.subset, n, q)
            density_rows.append({"n": n, "q": fmt_float(q), "window": n, "bound": fmt_float(dens)})
            print(
                f"  qi n={n}: |F|={len(witness.subset)} >= {floor_bound}, "
                f"leinert constant >= {lower:.17g} [verified]"
            )
        sections["qi"] = {"rows": qi_rows, "status": "verified"}
        sections["density"] = {"rows": density_rows, "status": "verified"}
        for row in density_rows:
            print(
                f"  density n={row['n']}: Lambda({row['q']}) constant >= {row['bound']} "
                f"[verified]"
            )

    ws_rows = []
    for c in (1, 2, 4):
        witness = weak_sidon_witness(c)
        violated = violated or not witness.holds
        ws_rows.append(
            {
                "c": c,
                "holds": witness.holds,
                "lhs_n_squared": witness.lhs,
                "n": witness.n,
                "rhs": str(witness.rhs),
            }
        )
        print(
            f"  weak-sidon C={c}: first failing scale n={witness.n}, "
            f"{witness.lhs} > {witness.rhs} [verified]"
        )
    sections["weak_sidon"] = {"rows": ws_rows, "status": "verified"}

    sections["conclusions"] = {
        "status": "asserted-by-theory",
        "statements": [
            "a finite tuple-count bound at every even order makes the union a "
            "completely bounded Lambda(p) set for all finite p (standard criterion)",
            "unbounded quasi-independent subsets are incompatible with a finite "
            "Leinert constant, so the full family is not a Leinert set",
            "the density lower bound grows without bound along the family, so no "
            "single weak-Sidon constant can serve the whole family",
        ],
    }
    for statement in sections["conclusions"]["statements"]:
        print(f"  theory: {statement}")

    _emit(args, "report", {"sections": sections}, {"source": args.family})
    return EXIT_VIOLATION if violated else EXIT_OK


# ---------------------------------------------------------------- weak sidon


def cmd_witness_weak_sidon(args) -> int:
    rows = []
    for raw in args.constants:
        witness = weak_sidon_witness(raw)
        rows.append(
            {
                "c": str(witness.c),
                "holds": witness.holds,
                "lhs_n_squared": witness.lhs,
                "n": witness.n,
                "rhs_40c2n": str(witness.rhs),
            }
        )
        print(
            f"C={witness.c}: n={witness.n}, n^2 = {witness.lhs} > 40 C^2 n = {witness.rhs} "
            f"{'ok' if witness.holds else 'FAILED'}"
        )
    _emit(args, "report", {"weak_sidon": rows}, {"constants": list(args.constants)})
    return EXIT_OK if all(r["holds"] for r in rows) else EXIT_VIOLATION


# ---------------------------------------------------------------- parser


def build_parser() -> _Parser:
    parser = _Parser(prog="freelac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by several commands, declared once
    output = _Parser(add_help=False)
    output.add_argument("--out", default=None)
    output.add_argument("--stamp", action="store_true", help="record a wall-clock timestamp")
    budgets = _Parser(add_help=False)
    budgets.add_argument("--budget-tuples", type=int, default=DEFAULT_TUPLE_BUDGET)
    budgets.add_argument("--budget-subsets", type=int, default=DEFAULT_SUBSET_BUDGET_BITS)

    p_primes = sub.add_parser("primes", help="print the factor-order prime table")
    p_primes.add_argument("n_max", type=int)
    p_primes.set_defaults(func=cmd_primes)

    p_build = sub.add_parser(
        "build", parents=[output], help="build a family and write its certificate"
    )
    p_build.add_argument("--s", type=int, default=2)
    p_build.add_argument("--n-min", type=int, default=None)
    p_build.add_argument("--n-max", type=int, default=None)
    p_build.add_argument("--profile", choices=sorted(PROFILES), default="desk")
    p_build.add_argument("--seed", type=int, default=None)
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser(
        "verify", parents=[budgets, output], help="re-verify a claim from a family file"
    )
    p_verify.add_argument("kind", choices=("pn", "zs", "leinert", "qi"))
    p_verify.add_argument("family", nargs="?", default=None)
    p_verify.add_argument(
        "--s", type=int, default=None, help="s of an ad-hoc leinert check (default 2)"
    )
    p_verify.add_argument("--exponents", default=None, help="ad-hoc set, e.g. 1,2,3,4 (leinert)")
    p_verify.add_argument("--order", type=int, default=None, help="cyclic order for --exponents")
    p_verify.add_argument("--strategy", choices=("auto", STRATEGY_NAIVE, STRATEGY_MITM), default="auto")
    p_verify.set_defaults(func=cmd_verify)

    p_norms = sub.add_parser(
        "norms", parents=[output], help="kernel norms and interpolation checks"
    )
    p_norms.add_argument("--scale", type=int, default=None)
    p_norms.add_argument("--n-max", type=int, default=8)
    p_norms.add_argument("--q", default=None, help="comma-separated q grid (default 3,4,6,10)")
    p_norms.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p_norms.set_defaults(func=cmd_norms)

    p_report = sub.add_parser(
        "report", parents=[budgets, output], help="end-to-end narrative for a family file"
    )
    p_report.add_argument("family")
    p_report.set_defaults(func=cmd_report)

    p_ws = sub.add_parser(
        "witness-weak-sidon",
        parents=[output],
        help="integer witnesses against weak-Sidon constants",
    )
    p_ws.add_argument("constants", nargs="+", help="constants C (decimal strings stay exact)")
    p_ws.set_defaults(func=cmd_witness_weak_sidon)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BudgetExceeded as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CertificateFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, OverflowError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_IO


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
