"""Command-line interface: build families, verify claims, emit certificates.

Commands: primes, build, verify {pn|zs|leinert|qi}, norms, report,
witness-weak-sidon.  Exit codes: 0 all claims verified, 2 claim violated
(with witness), 3 budget refusal, 4 I/O or format error.  Verification always
recomputes from the stored exponents; cached construction data is ignored.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .builder import (
    DEFAULT_TUPLE_BUDGET,
    FactorSubset,
    PROFILES,
    build_family,
    half_table_size,
    strict_table_size,
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
    BASIS_CLOSED_FORM,
    STRATEGY_MITM,
    STRATEGY_NAIVE,
    extract_quasi_independent,
    leinert_violation,
    z_value,
    zs_paper_target,
)
from .errors import BudgetExceeded, LimitExceeded
from .primes import FactorTable, smallest_admissible_prime
from .spectral import (
    DEFAULT_SPECTRAL_BUDGET,
    DEFAULT_TOLERANCE,
    check_spectral_budget,
    density_lower_bound,
    dual_index,
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


class _HelpShown(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Every flag is accepted only by its full name, a usage error exits 4 and
    help exits 0, each returned by ``main`` rather than raised as SystemExit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse defaults to exit(2); keep 2 for violations
        raise _UsageError(message)

    def exit(self, status=0, message=None):  # reached only once -h has printed help
        raise _HelpShown()


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@dataclasses.dataclass(frozen=True)
class Claim:
    """One claim: its certificate section, the lines it prints and its verdict."""

    section: dict
    lines: list[str]
    holds: bool


def _emit(args, kind: str, claim: Claim, parameters: dict, out=None) -> int:
    """Print the claim, write its section as a ``kind`` certificate to ``out`` (or
    ``--out``, if given) and say where; return the claim's exit code."""
    for line in claim.lines:
        print(line)
    out = out or args.out
    if out:
        provenance = make_provenance(__version__, parameters)
        write_certificate(
            out, CertificateFile(kind=kind, payload=claim.section, provenance=provenance)
        )
        print(f"{'family' if kind == 'family' else 'certificate'} written: {out}")
    return EXIT_OK if claim.holds else EXIT_VIOLATION


def _load_family(path: str):
    cert = read_certificate(path)
    if cert.kind != "family":
        raise CertificateFormatError(f"expected a family certificate, got kind {cert.kind!r}")
    return family_from_payload(cert.payload, cert.format_version)


def _search_label(result, family) -> str:
    """Why a factor of ``family`` met its target or not: the half-table count
    when it rules the target out for every set with the property, else the
    strict count when it rules it out for the builder's rule, else the
    factor's search record."""
    if result.feasible:
        return "ok"
    count = half_table_size(result.target_size, family.s)
    if count > result.p:
        return f"count: C={count} > p={result.p}"
    count = strict_table_size(result.target_size, family.s)
    if count > result.p:
        return f"strict count: C={count} > p={result.p}"
    if result.search_exhausted is None:
        return "search not recorded"
    if not result.search_exhausted:
        return f"search budget: {result.nodes_searched} nodes"
    return "seeded walk: dead end" if family.seed is not None else "exhausted"


# ---------------------------------------------------------------- claims
# One function per claim kind, each recomputed from the stored exponents.  The
# commands print and write the Claim it returns: `verify KIND` one claim,
# `report` a fixed list of them, `witness-weak-sidon` the weak-Sidon claim.


def construction_claim(family) -> Claim:
    """Each factor's target and what its build achieved, as the family records it."""
    rows, lines = [], []
    for result in family.results:
        status = _search_label(result, family)
        rows.append(
            {
                "achieved": len(result.subset),
                "feasible": result.feasible,
                "n": result.n,
                "p": result.p,
                "status": status,
                "target": result.target_size,
            }
        )
        label = status if result.feasible else f"infeasible ({status})"
        lines.append(
            f"n={result.n:>3} p={result.p:>8} |E_n|={len(result.subset):>3}"
            f"/{result.target_size:<3} {label}"
        )
    section = {"n_feasible": family.n_feasible, "rows": rows, "status": "recorded"}
    return Claim(section, lines, True)


def pn_claim(family, budget: int) -> Claim:
    """The avoidance property of each factor at order s, with its first vanishing vector."""
    claims, lines = [], []
    for result in family.results:
        ok, witness = verify_pn_bruteforce(result.subset, family.s, budget)
        record = {
            "exponents": list(result.subset.exponents),
            "holds": ok,
            "n": result.n,
            "p": result.p,
        }
        if witness is not None:
            record["violating_epsilon"] = list(witness.entries)
        claims.append(record)
        state = "ok" if ok else f"VIOLATED by epsilon={list(witness.entries)}"
        lines.append(f"pn n={result.n}: {state}")
    holds = all(record["holds"] for record in claims)
    return Claim({"claims": claims, "holds": holds, "s": family.s}, lines, holds)


def zs_claim(family, strategy: str, budget: int, pn: Optional[bool] = None) -> Claim:
    """Z_s of the family union against ((s/2)!)^2; ``strategy`` is the
    enumeration used where the closed form does not apply.  The closed form
    takes the family's pn verdict from ``pn``, if given, instead of deciding it."""
    s = family.s
    bound_half, bound_factorial = zs_paper_target(s)
    cert = z_value(family.union_words(), s, budget=budget, strategy=strategy, pn=pn)
    holds = cert.value <= bound_half
    basis = cert.basis
    if basis != BASIS_CLOSED_FORM:
        basis += f": {cert.strategy}, {cert.tuples_examined} tuples examined"
    line = (
        f"zs: Z_{s} = {cert.value} over {cert.ground_size} elements ({basis}); "
        f"bounds ((s/2)!)^2 = {bound_half}, s! = {bound_factorial}: "
        f"{'ok' if holds else 'VIOLATED'}"
    )
    section = {
        "basis": cert.basis,
        "bound_factorial": bound_factorial,
        "bound_half_square": bound_half,
        "ground_size": cert.ground_size,
        "holds": holds,
        "s": s,
        "strategy": cert.strategy,
        "tuples_examined": cert.tuples_examined,
        "value": cert.value,
        "witness_key": canonical_key(cert.witness).hex() if cert.witness else None,
    }
    return Claim(section, [line], holds)


def leinert_claim(args) -> Claim:
    """The Leinert condition on each factor's letters, stopping at the first violation.

    The verdict is exact for each factor.  It is exact for a family's union only at
    s = 2, where a run of at most two letters from one factor never cancels; from
    s = 3 letters of two factors can close a tuple that neither factor closes alone.
    """
    adhoc = args.exponents is not None or args.order is not None
    if adhoc == (args.family is not None):
        raise _UsageError("give exactly one input: a family file or --exponents/--order")
    if adhoc:
        if args.exponents is None or args.order is None:
            raise _UsageError("--exponents and --order must be given together")
        exponents = tuple(sorted(int(x) for x in args.exponents.split(",")))
        subset = FactorSubset(factor=1, order=args.order, exponents=exponents)
        s = 2 if args.s is None else args.s
        targets = [(1, subset, FactorTable.explicit([subset.order]))]
    else:
        if args.s is not None:
            raise _UsageError(
                "--s applies only to ad-hoc leinert checks; a family file carries its own s"
            )
        family = _load_family(args.family)
        s = family.s
        targets = [(r.n, r.subset, family.table) for r in family.results]
    searched = []
    first_witness = None
    for n, subset, table in targets:
        first_witness = leinert_violation(subset.words(table), s, budget=args.budget_tuples)
        searched.append({"exponents": list(subset.exponents), "n": n, "p": subset.order})
        if first_witness is not None:
            break
    holds = first_witness is None
    if holds:
        line = f"leinert: no 2s={2 * s} violation found (exact)"
    else:
        exps = ["*".join(f"a_{f}^{e}" for f, e in w.pairs) for w in first_witness.elements]
        line = f"leinert: VIOLATION ({', '.join(exps)})"
    section = {
        "holds": holds,
        "s": s,
        "searched": searched,
        "witness": None if holds else [
            [list(pair) for pair in w.pairs] for w in first_witness.elements
        ],
    }
    return Claim(section, [line], holds)


def qi_claim(family) -> Claim:
    """Per factor, the greedy quasi-independent extraction against the
    ceil(log_3 |E_n|) floor, and the lower bound it puts on the Leinert constant."""
    rows, lines = [], []
    for result in family.results:
        witness = extract_quasi_independent(result.subset)
        size = len(witness.subset)
        floor_bound = math.ceil(math.log(len(result.subset.exponents), 3))
        ok = witness.maximal and size >= floor_bound
        lower = leinert_lower_bound(
            FactorSubset(result.subset.factor, result.subset.order, witness.subset)
        )
        rows.append(
            {
                "extracted": list(witness.subset),
                "extracted_size": size,
                "floor_bound": floor_bound,
                "leinert_lower_bound": fmt_float(lower),
                "maximal": witness.maximal,
                "n": result.n,
                "ok": ok,
                "parent_size": len(result.subset.exponents),
            }
        )
        lines.append(
            f"qi n={result.n}: |F|={size} >= {floor_bound} maximal={witness.maximal}, "
            f"leinert constant >= {lower:.17g} {'ok' if ok else 'VIOLATED'}"
        )
    holds = all(row["ok"] for row in rows)
    return Claim({"factors": rows, "holds": holds}, lines, holds)


def density_claim(family) -> Claim:
    """Per factor n, the lower bound its density in 1..n puts on the Lambda(2n) constant."""
    rows = []
    for result in family.results:
        n, q = result.n, 2.0 * result.n
        bound = density_lower_bound(result.subset, n, q)
        rows.append({"bound": fmt_float(bound), "n": n, "q": fmt_float(q), "window": n})
    lines = [f"density n={r['n']}: Lambda({r['q']}) constant >= {r['bound']}" for r in rows]
    return Claim({"rows": rows}, lines, True)


def weak_sidon_claim(constants) -> Claim:
    """For each constant C, the least n with n^2 > 40 C^2 n, decided exactly."""
    rows, lines = [], []
    for raw in constants:
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
        lines.append(
            f"weak-sidon C={witness.c}: n={witness.n}, n^2 = {witness.lhs} > 40 C^2 n = "
            f"{witness.rhs} {'ok' if witness.holds else 'FAILED'}"
        )
    return Claim({"rows": rows}, lines, all(row["holds"] for row in rows))


_STATEMENTS = [
    "a finite tuple-count bound at every even order makes the union a "
    "completely bounded Lambda(p) set for all finite p (standard criterion)",
    "unbounded quasi-independent subsets are incompatible with a finite "
    "Leinert constant, so the full family is not a Leinert set",
    "the density lower bound grows without bound along the family, so no "
    "single weak-Sidon constant can serve the whole family",
]
# what the paper concludes from the zs, qi and density claims, asserted, not computed
CONCLUSIONS = Claim(
    {"statements": _STATEMENTS, "status": "asserted-by-theory"},
    [f"theory: {statement}" for statement in _STATEMENTS],
    True,
)


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
    lines = []
    for result in family.results:
        status = _search_label(result, family)
        if not result.feasible:
            status = f"INFEASIBLE ({status})"
        lines.append(
            f"n={result.n:>3} p={result.p:>8} target={result.target_size:>3} "
            f"achieved={len(result.subset):>3} pool=[1,{result.pool_bound}] {status}"
        )
    feasible = sum(result.feasible for result in family.results)
    lines.append(
        f"built {feasible}/{len(family.results)} targets; n_feasible={family.n_feasible}"
    )
    claim = Claim(family_to_payload(family), lines, feasible == len(family.results))
    parameters = {"n_max": n_max, "n_min": n_min, "profile": args.profile, "s": args.s}
    return _emit(args, "family", claim, parameters, out=args.out or "family.json")


# ---------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    parameters = {"kind": args.kind, "source": args.family or "adhoc"}
    if "budget_tuples" in vars(args):  # every kind reads it but qi, which reads no budget
        parameters["budget_tuples"] = args.budget_tuples
    return _emit(args, args.kind, args.claim(args), parameters)


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
    q_grid = [float(q) for q in args.q.split(",")]
    top = args.scale if args.scale is not None else args.n_max
    if 4 * top > DEFAULT_SPECTRAL_BUDGET:  # its order exceeds 4 * top: refuse before looking it up
        raise LimitExceeded(
            f"scale {top} needs an order above {4 * top}, over the spectral budget "
            f"{DEFAULT_SPECTRAL_BUDGET}"
        )
    scales = [args.scale] if args.scale is not None else list(range(1, args.n_max + 1))
    orders = [kernel_order(n) for n in scales]
    for p in orders:  # refuse before building any kernel's 4n - 1 exact coefficients
        check_spectral_budget(p)
    for q in q_grid:  # and a q that is not finite and above 1, too
        dual_index(q)
    all_ok = True
    kernels, lines = [], []
    for n, p in zip(scales, orders):
        report = transform(fejer_kernel(n, p))
        qs = sorted(set(q_grid + [float(2 * n)]))
        checks = [kernel_norm_check(n, report, q) for q in qs]
        # the coefficients fall as |j| grows, so the least one on 1..n sits at n
        floor_ok = fejer_coefficient(n, n) >= Fraction(1, 2)
        all_ok = all_ok and floor_ok and all(check.passed for check in checks)
        spectrum_values = [fmt_complex(z) for z in report.spectrum] if p <= 1024 else None
        lines.append(
            f"scale n={n:>2} p={p:>5} ||K||_A={report.norm_a:.17g} "
            f"||K||_VN={report.norm_vn:.17g} floor>=1/2 on 1..n: {floor_ok}"
        )
        lines += [
            f"    q={check.q:<6g} ||K||_q' = {check.norm_lq_prime:.17g} <= "
            f"{check.interpolation_bound:.17g} <= (4n+1)^(1/q) = "
            f"{check.kernel_bound:.17g}  "
            f"{'ok' if check.passed else 'FAILED'}"
            for check in checks
        ]
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
    payload = {"kernels": kernels, "tolerance": fmt_float(DEFAULT_TOLERANCE)}
    return _emit(args, "spectrum", Claim(payload, lines, all_ok), {"q": args.q, "scales": scales})


# ---------------------------------------------------------------- report


def cmd_report(args) -> int:
    family = _load_family(args.family)
    qi = qi_claim(family)
    pn = pn_claim(family, args.budget_tuples)
    claims = {
        "construction": construction_claim(family),
        "pn": pn,
        "zs": zs_claim(family, STRATEGY_NAIVE, args.budget_tuples, pn.holds),
        # the report keeps the qi rows under "rows", its verdict in the exit code
        "qi": Claim({"rows": qi.section["factors"]}, qi.lines, qi.holds),
        "density": density_claim(family),
        "weak_sidon": weak_sidon_claim((1, 2, 4)),
        "conclusions": CONCLUSIONS,
    }
    # a section is "verified" unless it names its own status
    report = Claim(
        {"sections": {name: {"status": "verified", **c.section} for name, c in claims.items()}},
        [f"=== family report: s={family.s} profile={family.profile} ==="]
        + [f"  {line}" for claim in claims.values() for line in claim.lines],
        all(claim.holds for claim in claims.values()),
    )
    parameters = {"budget_tuples": args.budget_tuples, "source": args.family}
    return _emit(args, "report", report, parameters)


def cmd_witness_weak_sidon(args) -> int:
    claim = weak_sidon_claim(args.constants)
    return _emit(args, "report", claim, {"constants": list(args.constants)})


# ---------------------------------------------------------------- parser


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built on the first call and shared by every later
    one in the process; callers must not mutate it.  ``parse_args`` returns a
    fresh namespace each call, so no flag carries from one call to the next."""
    parser = _Parser(prog="freelac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by several commands, declared once
    output = _Parser(add_help=False)
    output.add_argument("--out", default=None)
    tuples = _Parser(add_help=False)
    tuples.add_argument("--budget-tuples", type=_positive_int, default=DEFAULT_TUPLE_BUDGET)

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

    p_verify = sub.add_parser("verify", help="re-verify a claim from a family file")
    p_verify.set_defaults(func=cmd_verify)
    kinds = p_verify.add_subparsers(dest="kind", required=True)
    p_pn = kinds.add_parser("pn", parents=[tuples, output], help="avoidance property")
    p_pn.add_argument("family")
    p_pn.set_defaults(claim=lambda args: pn_claim(_load_family(args.family), args.budget_tuples))
    p_zs = kinds.add_parser("zs", parents=[tuples, output], help="alternating tuple count Z_s")
    p_zs.add_argument("family")
    p_zs.add_argument(
        "--strategy", choices=(STRATEGY_NAIVE, STRATEGY_MITM), default=STRATEGY_NAIVE,
        help="the enumeration where the closed form does not apply (default %(default)s)",
    )
    p_zs.set_defaults(
        claim=lambda args: zs_claim(_load_family(args.family), args.strategy, args.budget_tuples)
    )
    p_leinert = kinds.add_parser(
        "leinert", parents=[tuples, output], help="Leinert condition, family or ad-hoc set"
    )
    p_leinert.add_argument("family", nargs="?", default=None)
    p_leinert.add_argument("--s", type=int, default=None, help="s of an ad-hoc check (default 2)")
    p_leinert.add_argument("--exponents", default=None, help="ad-hoc set, e.g. 1,2,3,4")
    p_leinert.add_argument("--order", type=int, default=None, help="cyclic order for --exponents")
    p_leinert.set_defaults(claim=leinert_claim)
    p_qi = kinds.add_parser("qi", parents=[output], help="quasi-independent extraction")
    p_qi.add_argument("family")
    p_qi.set_defaults(claim=lambda args: qi_claim(_load_family(args.family)))

    p_norms = sub.add_parser(
        "norms", parents=[output], help="kernel norms and interpolation checks"
    )
    scales = p_norms.add_mutually_exclusive_group()
    scales.add_argument("--scale", type=_positive_int, default=None)
    scales.add_argument("--n-max", type=_positive_int, default=8)
    p_norms.add_argument(
        "--q", default="3,4,6,10", help="comma-separated q grid (default %(default)s)"
    )
    p_norms.set_defaults(func=cmd_norms)

    p_report = sub.add_parser(
        "report", parents=[tuples, output], help="end-to-end narrative for a family file"
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
    try:
        args = build_parser().parse_args(argv)
    except _HelpShown:
        return EXIT_OK
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BudgetExceeded as exc:
        # a limit fixed in the code, such as the ledger's, has no flag to raise it
        governed = "budget_tuples" in vars(args) and not isinstance(exc, LimitExceeded)
        hint = " (raise it with --budget-tuples)" if governed else ""
        print(f"budget refusal: {exc}{hint}", file=sys.stderr)
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
