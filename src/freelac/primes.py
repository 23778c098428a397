"""Factor orders for the free product: the least odd prime above 2^(n+1).

Factor n of the ambient group is a cyclic group of odd prime order p_n.  The
default rule takes p_n to be the smallest odd prime exceeding 2^(n+1); by
Bertrand's postulate p_n < 2^(n+2), so consecutive orders never coincide and
all orders are pairwise distinct automatically (still asserted when a table is
built).
"""

from __future__ import annotations

from .errors import checked_record

# Miller-Rabin with the first k of these bases decides every n below psi_k,
# the least odd strong pseudoprime to all of them (OEIS A014233, k = 1..13).
# Orders up to p_30 take 4 bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
    341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
    318665857834031151167461, 3317044064679887385961981,
)

# Orders must stay below 2^64: canonical word keys and the certificate schema
# serialize exponents as fixed-width 64-bit integers.
MAX_FACTOR_INDEX = 62

PAPER_PRIME_RULE = "smallest odd prime > 2^(n+1)"
EXPLICIT_PRIME_RULE = "explicit"


def is_prime(n: int) -> bool:
    """Deterministic primality test: Miller-Rabin with the shortest prefix of
    ``_MR_BASES`` proven for n.  Refuses n >= psi_13, where none is proven."""
    if n < 2:
        return False
    for k, psi in enumerate(_MR_PSI, 1):
        if n < psi:
            break
    else:
        raise ValueError(f"no proven Miller-Rabin base set decides {n} >= {psi}")
    bases = _MR_BASES[:k]
    for p in bases:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_admissible_prime(n: int) -> int:
    """Least odd prime strictly greater than 2^(n+1), for factor index n >= 1."""
    if n < 1:
        raise ValueError(f"factor index must be >= 1, got {n}")
    if n > MAX_FACTOR_INDEX:
        raise OverflowError(
            f"factor index {n} needs orders beyond 64 bits "
            f"(supported maximum is {MAX_FACTOR_INDEX})"
        )
    candidate = (1 << (n + 1)) + 1
    while not is_prime(candidate):
        candidate += 2
    return candidate


class FactorTable(checked_record("FactorTable", "orders rule")):
    """Orders of the cyclic factors, indexed 1..len(orders).

    The generator of factor n is fixed as the residue 1, so exponents are
    plain residues in [1, p_n - 1].
    """

    __slots__ = ()

    def __new__(cls, orders: tuple[int, ...], rule: str = PAPER_PRIME_RULE):
        seen: set[int] = set()
        for i, p in enumerate(orders, start=1):
            if p % 2 == 0 or not is_prime(p):
                raise ValueError(f"factor {i}: order {p} is not an odd prime")
            if p in seen:
                raise ValueError(f"factor {i}: duplicate order {p}")
            seen.add(p)
            if rule == PAPER_PRIME_RULE and p <= (1 << (i + 1)):
                raise ValueError(
                    f"factor {i}: order {p} does not exceed 2^{i + 1} "
                    f"as the default rule requires"
                )
        return tuple.__new__(cls, (orders, rule))

    def __len__(self) -> int:
        return len(self.orders)

    def order(self, factor: int) -> int:
        if not 1 <= factor <= len(self.orders):
            raise ValueError(f"factor index {factor} outside table of size {len(self.orders)}")
        return self.orders[factor - 1]

    @classmethod
    def paper_default(cls, n_max: int) -> "FactorTable":
        return cls(tuple(smallest_admissible_prime(n) for n in range(1, n_max + 1)))

    @classmethod
    def explicit(cls, orders) -> "FactorTable":
        return cls(tuple(int(p) for p in orders), rule=EXPLICIT_PRIME_RULE)
