"""Sets of multiples: membership, density brackets, Behrend machinery, blocks.

The natural density of M(A) for a finite A is computed exactly by a DP over
valuations.  Whether n lies in M(A) depends only on v_p(n) at the primes p
dividing A, and under natural density these valuations are independent with
P(v_p = j) = (1 - 1/p) p^{-j} (the product measure behind Behrend's
inequality; Hall-Tenenbaum, *Divisors*, ch. 0).  The same holds for the
elements of any coprime base of A, which gcd refinement finds without
factoring.  Its state is the primitive set of quotients still to be
matched, split into independent groups whenever no base element links them,
and it branches on the base element that divides the most elements of a
group, so that the group falls apart below it.  It runs as one loop over an
explicit stack of frames, so a set of any depth needs no recursion, and each
branch level takes in only its new quotients instead of reducing its whole
state again.  Past a budget of MAX_DP_STATES states it encloses the states
it meets instead of solving them, so each set gets a rigorous bracket, exact
when the DP finishes.
`density_bracket` (auto), `m_of_y`, `remainder_Rn` and
`experiments.eps_pair` report it; exact_ie and `behrend_ineq_check` raise
ResourceError unless it is exact.

The exact engine and the Bonferroni sums are pure Python, so the module
imports no numpy: the scans up to x (`multiples_count` and its callers,
`log_density`, `criterion4_scan`, `max_gap`) and `m_of_y`'s prime list
import `tables` or `sieve`, and with them numpy, when called.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from .arith import INFINITE, Factored, divisors, factor_int
from .density import DensityEstimate, bracket, outward
from .errors import DEFAULT_SCAN_CAP, ConstraintError, DomainError, ResourceError

MAX_DP_STATES = 10**6
MAX_LCM_VISITS = 3_000_000  # work cap of the subset-lcm DP (_bonferroni_sums)


class GeneratorSet:
    """A finite set of generators (naturals >= 2), possibly given as an
    integer interval (y, z].

    reduce() removes elements divisible by a smaller element; this leaves the
    set of multiples unchanged, and also leaves d_1(n, A) unchanged (a
    non-primitive element can never realize the smallest divisor in A).
    """

    def __init__(self, elements: Iterable[int] = (), interval: tuple[int, int] | None = None):
        if interval is not None:
            y, z = interval
            if z <= y:
                raise DomainError(f"empty interval ({y}, {z}]")
            if y < 1:
                raise DomainError(f"interval must sit in the naturals, got ({y}, {z}]")
            if z - y > 50_000_000:
                raise ResourceError(f"interval ({y}, {z}] too large to materialize")
            self.interval = (y, z)
            self.elements: tuple[int, ...] = tuple(range(y + 1, z + 1))
        else:
            elems = sorted(set(int(a) for a in elements))
            if any(a < 2 for a in elems):
                raise DomainError("generators must be >= 2")
            self.interval = None
            self.elements = tuple(elems)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        if self.interval:
            return f"GeneratorSet(({self.interval[0]}, {self.interval[1]}])"
        return f"GeneratorSet({list(self.elements)})"

    def reduce(self) -> "GeneratorSet":
        """Primitive form: no element divides another."""
        return GeneratorSet(_primitive(self.elements))

    def truncated(self, T: int) -> "GeneratorSet":
        return GeneratorSet(a for a in self.elements if a <= T)


def multiples_count(A: GeneratorSet, x: int) -> int:
    """|M(A) ∩ [1, x]| by boolean-marking multiples of each generator."""
    import numpy as np

    from .tables import _check_cap, multiples_mask

    _check_cap(x)
    mask = multiples_mask(A.elements, x)
    return int(np.count_nonzero(mask[1:]))


def _primitive(values: Iterable[int]) -> tuple[int, ...]:
    """Ascending elements of values that no smaller element divides; (1,)
    when 1 is among them.  A proper multiple of a is at least 2a, so values
    whose largest is below twice their smallest are already primitive."""
    values = sorted(set(values))
    if values and values[-1] < 2 * values[0]:
        return tuple(values)
    kept: list[int] = []
    for a in values:
        if not any(a % b == 0 for b in kept):
            kept.append(a)
    return tuple(kept)


def _coprime_base(values: Iterable[int]) -> list[int]:
    """Pairwise coprime integers > 1 such that every value is a product of
    their powers, by gcd refinement (no factorisation).

    Two members that share g = gcd(x, b) > 1 are replaced by g, x/g and b/g;
    the product of the base and the pending numbers falls by g each time, so
    this ends.
    """
    base: list[int] = []
    todo = [v for v in set(values) if v > 1]
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(x, b)
            if g > 1:
                del base[i]
                todo += [t for t in (g, x // g, b // g) if t > 1]
                break
        else:
            base.append(x)
    return base


class _ValuationDP:
    """d M(S) for sets S of divisors of elements of gens, by the valuation DP.

    The DP runs over a coprime base of the generators instead of their
    primes: for a base element m, P(v_m(n) >= k) = m^-k, and by CRT the
    valuations at coprime base elements are independent, so the product
    measure is the same as over primes.  A state whose elements fall into
    groups sharing no base element is split, and its density is
    1 - prod(1 - d(group)).  A group of two or more elements is solved by
    branching on v_m(n) for the base element m that divides the most of them
    (_branch).  The memo lives as long as the object, so related sets
    share states.  A state is stored as (lo, hi, L) with
    L = lcm(state) and lo <= d L <= hi, exact when lo == hi: with integer
    numerators no gcd is taken until the final Fraction.  Once the memo
    holds MAX_DP_STATES states, a state not in it is enclosed (_enclosure),
    not expanded or stored.  Branch weights are positive and 1 - prod(1 - d)
    grows with each d, so lower ends combine with lower ends, upper with upper.
    The states are solved depth first on an explicit stack (_solve), with no
    depth limit, and enter the memo in the order a recursion would store
    them, so a budget encloses the same states whatever the depth.
    """

    def __init__(self, gens: Sequence[int]):
        self.base = sorted(_coprime_base(gens), reverse=True)
        self.profiles: dict[int, tuple[int, tuple[int, ...]]] = {}
        self.memo: dict[tuple[int, ...], tuple[int, int, int]] = {(): (0, 0, 1), (1,): (1, 1, 1)}

    def bounds(self, elems: Iterable[int]) -> tuple[Fraction, Fraction]:
        """(lower, upper) for d M(elems), one Fraction twice when exact."""
        lo, hi, L = self._solve(_primitive(elems))
        lower = Fraction(lo, L)
        return lower, (lower if lo == hi else Fraction(hi, L))

    def _profile(self, q: int) -> tuple[int, tuple[int, ...]]:
        """(mask, indices) for q > 1: bit i of mask is set, and i is among
        the ascending indices, when base[i] divides q."""
        hit = self.profiles.get(q)
        if hit is None:
            idxs = tuple(i for i, m in enumerate(self.base) if q % m == 0)
            hit = self.profiles[q] = (sum(1 << i for i in idxs), idxs)
        return hit

    def _solve(self, root: tuple[int, ...]) -> tuple[int, int, int]:
        """(lo, hi, L) for a primitive state, by one loop over a stack of
        frames (_frame), so no depth limit applies.  A frame yields its child
        states and is sent back their results; a child that _leaf answers
        pushes no frame."""
        out = self._leaf(root)
        if out is not None:
            return out
        stack = [self._frame(root)]
        while stack:
            try:
                child = stack[-1].send(out)
            except StopIteration as done:
                stack.pop()
                out = done.value
                continue
            out = self._leaf(child)
            if out is None:
                stack.append(self._frame(child))
        return out

    def _leaf(self, state: tuple[int, ...]) -> tuple[int, int, int] | None:
        """The result of a state that needs no frame: a memo hit, an
        enclosure once the memo is full, or a one-element state; else None."""
        hit = self.memo.get(state)
        if hit is not None:
            return hit
        if len(self.memo) >= MAX_DP_STATES:
            return _enclosure(state)
        if len(state) == 1:
            hit = self.memo[state] = (1, 1, state[0])
        return hit

    def _frame(self, state: tuple[int, ...]):
        """Solve a state of two or more elements, yielding each child state
        and receiving its (lo, hi, L); the state enters the memo when its
        frame returns, so in the order of a depth-first recursion."""
        known = self.profiles.get
        profs = [known(q) or self._profile(q) for q in state]
        groups: list[tuple[int, list[int]]] = []  # (base elements as a mask, members)
        for q, (mask, _) in zip(state, profs):
            members, rest = [q], []
            for g in groups:
                if g[0] & mask:  # g takes in q's group, in place
                    mask |= g[0]
                    g[1].extend(members)
                    members = g[1]
                else:
                    rest.append(g)
            rest.append((mask, members))
            groups = rest
        if len(groups) > 1:
            # coprime group lcms multiply to lcm(state); lower ends bound the miss above
            whole = miss_hi = miss_lo = 1
            for _, members in groups:
                lo, hi, L = yield tuple(sorted(members))
                whole *= L
                miss_hi *= L - lo
                miss_lo *= L - hi
            out = (whole - miss_hi, whole - miss_lo, whole)
        else:
            out = yield from self._branch(state, profs)
        self.memo[state] = out
        return out

    def _branch(self, state: tuple[int, ...], profs):
        """Branch on v_m(n) for the base element m that divides the most
        elements of the state, the largest such m on a tie (the lowest index).

        The state is one linked group of two or more elements, so m divides
        at least two of them.  Taking out m unlinks the elements it alone
        joined, so the levels tend to fall apart into coprime groups that
        _frame solves apart; branching on the largest element instead peels
        one element off per level and rarely splits a state.

        Write q = m^v r with m not dividing r; q matches n iff v <= v_m(n)
        and r | n.  Level u's state is the primitive set of the r with
        v <= u, reduced incrementally: it takes in the r with v = u, and
        neither an element of the level below (r' | r with v' < u would give
        m^v' r' | m^u r) nor another new r (r' | r would give m^u r' | m^u r)
        divides one of them, as the state is primitive, so only the old
        elements are checked against the new r."""
        counts: dict[int, int] = {}
        for _, idxs in profs:
            for i in idxs:
                counts[i] = counts.get(i, 0) + 1
        top = max(counts.values())
        i = min(i for i, c in counts.items() if c == top)
        m, bit = self.base[i], 1 << i
        sub: list[int] = []  # level 0: the elements m does not divide
        new: dict[int, list[int]] = {}  # v > 0 -> its r, ascending as the state is
        for q, (mask, _) in zip(state, profs):
            if mask & bit:
                v, r = 1, q // m
                while r % m == 0:
                    v, r = v + 1, r // m
                new.setdefault(v, []).append(r)
            else:
                sub.append(q)
        levels = ([0] if sub else []) + sorted(new)
        e = levels[-1]
        lcm_rest = math.lcm(*sub, *itertools.chain.from_iterable(new.values()))
        lo = hi = 0
        for i, u in enumerate(levels):
            if u:
                for r in new[u]:
                    sub = [a for a in sub if a % r]
                sub = sorted(sub + new[u])
            # v_m(n) in [u, next level) has weight m^-u - m^-next, here scaled
            # by the m^e in the lcm; below the lowest level nothing matches
            sub_lo, sub_hi, sub_lcm = yield tuple(sub)
            w = m ** (e - u) - (m ** (e - levels[i + 1]) if i + 1 < len(levels) else 0)
            w *= lcm_rest // sub_lcm
            lo += w * sub_lo
            hi += w * sub_hi
        return lo, hi, m**e * lcm_rest


def _enclosure(state: tuple[int, ...]) -> tuple[int, int, int]:
    """(lo, hi, L) around d M(state) for an ascending primitive state,
    without the DP: below, the larger of 1/min(state) and the Bonferroni sum
    S_1 - S_2; above, the Heilbronn-Rohrbach bound 1 - prod(1 - 1/q)
    (Hall-Tenenbaum, *Divisors*, ch. 0)."""
    L = math.lcm(*state)
    s1 = sum(L // q for q in state)
    s2 = sum(L // math.lcm(a, b) for a, b in itertools.combinations(state, 2))
    miss = L * math.prod(q - 1 for q in state) // math.prod(state)
    return max(L // state[0], s1 - s2), L - miss, L


def _valuation_density(gens: Iterable[int]) -> Fraction:
    """Exact natural density of M(gens) by the valuation DP (memo per call).
    Raises ResourceError when the DP does not finish within MAX_DP_STATES
    states."""
    gens = tuple(gens)
    lo, hi = _ValuationDP(gens).bounds(gens)
    if lo != hi:
        raise ResourceError(f"valuation DP over {len(gens)} generators does not finish "
                            f"within its budget of MAX_DP_STATES = {MAX_DP_STATES} states")
    return lo


def _bracket_estimate(lo: Fraction, hi: Fraction, **params) -> DensityEstimate:
    """The valuation DP's result [lo, hi]: exact_ie when lo == hi, else a
    valuation_bracket."""
    return bracket(lo, hi, "exact_ie" if lo == hi else "valuation_bracket", **params)


def divisor_hit_densities(A: GeneratorSet) -> tuple[tuple[Fraction, Fraction], ...]:
    """(lower, upper) for the densities of the n with at least one and with
    exactly one divisor in A, from one valuation-DP memo; each pair is one
    Fraction twice when the DP finishes within MAX_DP_STATES states.

    Given a | n, another b divides n iff b/gcd(a, b) divides n/a, so
    P(exactly one) = sum_a (1/a)(1 - d M({b/gcd(a, b) : b != a})); the term
    of a vanishes when some b divides a.
    """
    elems = A.elements
    dp = _ValuationDP(elems)
    hit = dp.bounds(elems)  # first, so that the budget goes to it before the others
    one_lo = one_hi = Fraction(0)
    for a in elems:
        rest = [b // math.gcd(a, b) for b in elems if b != a]
        if 1 not in rest:
            lo, hi = dp.bounds(rest)
            one_lo += (1 - hi) / a
            one_hi += (1 - lo) / a
    return hit, (one_lo, one_hi)


def _bonferroni_sums(gens: Sequence[int], maxsize: int) -> list[Fraction]:
    """[S_0, ..., S_maxsize], S_k the sum of 1/lcm(S) over the k-subsets S of
    gens (S_0 = 0), by a DP over subset sizes and lcms.

    counts[k] maps an lcm l to the number of k-subsets with lcm l.  One pass
    over the generators updates k in descending order, as in a 0/1 knapsack,
    so no subset takes a generator twice.  The top level is not stored: its
    terms go straight into an integer numerator over L = lcm(gens), which
    bounds memory by the level below it.  Each S_k is then one Fraction over
    L, so one gcd reduction per level instead of one per subset.
    """
    L = math.lcm(*gens)
    counts: list[dict[int, int]] = [{1: 1}] + [{} for _ in range(maxsize - 1)]
    top = 0
    for a in gens:
        for l, c in counts[-1].items():
            top += c * (L // math.lcm(l, a))
        for k in range(maxsize - 1, 0, -1):
            level = counts[k]
            for l, c in counts[k - 1].items():
                m = math.lcm(l, a)
                level[m] = level.get(m, 0) + c
    sums = [Fraction(sum(c * (L // l) for l, c in level.items()), L) for level in counts[1:]]
    return [Fraction(0), *sums, Fraction(top, L)]


def _bonferroni_visits(gens: Sequence[int], maxsize: int) -> int:
    """A bound on the entries _bonferroni_sums(gens, maxsize) visits.

    Each generator is a product of powers of the coprime base, so a subset
    lcm is prod b^e_b with e_b <= E_b, the largest exponent of b in any
    generator: there are at most T = prod (E_b + 1) distinct lcms.  Each of
    the n passes visits levels 0..maxsize-1, and level k holds at most
    min(C(n, k), T) lcms.
    """
    T = 1
    for b in _coprime_base(gens):
        top = 0
        for a in gens:
            e = 0
            while a % b == 0:
                a //= b
                e += 1
            top = max(top, e)
        T *= top + 1
    n = len(gens)
    return n * sum(min(math.comb(n, k), T) for k in range(maxsize))


def _check_lcm_work(gens: Sequence[int], maxsize: int) -> None:
    """Raise ResourceError, before any lcm is formed, unless
    _bonferroni_sums(gens, maxsize) stays within MAX_LCM_VISITS: past that
    many subsets, the DP's visit bound (_bonferroni_visits) decides.  D
    distinct generators are D distinct lcms, so a set past the floor below
    is past that bound too, and fails without its coprime base."""
    n, distinct = len(gens), len(set(gens))
    combs = list(itertools.accumulate(range(maxsize), lambda c, k: c * (n - k) // (k + 1),
                                      initial=1))  # C(n, k) for k <= maxsize
    if sum(combs[1:]) > MAX_LCM_VISITS and (
            n * sum(min(c, distinct) for c in combs[:-1]) > MAX_LCM_VISITS
            or _bonferroni_visits(gens, maxsize) > MAX_LCM_VISITS):
        raise ResourceError(f"the lcm DP to subset size {maxsize} over {n} generators "
                            f"may pass {MAX_LCM_VISITS} lcm visits")


def density_bracket(A: GeneratorSet, method: str = "auto", depth: int = 3) -> DensityEstimate:
    """Natural density of M(A) with a rigorous bracket, built by
    `density.bracket` (point nearest the midpoint, ends rounded outward).

    exact_ie: the exact density from the valuation DP (module docstring),
    with the Fraction in `exact`.  It raises ResourceError when the DP does
    not finish within MAX_DP_STATES states.
    bonferroni: alternating truncation of inclusion-exclusion over subset
    lcms; depth is 0-indexed, so depth d sums subset sizes 1..d+1 and an even
    depth ends on a positive term (upper bound), odd on negative (lower
    bound).  The sums S_k run one level further, to the other side of the
    bracket, and come exact from a DP over subset sizes and lcms
    (_bonferroni_sums), not a walk over subsets.  Before any work it raises
    ResourceError when that DP may pass MAX_LCM_VISITS (_check_lcm_work).
    auto: the valuation DP under its state budget: exact_ie when it
    finishes, else a valuation_bracket from the enclosures of the states
    past the budget.
    """
    A = A.reduce()
    n = len(A)
    if n == 0:
        return _bracket_estimate(Fraction(0), Fraction(0))
    if method == "auto":
        return _bracket_estimate(*_ValuationDP(A.elements).bounds(A.elements))
    if method == "exact_ie":
        d = _valuation_density(A.elements)
        return _bracket_estimate(d, d)
    if method == "bonferroni":
        if depth < 0:
            raise DomainError(f"need depth >= 0, got {depth}")
        maxsize = min(depth + 2, n)  # one extra level gives the two-sided bracket
        _check_lcm_work(A.elements, maxsize)
        sums = _bonferroni_sums(A.elements, maxsize)
        partial = Fraction(0)
        partials = []
        for k in range(1, maxsize + 1):
            partial += sums[k] if k % 2 == 1 else -sums[k]
            partials.append(partial)
        if len(partials) == 1:
            lo, hi = Fraction(0), partials[0]
        else:
            a, b = partials[-2], partials[-1]
            lo, hi = min(a, b), max(a, b)
        # the alternating bounds can be trivial
        return bracket(max(lo, Fraction(0)), min(hi, Fraction(1)), "bonferroni", depth=depth)
    raise DomainError(f"unknown density method {method!r}")


def sieve_density(A: GeneratorSet, x: int) -> DensityEstimate:
    """The exact share |M(A) ∩ [1, x]| / x of multiples up to x, in `exact`;
    it tells nothing rigorous about the density itself."""
    share = Fraction(multiples_count(A, x), x)
    return bracket(share, share, "sieve_count", x=x)


def log_density(A: GeneratorSet, x: int) -> DensityEstimate:
    """(sum_{n<=x, n in M(A)} 1/n) / ln x, for x >= 2, in floats, with ends
    that bound the float's own rounding.  For N members it lies within
    gamma_m = m u / (1 - m u) of the exact quotient, u = 2^-53, m = N + 3:
    per term one rounding for 1/n and at most N - 1 additions in any order,
    two for the faithful math.log (one ulp, 2u) and one for the division
    (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3).  The
    quotient is at most 1, as sum_{n <= x} 1/n <= 1 + ln x and 1 is in no M(A)."""
    import numpy as np

    from .tables import _check_cap, multiples_mask

    if x < 2:
        raise DomainError(f"log density needs x >= 2, got {x}")
    _check_cap(x)
    members = np.flatnonzero(multiples_mask(A.elements, x))
    point = float(np.sum(1.0 / members)) / math.log(x)
    m = len(members) + 3
    lo = Fraction(point) * (2**53 - m) / 2**53  # point / (1 + gamma_m)
    hi = min(lo * 2**53 / (2**53 - 2 * m), Fraction(1))  # point / (1 - gamma_m)
    return DensityEstimate(point, *outward(lo, hi), "logarithmic", params={"x": x})


def sequential_density(A, T_grid: Sequence[int]) -> list[DensityEstimate]:
    """d M(A ∩ [1, T]) along the grid by density_bracket's auto route; it is
    non-decreasing since each truncation only adds generators."""
    gens = block_elements(A) if isinstance(A, BlockSequence) else A
    out = []
    for T in T_grid:
        est = density_bracket(gens.truncated(T))
        out.append(replace(est, method="sequential", params={"T": T, "inner": est.method}))
    return out


def d1(n: int, A: GeneratorSet, f: Factored | None = None):
    """Smallest divisor of n lying in A; the infinity sentinel when none.
    The divisors come from f when given (it must factor n), else from
    `factor_int(n)`."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    elems = set(A.elements)
    for d in divisors(f or factor_int(n)).divisors:
        if d in elems:
            return d
    return INFINITE


def criterion4_scan(A: GeneratorSet, eps: float, x: int) -> float:
    """Empirical frequency of n <= x with n^{1-eps} < d_1(n, A) <= n: the
    obstruction measure for natural-density existence."""
    import numpy as np

    from .tables import _check_cap

    if not 0.0 < eps < 1.0:
        raise DomainError(f"need 0 < eps < 1, got {eps}")
    _check_cap(x)
    first = np.zeros(x + 1, dtype=np.int64)
    for a in A.elements:
        a = int(a)
        if a > x:
            break
        sl = first[a::a]
        sl[sl == 0] = a
    n = np.arange(x + 1, dtype=np.float64)
    thresh = n ** (1.0 - eps)
    hit = (first[1:] > thresh[1:]) & (first[1:] > 0)
    return float(np.count_nonzero(hit)) / x


def behrend_ineq_check(A: GeneratorSet, B: GeneratorSet) -> tuple[float, float, bool]:
    """Both sides of 1 - dM(A ∪ B) >= (1 - dM(A))(1 - dM(B)) from exact
    valuation-DP densities, compared as Fractions; ResourceError when the DP
    does not finish within MAX_DP_STATES states."""
    union = set(A.elements) | set(B.elements)
    da, db, du = (_valuation_density(G) for G in (A.elements, B.elements, union))
    lhs = 1 - du
    rhs = (1 - da) * (1 - db)
    return float(lhs), float(rhs), lhs >= rhs


# ---------------------------------------------------------------------------
# block sequences

@dataclass(frozen=True)
class BlockSequence:
    """Disjoint blocks (T_j, H_j T_j] subject to the growth condition
    1 + 1/T_j^{1-eta} <= H_j <= min(T_j, T_{j+1}/T_j)."""

    blocks: tuple[tuple[float, float], ...]
    family: str
    eta: float = 0.1


def validate_blocks(blocks: Sequence[tuple[float, float]], eta: float) -> None:
    for j, (T, H) in enumerate(blocks, start=1):
        if T < 2 or H <= 1:
            raise ConstraintError(f"block {j}: need T >= 2 and H > 1, got T={T}, H={H}")
        lo = 1.0 + T ** -(1.0 - eta)
        hi = T if j == len(blocks) else min(T, blocks[j][0] / T)
        if not lo <= H <= hi + 1e-12:
            raise ConstraintError(
                f"growth condition fails at block j={j}: "
                f"need {lo:.6g} <= H_j <= {hi:.6g}, got H_j={H:.6g}"
            )


def block_builder(family: str, params: dict, J: int, eta: float = 0.1) -> BlockSequence:
    """Construct a validated block sequence.

    families: explicit (params['blocks']), besicovitch (T_{j+1} = T_j^2,
    H_j = 2), a_lambda (blocks (exp j^lam, 2 exp j^lam]), theorem3
    (log(T_{j+1}/T_j) = j^sigma log(j+1)^tau, H_j = exp(log(j+1)^gamma / j^alpha)).
    """
    if J < 1:
        raise DomainError(f"need J >= 1, got {J}")
    if family == "explicit":
        blocks = [tuple(map(float, b)) for b in params["blocks"]]
    elif family == "besicovitch":
        T = float(params.get("T1", 4.0))
        blocks = []
        for _ in range(J):
            blocks.append((T, 2.0))
            T = T * T
    elif family == "a_lambda":
        lam = float(params["lam"])
        blocks = [(math.exp(j**lam), 2.0) for j in range(1, J + 1)]
    elif family == "theorem3":
        sigma = float(params["sigma"])
        tau = float(params["tau"])
        gamma = float(params["gamma"])
        alpha = float(params["alpha"])
        T = float(params.get("T1", 16.0))
        blocks = []
        for j in range(1, J + 1):
            H = math.exp(math.log(j + 1) ** gamma / j**alpha)
            blocks.append((T, H))
            T = T * math.exp(j**sigma * math.log(j + 1) ** tau)
    else:
        raise DomainError(f"unknown block family {family!r}")
    validate_blocks(blocks, eta)
    return BlockSequence(tuple(blocks), family, eta)


def block_elements(seq: BlockSequence) -> GeneratorSet:
    """Materialize the integers in all blocks (resource-capped)."""
    elems: list[int] = []
    for T, H in seq.blocks:
        lo = math.floor(T)
        hi = math.floor(H * T)
        if hi > DEFAULT_SCAN_CAP:
            raise ResourceError(f"block ({T}, {H * T}] exceeds materialization cap")
        elems.extend(range(max(2, lo + 1), hi + 1))
    return GeneratorSet(elems)


SIGMA0 = math.log(2.0) / (1.0 - math.log(2.0))


def alpha0(sigma: float) -> float:
    """Critical block-shrinkage exponent: (1 - log 2)(sigma0 - sigma) up to
    sigma0, then sigma0 - sigma; continuous at sigma0."""
    if sigma <= -1:
        raise DomainError(f"need sigma > -1, got {sigma}")
    if sigma <= SIGMA0:
        return (1.0 - math.log(2.0)) * (SIGMA0 - sigma)
    return SIGMA0 - sigma


# ---------------------------------------------------------------------------
# friable lower bound m(y)

def m_of_y(A: GeneratorSet, y: int) -> DensityEstimate:
    """Friable lower-bound functional for d M(A), exactly:

        m(y) = prod_{p<=y}(1 - 1/p) * sum 1/r

    over the y-friable r in M(A_y), A_y the y-friable members of A.  Under the
    product measure of valuations the y-friable part of n is r with
    probability prod_{p<=y}(1 - 1/p) / r, and n lies in M(A_y) exactly when
    that part does, so m(y) = d M(A_y), which the valuation DP computes (0
    when A_y is empty): exact_ie when it finishes, else a valuation_bracket
    from the enclosures past MAX_DP_STATES states, as density_bracket's auto
    route."""
    from .sieve import primes_upto

    if y < 2:
        raise DomainError(f"need y >= 2, got {y}")
    ps = primes_upto(y).tolist()
    ay = []
    for a in A.elements:
        m = a
        for p in ps:
            while m % p == 0:
                m //= p
        if m == 1:
            ay.append(a)
    return _bracket_estimate(*_ValuationDP(ay).bounds(ay), y=y)


# ---------------------------------------------------------------------------
# the close-divisor-product set E and interval remainders

def is_in_E(n: int) -> bool:
    """n = d * d' with d < d' < 2d, i.e. n has a divisor strictly between
    sqrt(n/2) and sqrt(n)."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    for d in range(max(1, math.isqrt(n // 2)), math.isqrt(n) + 1):
        if d * d < n < 2 * d * d and n % d == 0:
            return True
    return False


def in_ME(n: int) -> bool:
    """Some divisor of n lies in E."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            if is_in_E(d) or is_in_E(n // d):
                return True
    return False


def remainder_Rn(n: int, x: int) -> tuple[float, float, float]:
    """Remainder R_n(x) = |M([n, 2n]) ∩ [1, x]| - eps_n * x, with the
    eps_n bracket propagated into (R, R_lower, R_upper).

    eps_n comes as Fraction ends from the valuation DP, as in
    density_bracket's auto route: one value while the DP finishes within
    MAX_DP_STATES states, a rigorous bracket past that.  The remainders are
    formed as Fractions; R (at the bracket's midpoint) is rounded to the
    nearest float, R_lower down and R_upper up."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if n == 1:
        # divisor 1 lies in [1, 2], so M([1, 2]) is everything: R identically 0
        return 0.0, 0.0, 0.0
    A = GeneratorSet(interval=(n - 1, 2 * n))  # closed interval [n, 2n]
    cnt = multiples_count(A, x)
    gens = A.reduce().elements
    lo, hi = _ValuationDP(gens).bounds(gens)
    return (float(cnt - (lo + hi) / 2 * x), *outward(cnt - hi * x, cnt - lo * x))


def max_gap(n: int, X: int) -> tuple[int, int]:
    """Largest gap between consecutive elements of M((n, 2n]) ∩ [1, X] and
    the left endpoint where it occurs."""
    import numpy as np

    from .tables import _check_cap, multiples_mask

    _check_cap(X)
    A = GeneratorSet(interval=(n, 2 * n))
    mask = multiples_mask(A.elements, X)
    members = np.flatnonzero(mask)
    if len(members) < 2:
        raise DomainError(f"M(({n}, {2*n}]) has fewer than 2 elements up to {X}")
    gaps = np.diff(members)
    i = int(np.argmax(gaps))
    return int(gaps[i]), int(members[i])
