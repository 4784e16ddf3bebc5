"""Independent reference values and reference implementations for the tests.

The frozen constants below were produced by the brute-force routines in
this module (exhaustive expansion of the literal game rules, permutation
enumeration for derangements) and are asserted against the package, never
computed with it. ``test_reference_self_check`` in test_oracle.py re-derives
the frozen tables from the routines on every run.

The ``*_by_terms``, ``*_by_convolution`` and ``*_by_pairs`` routines at the
end are the slow, direct forms of fast package code: per-term ``Fraction``
sums for the closed form and the generating function, the literal integer
convolution that ``gf_table`` takes as a running sum, and the scan over
every pair for the alternating bound. ``gf_running_sum_over_n_max_factorial``
reduces every coefficient over n_max!, where ``gf_table`` first divides out
n_max!/k!, and the four ``*_by_fractions`` / ``*_cross_multiplied`` checks
decide every row in ``Fraction`` arithmetic, where ``verify`` decides rows
over n!-scaled integers. ``closed_form_from_scratch`` sums
the closed form afresh for each n over integers, from k = n down to 0, and
pins the package's one Horner pass. ``oracle_walk_per_branch`` is the
game-tree walk that weights each branch by 1/pile as it adds it, and
``expected_steps_by_fractions`` the summed E(Z_n) recursion over a
``Fraction`` prefix sum: they pin the oracle's one division per pile and
the steps table's n!-scaled integers. ``ScalarXoshiro`` takes the
xoshiro256** step once per output: it pins the lanes that make every output
of the package's generator. ``block_by_play_game`` replays it through
``play_game`` to pin the simulator's block loop, ``block_sizes_by_dealing``
pins its block layout, and ``csv_report`` the CLI's streamed CSV writer.
The ``*_reduced_once`` routes are the bodies of
``closed_form_table``, ``gf_table`` and ``expected_steps`` from before the
tables held k!-scaled integers: each value reduced to a ``Fraction`` as it
is made. ``alternating_bound_over_lcm`` is the ``alternating-bound`` check
that writes every R_n over the table's least common denominator, exact for
any denominators, as ``verify``'s difference pass is. Tests require the
package to agree with them exactly.
"""

import csv
import io
import math
from fractions import Fraction
from itertools import accumulate, permutations
from operator import mul

from pilegame.cli import _csv_cell
from pilegame.rng import MASK64, Xoshiro256StarStar, expand_seed
from pilegame.simulate import play_game

# Random-player win probabilities R_n from exhaustive game-tree expansion.
BRUTE_R = {
    0: Fraction(0),
    1: Fraction(1),
    2: Fraction(1, 2),
    3: Fraction(2, 3),
    4: Fraction(5, 8),
    5: Fraction(19, 30),
    6: Fraction(91, 144),
    7: Fraction(177, 280),
    8: Fraction(3641, 5760),
}

# Expected number of random-player moves E(Z_n), same enumeration.
BRUTE_EZ = {
    1: Fraction(1),
    2: Fraction(1),
    3: Fraction(4, 3),
    4: Fraction(3, 2),
    5: Fraction(5, 3),
    6: Fraction(65, 36),
    7: Fraction(27, 14),
    8: Fraction(587, 288),
}

# Consecutive differences E(Q_n) = E(Z_n) - E(Z_{n-1}).
BRUTE_EQ = {
    2: Fraction(0),
    3: Fraction(1, 3),
    4: Fraction(1, 6),
    5: Fraction(1, 6),
    6: Fraction(5, 36),
    7: Fraction(31, 252),
    8: Fraction(221, 2016),
}

# Fixed-point-free permutation counts from itertools enumeration.
BRUTE_DERANGEMENTS = [1, 0, 1, 2, 9, 44, 265, 1854]

# 10! * sum_{k<=10} (-1)^k/k!, evaluated with exact rationals (independent
# of the two-term derangement recurrence the package uses).
D10_COUNT = 1334961
D10_PROB_REDUCED = Fraction(16481, 44800)  # == 1334961/3628800


def brute_force_game(n: int) -> tuple[Fraction, Fraction]:
    """(P(deterministic player wins), E(random-player moves)) from pile n.

    Plays out every branch of the literal rules: the random player removes
    k in {1..pile} with weight 1/pile, the deterministic player removes
    exactly one, whoever empties the pile wins. No recurrence involved.
    """

    def walk(pile: int, to_move: str) -> tuple[Fraction, Fraction]:
        if to_move == "R":
            d_acc = Fraction(0)
            s_acc = Fraction(0)
            for k in range(1, pile + 1):
                weight = Fraction(1, pile)
                left = pile - k
                if left == 0:
                    d, s = Fraction(0), Fraction(1)
                else:
                    sub_d, sub_s = walk(left, "D")
                    d, s = sub_d, 1 + sub_s
                d_acc += weight * d
                s_acc += weight * s
            return d_acc, s_acc
        left = pile - 1
        if left == 0:
            return Fraction(1), Fraction(0)
        return walk(left, "R")

    if n < 1:
        raise ValueError("brute force plays real games only (n >= 1)")
    return walk(n, "R")


def count_derangements_by_enumeration(n: int) -> int:
    """Count fixed-point-free permutations of n items the slow, sure way."""
    return sum(
        1
        for perm in permutations(range(n))
        if all(perm[i] != i for i in range(n))
    )


def closed_form_by_terms(n: int) -> Fraction:
    """R_n = 1 - sum_{k=0}^{n} (-1)^k/k!, adding one reduced Fraction per term."""
    total = Fraction(0)
    fact = 1
    for k in range(n + 1):
        if k > 0:
            fact *= k
        total += Fraction((-1) ** k, fact)
    return 1 - total


def closed_form_from_scratch(n: int) -> Fraction:
    """R_n = 1 - sum_{k=0}^{n} (-1)^k/k!, summed over integers from k = n down.

    The sum is n! * sum = sum_k (-1)^k n!/k!, with the running term n!/k!
    built from k = n down to k = 0, and reduced once: O(n) steps for each n.
    """
    total = 0
    term = 1  # n!/k!, starting at k = n
    for k in range(n, 0, -1):
        total += -term if k % 2 else term
        term *= k
    total += term  # the k = 0 term, n!/0! = n!
    return 1 - Fraction(total, term)


def gf_coefficients_by_terms(n_max: int) -> tuple[Fraction, ...]:
    """Coefficients 0..n_max of (sum_i x^i) * (1 - sum_j (-x)^j/j!) in Fractions.

    The convolution runs term by term on reduced Fractions, with no common
    integer scale.
    """
    geometric = [Fraction(1)] * (n_max + 1)
    exp_part = [Fraction(0)] * (n_max + 1)
    fact = 1
    for j in range(1, n_max + 1):
        fact *= j
        exp_part[j] = Fraction((-1) ** (j + 1), fact)
    coeffs = []
    for k in range(n_max + 1):
        c_k = Fraction(0)
        for j in range(k + 1):
            c_k += geometric[k - j] * exp_part[j]
        coeffs.append(c_k)
    return tuple(coeffs)


def gf_coefficients_by_convolution(n_max: int) -> tuple[Fraction, ...]:
    """Coefficients 0..n_max of (sum_i x^i) * (1 - sum_j (-x)^j/j!) over integers.

    The literal O(n_max^2) convolution: the second factor is scaled by
    n_max!, every product coefficient c_k = sum_{j<=k} 1 * e_j is formed
    with its multiplications, and each is reduced once as
    ``Fraction(c_k, n_max!)``.
    """
    geometric = [1] * (n_max + 1)
    exp_part = [0] * (n_max + 1)
    term = 1  # n_max!/j!, starting at j = n_max
    for j in range(n_max, 0, -1):
        exp_part[j] = term if j % 2 else -term
        term *= j
    scale = term  # n_max!
    coeffs = []
    for k in range(n_max + 1):
        c_k = 0
        for j in range(k + 1):
            c_k += geometric[k - j] * exp_part[j]
        coeffs.append(Fraction(c_k, scale))
    return tuple(coeffs)


def gf_running_sum_over_n_max_factorial(n_max: int) -> tuple[Fraction, ...]:
    """Coefficients 0..n_max of (sum_i x^i) * (1 - sum_j (-x)^j/j!), each over n_max!.

    The running integer sum c_k = e_0 + ... + e_k of the n_max!-scaled
    coefficients e_j, with each c_k reduced as ``Fraction(c_k, n_max!)``.
    """
    exp_part = [0] * (n_max + 1)
    term = 1  # n_max!/j!, starting at j = n_max
    for j in range(n_max, 0, -1):
        exp_part[j] = term if j % 2 else -term
        term *= j
    return tuple(Fraction(c_k, term) for c_k in accumulate(exp_part))


def derangement_identity_cross_multiplied(table, counts) -> str:
    """The ``derangement-identity`` line, every row compared cross-multiplied.

    1 - R_n = (den - num)/den and d_n/n! have positive denominators, so the
    row holds exactly when (den - num)*n! == d_n*den.
    """
    if table.n_max != len(counts) - 1:
        return (
            "FAIL derangement-identity: "
            f"table sizes differ: {table.n_max} vs {len(counts) - 1}"
        )
    fact = 1
    for n, (r, d_n) in enumerate(zip(table.r, counts)):
        fact *= max(n, 1)
        if (r.denominator - r.numerator) * fact != d_n * r.denominator:
            return (
                "FAIL derangement-identity: "
                f"1 - R_{n} = {1 - r} but d_{n}/{n}! = {Fraction(d_n, fact)} (n={n})"
            )
    return "PASS derangement-identity"


def telescoping_differences_by_fractions(table) -> str:
    """The ``telescoping-differences`` line, every row a ``Fraction`` difference."""
    fact = 1
    for n in range(1, table.n_max + 1):
        fact *= n
        expected = Fraction((-1) ** (n + 1), fact)
        if table.r[n] - table.r[n - 1] != expected:
            return (
                "FAIL telescoping-differences: "
                f"R_{n} - R_{n - 1} = {table.r[n] - table.r[n - 1]}, "
                f"expected {expected} (n={n})"
            )
    return "PASS telescoping-differences"


def q_recursion_by_fractions(qseq) -> str:
    """The ``q-recursion`` line, every row n*E(Q_n) = 1 - E(Q_{n-1}) in Fractions."""
    if not qseq:
        return "FAIL q-recursion: no E(Q_2), expected 0 (n=2)"
    if qseq[0] != 0:
        return f"FAIL q-recursion: E(Q_2) = {qseq[0]}, expected 0 (n=2)"
    for i in range(1, len(qseq)):
        n = i + 2
        if n * qseq[i] != 1 - qseq[i - 1]:
            return (
                "FAIL q-recursion: "
                f"{n}*E(Q_{n}) = {n * qseq[i]} but 1 - E(Q_{n - 1}) = "
                f"{1 - qseq[i - 1]} (n={n})"
            )
    return "PASS q-recursion"


def steps_vs_q_by_fractions(steps, qseq) -> str:
    """The ``steps-vs-q-recursion`` line, every row E(Z_n) - E(Z_{n-1}) in Fractions."""
    if steps.n_max != len(qseq) + 1:
        return (
            "FAIL steps-vs-q-recursion: "
            f"table sizes differ: {steps.n_max} vs {len(qseq) + 1}"
        )
    for n, value in enumerate(qseq, start=2):
        difference = steps.ez[n - 1] - steps.ez[n - 2]
        if difference != value:
            return (
                "FAIL steps-vs-q-recursion: "
                f"difference table gives E(Q_{n}) = {difference}, "
                f"first-order recursion gives {value} (n={n})"
            )
    return "PASS steps-vs-q-recursion"


def alternating_bound_by_pairs(table) -> str:
    """The ``alternating-bound`` check over all O(n^2) pairs n < m.

    Returns the line ``str(CheckResult)`` prints: ``PASS alternating-bound``
    or ``FAIL alternating-bound: <detail>`` naming the first failing (n, m)
    in ascending n, then ascending m.
    """
    bounds = []
    fact = 1
    for j in range(1, table.n_max + 2):
        fact *= j
        bounds.append(Fraction(1, fact))  # bounds[n] = 1/(n+1)!
    d = [table.d(n) for n in range(table.n_max + 1)]
    for n in range(table.n_max + 1):
        bound_n = bounds[n]
        for m in range(n + 1, table.n_max + 1):
            if abs(d[n] - d[m]) > bound_n:
                return (
                    "FAIL alternating-bound: "
                    f"|D_{n} - D_{m}| = {abs(d[n] - d[m])} exceeds "
                    f"1/{n + 1}! = {bound_n} (n={n}, m={m})"
                )
    return "PASS alternating-bound"


def alternating_bound_over_lcm(table) -> str:
    """The ``alternating-bound`` line from a suffix max/min scan over one common denominator.

    Every R_n is written over the table's least common denominator L as the
    integer r_n = L*R_n; row n fails when the largest or smallest r_m, m > n,
    lies more than L/(n+1)! from r_n, and that row alone is rescanned in
    ascending m.
    """
    scale = math.lcm(*(value.denominator for value in table.r))
    r = [value.numerator * (scale // value.denominator) for value in table.r]
    hi = list(accumulate(reversed(r), max))[::-1]
    lo = list(accumulate(reversed(r), min))[::-1]
    fact = 1
    for n in range(table.n_max):
        fact *= n + 1
        if max(hi[n + 1] - r[n], r[n] - lo[n + 1]) * fact > scale:
            m = next(m for m in range(n + 1, table.n_max + 1) if abs(r[m] - r[n]) * fact > scale)
            return (
                "FAIL alternating-bound: "
                f"|D_{n} - D_{m}| = {abs(table.d(n) - table.d(m))} exceeds "
                f"1/{n + 1}! = {Fraction(1, fact)} (n={n}, m={m})"
            )
    return "PASS alternating-bound"


def closed_form_table_reduced_once(n_max: int) -> tuple[Fraction, ...]:
    """R_0..R_{n_max} from one Horner pass, s_k = k*s_{k-1} + (-1)^k, each
    reduced once as ``Fraction(k! - s_k, k!)``."""
    r = []
    s_k = fact = 1
    for k in range(n_max + 1):
        if k:
            fact *= k
            s_k = k * s_k - 1 if k % 2 else k * s_k + 1
        r.append(Fraction(fact - s_k, fact))
    return tuple(r)


def gf_table_reduced_once(n_max: int) -> tuple[Fraction, ...]:
    """Coefficients 0..n_max of (sum_i x^i) * (1 - sum_j (-x)^j/j!), each
    reduced once as ``Fraction(c_k // (n_max!/k!), k!)`` from the running sum c_k."""
    exp_part = [0] * (n_max + 1)
    ratios = [0] * (n_max + 1)
    term = 1  # n_max!/j!, starting at j = n_max
    for j in range(n_max, 0, -1):
        exp_part[j] = term if j % 2 else -term
        ratios[j] = term
        term *= j
    ratios[0] = term  # n_max!
    facts = accumulate(range(1, n_max + 1), mul, initial=1)
    return tuple(
        Fraction(c_k // ratio, fact)
        for c_k, ratio, fact in zip(accumulate(exp_part), ratios, facts)
    )


def expected_steps_reduced_once(n_max: int) -> tuple[Fraction, ...]:
    """E(Z_1)..E(Z_{n_max}) from the n!-scaled summed recursion, each
    reduced once as ``Fraction(t_n, n!)``."""
    ez = [Fraction(1)] * min(n_max, 2)
    fact, w_before, w_last = 2, 1, 4  # (n-1)!, w_{n-2} and w_{n-1} entering step n
    for n in range(3, n_max + 1):
        fact *= n
        t_n = fact + (n - 1) * w_before
        ez.append(Fraction(t_n, fact))
        w_before, w_last = w_last, n * w_last + t_n
    return tuple(ez)


def oracle_walk_per_branch(n: int, memoize: bool = True) -> tuple[Fraction, Fraction]:
    """(D, E(Z)) from ``n`` >= 1 counters, adding each branch with weight 1/pile.

    The random player removes k in {1..pile}; the deterministic player's
    forced move (remove one) follows in place. With ``memoize`` each pile is
    evaluated once; without it the walk re-expands every subtree.
    """
    cache: dict[int, tuple[Fraction, Fraction]] | None = {} if memoize else None

    def walk(pile: int) -> tuple[Fraction, Fraction]:
        if cache is not None and pile in cache:
            return cache[pile]
        weight = Fraction(1, pile)
        d_prob = Fraction(0)
        r_moves = Fraction(0)
        for k in range(1, pile + 1):
            left = pile - k
            if left == 0:  # random player emptied the pile
                sub_d, sub_steps = 0, 0
            elif left == 1:  # deterministic player takes the last counter
                sub_d, sub_steps = 1, 0
            else:
                sub_d, sub_steps = walk(left - 1)
            d_prob += weight * sub_d
            r_moves += weight * (1 + sub_steps)
        if cache is not None:
            cache[pile] = (d_prob, r_moves)
        return d_prob, r_moves

    return walk(n)


def expected_steps_by_fractions(n_max: int) -> tuple[Fraction, ...]:
    """E(Z_1)..E(Z_{n_max}) by E(Z_n) = 1 + (1/n) * sum_{k<=n-2} E(Z_k).

    The prefix sum is a running reduced ``Fraction``, extended by one
    Fraction addition per n.
    """
    ez = [Fraction(1)]
    if n_max >= 2:
        ez.append(Fraction(1))
    prefix = Fraction(1)  # E(Z_1) + ... + E(Z_{n-2}) while computing E(Z_n)
    for n in range(3, n_max + 1):
        ez.append(1 + prefix / n)
        prefix += ez[n - 2]
    return tuple(ez)


class ScalarXoshiro(Xoshiro256StarStar):
    """xoshiro256** stepped once per output, from a seed or from any 256-bit state.

    The scalar step that ``rng._step_lanes`` takes on every lane at once;
    ``draw`` is the package's, over these outputs.
    """

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int) -> None:
        self._s0, self._s1, self._s2, self._s3 = expand_seed(seed)

    @classmethod
    def _from_state(cls, state: tuple[int, int, int, int]) -> "ScalarXoshiro":
        """A generator set to the 256-bit ``state``, with no seed expanded first."""
        rng = cls.__new__(cls)
        rng._s0, rng._s1, rng._s2, rng._s3 = state
        return rng

    @property
    def state(self) -> tuple[int, int, int, int]:
        """Current 256-bit state as four 64-bit words."""
        return (self._s0, self._s1, self._s2, self._s3)

    def next_u64(self) -> int:
        """Next raw 64-bit output."""
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        x = (s1 * 5) & MASK64
        result = (((x << 7) | (x >> 57)) & MASK64) * 9 & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result


def block_by_play_game(n, count, state):
    """``simulate._run_block``'s tallies from ``play_game`` on the scalar generator."""
    rng = ScalarXoshiro._from_state(state)
    wins = steps = squares = 0
    for _ in range(count):
        game = play_game(n, rng)
        wins += game.winner == "D"
        steps += game.r_steps
        squares += game.r_steps * game.r_steps
    return wins, steps, squares


def block_sizes_by_dealing(trials, blocks):
    """The games of each of ``blocks`` blocks when ``trials`` are dealt out one at a time.

    Round-robin dealing gives the even contiguous split that ``simulate``
    derives with ``divmod``: the first ``trials % blocks`` blocks one larger.
    """
    return [len(range(i, trials, blocks)) for i in range(blocks)]


def csv_report(rows):
    """A CSV report of ``rows`` as the standard library's ``csv.DictWriter`` writes it.

    The reference for the CLI's ``_emit``, which joins each line itself. The
    header is the first row's keys and every cell goes through the CLI's own
    ``_csv_cell``, so a comparison tests how the lines are put together.
    """
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows({name: _csv_cell(value) for name, value in row.items()} for row in rows)
    return out.getvalue()
