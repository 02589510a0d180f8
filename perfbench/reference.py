"""Reference values and seeded input generators for the benchmark.

Nothing here imports oplab: every expected answer is a closed form or a
recomputation by a different method (pentagonal recurrence, suffix-state
word counting, exact polynomial arithmetic), so a check never compares the
program with itself.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def ex53_1_dims(n_max: int) -> list[int]:
    """Shuffle relation only: 2^(n-2) normal forms of arity n >= 2."""
    return [0, 1] + [2 ** (n - 2) for n in range(2, n_max + 1)]


def fibonacci_dims(n_max: int) -> list[int]:
    """ex53-2: dims[n] = F(n) with F(1) = F(2) = 1."""
    out = [0, 1]
    while len(out) <= n_max:
        out.append(out[-1] + out[-2])
    return out[:n_max + 1]


def ex53_3_dims(n_max: int) -> list[int]:
    """ex53-3: 0, 1, 1 and then eventually constant 2."""
    return [0, 1, 1] + [2] * (n_max - 2)


def fuss_catalan_dims(k: int, n_max: int) -> list[int]:
    """Free operad on one k-ary generator: trees with m nodes have arity
    (k-1)m + 1 and there are C(km, m) / ((k-1)m + 1) of them."""
    out = [0] * (n_max + 1)
    m = 0
    while (k - 1) * m + 1 <= n_max:
        out[(k - 1) * m + 1] = math.comb(k * m, m) // ((k - 1) * m + 1)
        m += 1
    return out


def partition_numbers(n_max: int) -> list[int]:
    """p(n) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def floor_power(n: int, num: int, den: int) -> int:
    """floor(n^(num/den)) exactly, as the integer den-th root of n^num."""
    x = n ** num
    r = int(round(x ** (1.0 / den)))
    while r ** den > x:
        r -= 1
    while (r + 1) ** den <= x:
        r += 1
    return r


def floorpow_dims(num: int, den: int, n_max: int) -> list[int]:
    """Partial sums telescope to floor(n^alpha); dims[0] = 0, dims[1] = 1."""
    out, prev = [0, 1], 1
    for n in range(2, n_max + 1):
        cur = floor_power(n, num, den)
        out.append(cur - prev)
        prev = cur
    return out[:n_max + 1]


def staircase_dims(num: int, den: int, n_max: int) -> list[int]:
    """Staircase algebra with growth exponent r = num/den: q = (r-1)/2 and
    dims[n] = 1 + n + (f-1) f / 2 with f = floor(n^q), for n >= 2."""
    qn, qd = num - den, 2 * den
    out = [1, 2]
    for n in range(2, n_max + 1):
        f = floor_power(n, qn, qd)
        out.append(1 + n + (f - 1) * f // 2)
    return out[:n_max + 1]


def log_pointwise(values: list[int]) -> float:
    """log_N of the last partial sum, the growth estimator's pointwise value."""
    return math.log(sum(values)) / math.log(len(values) - 1)


# ---------------------------------------------------------------------------
# words avoiding factors (chain presentations and operadized algebras)
# ---------------------------------------------------------------------------


def avoiding_word_counts(letters: dict[str, int], forbidden: list[str],
                         max_weight: int) -> list[int]:
    """counts[w] = words avoiding every forbidden factor whose letter weights
    sum to w, by dynamic programming over the last (longest factor - 1)
    letters of each word."""
    keep = max((len(f) for f in forbidden), default=1) - 1
    counts = [0] * (max_weight + 1)
    # frontier[w] maps a word suffix to the number of words of weight w ending in it
    frontier: list[dict[str, int]] = [dict() for _ in range(max_weight + 1)]
    frontier[0][""] = 1
    for w in range(max_weight + 1):
        for suffix, c in frontier[w].items():
            counts[w] += c
            for x, wx in letters.items():
                if w + wx > max_weight:
                    continue
                word = suffix + x
                if any(word.endswith(f) for f in forbidden):
                    continue
                tail = word[-keep:] if keep else ""
                frontier[w + wx][tail] = frontier[w + wx].get(tail, 0) + c
    return counts


CHAIN_ARITIES = {"a": 2, "b": 3}


def chain_dims(forbidden: list[str], n_max: int) -> list[int]:
    """Arity dims of a chain presentation over {a:2, b:3}: a word of letters
    is a chain of nodes, arity 1 + sum(arity - 1), the empty word is the
    identity."""
    weights = {g: k - 1 for g, k in CHAIN_ARITIES.items()}
    counts = avoiding_word_counts(weights, forbidden, n_max - 1)
    return [0] + counts


def _node(name: str, arity: int, slot: int, child: str | None) -> str:
    kids = ["*"] * arity
    if child is not None:
        kids[slot] = child
    return f"{name}({','.join(kids)})"


def chain_presentation(rng: random.Random, forbidden: list[str]) -> str:
    """Presentation over {a:2, b:3} whose normal forms are chains that hang
    off one seeded slot per generator, avoiding the given factors.

    Height-2 relations forbid an internal child anywhere but that slot; each
    factor becomes a chain relation of height len(factor).  The seed picks
    the slots and the order of the relation lines; the dims depend only on
    the factors, so every seed costs about the same.
    """
    slots = {g: rng.randrange(k) for g, k in CHAIN_ARITIES.items()}
    rels = []
    for g, k in CHAIN_ARITIES.items():
        for j in range(k):
            if j != slots[g]:
                for h, kh in CHAIN_ARITIES.items():
                    kids = ["*"] * k
                    kids[j] = _node(h, kh, 0, None)
                    rels.append(f"{g}({','.join(kids)})")
    for word in forbidden:
        lit = None
        for g in reversed(word):
            lit = _node(g, CHAIN_ARITIES[g], slots[g], lit)
        rels.append(lit)
    rng.shuffle(rels)
    head = [f"generator {g} {k}" for g, k in CHAIN_ARITIES.items()]
    return "\n".join(head + [f"relation {r}" for r in rels]) + "\n"


def polynomial_algebra(rng: random.Random, nvars: int) -> tuple[list[str], list[tuple[str, ...]]]:
    """A monomial algebra of polynomial growth: words must be sorted in a
    seeded variable order, and one seeded variable has runs of at most
    three.  The Hilbert series is the same for every seed."""
    names = [f"x{i + 1}" for i in range(nvars)]
    rank = rng.sample(names, nvars)
    forbidden = [(rank[j], rank[i]) for i in range(nvars) for j in range(i + 1, nvars)]
    forbidden.append((rng.choice(names),) * 4)
    return names, forbidden


def algebra_text(names: list[str], forbidden: list[tuple[str, ...]]) -> str:
    return "".join(f"var {v}\n" for v in names) + "".join(
        "forbid " + " ".join(w) + "\n" for w in forbidden)


def algebra_dims(names: list[str], forbidden: list[tuple[str, ...]], n_max: int) -> list[int]:
    """Hilbert dims: words of each length avoiding the forbidden words."""
    letter = {v: chr(ord("A") + i) for i, v in enumerate(names)}
    words = ["".join(letter[v] for v in w) for w in forbidden]
    return avoiding_word_counts({c: 1 for c in letter.values()}, words, n_max)


def operadized_dims(names: list[str], forbidden: list[tuple[str, ...]], n_max: int) -> list[int]:
    """Arity dims of the operadization: identity at arity 1, and the words
    of length l at arity d + l(d-1), d the number of variables."""
    d = len(names)
    out = [0] * (n_max + 1)
    if n_max >= 1:
        out[1] = 1
    for l, c in enumerate(algebra_dims(names, forbidden, n_max)):
        n = d + l * (d - 1)
        if n > n_max:
            break
        out[n] += c
    return out


# ---------------------------------------------------------------------------
# exact polynomial and recurrence arithmetic
# ---------------------------------------------------------------------------


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def poly_gcd_degree(a: list[int], b: list[int]) -> int:
    """Degree of gcd(a, b) over the rationals (coefficients low degree first)."""
    x, y = _trim([Fraction(c) for c in a]), _trim([Fraction(c) for c in b])
    while y:
        r = x[:]
        while len(r) >= len(y) and r:
            f = r[-1] / y[-1]
            shift = len(r) - len(y)
            for i, c in enumerate(y):
                r[shift + i] -= f * c
            r = _trim(r)
        x, y = y, r
    return len(x) - 1


def rational_series(num: list[int], den: list[int], n_max: int) -> list[int]:
    """Coefficients of num/den with den[0] = 1, by the recurrence den * S = num."""
    out = []
    for n in range(n_max + 1):
        acc = num[n] if n < len(num) else 0
        for j in range(1, min(n, len(den) - 1) + 1):
            acc -= den[j] * out[n - j]
        out.append(acc)
    return out


def random_rational(rng: random.Random, n_max: int) -> tuple[list[int], list[int], list[int]]:
    """num/den in lowest terms with deg den = 3, deg num = 2 and den[0] = 1."""
    while True:
        den = [1] + [rng.randint(-3, 3) for _ in range(2)] + [rng.choice((-2, -1, 1, 2))]
        num = [rng.randint(-4, 4) for _ in range(2)] + [rng.choice((-3, -2, -1, 1, 2, 3))]
        if poly_gcd_degree(num, den) == 0:
            return num, den, rational_series(num, den, n_max)


def random_holonomic(rng: random.Random, n_max: int) -> list[int]:
    """c_n = (a1 + b1 n) c_{n-1} + (a2 + b2 n) c_{n-2}: order 2, degree 1."""
    a1, a2 = rng.randint(-3, 3), rng.randint(-3, 3)
    b1, b2 = rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))
    c = [rng.randint(1, 5), rng.randint(1, 5)]
    for n in range(2, n_max + 1):
        c.append((a1 + b1 * n) * c[n - 1] + (a2 + b2 * n) * c[n - 2])
    return c


def annihilates(polys: list[list[int]], coeffs: list[int], start: int) -> bool:
    """Does sum_i p_i(n) c_{n-i} vanish for every n from start to the end?"""
    for n in range(start, len(coeffs)):
        acc = 0
        for i, poly in enumerate(polys):
            acc += sum(c * n ** k for k, c in enumerate(poly)) * coeffs[n - i]
        if acc:
            return False
    return True
