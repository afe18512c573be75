"""The rays of S0 against the extremal rays of the minimizer cone.

A nonzero x attains the minimum Delta of q^- x (A x)^- p iff
(A x)_i >= Delta^-1 p_i q_j^-1 x_j for every row i with p_i nonzero and every
column j.  Each condition is a tropical halfspace, and it holds for every x
when a_ij reaches the threshold, so only the entries the sparsification drops
constrain.  The tropical double description method (Allamigeon, Gaubert &
Goubault, STACS 2010) starts from the unit vectors and intersects with one
halfspace at a time.  A closed max-plus cone has a unique set of extremal
rays, and a multiple of each lies in every generating set, so the rays of S0
must be exactly these: S0 spans every minimizer, holds only minimizers, and
is independent.  The oracle works on lists of ints, None for the max-plus
zero, and uses nothing of tropspan.
"""

import random

from conftest import random_schedule_instance, random_span_problem
from tropspan import MAX_PLUS, ZERO, complete_solution, reduced_span_problem
from tropspan.linalg import ray_key


def times(c, v):
    return None if v is None else c + v


def plus(a, b):
    return b if a is None else a if b is None else max(a, b)


def dot(a, x):
    """max_k a_k + x_k; None when no term is finite."""
    return max((ak + xk for ak, xk in zip(a, x)
                if ak is not None and xk is not None), default=None)


def in_span(gens, x):
    """Whether the greatest coefficients c with gens c <= x give x back."""
    total = [None] * len(x)
    for g in gens:
        if all(xk is not None for gk, xk in zip(g, x) if gk is not None):
            c = min(xk - gk for gk, xk in zip(g, x) if gk is not None)
            total = [plus(t, times(c, gk)) for t, gk in zip(total, g)]
    return total == x


def extremal(gens):
    """Drop, one at a time, each generator the others span."""
    kept, k = list(gens), 0
    while k < len(kept):
        if in_span(kept[:k] + kept[k + 1:], kept[k]):
            del kept[k]
        else:
            k += 1
    return kept


def minimizer_rays(A, p, q):
    """Delta, and the extremal rays of the minimizers scaled to a first
    finite entry of 0."""
    n = len(q)
    delta = max(pi - dot(row, q) for row, pi in zip(A, p) if pi is not None)
    gens = [[0 if k == j else None for k in range(n)] for j in range(n)]
    for row, pi in zip(A, p):
        for j, (a, qj) in enumerate(zip(row, q)):
            if pi is None or a is not None and a >= pi - delta - qj:
                continue
            # the halfspace row . x >= b + x_j
            b = pi - delta - qj
            lhs = [dot(row, g) for g in gens]
            rhs = [times(b, g[j]) for g in gens]
            ge = [k for k, r in enumerate(rhs)
                  if r is None or lhs[k] is not None and lhs[k] >= r]
            lt = [k for k in range(len(gens)) if k not in ge]
            mixed = [[plus(times(rhs[h], gk), times(lhs[g], hk))
                      for gk, hk in zip(gens[g], gens[h])]
                     for g in ge if lhs[g] is not None for h in lt]
            gens = extremal([gens[g] for g in ge] + mixed)
    rays = set()
    for g in gens:
        first = next(v for v in g if v is not None)
        rays.add(tuple(times(-first, v) for v in g))
    return delta, rays


def plain(entries):
    return [None if e is ZERO else e for e in entries]


def check(prob, prune):
    sol = complete_solution(prob, prune=prune)
    A = [plain(row) for row in prob.A.entries]
    delta, rays = minimizer_rays(A, plain(prob.p.entries), plain(prob.q.entries))
    assert sol.delta == delta
    s0 = {tuple(plain(ray_key(MAX_PLUS, col)))
          for col in zip(*sol.generators.generators.entries)}
    assert s0 == rays, (A, prob.p.entries, prob.q.entries)
    return len(rays)


def test_s0_rays_are_the_extremal_rays_of_the_minimizers():
    rng = random.Random(3)
    zeros = rays = 0
    for _ in range(500):
        prob = random_span_problem(rng, max_dim=5)
        zeros += any(e is ZERO for e in prob.p.entries + sum(prob.A.entries, ()))
        for prune in (True, False):
            rays += check(prob, prune)
    assert zeros > 200 and rays > 1000


def test_s0_rays_of_reduced_schedule_problems():
    # weights at most 0 keep most draws free of positive cycles, so sampling
    # stays cheap up to n = 7
    rng = random.Random(5)
    rays = 0
    for _ in range(40):
        inst = random_schedule_instance(rng, rng.randint(2, 7), lo=-4, hi=0)
        rays += check(reduced_span_problem(inst), True)
    assert rays > 250
