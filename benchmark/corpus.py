"""Seeded inputs for the benchmark workloads, as problem-document texts.

The same seed gives the same texts.  The program receives only these texts;
the estimates that shape the corpora come from the oracle, never from the
package.

Per-instance cost of a span problem is heavy-tailed: at n = 7 one dense
instance takes 3 ms and another several seconds.  A plain draw of ~100
instances therefore differs from seed to seed by tens of percent in total
work.  The span corpora are instead stratified: instances are drawn until
each band of estimated cost holds a fixed count, so every seed gives a corpus
of the same make-up, and instances above the last band are left out.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import oracle

DATA = Path(__file__).resolve().parent / "data"

# Bands (lo, hi, count) of estimated milliseconds.  Counts follow the
# natural frequency of each band, so few draws are rejected, and they place
# the median and the 90th percentile inside a band rather than on an edge;
# the bands holding them are narrow and full, since a percentile of a corpus
# moves with the density of instances around it.
SQUARE_BANDS = ((0, 2, 38), (2, 5, 40), (5, 7, 18), (7, 9, 34), (9, 12, 12),
                (12, 30, 36), (30, 55, 18), (55, 75, 30), (75, 150, 4),
                (150, 250, 5))
TALL_BANDS = ((0, 15, 16), (15, 30, 20), (30, 40, 20), (40, 50, 30),
              (50, 60, 10), (60, 100, 20), (100, 130, 6), (130, 160, 16))
SQUARE_MAX_POOLED = 500

# Activity counts of one schedule pass: mostly n = 20 so that a run times
# over 100 operations and the median falls among alike schedules, a block of
# n = 28 around the 90th percentile, and n = 34 and 40 for the O(n^3)
# products.  The n = 22 and 24 schedules have half-unit lags.
SCHEDULE_SIZES = (20,) * 36 + (22,) * 10 + (24,) * 8 + (28,) * 8 + (34, 40)
SCHEDULE_HALF_UNITS = (22, 24)
SCHEDULE_MAX_SELECTIONS = 1

FIXED_CLI_INPUTS = ("span_demo", "span_reduced_demo", "schedule_demo")


def document(kind: str, **fields) -> str:
    payload = {"kind": kind, "semifield": "max-plus"}
    payload.update({k: oracle.to_json(v) for k, v in fields.items()})
    return json.dumps(payload) + "\n"


def _rows(rng, m, n, density, lo=-5, hi=5):
    rows = []
    for _ in range(m):
        row = [rng.randint(lo, hi) if rng.random() < density else None
               for _ in range(n)]
        if all(a is None for a in row):
            row[rng.randrange(n)] = rng.randint(lo, hi)
        rows.append(row)
    return rows


def _span_draw(rng, m, n):
    return (_rows(rng, m, n, 0.8), [rng.randint(-5, 5) for _ in range(m)],
            [rng.randint(-5, 5) for _ in range(n)])


def _square_estimate(A, p, q):
    """Estimated ms of complete_solution.

    The estimate grows with the pooled and distinct-ray counts, as reduction
    to independent columns dominates; fitted on 4,300 random instances with
    n = 5-7 (log residual 0.25).  Returns None above SQUARE_MAX_POOLED.
    """
    n = len(q)
    delta = oracle.span_delta(A, p, q)
    sparse = oracle.sparsified(A, p, q, delta)
    # a walk emitting k selections copies at most k n (n + 1) / 2 entries
    walk = oracle.selection_walk(
        sparse, p, max_copy_work=SQUARE_MAX_POOLED * (n + 1) // 2 * n)
    if walk is None:
        return None
    pooled, rays = oracle.selection_rays(sparse, p, q, delta, walk[0])
    if pooled > SQUARE_MAX_POOLED:
        return None
    return math.exp(-3.166 + 0.064 * n) * pooled ** 0.561 * rays ** 0.925


def _tall_estimate(A, p, q):
    """Estimated ms of complete_solution from the walk's copy work.

    The walk dominates tall problems; fitted on 500 instances with
    m = 50-100, n = 3 (log residual 0.22).  Returns None above the last band.
    """
    delta = oracle.span_delta(A, p, q)
    walk = oracle.selection_walk(oracle.sparsified(A, p, q, delta), p,
                                 max_copy_work=TALL_BANDS[-1][1] / 4.8e-4)
    return None if walk is None else walk[1] * 4.8e-4


def _banded(rng, draw, estimate, bands, max_draws=20000):
    """Draw until every band (lo, hi, count) holds count instances.

    estimate returns the estimated ms or None.  Returns the instances in
    the order drawn.
    """
    slots = [[] for _ in bands]
    for index in range(max_draws):
        cand = draw(rng)
        est = estimate(*cand)
        if est is not None:
            for slot, (lo, hi, count) in zip(slots, bands):
                if lo <= est < hi and len(slot) < count:
                    slot.append((index, cand))
                    break
        if all(len(slot) == band[2] for slot, band in zip(slots, bands)):
            return [cand for _, cand in sorted(s for slot in slots for s in slot)]
    raise RuntimeError("corpus bands not filled; widen the bands")


def span_square(seed: int) -> tuple[list[str], int]:
    """Dense n x n problems, n = 5-7, 80% finite entries in [-5, 5].

    Returns the texts and the index of the instance for peak_heap_kib: the
    fixed problem in data/span_square_probe.json, which ends every corpus.
    It is an n = 7 draw of the same family with 469 pooled columns, near
    the cap; a fixed one, because the peak of a seeded instance of that size
    varies by 10% with more than its size.
    """
    found = _banded(random.Random(f"span-square:{seed}"),
                    lambda r: _span_draw(r, *(2 * [r.randint(5, 7)])),
                    _square_estimate, SQUARE_BANDS)
    texts = [document("span", A=A, p=p, q=q) for A, p, q in found]
    texts.append((DATA / "span_square_probe.json").read_text(encoding="utf-8"))
    return texts, len(texts) - 1


def span_tall(seed: int) -> tuple[list[str], int]:
    """Tall problems, m = 50-100 rows, n = 3, 80% finite entries in [-5, 5].

    Returns the texts and the index of the instance with the most rows,
    whose copies of the walk's work matrix set peak_heap_kib.
    """
    found = _banded(random.Random(f"span-tall:{seed}"),
                    lambda r: _span_draw(r, r.randint(50, 100), 3),
                    _tall_estimate, TALL_BANDS)
    rows = [len(A) for A, _, _ in found]
    return ([document("span", A=A, p=p, q=q) for A, p, q in found],
            rows.index(max(rows)))


def schedule(rng, n: int, half: bool) -> dict:
    """Acyclic schedule, feasible by construction.

    A is lower-triangular with a finite diagonal, B and C strictly
    lower-triangular, so B (+) C A is strictly lower-triangular and has no
    cycle.  Any finite deadlines admit a schedule; half-unit lags make the
    package compute with Fractions.
    """
    def lag():
        k = rng.randint(-6, 6)
        return Fraction(k, 2) if half else k

    def lower(density, strict):
        return [[lag() if (j < i and rng.random() < density)
                 or (j == i and not strict) else None for j in range(n)]
                for i in range(n)]

    return {"A": lower(0.5, False), "B": lower(0.15, True),
            "C": lower(0.15, True), "f": [rng.randint(0, 20) for _ in range(n)]}


def _few_selections(inst) -> bool:
    """Whether the reduced span problem over D = A (B (+) C A)* emits at most
    SCHEDULE_MAX_SELECTIONS selections.  Products, not reduction, then
    dominate, and schedules of one n cost about the same."""
    A, B, C = inst["A"], inst["B"], inst["C"]
    n = len(A)
    CA = oracle.matmul(C, A)
    G = [[oracle.join(B[i][j], CA[i][j]) for j in range(n)] for i in range(n)]
    D = oracle.matmul(A, oracle.closure(G))
    p = [0] * n
    q = [-max(v for v in col if v is not None) for col in zip(*D)]
    delta = oracle.span_delta(D, p, q)
    limit = (SCHEDULE_MAX_SELECTIONS + 1) * n * n * (n + 1) // 2
    walk = oracle.selection_walk(oracle.sparsified(D, p, q, delta), p,
                                 max_copy_work=limit)
    return walk is not None and len(walk[0]) <= SCHEDULE_MAX_SELECTIONS


def schedule_jit(seed: int) -> tuple[list[str], int]:
    """Schedules of SCHEDULE_SIZES activities.

    Returns the texts and the index of the largest, for peak_heap_kib.
    """
    rng = random.Random(f"schedule-jit:{seed}")
    out = []
    for n in SCHEDULE_SIZES:
        half = n in SCHEDULE_HALF_UNITS
        inst = schedule(rng, n, half)
        while not _few_selections(inst):
            inst = schedule(rng, n, half)
        out.append(document("schedule", **inst))
    return out, SCHEDULE_SIZES.index(max(SCHEDULE_SIZES))


def cli_inputs(seed: int) -> list[tuple[str, str]]:
    """(name, text) of the small problems the CLI round trip runs on.

    The three fixed documents are the samples shipped with the package
    tests; the seeded ones are span problems of dimension 2 (plotted), 3 and
    4, and schedules of 3 and 4 activities.
    """
    rng = random.Random(f"cli-roundtrip:{seed}")
    out = [(name, (DATA / f"{name}.json").read_text(encoding="utf-8"))
           for name in FIXED_CLI_INPUTS]
    for index in range(5):
        A, p, q = _span_draw(rng, rng.randint(2, 4), 2)
        out.append((f"span2-{index}", document("span", A=A, p=p, q=q)))
    for index, n in enumerate((3, 4, 4)):
        A, p, q = _span_draw(rng, n, n)
        out.append((f"span{n}-{index}", document("span", A=A, p=p, q=q)))
    for index, n in enumerate((3, 4, 4)):
        inst = schedule(rng, n, index == 2)
        out.append((f"schedule{n}-{index}", document("schedule", **inst)))
    return out
