"""Seeded fleet-scale symptom transactions for the rules_fleet workload.

Shape (stock size): 3000 transactions over 40 KPIs (80 HIGH/LOW items) and
6 KQI consequents. 24 cause patterns, 4 per KQI and pairwise disjoint,
alternate between 2 and 3 symptoms; each is planted in the same number of
transactions, 60 % of them in all. On top of that, 90 % of transactions
carry 0-3 noise symptoms and a 10 % wide tail carries 8-12, so the widest
transactions hold about 15 items. A transaction never holds both states of
one KPI.

Pattern sizes, transactions per pattern and per KQI, and noise widths are
exact and the same for every seed; the seed picks the items and the order. The number of rules
mined, and so the work of every later step, depends steeply on how many
noise symptoms meet each pattern, so drawing those counts per transaction
made the work differ by a factor of two between seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from cellwatch.fingerprints import Itemset, SymptomItem, SymptomState, Transaction

WINDOW_LEN = 300


@dataclass(frozen=True)
class FleetSize:
    transactions: int
    kpis: int
    kqis: int
    patterns_per_kqi: int
    planted_frac: float = 0.6
    wide_frac: float = 0.1
    narrow_noise: tuple[int, int] = (0, 3)
    wide_noise: tuple[int, int] = (8, 12)


STOCK = FleetSize(transactions=3000, kpis=40, kqis=6, patterns_per_kqi=4)
TINY = FleetSize(transactions=400, kpis=24, kqis=2, patterns_per_kqi=5, wide_noise=(5, 7))


@dataclass
class Fleet:
    transactions: list[Transaction]
    patterns: list[tuple[Itemset, str, str]]  # antecedent, consequent, cause label

    def labels(self) -> dict[tuple[Itemset, str], str]:
        return {(items, kqi): label for items, kqi, label in self.patterns}


def generate_fleet(seed: int, size: FleetSize = STOCK) -> Fleet:
    rng = random.Random(seed)
    kpis = [f"kpi_{i:02d}" for i in range(size.kpis)]
    kqis = [f"kqi_{i}" for i in range(size.kqis)]
    states = (SymptomState.HIGH, SymptomState.LOW)

    used: set[SymptomItem] = set()
    patterns: list[tuple[Itemset, str, str]] = []
    for kqi in kqis:
        for _ in range(size.patterns_per_kqi):
            width = 2 + len(patterns) % 2
            while True:
                items = frozenset(
                    SymptomItem(kpi, rng.choice(states)) for kpi in rng.sample(kpis, width)
                )
                if not items & used:
                    break
            used |= items
            patterns.append((items, kqi, f"cause_{len(patterns):02d}"))

    n, n_patterns = size.transactions, len(patterns)
    n_planted = round(size.planted_frac * n)
    every = round(1 / size.wide_frac)
    narrow = range(size.narrow_noise[0], size.narrow_noise[1] + 1)
    wide = range(size.wide_noise[0], size.wide_noise[1] + 1)
    slots: list[tuple[Itemset, str, int]] = []
    for k in range(n):
        # every pattern meets the same sequence of noise widths
        rnd = k // n_patterns
        if rnd % every == 0:
            width = wide[(rnd // every) % len(wide)]
        else:
            width = narrow[(rnd - rnd // every - 1) % len(narrow)]
        if k < n_planted:
            items, kqi, _ = patterns[k % n_patterns]
        else:
            items, kqi = frozenset(), kqis[k % len(kqis)]
        slots.append((items, kqi, width))
    rng.shuffle(slots)

    transactions: list[Transaction] = []
    for i, (items, kqi, width) in enumerate(slots):
        taken = {it.metric_name for it in items}
        free = [k for k in kpis if k not in taken]
        noise = rng.sample(free, min(len(free), width))
        items = items | {SymptomItem(kpi, rng.choice(states)) for kpi in noise}
        cell = f"cell-{i % 97:03d}"
        transactions.append(Transaction(items=items, consequent=kqi, key=(cell, i * WINDOW_LEN)))
    return Fleet(transactions=transactions, patterns=patterns)
