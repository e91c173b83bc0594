"""The YCSB operation draw as plain rules: re-sum the mix on every draw.

``repro.workloads.ycsb.YCSBWorkload`` sums its mix once into cumulative
weights; from the same ``rng.random()`` it must draw the same operation as
this rule, which adds the weights up again for every draw.
"""

from __future__ import annotations


def weighted_choice(rng, weighted):
    """Pick one item from ``[(item, weight), ...]`` proportionally to weight."""
    total = sum(w for _, w in weighted)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    point = rng.random() * total
    acc = 0.0
    for item, weight in weighted:
        acc += weight
        if point <= acc:
            return item
    return weighted[-1][0]
