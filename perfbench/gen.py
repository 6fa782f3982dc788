"""Seeded ring-network scenario generator for the benchmark workloads.

A network on n vertices has a forward ring i -> i+1 weighted c*cos(pi*t)^2,
a reverse ring i+1 -> i weighted c*sin(pi*t)^2, and one chord i -> p(i) per
vertex with constant weight 1 - c, where p is a random permutation that
maps no vertex to itself or a ring neighbour. So m = 3n, and every vertex has
three edges in and three out, which keeps the work the same for every seed:
the schedule has 9n nonzero entries. Only cos(pi*t)^2, sin(pi*t)^2 and
constants appear, so every generated schedule is 1-periodic under any
reading of the periodicity rule. At t = 0 only the forward ring and the
chords carry flow, at t = 1/2 only the reverse ring and the chords: each is
strongly connected, and the generator refuses a scenario where the installed
flownet says otherwise or where `validate` does not pass.

    python3 perfbench/gen.py --seed 3 --vertices 50 --out scenario.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys


def ring_scenario(seed: int, n: int) -> dict:
    """Scenario document of a ring network with n vertices and 3n edges."""
    if n < 5:
        raise ValueError(f"need at least 5 vertices for chords off the ring, got {n}")
    rng = random.Random(seed)
    ring = {(i, i % n + 1) for i in range(1, n + 1)} | {(i % n + 1, i) for i in range(1, n + 1)}
    targets = list(range(1, n + 1))
    while True:
        rng.shuffle(targets)
        if all(t != i and (i, t) not in ring for i, t in zip(range(1, n + 1), targets)):
            break
    edges = [[i, i % n + 1] for i in range(1, n + 1)]
    edges += [[i % n + 1, i] for i in range(1, n + 1)]
    edges += [[i, t] for i, t in zip(range(1, n + 1), targets)]

    weights: dict[str, str] = {}
    for i in range(1, n + 1):
        fwd, rev, chord = i, n + (i - 2) % n + 1, 2 * n + i
        # Multiples of 1/20, so the weights at a vertex sum to 1 to within
        # float rounding.
        ring_share = rng.randint(6, 16)
        c = ring_share / 20
        weights[f"{i},{fwd}"] = f"{c!r}*cos(pi*t)^2"
        weights[f"{i},{rev}"] = f"{c!r}*sin(pi*t)^2"
        weights[f"{i},{chord}"] = repr((20 - ring_share) / 20)

    initial = {}
    for j in range(1, 3 * n + 1):
        a, b = rng.randint(1, 9) / 10, rng.randint(0, 9) / 10
        initial[str(j)] = f"{a!r} + {b!r}*x^2" if b else repr(a)
    return {"graph": {"n": n, "edges": edges}, "mode": "flow",
            "weights": weights, "initial": initial, "s": 0.0, "N": 400}


def check_scenario(path: str) -> None:
    """Raise SystemExit unless the scenario validates and its t = 0 and
    t = 1/2 active patterns are strongly connected."""
    import flownet
    from flownet.spectral import active_subpattern

    sc = flownet.load_scenario(path)
    if not flownet.validation_summary(sc)["passed"]:
        raise SystemExit(f"generated scenario {path} does not pass validate")
    for t in (0.0, 0.5):
        pattern = flownet.support_pattern(sc.matrix, t, sc.tolerances.zero)
        active, sub = active_subpattern(pattern)
        if active.size == 0 or not flownet.is_strongly_connected(sub):
            raise SystemExit(f"generated scenario {path}: pattern at t={t} is reducible")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--vertices", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    doc = ring_scenario(args.seed, args.vertices)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    check_scenario(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
