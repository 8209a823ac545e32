"""Select the frozen edge weights for the ten-node preset model.

Stage 1 scores candidate draws from the documented weight grid by exact
decision margins:

* exact-scalings threshold ordering (a=sqrt(2), eps=(0.1, 0.05, 0.1)):
  eligible nodes sit at delta exactly 0; every ineligible node must
  miss the acceptance band by a wide margin at every pass;
* pairwise margin at the data preset (a=1.01): every non-initial node
  needs at least one partner that, inflated alone against it, shows a
  large rejection deficit (reported as a fraction of a^2 - 1);
* argmax worst frontier at the data preset: with only one ancestor of a
  node still unordered, the node must remain clearly ineligible.

Stage 2 replays the end-to-end statistical criterion on a shortlist:
simulate n=10^4 from the candidate model and learn as ``learn
--scalings spectral`` does, with the maximum-likelihood order of
``FrechetMleScalings`` and the shared polar recovery, then count seeds
with a topologically consistent order and small max coefficient error.
The frozen preset was chosen when stage 2 ordered with a pairwise
screen on angular estimates, which the package no longer has; stage 1
and its pairwise margin are unchanged.

Run:  python3 scripts/select_preset_weights.py [n_seeds] [shortlist]
"""

from __future__ import annotations

import sys

import numpy as np

from maxlinear import (
    EmptyGenerationError,
    ExactScalings,
    FrechetMleScalings,
    NoInitialNodeError,
    ReorderConfig,
    coefficients_from_squares,
    learn_generations,
    learn_order,
    random_weights,
    simulate,
    squared_coefficients,
    standardize,
    ten_node_dag,
)
from maxlinear.dag import path_coefficients
from maxlinear.estimation import empirical_frechet_transform
from maxlinear.ordering import _pass_deltas
from maxlinear.pipeline import _relabel_to_original, shared_polar_scaling_vector

SIM = ReorderConfig.simulation_preset()
DATA = ReorderConfig.data_preset()
GENERATIONS = ({10}, {8, 9}, {5, 6, 7}, {1, 2, 3, 4})


def brute_initial_delta(a2: np.ndarray, m: int, factor: float) -> float:
    scaled = a2.copy()
    scaled[m - 1] *= factor**2
    return scaled.max(axis=0).sum() - a2.max(axis=0).sum() - (factor**2 - 1.0)


def brute_generation_delta(
    a2: np.ndarray, h: tuple[int, ...], m: int, factor: float
) -> float:
    rows = [x - 1 for x in (*h, m)]
    scaled = a2.copy()
    scaled[rows] *= factor**2
    full = scaled.max(axis=0).sum()
    base = a2.max(axis=0).sum()
    sub = a2[rows].max(axis=0).sum()
    return full - base - (factor**2 - 1.0) * sub


def brute_pair_delta(a2: np.ndarray, i: int, m: int, factor: float) -> float:
    pair = a2[[m - 1, i - 1]]
    scaled = pair.copy()
    scaled[0] *= factor**2
    return scaled.max(axis=0).sum() - pair.max(axis=0).sum() - (factor**2 - 1.0)


def exact_margins(coef: np.ndarray) -> dict[str, float]:
    dag = ten_node_dag()
    d = coef.shape[0]
    a2 = np.square(coef)
    provider = ExactScalings(coef)
    out: dict[str, float] = {}

    init, _ = _pass_deltas(provider, (), SIM)
    for m, val in init.items():
        assert abs(val - brute_initial_delta(a2, m, SIM.a)) < 1e-10
    out["sim_initial_reject"] = min(-init[m] for m in range(1, d + 1) if m != 10)
    out["eligible_closeness"] = abs(init[10])

    prefix: tuple[int, ...] = ()
    inelig = np.inf
    elig_close = out["eligible_closeness"]
    for gen in GENERATIONS[:-1]:
        prefix = tuple(sorted((*prefix, *gen)))
        rest = [m for m in range(1, d + 1) if m not in prefix]
        deltas, _ = _pass_deltas(provider, prefix, SIM)
        for m in rest:
            assert abs(deltas[m] - brute_generation_delta(a2, prefix, m, SIM.a)) < 1e-10
        eligible = {m for m in rest if set(dag.ancestors(m)) <= set(prefix)}
        for m in rest:
            if m in eligible:
                elig_close = max(elig_close, abs(deltas[m]))
            else:
                inelig = min(inelig, -deltas[m])
    out["sim_ineligible_margin"] = inelig
    out["eligible_closeness"] = elig_close

    frac = np.inf
    for m in range(1, d + 1):
        if m == 10:
            continue
        best = max(
            -brute_pair_delta(a2, i, m, DATA.a) for i in range(1, d + 1) if i != m
        )
        frac = min(frac, best / (DATA.a**2 - 1.0))
    out["data_pairwise_reject_fraction"] = frac

    frontier = np.inf
    for m in range(1, d + 1):
        for j in dag.ancestors(m):
            blocked = {m, j} | set(dag.descendants(j))
            h = tuple(s for s in range(1, d + 1) if s not in blocked)
            delta = brute_generation_delta(a2, h, m, DATA.a)
            frontier = min(frontier, -delta / (DATA.a**2 - 1.0))
    out["data_frontier_fraction"] = frontier
    return out


def score(m: dict[str, float]) -> float:
    if m["eligible_closeness"] > 1e-10:
        return -np.inf
    return min(
        (m["sim_initial_reject"] - 0.05) / 0.25,
        (m["sim_ineligible_margin"] - 0.10) / 0.20,
        m["data_pairwise_reject_fraction"] / 0.45,
        m["data_frontier_fraction"] / 0.10,
    )


def end_to_end_success(
    coef: np.ndarray, seeds: int = 30, n: int = 10_000
) -> tuple[int, int, float]:
    """(wins, topological orders, median error) over end-to-end replays."""
    dag = ten_node_dag()
    d = coef.shape[0]
    k = int(np.ceil(np.sqrt(n)))
    wins = 0
    topo_ok = 0
    errs = []
    for seed in range(seeds):
        x = empirical_frechet_transform(simulate(coef, seed, n))
        result = learn_order(FrechetMleScalings(x), DATA)
        disc = result.discovery
        topo = all(
            disc.index(j) < disc.index(m) for m in disc for j in dag.ancestors(m)
        )
        if not topo:
            continue
        topo_ok += 1
        s = shared_polar_scaling_vector(x, result.column_order(), k)
        rec = coefficients_from_squares(squared_coefficients(s, d), d)
        est = _relabel_to_original(rec.matrix, result)
        err = float(np.max(np.abs(est - coef)))
        errs.append(err)
        if err <= 0.15:
            wins += 1
    return wins, topo_ok, float(np.median(errs)) if errs else float("nan")


def main() -> None:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    shortlist = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    dag = ten_node_dag()
    results = []
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        weights = random_weights(dag, rng)
        coef = standardize(path_coefficients(dag, weights))
        margins = exact_margins(coef)
        try:
            res = learn_generations(ExactScalings(coef), SIM)
        except (NoInitialNodeError, EmptyGenerationError):
            continue
        if tuple(map(frozenset, res.generations)) != tuple(map(frozenset, GENERATIONS)):
            continue
        results.append((score(margins), seed, margins, weights, coef))

    results.sort(reverse=True, key=lambda t: t[0])
    print(f"{len(results)} / {n_seeds} draws give correct exact-mode generations\n")
    ranked = []
    for sc, seed, margins, weights, coef in results[:shortlist]:
        wins, topo, med = end_to_end_success(coef)
        ranked.append((wins, topo, sc, seed, margins, weights))
        print(f"seed={seed} score={sc:.4f} wins={wins}/30 topo={topo}/30 med_err={med:.3f}")
        for k, v in margins.items():
            print(f"    {k:32s} {v:+.5f}")
    ranked.sort(reverse=True)
    results = [(r[2], r[3], r[4], r[5], None) for r in ranked] + results[shortlist:]

    best = results[0]
    weights = best[3]
    print("\nfrozen squared weights for seed", best[1])
    entries = []
    for i in range(1, 11):
        for j in sorted(dag.parents(i)):
            entries.append(f"    ({j}, {i}): {float(weights[i - 1, j - 1] ** 2)!r},")
    print("{\n" + "\n".join(entries) + "\n}")


if __name__ == "__main__":
    main()
