"""Grid-search helper used to pick the shipped scenario parameters.

For each candidate parameter set this script runs the library's study
loop (motifroles.evaluation.evaluate_scenario: simulate -> count ->
profile -> cluster -> score, one forked worker per usable CPU) over a seed
range and reports every margin the acceptance gate checks:

    acc_pos / acc_nopos   mean 2-cluster accuracy, positioned vs positionless
    gap                   acc_pos - acc_nopos
    2node_min / 2node_mean  per-run minimum / mean over both positioned
                          centroids of their mass on the M5,1 M5,2 M6,1
                          M6,2 columns (scenario 1 target: >= 0.60)
    split                 fraction of runs where the centroids do not all
                          lean the same way, position 1 against position
                          2, on the reply columns M5,1 M5,2 M6,2
    events                mean simulated event count

Usage: python scripts/tune_scenarios.py [--seeds N] [--scenario 1|2]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from motifroles.evaluation import evaluate_scenario
from motifroles.hawkes import BlockHawkesParams, Excitation


def score_candidate(name: str, params: BlockHawkesParams, delta: float,
                    seeds: range) -> None:
    t0 = time.time()
    runs = evaluate_scenario(params, delta, seeds, k=2, min_motifs=10).runs
    acc_pos = np.mean([r.accuracy_positioned for r in runs])
    acc_nopos = np.mean([r.accuracy_positionless for r in runs])
    two_node = [min(r.two_node_mass) for r in runs]
    split = np.mean([r.split_ok for r in runs])
    events = np.mean([r.n_events for r in runs])
    took = time.time() - t0
    print(f"{name:28s} acc_pos={acc_pos:.3f} acc_nopos={acc_nopos:.3f} "
          f"gap={acc_pos - acc_nopos:+.3f} 2node_min={min(two_node):.3f} "
          f"2node_mean={np.mean(two_node):.3f} split={split:.2f} "
          f"events={events:6.0f} ({took:.1f}s)")


def scenario1_candidate(mu: float, a_self: float, a_rec: float,
                        horizon: float, beta: float = 1.0,
                        beta_rec: float | None = None) -> BlockHawkesParams:
    return BlockHawkesParams(
        n_nodes=20,
        block_probs=(0.5, 0.5),
        horizon=horizon,
        baseline=((mu, mu), (mu, mu)),
        excitations=(
            Excitation("self", (0, 0), alpha=a_self, beta=beta),
            Excitation("self", (0, 1), alpha=a_self, beta=beta),
            Excitation("self", (1, 1), alpha=a_self, beta=beta),
            Excitation("self", (1, 0), alpha=a_self, beta=beta),
            Excitation("reciprocal", (1, 0), alpha=a_rec,
                       beta=beta_rec if beta_rec is not None else beta),
        ),
    )


def scenario2_candidate(mu: float, a_sr: float, a_bc: float,
                        horizon: float, beta: float = 1.0) -> BlockHawkesParams:
    return BlockHawkesParams(
        n_nodes=20,
        block_probs=(0.5, 0.5),
        horizon=horizon,
        baseline=((0.0, mu), (0.0, 0.0)),
        excitations=(
            Excitation("shared-receiver", (0, 1), alpha=a_sr, beta=beta),
            Excitation("broadcast", (1, 0), alpha=a_bc, beta=beta),
        ),
    )


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=30)
    ap.add_argument("--scenario", type=int, choices=(1, 2))
    args = ap.parse_args()
    seeds = range(args.seeds)

    # Final sweep neighborhoods. The shipped values (see
    # motifroles.hawkes.scenario_params) are the starred rows; earlier,
    # coarser sweeps walked event density down from mu=0.004 because 3-node
    # coincidence triples were swamping the 2-node episode structure.
    if args.scenario in (None, 1):
        print("# scenario 1 candidates")
        for star, (mu, a_self, a_rec, horizon, delta, beta_rec) in [
            ("", (0.00025, 0.25, 0.70, 6400.0, 3.0, 1.0)),
            ("", (0.00025, 0.25, 0.70, 8000.0, 3.0, 1.0)),
            ("", (0.00020, 0.25, 0.70, 10000.0, 3.0, 1.0)),
            ("*", (0.00020, 0.25, 0.70, 12000.0, 3.0, 1.0)),
            ("", (0.00015, 0.25, 0.70, 13000.0, 3.0, 1.0)),
            ("", (0.00020, 0.27, 0.68, 10000.0, 3.0, 1.0)),
            ("", (0.00025, 0.30, 0.65, 6400.0, 3.0, 2.0)),
        ]:
            name = (f"s1{star} mu={mu} as={a_self} ar={a_rec} T={horizon:g} "
                    f"d={delta:g} br={beta_rec:g}")
            score_candidate(
                name,
                scenario1_candidate(mu, a_self, a_rec, horizon, beta_rec=beta_rec),
                delta, seeds)

    if args.scenario in (None, 2):
        print("# scenario 2 candidates")
        for star, (mu, a_sr, a_bc, horizon, delta) in [
            ("", (0.004, 0.050, 0.050, 800.0, 6.0)),
            ("", (0.004, 0.050, 0.050, 1200.0, 5.0)),
            ("", (0.006, 0.050, 0.050, 800.0, 5.0)),
            ("*", (0.004, 0.050, 0.050, 1600.0, 5.0)),
            ("", (0.002, 0.050, 0.050, 1600.0, 6.0)),
        ]:
            name = f"s2{star} mu={mu} sr={a_sr} bc={a_bc} T={horizon:g} d={delta:g}"
            score_candidate(name, scenario2_candidate(mu, a_sr, a_bc, horizon),
                            delta, seeds)


if __name__ == "__main__":
    main()
