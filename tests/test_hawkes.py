import math

import numpy as np
import pytest

from motifroles.cluster import write_labels_csv
from motifroles.graph import serialize_edge_list
from motifroles.hawkes import (
    BlockHawkesParams,
    Excitation,
    SCENARIO_DELTAS,
    intensity,
    read_params,
    scenario_delta,
    scenario_params,
    simulate,
    write_params,
)


def one_block_params(mu=0.1, horizon=50.0, excitations=(), n_nodes=2,
                     labels=None):
    return BlockHawkesParams(
        n_nodes=n_nodes,
        block_probs=(1.0,),
        horizon=horizon,
        baseline=((mu,),),
        excitations=tuple(excitations),
        block_assignment=labels if labels is not None else tuple([0] * n_nodes),
    )


class TestIntensity:
    def test_empty_history_is_baseline(self):
        p = one_block_params(mu=0.3)
        assert intensity(p, [], (0, 1), 10.0) == 0.3

    def test_single_self_event(self):
        p = one_block_params(
            mu=0.3,
            excitations=[Excitation("self", (0, 0), alpha=0.5, beta=2.0)],
        )
        lam = intensity(p, [(0, 1, 4.0)], (0, 1), 5.0)
        assert lam == pytest.approx(0.3 + 0.5 * 2.0 * math.exp(-2.0))
        # the event does not excite the reverse pair under "self"
        assert intensity(p, [(0, 1, 4.0)], (1, 0), 5.0) == 0.3

    def test_zero_alpha_is_poisson(self):
        p = one_block_params(
            mu=0.3,
            excitations=[Excitation("self", (0, 0), alpha=0.0, beta=1.0)],
        )
        assert intensity(p, [(0, 1, 1.0), (1, 0, 2.0)], (0, 1), 9.0) == 0.3

    def test_reciprocal_kind(self):
        p = one_block_params(
            mu=0.1,
            excitations=[Excitation("reciprocal", (0, 0), alpha=0.4, beta=1.0)],
        )
        # an event on (1,0) excites (0,1), not itself
        lam = intensity(p, [(1, 0, 0.0)], (0, 1), 1.0)
        assert lam == pytest.approx(0.1 + 0.4 * math.exp(-1.0))
        lam_rev = intensity(p, [(1, 0, 0.0)], (1, 0), 1.0)
        assert lam_rev == 0.1

    def test_shared_receiver_kind(self):
        p = one_block_params(
            mu=0.1, n_nodes=3,
            excitations=[Excitation("shared-receiver", (0, 0), alpha=0.4, beta=1.0)],
        )
        # node 2 hit node 1; other senders toward node 1 are excited
        lam = intensity(p, [(2, 1, 0.0)], (0, 1), 1.0)
        assert lam == pytest.approx(0.1 + 0.4 * math.exp(-1.0))
        # the original sender's own pair is not (that would be "self")
        assert intensity(p, [(2, 1, 0.0)], (2, 1), 1.0) == 0.1

    def test_broadcast_kind_relays_received_events(self):
        p = one_block_params(
            mu=0.1, n_nodes=3,
            excitations=[Excitation("broadcast", (0, 0), alpha=0.4, beta=1.0)],
        )
        # node 0 received from node 2, so node 0's sending to node 1 jumps
        lam = intensity(p, [(2, 0, 0.0)], (0, 1), 1.0)
        assert lam == pytest.approx(0.1 + 0.4 * math.exp(-1.0))
        # but not straight back to the sender; that is reciprocation's job
        assert intensity(p, [(2, 0, 0.0)], (0, 2), 1.0) == 0.1

    def test_only_past_events_count(self):
        p = one_block_params(
            mu=0.2,
            excitations=[Excitation("self", (0, 0), alpha=0.5, beta=1.0)],
        )
        assert intensity(p, [(0, 1, 5.0)], (0, 1), 5.0) == 0.2

    def test_rejects_degenerate_pair(self):
        p = one_block_params()
        with pytest.raises(ValueError):
            intensity(p, [], (1, 1), 0.0)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Excitation("megaphone", (0, 0), 0.1, 1.0)
        with pytest.raises(ValueError):
            Excitation("self", (0, 0), -0.1, 1.0)
        with pytest.raises(ValueError):
            Excitation("self", (0, 0), 0.1, 0.0)

    def test_block_probs_must_sum_to_one(self):
        p = BlockHawkesParams(
            n_nodes=4, block_probs=(0.7, 0.7), horizon=10.0,
            baseline=((0.1, 0.1), (0.1, 0.1)),
        )
        with pytest.raises(ValueError):
            p.validate()

    def test_unstable_params_rejected(self):
        p = one_block_params(
            excitations=[Excitation("self", (0, 0), alpha=1.0, beta=1.0)]
        )
        with pytest.raises(ValueError, match="stab|branching"):
            p.validate()
        with pytest.raises(ValueError):
            simulate(p, seed=0)

    def test_fan_out_counts_toward_stability(self):
        # alpha=0.3 is stable for a lone pair but not once 4 third parties
        # receive it through the shared-receiver channel
        p = one_block_params(
            n_nodes=6,
            excitations=[Excitation("shared-receiver", (0, 0), alpha=0.3, beta=1.0)],
        )
        with pytest.raises(ValueError):
            p.validate()

    def test_stability_margin_positive_for_scenarios(self):
        for which in (1, 2):
            params = scenario_params(which)
            params.validate()
            assert params.stability_margin() > 0


class TestSimulate:
    def test_deterministic_for_fixed_seed(self):
        params = scenario_params(1)
        a = simulate(params, seed=123)
        b = simulate(params, seed=123)
        assert list(a.labels) == list(b.labels)
        assert serialize_edge_list(a.graph) == serialize_edge_list(b.graph)

    def test_different_seeds_differ(self):
        params = scenario_params(1)
        a = simulate(params, seed=1)
        b = simulate(params, seed=2)
        assert serialize_edge_list(a.graph) != serialize_edge_list(b.graph)

    def test_zero_rates_make_empty_network(self):
        p = one_block_params(mu=0.0)
        net = simulate(p, seed=0)
        assert net.graph.n_edges == 0

    def test_events_live_inside_the_horizon(self):
        p = one_block_params(mu=0.5, horizon=20.0)
        net = simulate(p, seed=7)
        assert net.graph.n_edges > 0
        lo, hi = net.graph.time_span()
        assert lo >= 0.0 and hi <= 20.0

    def test_event_times_strictly_increase_per_pair(self):
        params = scenario_params(2)
        net = simulate(params, seed=5)
        per_pair: dict[tuple[int, int], float] = {}
        for e in net.graph.edges():
            key = (e.source, e.target)
            if key in per_pair:
                assert e.time > per_pair[key]
            per_pair[key] = e.time

    def test_labels_cover_all_nodes(self):
        params = scenario_params(1)
        net = simulate(params, seed=9)
        assert len(net.labels) == params.n_nodes
        assert set(net.labels) <= {0, 1}
        # node names are stringified indices, one per simulated node
        assert set(net.graph.node_names) <= {str(i) for i in range(params.n_nodes)}

    def test_fixed_block_assignment_is_respected(self):
        p = one_block_params(mu=0.05, n_nodes=3, labels=(0, 0, 0))
        net = simulate(p, seed=3)
        assert list(net.labels) == [0, 0, 0]

    def test_poisson_moments_quick(self):
        # mu*T = 4; loose 6-sigma gate, the acceptance suite runs the
        # full-depth version
        p = one_block_params(mu=0.08, horizon=50.0, n_nodes=2,
                             labels=(0, 0))
        counts = []
        for seed in range(300):
            net = simulate(p, seed=seed)
            counts.append(
                sum(1 for e in net.graph.edges()
                    if net.graph.name_of(e.source) == "0")
            )
        mean = np.mean(counts)
        assert abs(mean - 4.0) < 6 * math.sqrt(4.0 / 300)

    def test_self_excitation_raises_event_count(self):
        base = one_block_params(mu=0.05, horizon=100.0)
        excited = one_block_params(
            mu=0.05, horizon=100.0,
            excitations=[Excitation("self", (0, 0), alpha=0.8, beta=1.0)],
        )
        n_base = sum(simulate(base, s).graph.n_edges for s in range(40))
        n_exc = sum(simulate(excited, s).graph.n_edges for s in range(40))
        # branching ratio 0.8 multiplies expected counts by ~5
        assert n_exc > 2 * n_base


class TestParamsSerialization:
    def test_json_round_trip(self, tmp_path):
        params = scenario_params(1)
        path = tmp_path / "params.json"
        write_params(params, path)
        again = read_params(path)
        assert again == params

    def test_from_json_rejects_garbage(self, tmp_path):
        from motifroles.hawkes import BlockHawkesParams
        with pytest.raises(ValueError):
            BlockHawkesParams.from_json("{}")
        with pytest.raises(ValueError):
            BlockHawkesParams.from_json("not json at all")

    def test_labels_csv(self, tmp_path):
        net = simulate(scenario_params(1), seed=0)
        path = tmp_path / "labels.csv"
        write_labels_csv(net.graph.node_names, net.labels, path, "block")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "node,block"
        assert len(lines) == 21


class TestScenarios:
    def test_scenario_shapes(self):
        s1 = scenario_params(1)
        assert s1.n_nodes == 20
        assert s1.block_probs == (0.5, 0.5)
        kinds1 = {e.kind for e in s1.excitations}
        assert "reciprocal" in kinds1
        s2 = scenario_params(2)
        kinds2 = {e.kind for e in s2.excitations}
        assert {"shared-receiver", "broadcast"} <= kinds2
        with pytest.raises(ValueError):
            scenario_params(3)

    def test_scenario_deltas(self):
        assert scenario_delta(1) == SCENARIO_DELTAS[1]
        assert scenario_delta(2) == SCENARIO_DELTAS[2]
        with pytest.raises(ValueError):
            scenario_delta(9)

    def test_reciprocation_shows_up_in_scenario_1(self):
        # the motif texture itself is asserted in the acceptance suite;
        # here just check replies across blocks actually happen
        net = simulate(scenario_params(1), seed=0)
        pairs = {(e.source, e.target) for e in net.graph.edges()}
        reciprocated = sum(1 for (u, v) in pairs if (v, u) in pairs)
        assert reciprocated > 10
