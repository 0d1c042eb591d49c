import dataclasses
import json
import math
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from motifroles import hawkes
from motifroles.cluster import labels_csv_text
from motifroles.graph import edge_list_text
from motifroles.hawkes import (
    EXCITATION_KINDS,
    BlockHawkesParams,
    Excitation,
    SimulatedNetwork,
    intensity,
    scenario_params,
    simulate,
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

    def test_nan_alpha_rejected(self):
        # NaN passed `alpha < 0`, and stability_margin() then read 1.0
        with pytest.raises(ValueError, match="alpha must be non-negative"):
            Excitation("self", (0, 0), alpha=float("nan"), beta=1.0)

    def test_infinite_baseline_total_refused_before_any_draw(self):
        # each rate is finite but their total over the 30 ordered pairs is
        # not; the run once warned in the cumsum and then failed at t = 0
        # with "simulation exceeded max_events"
        p = BlockHawkesParams(n_nodes=6, block_probs=(1.0,), horizon=10.0,
                              baseline=((1e308,),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="the baseline's total rate over "
                                                 "the ordered pairs is inf"):
                simulate(p, 0)

    def test_negative_seed_refused_before_seeding(self):
        # numpy's own message named no input
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            simulate(scenario_params(1), -1)

    def test_nan_block_prob_rejected_with_fixed_labels(self):
        # NaN passed both the minimum and the sum check, so simulate ran on
        # the fixed labels and the params went out with a NaN in them
        p = BlockHawkesParams(
            n_nodes=4, block_probs=(float("nan"), 1.0), horizon=10.0,
            baseline=((0.1, 0.1), (0.1, 0.1)), block_assignment=(0, 1, 0, 1),
        )
        with pytest.raises(ValueError, match="block_probs must be non-negative"):
            p.validate()
        with pytest.raises(ValueError):
            simulate(p, seed=0)

    def test_unstable_params_rejected(self):
        p = one_block_params(
            excitations=[Excitation("self", (0, 0), alpha=1.0, beta=1.0)]
        )
        with pytest.raises(ValueError, match="stab|branching"):
            p.validate()
        with pytest.raises(ValueError):
            simulate(p, seed=0)

    def test_list_block_pair_counts_toward_stability(self):
        p = one_block_params(
            n_nodes=3, excitations=[Excitation("self", [0, 0], alpha=1.5, beta=1.0)]
        )
        assert p.excitations[0].block_pair == (0, 0)
        assert p.stability_margin() == pytest.approx(-0.5)
        with pytest.raises(ValueError, match="unstable parameters"):
            p.validate()

    def test_block_pair_must_hold_two_blocks(self):
        with pytest.raises(ValueError, match="two blocks"):
            Excitation("self", (0, 0, 0), alpha=0.1, beta=1.0)
        payload = json.loads(scenario_params(1).to_json())
        payload["excitations"][0]["block_pair"] = [0, 0, 1]
        with pytest.raises(ValueError, match="two blocks"):
            BlockHawkesParams.from_json(json.dumps(payload))

    @pytest.mark.parametrize("field, value, message", [
        ("n_nodes", 20.9, "n_nodes must be a whole number"),
        ("max_events", 1000.5, "max_events must be a whole number"),
        ("block_pair", [0.7, 1.2], "block_pair must be a whole number"),
        ("block_assignment", [0.5] * 20, "block_assignment must be a whole number"),
        ("n_nodes", float("inf"), "n_nodes must be a whole number, got inf"),
        ("n_nodes", float("-inf"), "n_nodes must be a whole number, got -inf"),
        ("n_nodes", float("nan"), "n_nodes must be a whole number, got nan"),
        ("max_events", float("nan"), "max_events must be a whole number, got nan"),
        ("block_pair", [0, float("nan")], "block_pair must be a whole number, got nan"),
        ("block_assignment", [float("nan")] * 20,
         "block_assignment must be a whole number, got nan"),
    ])
    def test_from_json_rejects_a_fractional_count_or_label(self, field, value, message):
        # int() alone would truncate these: 20.9 nodes would load as 20
        payload = json.loads(scenario_params(1).to_json())
        if field == "block_pair":
            payload["excitations"][0][field] = value
        else:
            payload[field] = value
        with pytest.raises(ValueError, match=message):
            BlockHawkesParams.from_json(json.dumps(payload))

    def test_from_json_refuses_a_negative_max_events(self):
        # it once loaded and failed at the first event with a message that
        # named no field
        payload = json.loads(scenario_params(1).to_json())
        payload["max_events"] = -5
        with pytest.raises(ValueError, match="^max_events must be non-negative, got -5$"):
            BlockHawkesParams.from_json(json.dumps(payload))

    def test_from_json_accepts_whole_floats(self):
        payload = json.loads(scenario_params(1).to_json())
        payload["n_nodes"] = float(payload["n_nodes"])
        payload["excitations"][0]["block_pair"] = [
            float(b) for b in payload["excitations"][0]["block_pair"]
        ]
        assert BlockHawkesParams.from_json(json.dumps(payload)) == scenario_params(1)

    @pytest.mark.parametrize("field, value", [
        ("block_probs", "01"),
        ("baseline", 0.0002),
        ("baseline", [[0.0002, 0.0002], "00"]),
        ("block_pair", "10"),
        ("block_assignment", "01" * 10),
        ("block_assignment", 0),
        ("block_assignment", ""),
        ("excitations", ""),
    ])
    def test_from_json_requires_json_arrays(self, field, value):
        # iterating a digit string would read "10" as the block pair (1, 0),
        # and an empty string or 0 must not read as an absent field
        payload = json.loads(scenario_params(1).to_json())
        if field == "block_pair":
            payload["excitations"][0][field] = value
        else:
            payload[field] = value
        with pytest.raises(ValueError, match=f"^{field}( row)? must be a JSON array, not "):
            BlockHawkesParams.from_json(json.dumps(payload))

    @pytest.mark.parametrize("value", [bool, str])
    @pytest.mark.parametrize("field", ["n_nodes", "block_probs", "horizon", "baseline",
                                       "alpha", "beta", "block_pair", "block_assignment",
                                       "max_events"])
    def test_from_json_requires_json_numbers(self, field, value):
        # json.loads gives True for `true`, which int() and float() read as 1,
        # and int("20") is 20: an assignment of booleans once loaded as labels
        payload = json.loads(scenario_params(1).to_json())
        payload["block_assignment"] = [i % 2 for i in range(payload["n_nodes"])]
        payload["max_events"] = 1000
        excitation = payload["excitations"][0]
        holder, key = {
            "alpha": (excitation, "alpha"),
            "beta": (excitation, "beta"),
            "block_pair": (excitation["block_pair"], 0),
            "baseline": (payload["baseline"][0], 0),
            "block_probs": (payload["block_probs"], 0),
            "block_assignment": (payload["block_assignment"], 0),
        }.get(field, (payload, field))
        holder[key] = value(holder[key])
        with pytest.raises(ValueError, match=(
                f"^{field} must be a JSON number, not {value.__name__}$")):
            BlockHawkesParams.from_json(json.dumps(payload))

    # JSON's Infinity once broke these: with alpha 0 the jump alpha * beta was
    # NaN and simulate stopped after one event, with alpha 0.5 it failed in the
    # thinning bound, and an infinite horizon ran until max_events
    @pytest.mark.parametrize("alpha, beta, horizon, message", [
        (0.0, float("inf"), 50.0, "beta must be positive and finite, got inf"),
        (0.5, float("inf"), 50.0, "beta must be positive and finite, got inf"),
        (0.5, 1.0, float("inf"), "horizon must be positive and finite, got inf"),
    ])
    def test_from_json_refuses_an_infinite_beta_or_horizon(self, alpha, beta, horizon,
                                                           message):
        text = json.dumps({
            "n_nodes": 6, "block_probs": [1.0], "horizon": horizon,
            "baseline": [[0.05]], "max_events": 1000,
            "excitations": [{"kind": "self", "block_pair": [0, 0],
                             "alpha": alpha, "beta": beta}],
        })
        with pytest.raises(ValueError, match=f"^{message}$"):
            BlockHawkesParams.from_json(text)

    @pytest.mark.parametrize("field, value, message", [
        ("alpha", float("nan"), "alpha must be non-negative"),
        ("block_probs", [float("nan"), 1.0], "block_probs must be non-negative"),
    ])
    def test_from_json_refuses_a_nan_alpha_or_block_prob(self, field, value, message):
        # a NaN alpha once ended in "thinning bound violated", and a NaN block
        # probability with fixed labels simulated and emitted NaN
        payload = json.loads(scenario_params(1).to_json())
        payload["block_assignment"] = [i % 2 for i in range(payload["n_nodes"])]
        if field == "alpha":
            payload["excitations"][0]["alpha"] = value
        else:
            payload["block_probs"] = value
        with pytest.raises(ValueError, match=message):
            BlockHawkesParams.from_json(json.dumps(payload))

    def test_from_json_reads_only_a_missing_or_null_assignment_as_absent(self):
        payload = json.loads(scenario_params(1).to_json())
        assert payload["block_assignment"] is None
        assert BlockHawkesParams.from_json(json.dumps(payload)) == scenario_params(1)
        del payload["block_assignment"]
        assert BlockHawkesParams.from_json(json.dumps(payload)) == scenario_params(1)
        for value in ([], [0, 1]):
            payload["block_assignment"] = value
            with pytest.raises(ValueError, match="block_assignment length must equal n_nodes"):
                BlockHawkesParams.from_json(json.dumps(payload))

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


def _edge_list_bytes(g, path):
    path.write_text(edge_list_text(g), encoding="utf-8")
    return path.read_bytes()


class TestSimulate:
    def test_different_seeds_differ(self, tmp_path):
        params = scenario_params(1)
        a = simulate(params, seed=1)
        b = simulate(params, seed=2)
        assert _edge_list_bytes(a.graph, tmp_path / "a.csv") != _edge_list_bytes(
            b.graph, tmp_path / "b.csv")

    def test_zero_rates_make_empty_network(self):
        p = one_block_params(mu=0.0)
        net = simulate(p, seed=0)
        assert net.graph.n_edges == 0

    def test_events_live_inside_the_horizon(self):
        p = one_block_params(mu=0.5, horizon=20.0)
        net = simulate(p, seed=7)
        assert net.graph.n_edges > 0
        lo, hi = net.graph.time[0], net.graph.time[-1]
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

    def test_network_freezes_a_copy_of_its_own_labels(self):
        # the caller's array was once made read-only in place, and a list
        # had no setflags
        g = simulate(one_block_params(), seed=0).graph
        labels = np.zeros(2, dtype=np.int64)
        net = SimulatedNetwork(g, labels)
        assert labels.flags.writeable and not net.labels.flags.writeable
        labels[0] = 1
        assert net.labels[0] == 0
        assert SimulatedNetwork(g, [0, 1]).labels.tolist() == [0, 1]

    def test_fixed_block_assignment_is_respected(self):
        p = one_block_params(mu=0.05, n_nodes=3, labels=(0, 0, 0))
        net = simulate(p, seed=3)
        assert list(net.labels) == [0, 0, 0]


class TestParamsSerialization:
    def test_json_round_trip(self):
        params = scenario_params(1)
        assert BlockHawkesParams.from_json(params.to_json()) == params

    def test_from_json_rejects_garbage(self, tmp_path):
        from motifroles.hawkes import BlockHawkesParams
        with pytest.raises(ValueError):
            BlockHawkesParams.from_json("{}")
        with pytest.raises(ValueError):
            BlockHawkesParams.from_json("not json at all")

    def test_labels_csv(self):
        net = simulate(scenario_params(1), seed=0)
        text = labels_csv_text(net.graph.node_names, net.labels, "block")
        lines = text.strip().splitlines()
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


def thinning_reference(params, seed):
    """Plain thinning: one n x n state array per excitation entry, each
    decayed by np.exp at every candidate. simulate must make the same
    draws in the same order and take the same accept and pick decisions,
    so its sources, targets, labels and candidate count equal these
    exactly. simulate forms its intensities from per-beta scales instead,
    so the event times agree only to rounding (rtol 1e-12).
    Returns (src, tgt, time, labels, candidates).

    This reference goes when a sampler that draws different numbers, such
    as the branching representation, replaces thinning; the time-rescaling
    test below then remains the oracle."""
    params.validate()
    rng = np.random.default_rng(np.random.PCG64(seed))
    n = params.n_nodes
    if params.block_assignment is not None:
        labels = np.array(params.block_assignment, dtype=np.int64)
    else:
        labels = rng.choice(params.n_blocks, size=n, p=np.asarray(params.block_probs))
        labels = labels.astype(np.int64)
    mu = params.baseline_array()[np.ix_(labels, labels)]
    np.fill_diagonal(mu, 0.0)
    mu_sum = float(mu.sum())
    entries = params.excitations
    states = [np.zeros((n, n)) for _ in entries]
    masks = []
    for e in entries:
        pair_mask = np.logical_and.outer(labels == e.block_pair[0], labels == e.block_pair[1])
        np.fill_diagonal(pair_mask, False)
        masks.append(pair_mask)

    def total_excitation():
        return float(sum(s.sum() for s in states))

    src, tgt, times = [], [], []
    candidates = 0
    t = 0.0
    bound = mu_sum + total_excitation()
    while bound > 0.0:
        t_cand = t + rng.exponential(1.0 / bound)
        if t_cand > params.horizon:
            break
        candidates += 1
        dt = t_cand - t
        for e, s in zip(entries, states):
            s *= np.exp(-e.beta * dt)
        lam = mu_sum + total_excitation()
        assert lam <= bound * (1.0 + 1e-9)
        t = t_cand
        if rng.random() * bound <= lam:
            rates = mu.copy()
            for s in states:
                rates += s
            cum = np.cumsum(rates.reshape(-1))
            idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            p, q = divmod(min(idx, rates.size - 1), n)
            src.append(p)
            tgt.append(q)
            times.append(t_cand)
            for e, s, mask in zip(entries, states, masks):
                jump = e.alpha * e.beta
                if e.kind == "self":
                    if mask[p, q]:
                        s[p, q] += jump
                elif e.kind == "reciprocal":
                    if mask[q, p]:
                        s[q, p] += jump
                elif e.kind == "shared-receiver":
                    col = mask[:, q].copy()
                    col[p] = col[q] = False
                    s[col, q] += jump
                else:
                    row = mask[q, :].copy()
                    row[p] = row[q] = False
                    s[q, row] += jump
            bound = mu_sum + total_excitation()
        else:
            bound = lam
    return src, tgt, times, labels.tolist(), candidates


def spy_on_decays(monkeypatch):
    """Records every decay factor simulate takes from math.exp, in order."""
    decays = []

    def exp(x):
        decays.append(math.exp(x))
        return decays[-1]

    # every other math name stays, so simulate may call any of them
    monkeypatch.setattr(hawkes, "math", types.SimpleNamespace(**{**vars(math), "exp": exp}))
    return decays


def assert_same_as_reference(params, seed):
    net = simulate(params, seed)
    src, tgt, times, labels, candidates = thinning_reference(params, seed)
    assert net.graph.src.tolist() == src
    assert net.graph.tgt.tolist() == tgt
    np.testing.assert_allclose(net.graph.time, times, rtol=1e-12, atol=0)
    assert net.labels.tolist() == labels
    assert net.candidates == candidates


@st.composite
def random_params(draw):
    """1-3 blocks, 2-8 nodes, 0-11 entries of any kind, alphas scaled so
    the worst block pair receives kernel mass 0.9. When `shared` is drawn
    every entry sits on one block pair, so a cell sums up to 12 rows. An
    alpha of 0 is drawn too, so an entry can add nothing and a beta group
    can be empty."""
    n_blocks = draw(st.integers(1, 3))
    n_nodes = draw(st.integers(2, 8))
    block = st.integers(0, n_blocks - 1)
    shared = draw(st.booleans())
    common = (draw(block), draw(block))
    raw = []
    for _ in range(draw(st.integers(0, 11))):
        raw.append((
            draw(st.sampled_from(EXCITATION_KINDS)),
            common if shared else (draw(block), draw(block)),
            draw(st.just(0.0) | st.floats(0.05, 1.0)),
            draw(st.sampled_from((0.3, 1.0, 1.7, 4.0))),
        ))
    fan = {"self": 1, "reciprocal": 1}
    mass: dict = {}
    for kind, pair, alpha, _ in raw:
        mass[pair] = mass.get(pair, 0.0) + fan.get(kind, n_nodes - 2) * alpha
    worst = max(mass.values(), default=0.0)
    scale = 0.9 / worst if worst > 0 else 1.0
    rates = st.sampled_from((0.0, 0.02, 0.2, 1.0))
    baseline = tuple(tuple(draw(rates) for _ in range(n_blocks)) for _ in range(n_blocks))
    top = max(max(row) for row in baseline)
    fixed = draw(st.booleans())
    return BlockHawkesParams(
        n_nodes=n_nodes,
        block_probs=tuple([1.0 / n_blocks] * n_blocks),
        # about 40 immigrants at most, so at most a few hundred events
        horizon=40.0 / (n_nodes * (n_nodes - 1) * top) if top > 0 else 10.0,
        baseline=baseline,
        excitations=tuple(
            Excitation(kind, pair, alpha=alpha * scale, beta=beta)
            for kind, pair, alpha, beta in raw
        ),
        block_assignment=(
            tuple(draw(st.lists(block, min_size=n_nodes, max_size=n_nodes)))
            if fixed else None
        ),
    )


class TestThinningReference:
    @settings(max_examples=80, deadline=None)
    @given(random_params(), st.integers(0, 2**32 - 1))
    def test_simulate_equals_reference_on_random_params(self, params, seed):
        assert_same_as_reference(params, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_eleven_entries_on_one_block_pair(self, seed):
        kinds = EXCITATION_KINDS * 3
        params = BlockHawkesParams(
            n_nodes=6, block_probs=(1.0,), horizon=60.0, baseline=((0.02,),),
            excitations=tuple(
                Excitation(kinds[i], (0, 0), alpha=0.018 + 0.001 * i,
                           beta=(0.3, 1.0, 1.7, 4.0)[i % 4])
                for i in range(11)
            ),
        )
        assert params.stability_margin() > 0
        assert_same_as_reference(params, seed)

    @pytest.mark.parametrize("which", (1, 2))
    def test_scenarios_equal_reference(self, which):
        params = scenario_params(which)
        for seed in range(20):
            assert_same_as_reference(params, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_decay_underflowing_to_zero(self, monkeypatch, seed):
        # a baseline of 0.003 over the 6 pairs leaves waits of several
        # hundred time units, where exp(-4 dt) and exp(-dt) are exactly 0
        params = one_block_params(
            mu=0.0005, horizon=20000.0, n_nodes=3,
            excitations=[Excitation("self", (0, 0), alpha=0.6, beta=4.0),
                         Excitation("reciprocal", (0, 0), alpha=0.3, beta=1.0)],
        )
        decays = spy_on_decays(monkeypatch)
        assert_same_as_reference(params, seed)
        assert decays.count(0.0) >= 10

    @pytest.mark.parametrize("seed", range(3))
    def test_scale_folds_many_times(self, monkeypatch, seed):
        # one beta, so the product of the decays since the last fold is the
        # group's scale; it crosses the fold threshold about every 86 time
        # units at beta 4
        params = one_block_params(
            mu=0.05, horizon=3000.0, n_nodes=3,
            excitations=[Excitation("self", (0, 0), alpha=0.5, beta=4.0)],
        )
        decays = spy_on_decays(monkeypatch)
        assert_same_as_reference(params, seed)
        folds, scale = 0, 1.0
        for decay in decays:
            scale *= decay
            if scale < hawkes._FOLD:
                folds, scale = folds + 1, 1.0
        assert folds >= 20

    def test_candidates_count_the_accept_tests(self):
        poisson = one_block_params(mu=0.3, horizon=40.0, n_nodes=3)
        net = simulate(poisson, seed=4)
        # a constant intensity is its own bound, so every candidate is kept
        assert net.candidates == net.graph.n_edges > 0
        net = simulate(scenario_params(1), seed=4)
        assert net.candidates > net.graph.n_edges


def traced_peak(call):
    """call() under tracemalloc; returns (its result, the traced peak)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNodeLimit:
    def test_limit_is_checked_before_allocating(self):
        # with no excitations nothing but n bounds the n x n state, and a
        # million nodes would ask for 8 TB per array; the refusal costs
        # only the check
        n = 1_000_000
        params = BlockHawkesParams(n_nodes=n, block_probs=(1.0,), horizon=1.0,
                                   baseline=((0.1,),))
        start = time.perf_counter()

        def refuse():
            with pytest.raises(ValueError, match=(
                    f"^simulating 1000000 nodes needs n\\*n rate arrays of {8 * n * n} "
                    "bytes each, above the limit of 5000 nodes$")):
                simulate(params, seed=0)

        _, peak = traced_peak(refuse)
        assert time.perf_counter() - start < 0.5
        assert peak < 10**6

    def test_fan_kinds_keep_memory_to_the_state(self):
        # scenario 2's shape at 120 nodes: each accepted event excites a
        # block's members straight from the labels, so the peak stays a few
        # n x n arrays (115 KB each) and does not grow with n**3
        n = 120
        params = dataclasses.replace(
            scenario_params(2), n_nodes=n, horizon=20.0,
            excitations=(
                Excitation("shared-receiver", (0, 1), alpha=0.9 / (n - 2), beta=1.0),
                Excitation("broadcast", (1, 0), alpha=0.9 / (n - 2), beta=1.0),
            ),
        )
        net, peak = traced_peak(lambda: simulate(params, seed=3))
        assert net.graph.n_edges > 0
        assert peak < 4 * 10**6


def rescaled_increments(params, net):
    """Compensator increments between consecutive events, from the formula.

    The baseline and the cells an event excites under each entry come from
    `excitation_structure`, and the summed intensity is integrated in
    closed form between events. Under a correct sampler the increments are
    i.i.d. Exp(1) (time-rescaling)."""
    n = params.n_nodes
    mu, hits = excitation_structure(params, net.labels.tolist())
    mu_sum = mu.sum()
    level = [0.0] * len(hits)
    t_prev = 0.0
    out = []
    for src, tgt, t in zip(net.graph.src.tolist(), net.graph.tgt.tolist(),
                           net.graph.time.tolist()):
        dt = t - t_prev
        inc = mu_sum * dt
        for i, e in enumerate(params.excitations):
            decay = math.exp(-e.beta * dt)
            inc += level[i] * (1.0 - decay) / e.beta
            level[i] *= decay
        out.append(inc)
        for i, (e, hit) in enumerate(zip(params.excitations, hits)):
            level[i] += hit[src * n + tgt].sum() * e.alpha * e.beta
        t_prev = t
    return out


def test_time_rescaled_gaps_are_unit_exponential():
    params = BlockHawkesParams(
        n_nodes=5, block_probs=(0.4, 0.6), horizon=80.0,
        baseline=((0.05, 0.1), (0.02, 0.05)),
        excitations=(
            Excitation("self", (0, 1), alpha=0.3, beta=1.0),
            Excitation("shared-receiver", (0, 1), alpha=0.1, beta=0.5),
            Excitation("reciprocal", (1, 0), alpha=0.4, beta=2.0),
            Excitation("broadcast", (1, 0), alpha=0.1, beta=1.7),
            Excitation("self", (1, 1), alpha=0.5, beta=4.0),
        ),
        block_assignment=(0, 0, 1, 1, 1),
    )
    gaps = []
    for seed in range(30):
        gaps += rescaled_increments(params, simulate(params, seed))
    assert len(gaps) > 3000
    assert stats.kstest(gaps, "expon").pvalue > 0.01


# The two checks below judge the sampler by formulas, not by earlier draws.
# Both run on one shared set of simulations per scenario, with the labels
# fixed to 10 + 10 nodes so that the excitation structure is built once.
SAMPLER_CHECK_SEEDS = range(100)


def excitation_structure(params, labels):
    """Per cell u*n+v, the baseline rate, and per excitation entry the 0/1
    matrix whose row c marks the cells an event on cell c excites.

    Both are read off `intensity` (for an entry: that entry alone, zero
    baseline, one-event history), so the kind rules keep one copy. Only the
    cells of the entry's own block pair are asked. Diagonal cells have rate
    0 and are never excited."""
    n = params.n_nodes
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    mu = np.zeros(n * n)
    for u, v in pairs:
        mu[u * n + v] = intensity(params, [], (u, v), 0.0, labels)
    zero = tuple((0.0,) * params.n_blocks for _ in range(params.n_blocks))
    hits = []
    for e in params.excitations:
        one = dataclasses.replace(params, baseline=zero, excitations=(e,))
        hit = np.zeros((n * n, n * n))
        for u, v in pairs:
            if (labels[u], labels[v]) == e.block_pair:
                for src, tgt in pairs:
                    hit[src * n + tgt, u * n + v] = intensity(
                        one, [(src, tgt, 0.0)], (u, v), 1e-12, labels) > 0
        hits.append(hit)
    return mu, hits


@pytest.fixture(scope="module", params=(1, 2))
def sampler_runs(request):
    """For scenario params with 10 + 10 fixed labels, per block pair: the
    expected event count from the branching structure and, one row per
    seed, the event counts N(T) and the martingale residuals
    N(T) - Lambda(T), with the compensator Lambda in closed form from the
    realised history."""
    params = dataclasses.replace(scenario_params(request.param),
                                 block_assignment=(0,) * 10 + (1,) * 10)
    labels = params.block_assignment
    n, n_blocks, horizon = params.n_nodes, params.n_blocks, params.horizon
    mu, hits = excitation_structure(params, labels)
    block = np.array(labels)
    block_pair = (block[:, None] * n_blocks + block[None, :]).ravel()

    def by_block_pair(per_cell):
        return np.bincount(block_pair, weights=per_cell, minlength=n_blocks ** 2)

    # K[target, source]: the expected direct offspring on target per source event
    kernel = sum(e.alpha * hit.T for e, hit in zip(params.excitations, hits))
    expected = np.linalg.solve(np.eye(n * n) - kernel, mu * horizon)
    counts, residuals = [], []
    for seed in SAMPLER_CHECK_SEEDS:
        g = simulate(params, seed).graph
        cell = g.src * n + g.tgt
        count = np.bincount(cell, minlength=n * n)
        compensator = mu * horizon
        for e, hit in zip(params.excitations, hits):
            # each event's kernel mass that has arrived by the horizon
            arrived = -np.expm1(-e.beta * (horizon - g.time))
            compensator = compensator + e.alpha * (
                np.bincount(cell, weights=arrived, minlength=n * n) @ hit)
        counts.append(by_block_pair(count))
        residuals.append(by_block_pair(count - compensator))
    return by_block_pair(expected), np.array(counts), np.array(residuals)


def assert_within_4_standard_errors(per_seed, expected):
    """The per-seed mean of each column lies within 4 standard errors of
    `expected`; a column that never varies must equal it (to 1e-9, for
    the solve's rounding)."""
    mean = per_seed.mean(axis=0)
    se = per_seed.std(axis=0, ddof=1) / math.sqrt(per_seed.shape[0])
    assert np.all(np.abs(mean - expected) <= 4 * se + 1e-9), (mean, expected, se)


def test_compensator_residuals_have_mean_zero_per_block_pair(sampler_runs):
    # N(T) - Lambda(T) is a martingale at T for every pair, so its sum over
    # a block pair has mean 0 (Ogata 1988). This judges which pair each
    # event lands on as well as when; it holds for any horizon, unlike
    # pooled per-pair compensator gaps, which the horizon truncates.
    _, _, residuals = sampler_runs
    assert_within_4_standard_errors(residuals, 0.0)


def test_mean_counts_match_the_branching_structure(sampler_runs):
    # E[N(T)] = (I - K)^-1 mu T up to terms of order 1/(beta T), which the
    # horizons (12000 and 1600 against 1/beta = 1) make negligible
    expected, counts, _ = sampler_runs
    assert expected.sum() > 500
    assert_within_4_standard_errors(counts, expected)
