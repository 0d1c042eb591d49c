"""Block-structured multivariate Hawkes simulator for directed networks.

Each ordered node pair (u, v) is a point process whose intensity is a
block-pair baseline plus exponentially decaying kernels triggered by past
events. Which events excite a pair is set by the excitation kind:

    self             events on (u, v) itself
    reciprocal       events on (v, u)
    shared-receiver  events (x, v) for any third node x
    broadcast        events (w, u) for any w != v, so receiving makes u
                     more likely to send onward

An excitation entry attaches to the excited pair's block pair. Each
matching trigger adds alpha * beta * exp(-beta * (t - t_event)) to the
intensity, so alpha is the expected number of directly spawned events.
Sampling uses Ogata's thinning on the summed intensity, which only decays
between events; runs are fully determined by (params, seed). Entries that
share a beta decay together, so each distinct beta is one group: an n*n
array base[g] over the pairs, its sum S[g], and one float scale s[g], with
the group's excitation of a pair s[g] * base[g]. A candidate only
multiplies each scale by exp(-beta * dt) and forms the intensity
mu_sum + sum_g s[g] * S[g] from floats, so a rejected candidate touches
no array. An accepted one forms the per-pair rates to pick the pair and
adds alpha * beta / s[g] to each cell the event excites. Before a scale
falls below _FOLD it is folded into base[g] and reset to 1, which also
absorbs a gap long enough for the decay to underflow to 0.

Which cells an event on (p, q) excites follows from the kinds and the
node labels: (p, q) for self, (q, p) for reciprocal, column q over the
sender block's members for shared-receiver and row q over the receiver
block's members for broadcast, each fan less p and q. So the work and
memory of an accepted event grow with a block's size, and the state
with n * n; MAX_SIMULATED_NODES bounds n.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .graph import TemporalGraph

EXCITATION_KINDS = ("self", "reciprocal", "shared-receiver", "broadcast")
_FOLD = 1e-150  # smallest decay scale kept before folding it into its base
# Each n*n array of rates or excitations then takes 200 MB.
MAX_SIMULATED_NODES = 5_000


def _whole(value, what: str) -> int:
    """value as an int, refusing NaN, an infinity and the fraction that
    int() would drop."""
    try:
        number = int(value)
    except (ValueError, OverflowError):  # NaN, an infinity or a non-number
        number = None
    if number != value:
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return number


def _array(value, what: str) -> list:
    """value if it is a JSON array; a string or number is not read as one."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, not {type(value).__name__}")
    return value


def _number(value, what: str, kind: type = float):
    """value as a float, or as an int for kind=int, if it is a JSON number;
    a boolean or string is not read as one."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a JSON number, not {type(value).__name__}")
    return _whole(value, what) if kind is int else float(value)


@dataclass(frozen=True)
class Excitation:
    kind: str
    block_pair: tuple[int, int]  # blocks of the excited pair (sender, receiver)
    alpha: float
    beta: float

    def __post_init__(self):
        if self.kind not in EXCITATION_KINDS:
            raise ValueError(f"unknown excitation kind {self.kind!r}")
        # a tuple, so that stability_margin and intensity match it by ==
        pair = tuple(_whole(b, "block_pair") for b in self.block_pair)
        if len(pair) != 2:
            raise ValueError(f"block_pair must hold two blocks, got {self.block_pair!r}")
        object.__setattr__(self, "block_pair", pair)
        if not self.alpha >= 0:  # NaN fails too
            raise ValueError("alpha must be non-negative")
        if not 0 < self.beta < np.inf:  # NaN and inf fail too
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")


@dataclass(frozen=True)
class BlockHawkesParams:
    n_nodes: int
    block_probs: tuple[float, ...]
    horizon: float
    baseline: tuple[tuple[float, ...], ...]  # (n_blocks, n_blocks) rates
    excitations: tuple[Excitation, ...] = ()
    block_assignment: tuple[int, ...] | None = None  # overrides random labels
    max_events: int = 500_000

    @property
    def n_blocks(self) -> int:
        return len(self.block_probs)

    def baseline_array(self) -> np.ndarray:
        return np.asarray(self.baseline, dtype=np.float64)

    def validate(self) -> None:
        if self.n_nodes < 2:
            raise ValueError("need at least two nodes")
        if self.max_events < 0:
            raise ValueError(f"max_events must be non-negative, got {self.max_events}")
        if not 0 < self.horizon < np.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")
        probs = np.asarray(self.block_probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0 or not probs.min() >= 0:  # NaN fails too
            raise ValueError("block_probs must be non-negative")
        if not abs(probs.sum() - 1.0) <= 1e-9:
            raise ValueError("block_probs must sum to one")
        mu = self.baseline_array()
        if mu.shape != (self.n_blocks, self.n_blocks):
            raise ValueError("baseline must be square over blocks")
        if mu.min() < 0 or not np.all(np.isfinite(mu)):
            raise ValueError("baseline rates must be finite and non-negative")
        for e in self.excitations:
            b1, b2 = e.block_pair
            if not (0 <= b1 < self.n_blocks and 0 <= b2 < self.n_blocks):
                raise ValueError(f"excitation block pair out of range: {e.block_pair}")
        if self.block_assignment is not None:
            if len(self.block_assignment) != self.n_nodes:
                raise ValueError("block_assignment length must equal n_nodes")
            if any(not (0 <= b < self.n_blocks) for b in self.block_assignment):
                raise ValueError("block_assignment label out of range")
        margin = self.stability_margin()
        if margin <= 0:
            raise ValueError(
                "unstable parameters: some pair process can receive kernel mass "
                f">= 1 (margin {margin:.4f})"
            )

    def stability_margin(self) -> float:
        """1 - max kernel mass a pair process can receive over block pairs;
        positive means stable. shared-receiver and broadcast triggers fan in
        from up to n-2 third nodes, so their alphas scale accordingly."""
        mass: dict[tuple[int, int], float] = {}
        for e in self.excitations:
            fan = 1 if e.kind in ("self", "reciprocal") else self.n_nodes - 2
            mass[e.block_pair] = mass.get(e.block_pair, 0.0) + fan * e.alpha
        # 0.0 first, so a NaN mass (0 times an infinite alpha) never wins
        return 1.0 - max([0.0, *mass.values()])

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "BlockHawkesParams":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"params file is not valid JSON: {exc}") from None
        try:
            params = cls(
                n_nodes=_number(payload["n_nodes"], "n_nodes", int),
                block_probs=tuple(
                    _number(p, "block_probs")
                    for p in _array(payload["block_probs"], "block_probs")
                ),
                horizon=_number(payload["horizon"], "horizon"),
                baseline=tuple(
                    tuple(_number(x, "baseline") for x in _array(row, "baseline row"))
                    for row in _array(payload["baseline"], "baseline")
                ),
                excitations=tuple(
                    Excitation(
                        kind=str(e["kind"]),
                        block_pair=[_number(b, "block_pair", int)
                                    for b in _array(e["block_pair"], "block_pair")],
                        alpha=_number(e["alpha"], "alpha"),
                        beta=_number(e["beta"], "beta"),
                    )
                    for e in _array(payload.get("excitations", []), "excitations")
                ),
                block_assignment=(
                    None if payload.get("block_assignment") is None else tuple(
                        _number(b, "block_assignment", int)
                        for b in _array(payload["block_assignment"], "block_assignment"))
                ),
                max_events=_number(payload.get("max_events", 500_000), "max_events", int),
            )
        except (KeyError, TypeError, IndexError, OverflowError) as exc:
            raise ValueError(f"params file is missing or malforms a field: {exc}") from None
        params.validate()
        return params


@dataclass(frozen=True)
class SimulatedNetwork:
    graph: TemporalGraph
    labels: np.ndarray  # block per node, aligned with graph.node_names
    candidates: int = 0  # thinning candidates inside the horizon, accepted or not

    def __post_init__(self):
        object.__setattr__(self, "labels", np.array(self.labels))  # a copy of its own
        self.labels.setflags(write=False)


def intensity(
    params: BlockHawkesParams,
    history,
    pair: tuple[int, int],
    t: float,
    labels=None,
) -> float:
    """Direct evaluation of lambda_(u,v)(t) by scanning the full history.

    The reference formula, independent of the simulator's incremental
    state; history holds (source, target, time) triples with time < t
    contributing. labels defaults to params.block_assignment.
    """
    if labels is None:
        if params.block_assignment is None:
            raise ValueError("labels required when params carry no block_assignment")
        labels = params.block_assignment
    labels = [int(b) for b in labels]
    u, v = pair
    if u == v:
        raise ValueError("pair must join two distinct nodes")
    mu = params.baseline_array()
    lam = float(mu[labels[u], labels[v]])
    pair_blocks = (labels[u], labels[v])
    for e in params.excitations:
        if e.block_pair != pair_blocks:
            continue
        for src, tgt, ts in history:
            if not ts < t:
                continue
            src, tgt = int(src), int(tgt)
            if e.kind == "self":
                match = (src, tgt) == (u, v)
            elif e.kind == "reciprocal":
                match = (src, tgt) == (v, u)
            elif e.kind == "shared-receiver":
                match = tgt == v and src not in (u, v)
            else:  # broadcast
                match = tgt == u and src != v and src != u
            if match:
                lam += e.alpha * e.beta * np.exp(-e.beta * (t - ts))
    return lam


def simulate(params: BlockHawkesParams, seed: int) -> SimulatedNetwork:
    """Sample one network on [0, horizon] by thinning the summed intensity.

    Blocks are drawn first (unless fixed in params), then events. The
    upper bound is refreshed after every accepted or rejected candidate;
    validity of the bound is checked at each candidate. Above
    MAX_SIMULATED_NODES nodes it raises ValueError before it allocates,
    and on a baseline whose total over the ordered pairs is not finite
    before it draws an event. A negative seed is refused before seeding.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    params.validate()
    n = params.n_nodes
    if n > MAX_SIMULATED_NODES:
        raise ValueError(
            f"simulating {n} nodes needs n*n rate arrays of {8 * n * n} bytes "
            f"each, above the limit of {MAX_SIMULATED_NODES} nodes"
        )
    rng = np.random.default_rng(np.random.PCG64(seed))
    if params.block_assignment is not None:
        labels = np.array(params.block_assignment, dtype=np.int64)
    else:
        labels = rng.choice(params.n_blocks, size=n, p=np.asarray(params.block_probs))
        labels = labels.astype(np.int64)
    mu = params.baseline_array()[np.ix_(labels, labels)]
    np.fill_diagonal(mu, 0.0)
    with np.errstate(over="ignore"):  # an infinite total is refused below
        mu_sum = float(mu.sum())
    if not math.isfinite(mu_sum):
        raise ValueError(
            f"the baseline's total rate over the ordered pairs is {mu_sum!r}; "
            "it must be finite"
        )

    # Entries of one kind and block pair hit the same cells, so their
    # alpha * beta are summed in entry order; a sum of 0 changes nothing.
    by_beta: dict[float, dict[tuple[str, tuple[int, int]], float]] = {}
    for e in params.excitations:
        jumps = by_beta.setdefault(e.beta, {})
        key = (e.kind, e.block_pair)
        jumps[key] = jumps.get(key, 0.0) + e.alpha * e.beta
    members = [np.flatnonzero(labels == b) for b in range(params.n_blocks)]
    sizes = [block.size for block in members]
    # plans[bp][bq]: for each group an event between blocks bp and bq
    # excites, its steps (kind, jump, fan block) and the jump it adds to
    # the group's total, summed left to right over the cells it hits
    plans = [[[] for _ in members] for _ in members]
    for bp, row in enumerate(plans):
        for bq, plan in enumerate(row):
            for g, jumps in enumerate(by_beta.values()):
                steps, added = [], 0.0
                for (kind, (b1, b2)), jump in jumps.items():
                    hub, fan = (b2, b1) if kind == "shared-receiver" else (b1, b2)
                    if kind == "self" or kind == "reciprocal":
                        hits = (bp, bq) == ((b1, b2) if kind == "self" else (b2, b1))
                    else:  # the fan block's members other than p and q
                        hits = (bq == hub) * (sizes[fan] - (bp == fan) - (bq == fan))
                    if jump != 0.0 and hits > 0:
                        steps.append((kind, jump, members[fan]))
                        for _ in range(hits):
                            added += jump
                if steps:
                    plan.append((g, steps, added))

    block_of = labels.tolist()
    neg_betas = [-beta for beta in by_beta]
    base = [np.zeros((n, n)) for _ in by_beta]
    scale = [1.0] * len(base)
    total = [0.0] * len(base)  # total[g] is base[g].sum()

    exponential, random = rng.exponential, rng.random
    events_src: list[int] = []
    events_tgt: list[int] = []
    events_time: list[float] = []
    add_src, add_tgt, add_time = events_src.append, events_tgt.append, events_time.append
    candidates = 0
    t = 0.0
    bound = mu_sum
    horizon = params.horizon
    while bound > 0.0:
        wait = exponential(1.0 / bound)
        t_cand = t + wait
        if t_cand > horizon:
            break
        candidates += 1
        dt = t_cand - t
        lam = mu_sum
        for g, neg_beta in enumerate(neg_betas):
            s = scale[g] * math.exp(neg_beta * dt)
            if s < _FOLD:  # also when the decay underflowed to 0
                base[g] *= s
                total[g] = float(base[g].sum())
                s = 1.0
            scale[g] = s
            lam += s * total[g]
        if not lam <= bound * (1.0 + 1e-9):
            raise RuntimeError("thinning bound violated")
        accept = random()
        if accept * bound <= lam:
            rates = mu
            for row, s in zip(base, scale):
                rates = rates + row * s
            cum = rates.cumsum()
            pick = random() * cum[-1]
            p, q = divmod(min(int(cum.searchsorted(pick, "right")), n * n - 1), n)
            add_src(p)
            add_tgt(q)
            add_time(t_cand)
            if len(events_time) > params.max_events:
                raise RuntimeError("simulation exceeded max_events")
            # each cell gets one addition; a fan step adds over the whole
            # block, then puts back entry p of its line, which the fan skips,
            # and the diagonal entry q, which stays 0.0.
            # A pick clamped onto the last cell (n-1, n-1) excites nothing.
            for g, steps, added in plans[block_of[p]][block_of[q]] if p != q else ():
                s, cells = scale[g], base[g]
                for kind, jump, fan in steps:
                    if kind == "self":
                        cells[p, q] += jump / s
                    elif kind == "reciprocal":
                        cells[q, p] += jump / s
                    else:  # column q for shared-receiver, row q for broadcast
                        line = cells[:, q] if kind == "shared-receiver" else cells[q]
                        own = line[p]
                        line[fan] += jump / s
                        line[p], line[q] = own, 0.0
                total[g] += added / s
            lam = mu_sum
            for s, tot in zip(scale, total):
                lam += s * tot
        t = t_cand
        bound = lam
    names = tuple(str(i) for i in range(n))
    graph = TemporalGraph(names, events_src, events_tgt, events_time)
    return SimulatedNetwork(graph=graph, labels=labels, candidates=candidates)


# Shipped scenario parameter sets for the two-block role-recovery study.
# Values were chosen over 100 seeds by scoring candidate JSON files with
# `motifroles eval --params FILE --delta D --runs 100 --min-motifs 10 --k 2`
# until positioned clustering recovered blocks with a wide margin,
# positionless clustering stayed far behind, and the cluster centroids
# were dominated by the intended motif cells. SCENARIO_DELTAS gives the
# matching counting windows. Event density is kept low relative to the
# window so that windowed triples are mostly single bursts rather than
# unrelated coincidences.

SCENARIO_NODES = 20
SCENARIO_DELTAS = {1: 3.0, 2: 5.0}


def scenario_params(which: int) -> BlockHawkesParams:
    """Parameter sets for the two simulation scenarios.

    Scenario 1: symmetric baselines with uniform self-excitation, plus
    strong reciprocal excitation of block-1 replies to block-0 edges.
    Repeated-contact bursts put both blocks in repeat motifs equally,
    while reply bursts separate the blocks only by position.

    Scenario 2: block-0 senders pile onto a block-1 receiver that was
    just contacted (shared-receiver), and a contacted block-1 node then
    relays to distinct block-0 targets (broadcast), so block-1 nodes sit
    at star centers and block-0 nodes at star leaves.
    """
    if which == 1:
        params = BlockHawkesParams(
            n_nodes=SCENARIO_NODES,
            block_probs=(0.5, 0.5),
            horizon=12000.0,
            baseline=((0.0002, 0.0002), (0.0002, 0.0002)),
            excitations=(
                Excitation("self", (0, 0), alpha=0.25, beta=1.0),
                Excitation("self", (0, 1), alpha=0.25, beta=1.0),
                Excitation("self", (1, 1), alpha=0.25, beta=1.0),
                Excitation("self", (1, 0), alpha=0.25, beta=1.0),
                Excitation("reciprocal", (1, 0), alpha=0.70, beta=1.0),
            ),
        )
    elif which == 2:
        params = BlockHawkesParams(
            n_nodes=SCENARIO_NODES,
            block_probs=(0.5, 0.5),
            horizon=1600.0,
            baseline=((0.0, 0.004), (0.0, 0.0)),
            excitations=(
                Excitation("shared-receiver", (0, 1), alpha=0.05, beta=1.0),
                Excitation("broadcast", (1, 0), alpha=0.05, beta=1.0),
            ),
        )
    else:
        raise ValueError(f"unknown scenario {which!r}; defined scenarios are 1 and 2")
    params.validate()
    return params
