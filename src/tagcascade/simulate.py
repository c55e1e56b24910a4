"""Executable diffusion mechanisms over a follower graph.

Three models are rules inside one activation loop, `_spread` (as in Kempe,
Kleinberg & Tardos, KDD 2003): each step, the users who adopted last step
are shown to their observers as one array, and the rule picks who adopts.
A fractional-threshold rule counts them as active alters, a social-learning
variant also demands the threshold hold for a lag of consecutive steps, and
an independent cascade keeps observers whose pre-drawn per-edge uniform is
below p (so runs at different transmission probabilities are coupled).
The graph must hold no duplicate edge; `build_follower_graph` merges them.
Every run is deterministic given its config, including the 64-bit seed.

Step semantics: adoption at step k is triggered by the adoption state at
the end of step k-1, which matches the measurement side's strictly-before
tie rule, so measured exposure at adoption can never undershoot a planted
threshold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataError, UnsupportedModelError, UsageError
from .events import (Dataset, FollowerGraph, Labels, LogColumns, _csr_indptr, _csr_sources,
                     _padded, build_dataset, build_follower_graph)
from .exposure import all_exposures
from .stats import spearman_rho

MODELS = ("threshold", "cascade", "learning")


# ---------------------------------------------------------------------------
# synthetic graphs
# ---------------------------------------------------------------------------

def erdos_renyi(n: int, mean_out_degree: float, seed: int) -> FollowerGraph:
    """Directed G(n, p) with p = mean_out_degree / (n - 1)."""
    if n < 2:
        raise UsageError("erdos_renyi needs n >= 2")
    p = mean_out_degree / (n - 1)
    if not 0.0 <= p <= 1.0:
        raise UsageError(f"mean_out_degree {mean_out_degree} out of range for n={n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    srcs, dsts = [], []
    for u in range(n):
        mask = rng.random(n) < p
        mask[u] = False
        hit = np.flatnonzero(mask)
        if hit.shape[0]:
            srcs.append(np.full(hit.shape[0], u, dtype=np.int64))
            dsts.append(hit)
    if srcs:
        edges = np.column_stack([np.concatenate(srcs), np.concatenate(dsts)])
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    return build_follower_graph(edges, n)


def preferential_attachment(n: int, m: int, seed: int) -> FollowerGraph:
    """Directed preferential attachment: each new node observes m distinct
    existing nodes chosen with probability proportional to in-degree + 1,
    which yields a heavy-tailed in-degree (popularity) distribution.

    Each pick is an index into a pool that holds every node once at birth
    and once per incoming edge. The picks replay, bit for bit, the stream
    of scalar `Generator.integers(0, len(pool))` calls on a fresh `PCG64`,
    but take the raw words from the bit generator in blocks instead of one
    call per draw. A draw below a bound of 2 or more is Lemire's multiply
    and reject, as numpy's `buffered_bounded_lemire_uint32`: a 32-bit word
    times the bound, rejected while its low 32 bits fall below
    (2**32 - bound) % bound, gives the high 32 bits. A bound of 1 (the
    first pool when m is 1) takes no word. The graph for a seed therefore
    depends on numpy keeping that stream; tests compare the generator with
    a per-call reference, which catches a numpy release that changes it.
    """
    if n < 2 or m < 1 or m >= n:
        raise UsageError("preferential_attachment needs n >= 2 and 1 <= m < n")
    if m + (n - 1 - m) * (m + 1) >= 2**32:
        raise UsageError(f"preferential_attachment(n={n}, m={m}) needs a pool of 2**32 "
                         "or more entries")
    u32 = _uint32_stream(np.random.PCG64(seed))
    pool = list(range(m))  # each node appears once at birth, once per incoming edge
    dst_list = []
    for i in range(m, n):
        bound = len(pool)
        if bound == 1:
            picks = {pool[0]}
        else:
            reject_below = (2**32 - bound) % bound
            picks = set()
            for x in u32:  # left at the m-th distinct pick: the next node draws on from there
                x *= bound
                if x & 0xFFFFFFFF >= reject_below:
                    picks.add(pool[x >> 32])
                    if len(picks) == m:
                        break
        targets = sorted(picks)
        dst_list.extend(targets)
        pool.extend(targets)
        pool.append(i)
    edges = np.column_stack([
        np.repeat(np.arange(m, n, dtype=np.int64), m),
        np.asarray(dst_list, dtype=np.int64),
    ])
    return build_follower_graph(edges, n)


_RAW_BLOCK = 2**14  # at most this many 64-bit words per random_raw call: bounded memory


def _uint32_stream(bitgen: np.random.PCG64):
    """The 32-bit draws a `Generator` over a fresh `bitgen` makes, in order,
    as Python ints.

    PCG64 serves 32-bit draws from each 64-bit word low half first, then
    high half, and a fresh bit generator has no half-word buffered. The
    halves are split arithmetically, so the order does not depend on the
    host's byte order. Blocks of words start small and double up to
    `_RAW_BLOCK`, so a small graph does not pay for a large block.
    """
    def blocks():
        size = 64
        while True:
            raw = bitgen.random_raw(size)
            yield np.stack((raw & 0xFFFFFFFF, raw >> 32), axis=1).ravel().tolist()
            size = min(2 * size, _RAW_BLOCK)

    return itertools.chain.from_iterable(blocks())


# graph kind -> ((parameter, type), ...): the generator of that name and its
# parameters in call order, before the seed
GRAPH_PARAMS = {"erdos_renyi": (("n", int), ("mean_out_degree", float)),
                "preferential_attachment": (("n", int), ("m", int))}


def gen_graph(kind: str, seed: int, **params) -> FollowerGraph:
    """Dispatcher for config-driven graph generation: the generator named
    `kind`, called with its GRAPH_PARAMS, each converted to its type."""
    if kind not in GRAPH_PARAMS:
        raise UsageError(f"unknown graph kind: {kind!r}")
    args = (convert(params[name]) for name, convert in GRAPH_PARAMS[kind])
    return globals()[kind](*args, seed)


# ---------------------------------------------------------------------------
# parameters and config
# ---------------------------------------------------------------------------

# threshold distribution -> the names of its parameters, in ThresholdSpec order
THRESHOLD_PARAMS = {"constant": ("c",), "uniform": ("a", "b"), "truncnorm": ("mu", "sigma")}


@dataclass(frozen=True)
class ThresholdSpec:
    """Per-user threshold distribution: constant c, uniform[a, b], or a
    normal(mu, sigma) truncated to [0, 1].

    A constant above 1 is allowed as an explicit 'unreachable' setting;
    sampled distributions always land in [0, 1].
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind == "constant":
            (c,) = self.params
            if c < 0:
                raise UsageError("constant threshold must be >= 0")
        elif self.kind == "uniform":
            a, b = self.params
            if not (0.0 <= a <= b <= 1.0):
                raise UsageError("uniform threshold bounds must satisfy 0 <= a <= b <= 1")
        elif self.kind == "truncnorm":
            _, sigma = self.params
            if sigma <= 0:
                raise UsageError("truncnorm sigma must be > 0")
        else:
            raise UsageError(f"unknown threshold distribution: {self.kind!r}")

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "constant":
            return np.full(n, float(self.params[0]))
        if self.kind == "uniform":
            a, b = self.params
            return a + (b - a) * rng.random(n)
        from scipy.stats import truncnorm  # imported here: scipy.stats is slow to load

        mu, sigma = self.params
        lo, hi = (0.0 - mu) / sigma, (1.0 - mu) / sigma
        return truncnorm.rvs(lo, hi, loc=mu, scale=sigma, size=n, random_state=rng)


@dataclass(frozen=True)
class ThresholdParams:
    thresholds: ThresholdSpec


@dataclass(frozen=True)
class CascadeParams:
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise UsageError("transmission probability must be in [0, 1]")


@dataclass(frozen=True)
class LearningParams:
    thresholds: ThresholdSpec
    lag: int

    def __post_init__(self):
        if self.lag < 0:
            raise UsageError("evaluation lag must be >= 0")


@dataclass(frozen=True)
class SimConfig:
    graph: FollowerGraph
    model: str
    params: object
    n_seeds: int = 1
    seed_users: tuple | None = None
    max_steps: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise UsageError(f"model must be one of {MODELS}")
        if self.max_steps < 1:
            raise UsageError("max_steps must be >= 1")
        if self.seed_users is not None:
            if len(self.seed_users) == 0:
                raise UsageError("explicit seed set must be non-empty")
            for u in self.seed_users:
                if not 0 <= u < self.graph.n:
                    raise UsageError(f"seed user {u} outside graph")
        elif not 1 <= self.n_seeds <= self.graph.n:
            raise UsageError("n_seeds must be in [1, n_users]")


@dataclass(frozen=True)
class SimRun:
    """One simulated tag: who adopted at which step, plus everything that
    was planted so the measurement pipeline can be checked against it."""

    model: str
    graph: FollowerGraph
    seed_users: np.ndarray
    adopt_step: np.ndarray          # -1 = never adopted
    theta: np.ndarray | None        # planted per-user thresholds
    edge_prob: float | None         # cascade transmission probability
    lag: int | None
    step_counts: np.ndarray         # new adopters per step, index 0 = seeds
    config_seed: int
    max_steps: int
    warnings: dict = field(default_factory=dict)

    @property
    def n_adopters(self) -> int:
        return int(np.count_nonzero(self.adopt_step >= 0))

    @property
    def final_saturation(self) -> float:
        return self.n_adopters / self.graph.n

    def user_label(self, u: int) -> str:
        return "u%07d" % u

    def _adopters(self) -> np.ndarray:
        """The nodes that adopted, by step then node."""
        adopters = np.flatnonzero(self.adopt_step >= 0)
        return adopters[np.lexsort((adopters, self.adopt_step[adopters]))]

    def _labels(self, nodes: np.ndarray):
        """The label column of `nodes`: up to 10^7 nodes, where every
        `u%07d` label is 8 bytes, label words (see events.LogColumns) taken
        from one word per node, so no label is formatted; else the labels."""
        if self.graph.n > _WORD_NODES:
            return ["u%07d" % u for u in nodes.tolist()]
        return self._words[nodes]

    @cached_property
    def _words(self) -> np.ndarray:
        return _node_words(self.graph.n)

    def adoption_rows(self) -> LogColumns:
        """Synthetic adoption log of the tag "sim", by step then node,
        directly re-ingestible: columns of user labels, tags and steps."""
        users = self._adopters()
        tags = np.full(users.shape[0], _SIM_WORD, dtype=np.uint64)
        return LogColumns(self._labels(users), tags, self.adopt_step[users].astype(np.int64))

    def follow_rows(self) -> LogColumns:
        """The graph's edges as columns of source and destination labels."""
        g = self.graph
        return LogColumns(self._labels(_csr_sources(g.indptr, g.n)), self._labels(g.dst), None)

    def to_dataset(self) -> Dataset:
        """The Dataset of adoption_rows and follow_rows."""
        return build_dataset(self.adoption_rows(), self.follow_rows())


_WORD_NODES = 10**7  # the u%07d label of every node id below it is 8 bytes
_SIM_WORD = int.from_bytes(b"sim".ljust(8, b"\0"), "big")  # the label word of the tag "sim"


def _node_words(n: int) -> np.ndarray:
    """The label word of `u%07d` for each node id below n <= 10^7: b"u",
    then the id's seven digits, most significant first."""
    ids = np.arange(n, dtype=np.uint64)
    words = np.full(n, ord("u"), dtype=np.uint64)
    for power in (10**6, 10**5, 10**4, 10**3, 100, 10, 1):
        words <<= 8
        words |= ids // power % 10 + ord("0")
    return words


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

def _init_run(cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    if cfg.seed_users is not None:
        return np.array(sorted(set(int(u) for u in cfg.seed_users)), dtype=np.int64)
    return np.sort(rng.choice(cfg.graph.n, size=cfg.n_seeds, replace=False))


def _observer_csr(graph: FollowerGraph):
    """Reverse adjacency: for each node, who observes it, with the forward
    edge slot of each (observer -> node) edge kept for per-edge uniforms."""
    order = np.argsort(graph.dst, kind="stable")
    return _csr_indptr(graph.dst, graph.n), _csr_sources(graph.indptr, graph.n)[order], order


def _csr_slots(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions in a CSR's column array of every entry of `rows`, row by row."""
    lo = indptr[rows]
    counts = indptr[rows + 1] - lo
    return np.repeat(lo - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def _spread(cfg: SimConfig, seeds: np.ndarray, rule, **planted) -> SimRun:
    """The activation process all three models share: the seeds adopt at
    step 0, and at each step k the observers of the users who adopted at
    step k-1 are handed, one entry per edge, to
    `rule(observers, edge_slots, adopt_step)`. The rule returns the users
    who adopt at step k, or None at a fixed point."""
    graph = cfg.graph
    obs_indptr, obs_src, obs_eid = _observer_csr(graph)
    adopt_step = np.full(graph.n, -1, dtype=np.int64)
    adopt_step[seeds] = 0
    step_counts = [int(seeds.shape[0])]
    newly = seeds
    for step in range(1, cfg.max_steps + 1):
        slots = _csr_slots(obs_indptr, newly)
        newly = rule(obs_src[slots], obs_eid[slots], adopt_step)
        if newly is None:
            break
        adopt_step[newly] = step
        step_counts.append(int(newly.shape[0]))
    return SimRun(graph=graph, seed_users=seeds, adopt_step=adopt_step,
                  step_counts=np.asarray(step_counts, dtype=np.int64), config_seed=cfg.seed,
                  max_steps=cfg.max_steps, **planted)


def run_threshold_model(cfg: SimConfig) -> SimRun:
    """Synchronous fractional-threshold adoption.

    At step k every non-adopter whose adopted-alter fraction at the end of
    step k-1 reaches its personal threshold adopts. Users observing nobody
    never adopt unless seeded.
    """
    if not isinstance(cfg.params, ThresholdParams):
        raise UsageError("run_threshold_model needs ThresholdParams")
    return _run_fractional(cfg, cfg.params.thresholds, lag=0)


def run_social_learning(cfg: SimConfig) -> SimRun:
    """Threshold adoption with an evaluation window: exposure must reach
    the personal threshold for lag+1 consecutive steps before adoption.
    lag=0 reduces step-for-step to the plain threshold model."""
    if not isinstance(cfg.params, LearningParams):
        raise UsageError("run_social_learning needs LearningParams")
    return _run_fractional(cfg, cfg.params.thresholds, lag=cfg.params.lag)


def _run_fractional(cfg: SimConfig, spec: ThresholdSpec, lag: int) -> SimRun:
    n = cfg.graph.n
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    theta = spec.draw(n, rng)
    seeds = _init_run(cfg, rng)
    outdeg = cfg.graph.out_degrees()
    can_adopt = outdeg > 0
    active_count = np.zeros(n, dtype=np.int64)
    streak = np.zeros(n, dtype=np.int64)

    def rule(observers, _edge_slots, adopt_step):
        """Counts one active alter per edge: one per observer, because the
        graph holds no duplicate edge (build_follower_graph, which builds
        every generated and ingested graph, merges them)."""
        nonlocal active_count, streak
        active_count += np.bincount(observers, minlength=n)
        exposure = np.divide(active_count, outdeg, out=np.zeros(n), where=can_adopt)
        satisfied = (adopt_step < 0) & can_adopt & (exposure >= theta)
        if not satisfied.any():
            return None  # a fixed point only once no streak can still mature
        streak = np.where(satisfied, streak + 1, 0)
        return np.flatnonzero(streak > lag)

    return _spread(cfg, seeds, rule, model=cfg.model, theta=theta, edge_prob=None,
                   lag=lag if cfg.model == "learning" else None)


def run_independent_cascade(cfg: SimConfig) -> SimRun:
    """Viral spread: when a user adopts at step k, every observer of that
    user gets one Bernoulli(p) conversion attempt at step k+1.

    Attempts consume uniforms pre-drawn per edge from the run seed, so
    adoption sets at different p under the same seed are nested.
    """
    if not isinstance(cfg.params, CascadeParams):
        raise UsageError("run_independent_cascade needs CascadeParams")
    p = cfg.params.p
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    seeds = _init_run(cfg, rng)
    edge_u = rng.random(cfg.graph.n_edges)

    def rule(observers, edge_slots, adopt_step):
        hit = observers[(edge_u[edge_slots] < p) & (adopt_step[observers] < 0)]
        return np.unique(hit) if hit.shape[0] else None

    return _spread(cfg, seeds, rule, model="cascade", theta=None, edge_prob=p, lag=None)


def run_model(cfg: SimConfig) -> SimRun:
    if cfg.model == "threshold":
        return run_threshold_model(cfg)
    if cfg.model == "cascade":
        return run_independent_cascade(cfg)
    return run_social_learning(cfg)


# ---------------------------------------------------------------------------
# planted-parameter recovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecoveryReport:
    n_users: int
    n_adopters: int
    n_seeds: int
    n_compared: int
    n_violations: int
    min_margin: float | None
    mean_margin: float | None
    spearman: float | None
    margins: np.ndarray
    popularity: np.ndarray
    exposure: np.ndarray

    def as_dict(self) -> dict:
        return {
            "users": self.n_users,
            "adopters": self.n_adopters,
            "seeds": self.n_seeds,
            "compared": self.n_compared,
            "violations": self.n_violations,
            "min_margin": self.min_margin,
            "mean_margin": self.mean_margin,
            "spearman_popularity_exposure": self.spearman,
        }


def recover_thresholds(run: SimRun, *, ties: str = "strict") -> RecoveryReport:
    """Round-trip a simulated tag through the measurement pipeline.

    Converts the run into a Dataset, measures exposure at every adoption,
    and compares against planted thresholds (`recover_from_ingested` does
    this for a re-ingested log): for non-seed adopters under synchronous
    updates the measured exposure can never be below the planted value. Seed adoptions are excluded
    (their exposure says nothing about their threshold).
    """
    if run.theta is None:
        raise UnsupportedModelError(
            f"model {run.model!r} has no planted thresholds to recover"
        )
    return recover_from_ingested(
        run.to_dataset(),
        theta=run.theta,
        n_users=run.graph.n,
        n_seeds=int(run.seed_users.shape[0]),
        ties=ties,
    )


def _node_id(label: str) -> int:
    digits = label[1:]
    if label[:1] != "u" or not (digits.isascii() and digits.isdigit()):
        raise DataError(f"user {label!r} is not a simulated node label (u followed by digits)")
    return int(digits)


_POWERS = 10 ** np.arange(19, dtype=np.int64)  # the place values of a u and up to 18 digits


def _node_ids(table: Labels) -> np.ndarray:
    """The node id of each label of `table` by `_node_id`'s rule, parsed from
    its bytes: the labels' digit values left-aligned in a matrix
    (`events._padded`), the u zeroed, times the powers of ten, less the
    places a shorter label leaves empty. A table with a label the rule
    refuses, or with more than 18 digits, goes through `_node_id` label by
    label, which raises the first label's error in handle order
    (OverflowError for an id past int64)."""
    n = len(table)
    data = np.frombuffer(table.blob, dtype=np.uint8)
    lead, sizes = table.offsets[:-1].astype(np.intp), np.diff(table.offsets).astype(np.intp)
    value = data - np.uint8(ord("0"))  # a digit's value; every other byte is above 9
    if n and 2 <= sizes.min() and sizes.max() <= 19 and (data[lead] == ord("u")).all():
        value[lead] = 0
        if (value <= 9).all():
            cells, _ = _padded(value, table.offsets)
            width = cells.shape[1]
            return (cells @ _POWERS[width - 1::-1]) // _POWERS[width - sizes]
    return np.fromiter(map(_node_id, table.labels), dtype=np.int64, count=n)


def recover_from_ingested(
    ds: Dataset,
    *,
    theta: np.ndarray,
    n_users: int,
    n_seeds: int,
    ties: str = "strict",
) -> RecoveryReport:
    """Compare measured exposures in a (re-)ingested simulated log against
    planted thresholds indexed by simulation node id. Adoption timestamps
    are step indices; step 0 marks seeds."""
    table = all_exposures(ds, ties=ties)
    # dataset handle -> simulation node id, via the synthetic labels
    try:
        node_of = _node_ids(ds.user_table)
    except OverflowError:  # an id past int64, and so past the end of theta
        raise DataError(f"theta holds {theta.shape[0]} planted thresholds, but node ids "
                        "reach past int64") from None
    top = int(node_of.max(initial=-1))
    if top >= theta.shape[0]:
        raise DataError(f"theta holds {theta.shape[0]} planted thresholds, but node ids "
                        f"reach {top}")
    use = (table.time > 0) & table.defined_mask
    nodes = node_of[table.user[use]]
    expo = table.exposure[use]
    margins = expo - theta[nodes]
    pop = table.tag_popularity_at_adoption[use].astype(np.float64)

    return RecoveryReport(
        n_users=n_users,
        n_adopters=ds.n_first_usages,
        n_seeds=n_seeds,
        n_compared=int(expo.shape[0]),
        n_violations=int(np.count_nonzero(margins < 0)),
        min_margin=float(margins.min()) if margins.shape[0] else None,
        mean_margin=float(margins.mean()) if margins.shape[0] else None,
        spearman=spearman_rho(pop, expo),
        margins=margins,
        popularity=pop,
        exposure=expo,
    )
