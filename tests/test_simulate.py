from __future__ import annotations

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tagcascade as tc
from tagcascade import simulate
from tagcascade.errors import UnsupportedModelError, UsageError
from tagcascade.events import Labels, build_follower_graph
from tagcascade.simulate import (
    CascadeParams,
    LearningParams,
    SimConfig,
    ThresholdParams,
    ThresholdSpec,
    _uint32_stream,
    _node_ids,
    _node_words,
    erdos_renyi,
    preferential_attachment,
    recover_thresholds,
    run_independent_cascade,
    run_model,
    run_social_learning,
    run_threshold_model,
)
from tagcascade.textio import write_adoptions_csv, write_follows_csv

from oracles import (
    draws_below,
    node_ids_reference,
    preferential_attachment_reference,
    simulate_reference,
)


def _cycle_graph():
    # A -> B -> C -> A (each observes the next)
    return build_follower_graph(np.array([[0, 1], [1, 2], [2, 0]]), 3)


def _threshold_cfg(graph, c=0.5, seeds=(0,), max_steps=30, seed=1):
    return SimConfig(
        graph=graph,
        model="threshold",
        params=ThresholdParams(ThresholdSpec("constant", (c,))),
        seed_users=seeds,
        max_steps=max_steps,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# graph generators
# ---------------------------------------------------------------------------

def test_erdos_renyi_edge_count_near_expectation():
    counts = [erdos_renyi(1000, 10, seed=s).n_edges for s in range(20)]
    assert abs(np.mean(counts) - 10_000) < 500  # within 5%


def test_erdos_renyi_no_self_loops_and_deterministic():
    g1 = erdos_renyi(50, 5, seed=3)
    g2 = erdos_renyi(50, 5, seed=3)
    np.testing.assert_array_equal(g1.dst, g2.dst)
    np.testing.assert_array_equal(g1.indptr, g2.indptr)
    edges = g1.edge_list()
    assert not np.any(edges[:, 0] == edges[:, 1])


def test_erdos_renyi_minimum_size():
    g = erdos_renyi(2, 1, seed=0)
    assert g.n_edges <= 2
    with pytest.raises(UsageError):
        erdos_renyi(1, 0, seed=0)
    with pytest.raises(UsageError):
        erdos_renyi(10, 20, seed=0)  # p > 1


def test_preferential_attachment_heavy_tail_passes_own_fitter():
    g = preferential_attachment(10_000, 3, seed=11)
    indeg = np.bincount(g.dst, minlength=g.n)
    fit = tc.fit_power_law(indeg[indeg >= 1], bootstrap=50, seed=5)
    assert fit.gof_p > 0.1


def test_preferential_attachment_determinism_and_bounds():
    g1 = preferential_attachment(200, 2, seed=9)
    g2 = preferential_attachment(200, 2, seed=9)
    np.testing.assert_array_equal(g1.dst, g2.dst)
    edges = g1.edge_list()
    assert not np.any(edges[:, 0] == edges[:, 1])
    with pytest.raises(UsageError):
        preferential_attachment(5, 5, seed=0)


def test_preferential_attachment_equals_reference():
    # m=1 meets a pool of one at i=1, whose pick consumes no draw; m=n-1 and
    # n=2 are the edges of the valid range; n=2e4 runs long streams.
    grid = [(2, 1), (3, 1), (5, 1), (40, 1), (3, 2), (10, 9), (60, 59), (30, 3),
            (200, 2), (1000, 5), (500, 17)]
    cases = [(n, m, seed) for n, m in grid for seed in (0, 1, 9, 2**63 + 5)]
    cases += [(20_000, 4, seed) for seed in (3, 77, 2024)]
    for n, m, seed in cases:
        g = preferential_attachment(n, m, seed)
        indptr, dst = preferential_attachment_reference(n, m, seed)
        np.testing.assert_array_equal(g.indptr, indptr, err_msg=f"{(n, m, seed)}")
        np.testing.assert_array_equal(g.dst, dst, err_msg=f"{(n, m, seed)}")


def test_bounded_draw_replay_equals_generator_integers():
    # At 2**31+1 about half of the 32-bit draws are rejected; large bounds
    # are the only ones that reach the rejection branch.
    rng = np.random.default_rng(12)
    bounds = [1, 2, 3, 2**31 + 1, 2**32 - 1]
    bounds += rng.integers(1, 2**32, 12).tolist() + rng.integers(1, 1000, 6).tolist()
    for seed, bound in enumerate(bounds):
        taken = []  # every 32-bit draw the replay takes
        u32 = _uint32_stream(np.random.PCG64(seed))
        draws = draws_below((taken.append(x) or x for x in u32), bound)
        gen = np.random.Generator(np.random.PCG64(seed))
        for _ in range(3000):
            assert next(draws) == gen.integers(0, bound), (seed, bound)
        if bound == 1:
            assert taken == []
        if bound == 2**31 + 1:
            assert len(taken) > 5000
    # Bounds that change from draw to draw share one stream, with bound 1
    # taking no draw and odd counts of draws between them.
    seq = rng.choice(bounds, 5000).tolist()
    u32 = _uint32_stream(np.random.PCG64(99))
    gen = np.random.Generator(np.random.PCG64(99))
    assert [next(draws_below(u32, b)) for b in seq] == [int(gen.integers(0, b)) for b in seq]


def test_preferential_attachment_refuses_a_pool_of_2_to_the_32():
    with pytest.raises(UsageError, match="2\\*\\*32"):
        preferential_attachment(2**31, 2, seed=0)  # refused before anything is drawn


# ---------------------------------------------------------------------------
# threshold model
# ---------------------------------------------------------------------------

def test_zero_threshold_everyone_with_alters_adopts_step_one():
    g = erdos_renyi(60, 4, seed=2)
    run = run_threshold_model(_threshold_cfg(g, c=0.0, seeds=(0,)))
    outdeg = g.out_degrees()
    for u in range(g.n):
        if u == 0:
            assert run.adopt_step[u] == 0
        elif outdeg[u] > 0:
            assert run.adopt_step[u] == 1
        else:
            assert run.adopt_step[u] == -1


def test_unreachable_threshold_keeps_seed_set_only():
    g = erdos_renyi(40, 5, seed=4)
    run = run_threshold_model(_threshold_cfg(g, c=1.5, seeds=(3, 7)))
    adopters = set(np.flatnonzero(run.adopt_step >= 0))
    assert adopters == {3, 7}
    assert run.final_saturation == pytest.approx(2 / 40)


def test_cycle_hand_simulation():
    run = run_threshold_model(_threshold_cfg(_cycle_graph(), c=0.5, seeds=(0,)))
    # C (node 2) observes the seed: adopts step 1; B (node 1) observes C: step 2
    assert list(run.adopt_step) == [0, 2, 1]
    assert run.final_saturation == 1.0
    assert list(run.step_counts) == [1, 1, 1]


def test_isolated_users_never_adopt_unless_seeded():
    g = build_follower_graph(np.array([[0, 1]]), 3)  # node 2 fully isolated
    run = run_threshold_model(_threshold_cfg(g, c=0.0, seeds=(1,)))
    assert run.adopt_step[2] == -1
    run2 = run_threshold_model(_threshold_cfg(g, c=0.0, seeds=(2,)))
    assert run2.adopt_step[2] == 0


def test_threshold_fixed_point_stable_under_more_steps():
    g = erdos_renyi(80, 6, seed=6)
    cfg_short = SimConfig(
        graph=g, model="threshold",
        params=ThresholdParams(ThresholdSpec("uniform", (0.0, 1.0))),
        n_seeds=4, max_steps=50, seed=13,
    )
    cfg_long = SimConfig(
        graph=g, model="threshold",
        params=ThresholdParams(ThresholdSpec("uniform", (0.0, 1.0))),
        n_seeds=4, max_steps=55, seed=13,
    )
    a = run_threshold_model(cfg_short)
    b = run_threshold_model(cfg_long)
    np.testing.assert_array_equal(a.adopt_step, b.adopt_step)


def test_run_determinism_bit_identical():
    g = preferential_attachment(300, 3, seed=1)
    cfg = SimConfig(
        graph=g, model="threshold",
        params=ThresholdParams(ThresholdSpec("truncnorm", (0.3, 0.2))),
        n_seeds=5, max_steps=40, seed=77,
    )
    a = run_threshold_model(cfg)
    b = run_threshold_model(cfg)
    np.testing.assert_array_equal(a.adopt_step, b.adopt_step)
    np.testing.assert_array_equal(a.theta, b.theta)
    np.testing.assert_array_equal(a.seed_users, b.seed_users)
    np.testing.assert_array_equal(a.step_counts, b.step_counts)


# ---------------------------------------------------------------------------
# independent cascade
# ---------------------------------------------------------------------------

def test_cascade_p_zero_keeps_seeds():
    g = erdos_renyi(50, 6, seed=5)
    cfg = SimConfig(graph=g, model="cascade", params=CascadeParams(0.0),
                    seed_users=(1, 2), max_steps=30, seed=3)
    run = run_independent_cascade(cfg)
    assert set(np.flatnonzero(run.adopt_step >= 0)) == {1, 2}


def _forward_reachable(graph, seeds):
    """Users with a directed observation path to a seed: follow reversed
    edges outward from the seeds."""
    rev = {v: [] for v in range(graph.n)}
    edges = graph.edge_list()
    for i in range(edges.shape[0]):
        rev[int(edges[i, 1])].append(int(edges[i, 0]))
    seen = set(int(s) for s in seeds)
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for w in rev[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def test_cascade_p_one_reaches_everything_with_a_path():
    g = erdos_renyi(60, 3, seed=8)
    cfg = SimConfig(graph=g, model="cascade", params=CascadeParams(1.0),
                    seed_users=(0,), max_steps=100, seed=3)
    run = run_independent_cascade(cfg)
    assert set(np.flatnonzero(run.adopt_step >= 0)) == _forward_reachable(g, [0])


def test_cascade_monotone_coupling_in_p():
    g = erdos_renyi(120, 5, seed=10)
    for seed in range(10):
        previous = None
        for p in (0.1, 0.3, 0.6, 0.9):
            cfg = SimConfig(graph=g, model="cascade", params=CascadeParams(p),
                            n_seeds=3, max_steps=60, seed=seed)
            adopters = set(np.flatnonzero(run_independent_cascade(cfg).adopt_step >= 0))
            if previous is not None:
                assert previous <= adopters
            previous = adopters


def test_cascade_has_no_planted_thresholds():
    g = erdos_renyi(30, 4, seed=2)
    cfg = SimConfig(graph=g, model="cascade", params=CascadeParams(0.5),
                    n_seeds=2, max_steps=20, seed=1)
    run = run_independent_cascade(cfg)
    with pytest.raises(UnsupportedModelError):
        recover_thresholds(run)


# ---------------------------------------------------------------------------
# social learning
# ---------------------------------------------------------------------------

def test_learning_lag_zero_equals_threshold_model_step_for_step():
    g = erdos_renyi(150, 6, seed=14)
    for seed in range(10):
        base = SimConfig(
            graph=g, model="threshold",
            params=ThresholdParams(ThresholdSpec("uniform", (0.0, 1.0))),
            n_seeds=4, max_steps=50, seed=seed,
        )
        lagged = SimConfig(
            graph=g, model="learning",
            params=LearningParams(ThresholdSpec("uniform", (0.0, 1.0)), 0),
            n_seeds=4, max_steps=50, seed=seed,
        )
        a = run_threshold_model(base)
        b = run_social_learning(lagged)
        np.testing.assert_array_equal(a.adopt_step, b.adopt_step)
        np.testing.assert_array_equal(a.step_counts, b.step_counts)


def test_learning_cycle_shifts_adoptions_by_lag():
    g = _cycle_graph()
    cfg = SimConfig(
        graph=g, model="learning",
        params=LearningParams(ThresholdSpec("constant", (0.5,)), 1),
        seed_users=(0,), max_steps=30, seed=1,
    )
    run = run_social_learning(cfg)
    # plain threshold gives [0, 2, 1]; each adoption waits one extra step,
    # and the delay compounds along the observation chain
    assert list(run.adopt_step) == [0, 4, 2]


def test_learning_lag_beyond_max_steps_keeps_seeds():
    g = erdos_renyi(40, 5, seed=3)
    cfg = SimConfig(
        graph=g, model="learning",
        params=LearningParams(ThresholdSpec("constant", (0.0,)), 99),
        seed_users=(5,), max_steps=10, seed=1,
    )
    run = run_social_learning(cfg)
    assert set(np.flatnonzero(run.adopt_step >= 0)) == {5}


# ---------------------------------------------------------------------------
# all three models against the per-adopter, per-edge reference
# ---------------------------------------------------------------------------

@st.composite
def _graphs(draw):
    """Deduplicated graphs without self-loops: ER, PA, or an edge set in
    which some users observe nobody."""
    kind = draw(st.sampled_from(["er", "pa", "edges"]))
    n = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**32))
    if kind == "er":
        return erdos_renyi(n, draw(st.floats(0.0, min(6.0, n - 1))), seed)
    if kind == "pa":
        return preferential_attachment(n, draw(st.integers(1, min(4, n - 1))), seed)
    observers = draw(st.lists(st.integers(0, n - 1), max_size=n))
    pairs = {(a, draw(st.integers(0, n - 1))) for a in observers for _ in range(3)}
    edges = sorted((a, b) for a, b in pairs if a != b)
    return build_follower_graph(np.array(edges, dtype=np.int64).reshape(-1, 2), n)


_SPECS = st.one_of(
    st.builds(lambda c: ThresholdSpec("constant", (c,)), st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])),
    st.builds(lambda a, w: ThresholdSpec("uniform", (a, a + w)),
              st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
)


@settings(max_examples=300, deadline=None)
@given(graph=_graphs(), model=st.sampled_from(["threshold", "cascade", "learning"]),
       spec=_SPECS, lag=st.integers(0, 3), p=st.floats(0.0, 1.0),
       max_steps=st.integers(1, 6), seed=st.integers(0, 2**64 - 1), data=st.data())
def test_models_equal_reference(graph, model, spec, lag, p, max_steps, seed, data):
    params = {"threshold": ThresholdParams(spec), "cascade": CascadeParams(p),
              "learning": LearningParams(spec, lag)}[model]
    if data.draw(st.booleans(), label="explicit seeds"):
        seeds = {"seed_users": tuple(data.draw(
            st.lists(st.integers(0, graph.n - 1), min_size=1, max_size=5), label="seed_users"))}
    else:
        seeds = {"n_seeds": data.draw(st.integers(1, min(5, graph.n)), label="n_seeds")}
    cfg = SimConfig(graph=graph, model=model, params=params, max_steps=max_steps, seed=seed,
                    **seeds)
    run = run_model(cfg)
    adopt_step, step_counts, theta = simulate_reference(cfg)
    np.testing.assert_array_equal(run.adopt_step, adopt_step)
    np.testing.assert_array_equal(run.step_counts, step_counts)
    assert run.step_counts.dtype == step_counts.dtype
    if theta is None:
        assert run.theta is None
    else:
        assert run.theta.tobytes() == theta.tobytes()


# ---------------------------------------------------------------------------
# recovery round trip
# ---------------------------------------------------------------------------

def test_recovery_bound_over_seeded_runs():
    for seed in range(10):
        g = erdos_renyi(200, 6, seed=seed)
        cfg = SimConfig(
            graph=g, model="threshold",
            params=ThresholdParams(ThresholdSpec("uniform", (0.0, 1.0))),
            n_seeds=5, max_steps=60, seed=seed + 1000,
        )
        run = run_threshold_model(cfg)
        report = recover_thresholds(run)
        assert report.n_violations == 0
        if report.min_margin is not None:
            assert report.min_margin >= 0.0


def test_recovery_excludes_seed_adoptions():
    g = _cycle_graph()
    run = run_threshold_model(_threshold_cfg(g, c=0.5, seeds=(0,)))
    report = recover_thresholds(run)
    assert report.n_seeds == 1
    assert report.n_adopters == 3
    assert report.n_compared == 2  # B and C, not the seed


def test_recovery_on_social_learning_run():
    g = erdos_renyi(150, 5, seed=21)
    cfg = SimConfig(
        graph=g, model="learning",
        params=LearningParams(ThresholdSpec("uniform", (0.0, 0.8)), 2),
        n_seeds=5, max_steps=80, seed=2,
    )
    run = run_social_learning(cfg)
    report = recover_thresholds(run)
    assert report.n_violations == 0


def test_simrun_roundtrips_through_adoption_rows():
    g = erdos_renyi(50, 5, seed=30)
    cfg = SimConfig(
        graph=g, model="threshold",
        params=ThresholdParams(ThresholdSpec("uniform", (0.0, 1.0))),
        n_seeds=3, max_steps=40, seed=5,
    )
    run = run_threshold_model(cfg)
    ds = run.to_dataset()
    assert ds.n_first_usages == run.n_adopters
    # every adoption row's timestamp is the planted adoption step
    for user, _tag, t in ds.adoption_rows():
        node = int(user[1:])
        assert run.adopt_step[node] == t


def test_to_dataset_equals_the_dataset_of_the_label_rows(tmp_path):
    g = preferential_attachment(300, 3, seed=8)
    cfg = SimConfig(
        graph=g, model="threshold",
        params=ThresholdParams(ThresholdSpec("uniform", (0.0, 0.5))),
        n_seeds=5, max_steps=40, seed=2,
    )
    run = run_threshold_model(cfg)
    assert 0 < run.n_adopters < g.n  # some nodes appear in no adoption row
    words, rows = run.to_dataset(), tc.build_dataset(run.adoption_rows(), run.follow_rows())
    assert words.user_labels == rows.user_labels and words.warnings == rows.warnings
    for name, ds in (("words", words), ("rows", rows)):
        tc.save_snapshot(ds, tmp_path / f"{name}.cscd")
    assert (tmp_path / "words.cscd").read_bytes() == (tmp_path / "rows.cscd").read_bytes()


def test_run_logs_are_the_logs_of_the_node_labels(tmp_path):
    # adoption_rows/follow_rows hand over node words; the CSV files and the
    # Dataset they give are those of the u%07d label rows.
    g = preferential_attachment(300, 3, seed=8)
    cfg = SimConfig(
        graph=g, model="threshold",
        params=ThresholdParams(ThresholdSpec("uniform", (0.0, 0.5))),
        n_seeds=5, max_steps=40, seed=2,
    )
    run = run_threshold_model(cfg)
    adopters = [u for u in np.lexsort((np.arange(g.n), run.adopt_step)).tolist()
                if run.adopt_step[u] >= 0]
    adoptions = [("u%07d" % u, "sim", int(run.adopt_step[u])) for u in adopters]
    follows = [("u%07d" % a, "u%07d" % b) for a, b in g.edge_list().tolist()]
    assert run.user_label(7) == "u0000007"
    with mock.patch.object(simulate, "_WORD_NODES", g.n - 1):  # as past 10^7 nodes
        str_rows = run.adoption_rows(), run.follow_rows()
    assert isinstance(str_rows[0].columns[0], list)
    for name, rows in (("run", (run.adoption_rows(), run.follow_rows())),
                       ("labels", (adoptions, follows)), ("str", str_rows)):
        write_adoptions_csv(tmp_path / f"{name}_a.csv", rows[0])
        write_follows_csv(tmp_path / f"{name}_f.csv", rows[1])
        tc.save_snapshot(tc.build_dataset(*rows), tmp_path / f"{name}.cscd")
    for suffix in ("_a.csv", "_f.csv", ".cscd"):
        assert ((tmp_path / f"run{suffix}").read_bytes()
                == (tmp_path / f"labels{suffix}").read_bytes()
                == (tmp_path / f"str{suffix}").read_bytes())


def test_node_words_are_the_words_of_the_node_labels():
    ids = [0, 1, 9, 10, 4_321_987, 10**7 - 1]
    words = _node_words(10**7)[ids]
    assert words.tolist() == [int.from_bytes(b"u%07d" % i, "big") for i in ids]


# Node labels of 1-20 digits (20 overflow int64), leading zeros included, and
# labels the rule refuses: bare u, capital U, signs, a space, non-ASCII digits
# and other multi-byte text.
_NODE_LABEL = st.builds("u".__add__, st.text(st.sampled_from("0123456789"), min_size=1,
                                             max_size=20))
_REFUSED_LABEL = st.sampled_from(["u", "U7", "u-1", "u+1", "u 1", "u\u0661\u0662", "ü7", "u7é",
                                  "日本", "", "v1"])


@st.composite
def _label_tables(draw):
    """Sorted distinct labels: all of one width (u%0Nd), of mixed widths, or
    with a few labels the rule refuses."""
    shape = draw(st.sampled_from(["width", "mixed", "refused"]))
    if shape == "width":
        width = draw(st.integers(1, 20))
        ids = draw(st.sets(st.integers(0, 10**width - 1), max_size=12))
        labels = {"u%0*d" % (width, i) for i in ids}
    else:
        labels = draw(st.sets(_NODE_LABEL, max_size=12))
        if shape == "refused":
            labels |= draw(st.sets(_REFUSED_LABEL, min_size=1, max_size=2))
    return tuple(sorted(labels))


def _ids_or_error(node_ids, table):
    try:
        return node_ids(table).tolist()
    except (tc.DataError, OverflowError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(labels=_label_tables(), source=st.sampled_from(["text", "words", "snapshot"]))
@example(labels=(), source="snapshot")
@example(labels=("u0000000", "u0000001", "u0009999"), source="words")
@example(labels=("u007", "u1", "u99999999999999999999"), source="text")
@example(labels=("u1", "u\u0661\u0662"), source="snapshot")
@example(labels=("U7", "u1", "v1"), source="words")
def test_node_ids_equal_reference(tmp_path_factory, labels, source):
    if source == "words":  # label words hold labels of at most 8 bytes
        labels = tuple(label for label in labels if len(label.encode()) <= 8)
        words = np.array([int.from_bytes(label.encode().ljust(8, b"\0"), "big")
                          for label in labels], dtype=np.uint64)
        table = Labels.from_words(words, "user")
    elif source == "snapshot":
        path = tmp_path_factory.mktemp("nodes") / "ds.cscd"
        tc.save_snapshot(tc.build_dataset([(label, "t", 1) for label in labels], []), path)
        table = tc.load_snapshot(path).user_table
    else:
        table = Labels.from_text(labels, "user")
    assert _ids_or_error(_node_ids, table) == _ids_or_error(node_ids_reference, table)


def test_config_validation():
    g = _cycle_graph()
    with pytest.raises(UsageError):
        SimConfig(graph=g, model="nope", params=None)
    with pytest.raises(UsageError):
        SimConfig(graph=g, model="threshold",
                  params=ThresholdParams(ThresholdSpec("constant", (0.5,))),
                  max_steps=0)
    with pytest.raises(UsageError):
        SimConfig(graph=g, model="threshold",
                  params=ThresholdParams(ThresholdSpec("constant", (0.5,))),
                  seed_users=())
    with pytest.raises(UsageError):
        SimConfig(graph=g, model="threshold",
                  params=ThresholdParams(ThresholdSpec("constant", (0.5,))),
                  seed_users=(9,))
    with pytest.raises(UsageError):
        ThresholdSpec("uniform", (0.5, 0.2))
    with pytest.raises(UsageError):
        CascadeParams(1.5)
    with pytest.raises(UsageError):
        LearningParams(ThresholdSpec("constant", (0.5,)), -1)


def _cfg(params):
    return SimConfig(graph=_cycle_graph(), model="threshold", params=params)


_CONSTANT = ThresholdParams(ThresholdSpec("constant", (0.5,)))


@pytest.mark.parametrize("call,message", [
    (lambda: tc.gen_graph("lattice", 0, n=5), "unknown graph kind: 'lattice'"),
    (lambda: ThresholdSpec("constant", (-0.1,)), "constant threshold must be >= 0"),
    (lambda: ThresholdSpec("truncnorm", (0.5, 0.0)), "truncnorm sigma must be > 0"),
    (lambda: ThresholdSpec("beta", (1, 2)), "unknown threshold distribution: 'beta'"),
    (lambda: SimConfig(graph=_cycle_graph(), model="threshold", params=_CONSTANT, n_seeds=0),
     "n_seeds must be in [1, n_users]"),
    (lambda: run_threshold_model(_cfg(CascadeParams(0.5))),
     "run_threshold_model needs ThresholdParams"),
    (lambda: run_social_learning(_cfg(_CONSTANT)), "run_social_learning needs LearningParams"),
    (lambda: run_independent_cascade(_cfg(_CONSTANT)),
     "run_independent_cascade needs CascadeParams"),
], ids=["graph-kind", "negative-constant", "zero-sigma", "threshold-kind", "no-seeds",
        "threshold-params", "learning-params", "cascade-params"])
def test_simulate_usage_error_table(call, message):
    with pytest.raises(UsageError, match=re.escape(message)):
        call()


def test_threshold_spec_draws_stay_in_unit_interval():
    rng = np.random.Generator(np.random.PCG64(2))
    for spec in (
        ThresholdSpec("uniform", (0.2, 0.7)),
        ThresholdSpec("truncnorm", (0.5, 0.4)),
        ThresholdSpec("truncnorm", (-0.2, 0.3)),
    ):
        draws = spec.draw(5000, rng)
        assert draws.min() >= 0.0
        assert draws.max() <= 1.0
