import argparse
import functools
import itertools
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import count_reference
import gk_reference
import rwk_reference
from mrkit import cli
from mrkit.cfg import AnnotatedCfg, NodeOp, emit_dot
from mrkit.features import (MAX_GRAPHLET_SUBSETS, FeatureError, combine, node_features,
                            path_features, walk_features)
from mrkit.kernels import (
    MAX_WALK_LEN,
    CountBlock,
    CountKernel,
    GkParams,
    RwkParams,
    _connected_subsets,
    _rwk_raw,
    gram_matrix,
    graphlet_distribution,
    graphlet_kernel,
    random_walk_kernel,
)


def path_graph(name, ops):
    edges = tuple((i, i + 1) for i in range(len(ops) - 1))
    return AnnotatedCfg(name, tuple(ops), edges)


PATH3 = path_graph("p3", [NodeOp.START, NodeOp.ASSI, NodeOp.EXIT])


def brute_force_rwk(g1, g2, p: RwkParams) -> float:
    """Oracle: enumerate all walks up to length L in each graph, group by
    label sequence, count pairs per length, fold with the same weights."""

    def walks(g, length):
        if length == 0:
            return [[i] for i in range(g.node_count)]
        shorter = walks(g, length - 1)
        return [w + [v] for w in shorter for v in g.successors[w[-1]]]

    value = 0.0
    weight = 1.0
    for length in range(1, p.walk_len + 1):
        weight *= p.decay
        seqs1 = {}
        for w in walks(g1, length):
            key = tuple(g1.ops[v] for v in w)
            seqs1[key] = seqs1.get(key, 0) + 1
        pairs = 0
        for w in walks(g2, length):
            key = tuple(g2.ops[v] for v in w)
            pairs += seqs1.get(key, 0)
        value += weight * float(pairs)
    return value


def label_sequences(g, length):
    """Every walk of ``length`` edges, counted by its label sequence."""
    counts = {}
    for w in itertools.product(range(g.node_count), repeat=length + 1):
        if all(b in g.successors[a] for a, b in zip(w, w[1:])):
            key = "-".join(g.ops[v].value for v in w)
            counts[key] = counts.get(key, 0) + 1
    return counts


WALKS_AT_CAP = 5_000


def walk_count(g, length) -> int:
    adj = np.zeros((g.node_count, g.node_count), dtype=np.int64)
    for a, b in g.edges:
        adj[a, b] = 1
    return int(np.linalg.matrix_power(adj, length).sum())


@st.composite
def labelled_digraphs(draw, max_nodes=6, alphabet=(NodeOp.ASSI, NodeOp.IF, NodeOp.ADD)):
    """CFG-like digraphs: a chain plus up to three extra edges, which draw
    cycles and self-loops, over a three-label alphabet by default, so labels
    repeat.  Graphs with more than WALKS_AT_CAP walks of MAX_WALK_LEN edges
    are rejected: the walk-count map grows with the number of distinct
    walks, and below that bound every count of the product-graph reference
    is an exact float."""
    n = draw(st.integers(1, max_nodes))
    ops = draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))
    node = st.integers(0, n - 1)
    extra = draw(st.sets(st.tuples(node, node), max_size=3))
    g = AnnotatedCfg("g", tuple(ops), tuple(sorted(extra | {(i, i + 1) for i in range(n - 1)})))
    assume(walk_count(g, MAX_WALK_LEN) <= WALKS_AT_CAP)
    return g


LOOP2 = AnnotatedCfg("loop2", (NodeOp.ASSI, NodeOp.ASSI), ((0, 0), (0, 1), (1, 0)))


@settings(max_examples=100, deadline=None)
@given(labelled_digraphs(), labelled_digraphs(), st.sampled_from([0.3, 0.5]))
@example(LOOP2, LOOP2, 0.5)
@example(LOOP2, AnnotatedCfg("lone", (NodeOp.ASSI,), ()), 0.3)
def test_rwk_raw_equals_the_product_graph_reference(g1, g2, decay):
    for walk_len in range(1, MAX_WALK_LEN + 1):
        p = RwkParams(walk_len=walk_len, decay=decay)
        for a, b in ((g1, g2), (g1, g1)):
            assert _rwk_raw(a, b, p) == rwk_reference._rwk_raw(a, b, p)


@settings(max_examples=100, deadline=None)
@given(labelled_digraphs(max_nodes=4), st.integers(1, 4))
def test_walk_features_count_every_walk(g, walk_len):
    vectors = list(walk_features(g, walk_len))
    assert [decoded(v) for v in vectors] == \
        [label_sequences(g, length) for length in range(1, walk_len + 1)]


def decoded(vector) -> dict[str, int]:
    """A walk vector's counts by ``-``-joined label string; no two keys may
    decode alike."""
    counts = {rwk_reference.walk_key_labels(key): n for key, n in vector.entries.items()}
    assert len(counts) == len(vector.entries)
    return counts


def assert_walks_equal_the_string_keyed_reference(g, walk_len):
    vectors = list(walk_features(g, walk_len))
    assert [decoded(v) for v in vectors] == \
        [v.entries for v in rwk_reference.walk_features(g, walk_len)]
    assert len(vectors) == walk_len


@settings(max_examples=150, deadline=None)
@given(st.one_of(labelled_digraphs(), labelled_digraphs(alphabet=tuple(NodeOp))),
       st.integers(1, MAX_WALK_LEN))
@example(LOOP2, MAX_WALK_LEN)
@example(path_graph("ends", [NodeOp.ADD, NodeOp.GOTO, NodeOp.ADD, NodeOp.GOTO]), 3)
def test_walk_features_equal_the_string_keyed_reference(g, walk_len):
    assert_walks_equal_the_string_keyed_reference(g, walk_len)


def test_walk_features_equal_the_string_keyed_reference_on_the_corpus(corpus_graphs):
    for g in corpus_graphs.values():
        assert_walks_equal_the_string_keyed_reference(g, MAX_WALK_LEN)


def walk_kernel(graphs, p: RwkParams) -> CountKernel:
    """rwk against ``graphs``, one count block per walk length."""
    return CountKernel(zip(*(walk_features(g, p.walk_len) for g in graphs)), p.decay,
                       p.normalize)


def nf_pf_vectors(graphs):
    return tuple(combine(node_features(g), path_features(g)) for g in graphs)


def corpus_blocks(corpus_graphs):
    """The nf-pf block and the walk blocks of lengths 1..10 of the corpus."""
    graphs = [g for _, g in sorted(corpus_graphs.items())]
    return [nf_pf_vectors(graphs)] + list(zip(*(walk_features(g, 10) for g in graphs)))


def test_count_blocks_equal_the_dense_reference_on_the_corpus(corpus_graphs):
    for vectors in corpus_blocks(corpus_graphs):
        block = CountBlock.of(vectors)
        (index, rows, cols, counts), gram = rwk_reference.sparse_and_gram(vectors)
        keys = {col: key for key, col in index.items()}
        new_keys = {col: key for key, col in block.index.items()}
        assert sorted(zip(rows.tolist(), [keys[c] for c in cols], counts.tolist())) == \
            sorted(zip(block.rows.tolist(), [new_keys[c] for c in block.cols],
                       block.counts.tolist()))
        assert block.gram().tobytes() == gram.tobytes()
        assert block.self_values().tobytes() == np.diagonal(gram).tobytes()


def test_count_kernel_self_values_are_the_dense_gram_diagonal(corpus_graphs):
    graphs = [g for _, g in sorted(corpus_graphs.items())]
    for p in (RwkParams(), RwkParams(walk_len=MAX_WALK_LEN, decay=0.3)):
        raw = gram_matrix(graphs, "rwk", rwk=replace(p, normalize=False)).values
        assert walk_kernel(graphs, p).self_values.tobytes() == np.diagonal(raw).tobytes()
    vectors = nf_pf_vectors(graphs)
    gram = count_reference.gram(vectors)
    assert CountKernel([vectors], 1.0, False).self_values.tobytes() == \
        np.diagonal(gram).tobytes()


@pytest.mark.parametrize("walk_len", [1, 4, 10, 20])
@pytest.mark.parametrize("decay", [0.3, 0.5])
def test_rwk_gram_equals_the_reference_on_the_corpus(corpus_graphs, walk_len, decay):
    graphs = [g for _, g in sorted(corpus_graphs.items())]
    p = RwkParams(walk_len=walk_len, decay=decay)
    assert len(graphs) == 68
    assert np.array_equal(gram_matrix(graphs, "rwk", rwk=p).values,
                          rwk_reference.gram(graphs, p))


def test_rwk_predict_column_equals_the_reference(corpus_graphs):
    held = ["square", "count_k", "pooledVariance"]
    train = [g for name, g in sorted(corpus_graphs.items()) if name not in held]
    # no corpus graph has an and or an or node: every walk is unseen
    alien = path_graph("alien", [NodeOp.AND, NodeOp.OR, NodeOp.AND])
    for p in (RwkParams(), RwkParams(walk_len=6, decay=0.3)):
        kernel = walk_kernel(train, p)
        partly_unseen = False
        for g in [corpus_graphs[n] for n in held] + [alien]:
            column, unseen = kernel.column(list(walk_features(g, p.walk_len)))
            assert column.tolist() == rwk_reference.column(train, g, p)
            partly_unseen |= unseen > 0 and column.any()
        # so the equality above needs the self-value to count unseen walks
        assert partly_unseen
        assert unseen == 3 and not column.any()  # and-or, or-and, and-or-and


def test_rwk_worked_small_case():
    p = RwkParams(walk_len=2, decay=0.5, normalize=False)
    # two common length-1 walks and one common length-2 walk
    assert random_walk_kernel(PATH3, PATH3, p) == 0.5 * 2 + 0.25 * 1 == 1.25


def test_rwk_normalized_self_is_one(corpus_graphs):
    for name in ("average", "sum", "bubble"):
        val = random_walk_kernel(corpus_graphs[name], corpus_graphs[name])
        assert val == pytest.approx(1.0, abs=1e-12)


def test_rwk_disjoint_alphabets_zero():
    other = path_graph("q", [NodeOp.MUL, NodeOp.SUB, NodeOp.REM])
    assert random_walk_kernel(PATH3, other, RwkParams(normalize=False)) == 0.0
    assert random_walk_kernel(PATH3, other, RwkParams()) == 0.0


def test_rwk_matches_brute_force_exactly():
    # graphs of <= 6 nodes, including a loop, checked for exact equality
    loopy = AnnotatedCfg("loop", (
        NodeOp.START, NodeOp.ASSI, NodeOp.IF, NodeOp.ADD, NodeOp.EXIT),
        ((0, 1), (1, 2), (2, 3), (3, 2), (2, 4)))
    branchy = AnnotatedCfg("branch", (
        NodeOp.START, NodeOp.IF, NodeOp.ASSI, NodeOp.ADD, NodeOp.ASSI, NodeOp.EXIT),
        ((0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)))
    graphs = [PATH3, loopy, branchy]
    p = RwkParams(walk_len=6, decay=0.5, normalize=False)
    for g1, g2 in itertools.product(graphs, repeat=2):
        assert _rwk_raw(g1, g2, p) == brute_force_rwk(g1, g2, p)


def test_rwk_truncation_monotonic():
    loopy = AnnotatedCfg("loop", (
        NodeOp.START, NodeOp.ASSI, NodeOp.IF, NodeOp.ADD, NodeOp.EXIT),
        ((0, 1), (1, 2), (2, 3), (3, 2), (2, 4)))
    values = [_rwk_raw(loopy, loopy, RwkParams(walk_len=L, normalize=False))
              for L in range(1, 12)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_rwk_symmetry(corpus_graphs):
    g1, g2 = corpus_graphs["average"], corpus_graphs["variance"]
    assert random_walk_kernel(g1, g2) == random_walk_kernel(g2, g1)


def test_gk_identical_chains():
    c1 = path_graph("c1", [NodeOp.START, NodeOp.ASSI, NodeOp.ASSI, NodeOp.EXIT])
    c2 = path_graph("c2", [NodeOp.START, NodeOp.ADD, NodeOp.DIV, NodeOp.EXIT])
    assert graphlet_kernel(c1, c2) == pytest.approx(1.0)


def test_gk_chain_vs_branch_below_one():
    chain = path_graph("c", [NodeOp.START, NodeOp.ASSI, NodeOp.ASSI, NodeOp.EXIT])
    branch = AnnotatedCfg("b", (NodeOp.START, NodeOp.IF, NodeOp.ASSI, NodeOp.EXIT),
                          ((0, 1), (1, 2), (1, 3), (2, 3)))
    # brute-force check there are exactly C(4,3) induced candidates each
    assert len(list(itertools.combinations(range(4), 3))) == 4
    val = graphlet_kernel(chain, branch)
    assert 0.0 < val < 1.0


def test_gk_self_normalized_one(corpus_graphs):
    g = corpus_graphs["average"]
    assert graphlet_kernel(g, g) == pytest.approx(1.0, abs=1e-12)


def test_gk_too_small_graph_zero():
    tiny = path_graph("t", [NodeOp.START, NodeOp.EXIT])
    assert graphlet_kernel(tiny, PATH3) == 0.0


def test_gk_permutation_invariant(corpus_graphs):
    g = corpus_graphs["average"]
    order = list(range(g.node_count))[::-1]
    remap = {old: new for new, old in enumerate(order)}
    permuted = AnnotatedCfg(
        "perm",
        tuple(g.ops[o] for o in order),
        tuple((remap[a], remap[b]) for a, b in g.edges),
    )
    assert graphlet_distribution(permuted) == graphlet_distribution(g)


def brute_force_graphlets(g, k):
    """Reference for graphlet_distribution: every k-subset in
    itertools.combinations order, kept if weakly connected, typed by the
    minimum adjacency bitmask over all node permutations; (type, count)
    pairs in order of first occurrence."""
    edges = set(g.edges)
    counts = {}
    for nodes in itertools.combinations(range(g.node_count), k):
        pos = [(a, b) for a in range(k) for b in range(k)
               if a != b and (nodes[a], nodes[b]) in edges]
        if not weakly_connected(range(k), pos):
            continue
        t = min(sum(1 << (perm[a] * k + perm[b]) for a, b in pos)
                for perm in itertools.permutations(range(k)))
        counts[t] = counts.get(t, 0) + 1
    return list(counts.items())


def weakly_connected(nodes, edges):
    nodes = set(nodes)
    seen = {min(nodes)}
    frontier = [min(nodes)]
    while frontier:
        u = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y in nodes and y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return seen == nodes


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1)
    edges = draw(st.sets(st.tuples(node, node), max_size=3 * n))
    return AnnotatedCfg("g", (NodeOp.ASSI,) * n, tuple(sorted(edges)))


def test_graphlets_refuse_a_graph_at_the_first_size_past_the_bound():
    # 40 nodes, every pair joined: C(40, 3) = 9880 connected 3-subsets
    # stay under the bound, and the 4-subsets pass it
    n = 40
    g = AnnotatedCfg("clique", (NodeOp.ASSI,) * n,
                     tuple((a, b) for a in range(n) for b in range(a + 1, n)))
    assert sum(graphlet_distribution(g, GkParams(k=3)).entries.values()) == 9880
    with pytest.raises(FeatureError) as info:
        graphlet_distribution(g, GkParams(k=4))
    assert str(info.value) == (f"clique: more than {MAX_GRAPHLET_SUBSETS} connected "
                               "4-node subsets; the graphlet kernel refuses a graph this dense")


@settings(max_examples=300, deadline=None)
@given(digraphs(), st.sampled_from([3, 4]))
def test_esu_yields_exactly_the_connected_subsets(g, k):
    neighbours = [0] * g.node_count
    for a, b in g.edges:
        if a != b:
            neighbours[a] |= 1 << b
            neighbours[b] |= 1 << a
    subsets = _connected_subsets(neighbours, k, g.name)
    # the dict's keys are distinct masks, so each decoded subset comes once
    found = sorted(tuple(v for v in range(g.node_count) if mask >> v & 1) for mask in subsets)
    expected = [c for c in itertools.combinations(range(g.node_count), k)
                if weakly_connected(c, g.edges)]
    assert found == expected
    for mask, around in subsets.items():
        members = [v for v in range(g.node_count) if mask >> v & 1]
        assert around == functools.reduce(int.__or__, (neighbours[v] for v in members)) & ~mask
    assert list(graphlet_distribution(g, GkParams(k=k)).entries.items()) \
        == brute_force_graphlets(g, k)


@pytest.mark.parametrize("k", [3, 4])
def test_gk_distribution_matches_brute_force_on_corpus(corpus_graphs, k):
    # same keys, same counts, same insertion order, so a count block's
    # columns come in the same order
    p = GkParams(k=k)
    for g in corpus_graphs.values():
        assert list(graphlet_distribution(g, p).entries.items()) == corpus_graphlets(g, k)


_CORPUS_GRAPHLETS: dict = {}


def corpus_graphlets(g, k):
    """brute_force_graphlets of a corpus graph, computed once per test run."""
    if (g, k) not in _CORPUS_GRAPHLETS:
        _CORPUS_GRAPHLETS[g, k] = brute_force_graphlets(g, k)
    return _CORPUS_GRAPHLETS[g, k]


def count_cosine(c1, c2, normalize: bool = True) -> float:
    """The dot product of two type counts, given as dicts or (type, count)
    lists, cosine-normalised if ``normalize``: integer sums, exact, then one
    square root per self-value, their product and one division."""
    c1, c2 = dict(c1), dict(c2)
    value = sum(c * c2.get(t, 0) for t, c in c1.items())
    if not normalize:
        return float(value)
    n1, n2 = sum(c * c for c in c1.values()), sum(c * c for c in c2.values())
    if n1 <= 0 or n2 <= 0:
        return 0.0
    return value / float(np.sqrt(n1) * np.sqrt(n2))


@pytest.mark.parametrize("k", [3, 4])
def test_gk_gram_and_columns_equal_the_frequency_reference_on_the_corpus(corpus_graphs, k):
    p = GkParams(k=k)
    held = ["square", "count_k", "pooledVariance"]
    graphs = [g for _, g in sorted(corpus_graphs.items())]
    gram = gram_matrix(graphs, "gk", gk=p).values
    assert np.abs(gram - gk_reference.gram(graphs, p)).max() <= 1e-15
    assert gram.tolist() == [[count_cosine(corpus_graphlets(a, k), corpus_graphlets(b, k))
                              for b in graphs] for a in graphs]

    train = [g for g in graphs if g.name not in held]
    column_of = cli._column_function({"featurization": "gk", "k": k, "mode": p.mode,
                                      "training_graphs": [emit_dot(g) for g in train]})
    for g in [corpus_graphs[n] for n in held] + [PATH3]:
        column = column_of(g)
        assert np.abs(column - gk_reference.column(train, g, p)).max() <= 1e-15
        counts = corpus_graphlets(g, k)
        assert column.tolist() == [count_cosine(corpus_graphlets(t, k), counts) for t in train]


def test_gram_identical_pair():
    km = gram_matrix([PATH3, path_graph("p3b", [NodeOp.START, NodeOp.ASSI, NodeOp.EXIT])],
                     "rwk")
    assert np.allclose(km.values, 1.0)


def test_gram_off_diagonal_against_small_graphs(corpus_graphs):
    # the 2-node trivial graph shares no label-matched walk with the worked
    # example (its only walk is start->exit), so that off-diagonal is 0 by
    # the brute-force enumerator; a path with a shared start->assi walk
    # lands strictly inside (0, 1)
    avg = corpus_graphs["average"]
    trivial = path_graph("t", [NodeOp.START, NodeOp.EXIT])
    p = RwkParams(normalize=False)
    assert brute_force_rwk(avg, trivial, p) == 0.0
    km = gram_matrix([avg, trivial], "rwk")
    assert km.values[0, 1] == 0.0
    km2 = gram_matrix([avg, PATH3], "rwk")
    assert 0.0 < km2.values[0, 1] < 1.0


def test_gram_psd_and_symmetric_small(corpus_graphs):
    graphs = [g for _, g in sorted(corpus_graphs.items())][:20]
    for kernel in ("rwk", "gk"):
        km = gram_matrix(graphs, kernel)
        assert np.array_equal(km.values, km.values.T)
        assert km.min_eigenvalue() >= -1e-8


def cli_grams(dataset):
    """Every Gram the CLI can build over the bundled corpus, by name: nf-pf
    with and without the exit node, rwk at walk lengths 1, 10 and 20 and
    decays 0.3 and 0.5, gk3 and gk4."""
    def gram(featurization, omit_exit_nf=False, walk_len=10, decay=0.5, k=3):
        args = argparse.Namespace(omit_exit_nf=omit_exit_nf, walk_len=walk_len,
                                  graphlet_k=k, **{"lambda": decay})
        return cli._corpus_features(dataset, featurization, args)[2]

    yield "nf-pf", gram("nf-pf")
    yield "nf-pf --omit-exit-nf", gram("nf-pf", omit_exit_nf=True)
    for walk_len in (1, 10, 20):
        for decay in (0.3, 0.5):
            yield f"rwk {walk_len} {decay}", gram("rwk", walk_len=walk_len, decay=decay)
    yield "gk3", gram("gk", k=3)
    yield "gk4", gram("gk", k=4)


def test_every_cli_gram_is_psd_on_the_corpus(dataset):
    """No Gram is checked for definiteness at run time: each is a
    positive-weighted sum of count-block products, cosine-normalised for
    rwk and gk, so PSD by construction; its smallest eigenvalue is at most
    rounding below zero."""
    seen = []
    for name, km in cli_grams(dataset):
        seen.append(name)
        assert km.values.shape == (68, 68), name
        assert np.array_equal(km.values, km.values.T), name
        assert km.min_eigenvalue() >= -1e-12 * np.abs(km.values).max(), name
    assert len(seen) == 10


def per_pair_gk(g1, g2, p: GkParams, normalize: bool = True) -> float:
    """The graphlet kernel of one pair in its own integer and float
    expressions, apart from the count-block code that graphlet_kernel (one
    entry of the pair's Gram) and predict (a CountKernel column) run."""
    return count_cosine(graphlet_distribution(g1, p).entries,
                        graphlet_distribution(g2, p).entries, normalize)


def raw_gk(g1, g2, p: GkParams) -> float:
    """The unnormalised graphlet kernel of one pair, from a count block."""
    block = CountBlock.of((graphlet_distribution(g1, p), graphlet_distribution(g2, p)))
    return float(block.gram()[0, 1])


@pytest.mark.parametrize("kernel,params", [
    ("rwk", RwkParams()),
    ("rwk", RwkParams(walk_len=4, decay=0.3, normalize=False)),
    ("gk", (GkParams(k=3), True)),
    ("gk", (GkParams(k=3), False)),
    ("gk", (GkParams(k=4), True)),
])
def test_kernel_columns_bitwise_equal_per_pair(corpus_graphs, kernel, params):
    names = ["sum", "average", "find_max", "cal_Diff", "square", "get_array_value"]
    train = [corpus_graphs[n] for n in names]
    new = [corpus_graphs[n] for n in ("count_k", "polevl", "sum")] + [PATH3]
    if kernel == "rwk":
        rwk = walk_kernel(train, params)
        column = lambda g: rwk.column(list(walk_features(g, params.walk_len)))[0]  # noqa: E731
        pair, reference = random_walk_kernel, rwk_reference.random_walk_kernel
    else:
        params, normalize = params
        gk = CountKernel([tuple(graphlet_distribution(t, params) for t in train)], 1.0,
                         normalize)
        column = lambda g: gk.column([graphlet_distribution(g, params)])[0]  # noqa: E731
        pair = graphlet_kernel if normalize else raw_gk
        reference = lambda a, b, p: per_pair_gk(a, b, p, normalize)  # noqa: E731
    for g in new:
        expected = [reference(t, g, params) for t in train]
        assert column(g).tolist() == expected
        assert [pair(t, g, params) for t in train] == expected


def test_gram_unknown_kernel():
    with pytest.raises(ValueError):
        gram_matrix([PATH3, PATH3], "wl")


def test_gram_requires_two_graphs():
    with pytest.raises(ValueError):
        gram_matrix([PATH3], "rwk")


def test_gram_csv_roundtrip_shape():
    km = gram_matrix([PATH3, path_graph("x", [NodeOp.START, NodeOp.SUB, NodeOp.EXIT])],
                     "rwk")
    text = km.to_csv()
    lines = text.strip().splitlines()
    assert lines[0].split(",") == ["method_id", "p3", "x"]
    assert len(lines) == 3


def test_param_validation():
    assert MAX_WALK_LEN == 20
    assert RwkParams(walk_len=MAX_WALK_LEN).walk_len == 20
    with pytest.raises(ValueError):
        RwkParams(walk_len=0)
    with pytest.raises(ValueError, match=r"1\.\.20"):
        RwkParams(walk_len=MAX_WALK_LEN + 1)
    with pytest.raises(ValueError):
        RwkParams(decay=1.0)
    with pytest.raises(ValueError):
        GkParams(k=5)
    # a bool or a float is not a length or a size, even where it equals one
    with pytest.raises(ValueError, match=r"1\.\.20"):
        RwkParams(walk_len=True)
    with pytest.raises(ValueError, match="3 or 4"):
        GkParams(k=3.0)
    # exhaustive is the only mode, a constant: graphlet counts are exact
    assert [f.name for f in fields(GkParams)] == ["k"]
    assert GkParams.mode == GkParams(k=4).mode == "exhaustive"
    with pytest.raises(TypeError):
        GkParams(mode="exhaustive")
    with pytest.raises(TypeError):
        GkParams(mode="sampled")
