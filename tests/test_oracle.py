"""Oracle layer: counting, relabeling, witnesses, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsep import (
    BudgetExceeded,
    Certificate,
    CountedOracle,
    FixedPointParams,
    FunctionInstance,
    ModelMismatchError,
    ScaleParams,
    Witness,
    apply_permutation,
    gen_claw_graph,
    gen_collision_function,
    gen_fixedpoint_function,
    gen_star_graph,
    gen_starpath_graph,
    read_certificate,
    read_instance,
    relabel,
    validate_witness,
    write_certificate,
    write_instance,
)
from qsep.oracle import (
    FileFormatError,
    StructureMeta,
    _relabel_maps,
    _unrelabel_witness,
    graph_from_edges,
    index_dtype,
    instance_from_jsonable,
    instance_to_jsonable,
    invert_permutation,
)


def identity_instance(n):
    return FunctionInstance(n=n, succ=np.arange(n, dtype=np.int64))


def test_identity_query_counts():
    oracle = CountedOracle(identity_instance(8))
    assert oracle.count == 0
    assert oracle.query_function(5) == 5
    assert oracle.count == 1


def test_three_cycle_query():
    inst = FunctionInstance(n=3, succ=np.array([1, 2, 0], dtype=np.int64))
    oracle = CountedOracle(inst)
    assert oracle.query_function(2) == 0


def test_repeated_queries_count():
    oracle = CountedOracle(identity_instance(4))
    for _ in range(5):
        oracle.query_function(1)
    assert oracle.count == 5
    assert list(oracle.iter_transcript()) == [(1, 1)] * 5


def test_out_of_range_does_not_count():
    oracle = CountedOracle(identity_instance(4))
    with pytest.raises(ValueError):
        oracle.query_function(4)
    with pytest.raises(ValueError):
        oracle.query_function(-1)
    assert oracle.count == 0
    g = graph_from_edges(4, np.array([[0, 1], [2, 3]]))
    batches = {
        "function": (identity_instance(4), lambda o, xs: o.query_function_many(xs)),
        "degree": (g, lambda o, xs: o.query_degree_many(xs)),
        "neighbor": (g, lambda o, xs: o.query_neighbor_many(
            xs, np.zeros(len(xs), dtype=np.int64))),
    }
    for inst, call in batches.values():
        for relabel_seed in (None, 3):
            o = CountedOracle(inst, relabel_seed=relabel_seed)
            for xs in ([-1], [4], [0, 4, -1, 2], [-(1 << 63)]):
                with pytest.raises(ValueError, match="out of range"):
                    call(o, np.array(xs, dtype=np.int64))
            assert o.count == 0 and list(o.iter_transcript()) == []


def test_model_mismatch():
    oracle = CountedOracle(identity_instance(4))
    with pytest.raises(ModelMismatchError):
        oracle.query_degree(0)
    g = graph_from_edges(2, np.array([[0, 1]]))
    go = CountedOracle(g)
    with pytest.raises(ModelMismatchError):
        go.query_function(0)


def test_budget_enforced():
    oracle = CountedOracle(identity_instance(8), budget=2)
    oracle.query_function(0)
    oracle.query_function(1)
    with pytest.raises(BudgetExceeded):
        oracle.query_function(2)
    assert oracle.count == 2
    assert oracle.remaining() == 0


def test_query_many_matches_singles_and_is_all_or_nothing():
    rng = np.random.default_rng(0)
    succ = rng.integers(0, 32, size=32).astype(np.int64)
    inst = FunctionInstance(n=32, succ=succ)
    o1 = CountedOracle(inst, relabel_seed=5)
    o2 = CountedOracle(inst, relabel_seed=5)
    xs = rng.integers(0, 32, size=10)
    batch = o1.query_function_many(xs)
    singles = [o2.query_function(int(x)) for x in xs]
    assert batch.tolist() == singles
    assert o1.count == o2.count == 10
    o3 = CountedOracle(inst, budget=5)
    with pytest.raises(BudgetExceeded):
        o3.query_function_many(xs)
    assert o3.count == 0


def test_transcript_records_queries():
    inst = FunctionInstance(n=4, succ=np.array([1, 2, 3, 0], dtype=np.int64))
    oracle = CountedOracle(inst)
    oracle.query_function(0)
    oracle.query_function_many([1, 2])
    assert list(oracle.iter_transcript()) == [(0, 1), (1, 2), (2, 3)]
    assert oracle.count == 3


def test_graph_basics_single_edge():
    g = graph_from_edges(2, np.array([[0, 1]]))
    oracle = CountedOracle(g)
    assert oracle.query_degree(0) == 1
    assert oracle.query_degree(1) == 1
    assert oracle.query_neighbor(0, 0) == 1
    assert oracle.count == 3
    with pytest.raises(IndexError):
        oracle.query_neighbor(0, 1)
    assert oracle.count == 3


def test_graph_wedge_middle_vertex():
    g = graph_from_edges(3, np.array([[0, 1], [1, 2]]))
    oracle = CountedOracle(g)
    assert oracle.query_degree(1) == 2
    nbrs = {oracle.query_neighbor(1, 0), oracle.query_neighbor(1, 1)}
    assert nbrs == {0, 2}


def test_graph_symmetric_closure_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(1, 40))
        raw = rng.integers(0, n, size=(m, 2))
        raw = raw[raw[:, 0] != raw[:, 1]]
        seen, edges = set(), []
        for u, v in raw:
            key = (min(u, v), max(u, v))
            if key not in seen:
                seen.add(key)
                edges.append((u, v))
        if not edges:
            continue
        g = graph_from_edges(n, np.array(edges))
        assert int(g.degrees.sum()) == 2 * len(edges)
        for u, v in edges:
            assert g.has_edge(u, v) and g.has_edge(v, u)


def cycle_type(succ):
    n = len(succ)
    seen = np.zeros(n, bool)
    f = np.asarray(succ)
    lengths = []
    for x in range(n):
        path = []
        v = x
        while not seen[v]:
            seen[v] = True
            path.append(v)
            v = int(f[v])
        if v in path:
            lengths.append(len(path) - path.index(v))
    return sorted(lengths)


def test_conjugation_preserves_cycle_structure():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(4, 64))
        succ = rng.integers(0, n, size=n).astype(np.int64)
        inst = FunctionInstance(n=n, succ=succ)
        rel = relabel(inst, seed=int(rng.integers(1 << 30)))
        assert cycle_type(rel.succ) == cycle_type(succ)
        assert int((rel.succ == np.arange(n)).sum()) == int((succ == np.arange(n)).sum())


def test_relabeled_walk_replays_raw_walk():
    rng = np.random.default_rng(11)
    n = 40
    succ = rng.integers(0, n, size=n).astype(np.int64)
    inst = FunctionInstance(n=n, succ=succ)
    oracle = CountedOracle(inst, relabel_seed=11)
    perm = _relabel_maps(n, 11)[0]
    x = 17
    vis_x = int(perm[x])
    for _ in range(25):
        vis_y = oracle.query_function(vis_x)
        x = int(succ[x])
        assert vis_y == int(perm[x])
        vis_x = vis_y


def test_double_relabel_bit_exact():
    rng = np.random.default_rng(13)
    n = 50
    succ = rng.integers(0, n, size=n).astype(np.int64)
    inst = FunctionInstance(n=n, succ=succ)
    perm = rng.permutation(n)
    back = apply_permutation(apply_permutation(inst, perm), invert_permutation(perm))
    assert back.succ.tobytes() == inst.succ.tobytes()

    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0], [1, 3]])
    g = graph_from_edges(5, edges)
    gperm = rng.permutation(5)
    gback = apply_permutation(apply_permutation(g, gperm), invert_permutation(gperm))
    assert gback.indptr.tobytes() == g.indptr.tobytes()
    assert gback.indices.tobytes() == g.indices.tobytes()


def test_oracle_relabel_seed_equals_relabeled_instance():
    rng = np.random.default_rng(17)
    n = 64
    succ = rng.integers(0, n, size=n).astype(np.int64)
    inst = FunctionInstance(n=n, succ=succ)
    o1 = CountedOracle(inst, relabel_seed=99)
    o2 = CountedOracle(relabel(inst, seed=99))
    xs = rng.integers(0, n, size=50)
    assert [o1.query_function(int(x)) for x in xs] == \
           [o2.query_function(int(x)) for x in xs]


def test_relabel_memo_is_shared_and_read_only():
    inst = FunctionInstance(n=64, succ=np.random.default_rng(3).integers(0, 64, 64))
    o1 = CountedOracle(inst, relabel_seed=11)
    o2 = CountedOracle(inst, relabel_seed=11)
    perm, inv = _relabel_maps(64, 11)
    assert o1._out is o2._out is perm and o1._in is o2._in is inv
    assert np.array_equal(inv[perm], np.arange(64))
    for a in (perm, inv):
        with pytest.raises(ValueError):
            a[0] = a[1]


def test_index_dtype_switches_at_two_to_the_31():
    assert index_dtype((1 << 31) - 1) is np.int32
    assert index_dtype(1 << 31) is np.int64
    # the relabel inverse is scattered in int32 but stored int64 on purpose:
    # the oracle gathers through it on every call
    assert _relabel_maps(64, 11)[1].dtype == np.int64


def test_instances_and_answers_stay_int64():
    """Index-only arrays may be narrow, but instance arrays and every label
    an oracle returns are int64: callers do arithmetic on answers (the
    battery's Fibonacci hash overflows on int32 keys) and write them out."""
    made = [gen_collision_function(1024, ScaleParams(2, 4), 1)[0],
            gen_fixedpoint_function(2048, FixedPointParams(), seed=1)[0],
            gen_claw_graph(1024, ScaleParams(2, 4), 1)[0],
            gen_star_graph(1024, "triangle", 1)[0],
            gen_starpath_graph(1024, 4, 1)[0]]
    for inst in made:
        arrays = [inst.succ] if inst.model == "function" else [inst.indptr, inst.indices]
        assert [a.dtype for a in arrays] == [np.int64] * len(arrays), inst.info
    fn, graph = made[0], made[2]
    for seed in (None, 3):
        o = CountedOracle(fn, relabel_seed=seed)
        for xs in (np.arange(16), np.arange(16, dtype=np.int32)):
            assert o.query_function_many(xs).dtype == np.int64
        assert type(o.query_function(5)) is int
        g = CountedOracle(graph, relabel_seed=seed)
        vs = np.arange(graph.n)
        ds = g.query_degree_many(vs)
        assert ds.dtype == np.int64
        hit = vs[ds > 0]
        assert g.query_neighbor_many(hit, np.zeros_like(hit)).dtype == np.int64
        assert type(g.query_neighbor(int(hit[0]), 0)) is int
    w = _unrelabel_witness(CountedOracle(fn, relabel_seed=3),
                           Witness("collision", (np.int64(1), 2, np.int32(3))))
    assert [type(v) for v in w.vertices] == [int] * 3


def test_one_seed_one_transcript_two_seeds_two_maps():
    rng = np.random.default_rng(8)
    n = 256
    inst = FunctionInstance(n=n, succ=rng.integers(0, n, n))
    xs = rng.integers(0, n, 100)

    def transcript(seed):
        o = CountedOracle(inst, relabel_seed=seed)
        o.query_function_many(xs)
        for x in xs[:10]:
            o.query_function(int(x))
        return list(o.iter_transcript())

    first = transcript(4)
    assert transcript(4) == first
    assert transcript(5) != first
    transcript(6)  # evicts seed 4 from the memo
    assert transcript(4) == first
    assert not np.array_equal(_relabel_maps(n, 4)[0], _relabel_maps(n, 5)[0])


def _one_structure(members):
    m = np.asarray(members, dtype=np.int64)
    return StructureMeta(kinds=np.zeros(1, dtype=np.int8),
                         offsets=np.array([0, len(m)], dtype=np.int64), members=m)


@pytest.mark.parametrize("members, n, ok", [
    ([], 0, True),
    ([0], 1, True),
    ([2, 0, 3, 1], 4, True),
    ([2, 0, 2, 1], 4, False),   # a duplicate
    ([2, 0, -1, 1], 4, False),  # a negative member
    ([2, 0, 4, 1], 4, False),   # a member >= n
    ([2, 0, 1], 4, False),      # too few members
    ([2, 0, 3, 1, 4], 4, False),  # too many members
    ([1], 1, False),
    ([0], 0, False),
])
def test_check_partition(members, n, ok):
    assert _one_structure(members).check_partition(n) is ok


def test_info_hiding_and_witness_translation():
    # a two-preimage value: 0 -> 2 and 1 -> 2
    inst = FunctionInstance(n=4, succ=np.array([2, 2, 3, 3], dtype=np.int64))
    oracle = CountedOracle(inst, relabel_seed=5)
    # find the collision through the oracle only
    ys = [oracle.query_function(x) for x in range(4)]
    pairs = [(x, y) for x, y in enumerate(ys)]
    byval = {}
    witness = None
    for x, y in pairs:
        if y in byval and byval[y] != x:
            witness = Witness("collision", (byval[y], x, y))
        byval[y] = x
    assert witness is not None
    # valid in the visible labeling, i.e. against the relabeled instance
    assert validate_witness(relabel(inst, seed=5), witness)


def brute_collisions(succ):
    out = []
    n = len(succ)
    for x in range(n):
        for y in range(x + 1, n):
            if succ[x] == succ[y]:
                out.append((x, y, int(succ[x])))
    return out


def test_witness_validation_sound_and_complete_small():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(3, 64))
        succ = rng.integers(0, n, size=n).astype(np.int64)
        inst = FunctionInstance(n=n, succ=succ)
        valid = set(brute_collisions(succ))
        for x, y, z in valid:
            assert validate_witness(inst, Witness("collision", (x, y, z)))
            assert validate_witness(inst, Witness("collision", (y, x, z)))
        for _ in range(30):
            x, y, z = (int(v) for v in rng.integers(0, n, size=3))
            claim = validate_witness(inst, Witness("collision", (x, y, z)))
            truth = x != y and succ[x] == z and succ[y] == z
            assert claim == truth
        fixed = {x for x in range(n) if succ[x] == x}
        for x in range(n):
            assert validate_witness(inst, Witness("fixed-point", (x,))) == (x in fixed)


def test_graph_witness_kinds():
    # claw at 0 with leaves 1,2,3 plus an extra edge 1-4
    g = graph_from_edges(5, np.array([[0, 1], [0, 2], [0, 3], [1, 4]]))
    assert validate_witness(g, Witness("claw", (0, 1, 2, 3)))
    assert validate_witness(g, Witness("k-star", (0, 1, 2, 3)))
    assert not validate_witness(g, Witness("claw", (0, 1, 2, 4)))
    assert not validate_witness(g, Witness("claw", (0, 1, 1, 2)))
    tri = graph_from_edges(3, np.array([[0, 1], [1, 2], [2, 0]]))
    assert validate_witness(tri, Witness("clique", (0, 1, 2)))
    assert not validate_witness(g, Witness("clique", (0, 1, 2)))


def test_unknown_witness_kind_rejected():
    inst = identity_instance(4)
    assert not validate_witness(inst, Witness("mystery", (0,)))
    # no detector produces these kinds, so none validates
    assert not validate_witness(inst, Witness("path", (0, 1)))
    assert not validate_witness(inst, Witness("k-collision", (0, 0)))
    g = graph_from_edges(3, np.array([[0, 1], [1, 2]]))
    assert not validate_witness(g, Witness("edge", (0, 1)))
    assert not validate_witness(g, Witness("wedge", (1, 0, 2)))


def test_instance_file_roundtrip(tmp_path):
    rng = np.random.default_rng(31)
    succ = rng.integers(0, 16, size=16).astype(np.int64)
    inst = FunctionInstance(n=16, succ=succ,
                            info={"construction": "demo", "seed": 4,
                                  "parameters": {"n": 16}})
    p = tmp_path / "inst.json"
    write_instance(inst, p)
    again = read_instance(p)
    assert np.array_equal(again.succ, succ)
    assert again.info["construction"] == "demo"
    first = p.read_bytes()
    write_instance(inst, p)
    assert p.read_bytes() == first
    blob = json.loads(first)
    assert blob["format"] == "qsep-instance"

    g = graph_from_edges(4, np.array([[0, 1], [2, 3]]))
    gp = tmp_path / "graph.json"
    write_instance(g, gp)
    g2 = read_instance(gp)
    assert np.array_equal(g2.indptr, g.indptr)
    assert np.array_equal(g2.indices, g.indices)


def test_certificate_roundtrip(tmp_path):
    cert = Certificate("CollisionScale", {"t": 5})
    p = tmp_path / "cert.json"
    write_certificate(cert, p)
    again = read_certificate(p)
    assert again.kind == cert.kind and again.payload == cert.payload


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2 ** 31 - 1))
def test_relabel_roundtrip_property(n, seed):
    rng = np.random.default_rng(seed)
    succ = rng.integers(0, n, size=n).astype(np.int64)
    inst = FunctionInstance(n=n, succ=succ)
    perm = rng.permutation(n)
    back = apply_permutation(apply_permutation(inst, perm), invert_permutation(perm))
    assert np.array_equal(back.succ, succ)


# --- CSR build: differential against the stable-sort construction -------------

def _reference_csr(n, edges):
    """The CSR layout as built with a stable argsort on the source vertex."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[np.argsort(src, kind="stable")]


@pytest.mark.parametrize("n, m", [(1, 0), (1, 5), (2, 0), (5, 40), (64, 64),
                                  (300, 2000), (1 << 16, 200_000)])
def test_graph_from_edges_matches_stable_sort(n, m):
    rng = np.random.default_rng(n * 7919 + m)
    # few distinct endpoints, so many half-edges share a source vertex
    edges = rng.integers(0, min(n, 1 + m // 8), size=(m, 2))
    g = graph_from_edges(n, edges)
    indptr, indices = _reference_csr(n, edges)
    assert np.array_equal(g.indptr, indptr)
    assert np.array_equal(g.indices, indices)


def test_graph_from_edges_empty_edge_list():
    for edges in ([], np.zeros((0, 2), dtype=np.int64)):
        g = graph_from_edges(3, edges)
        assert g.indptr.tolist() == [0, 0, 0, 0] and len(g.indices) == 0


# --- instance loader validation ----------------------------------------------

def _function_doc(n, succ):
    return {"format": "qsep-instance", "version": 1,
            "header": {"model": "function", "n": n}, "payload": {"succ": succ}}


def _graph_doc(n, indptr, indices):
    return {"format": "qsep-instance", "version": 1,
            "header": {"model": "graph", "n": n},
            "payload": {"indptr": indptr, "indices": indices}}


@pytest.mark.parametrize("doc, message", [
    (_function_doc(4, [0, 1, 2, 10 ** 9]), r"succ has entries outside \[0, 4\)"),
    (_function_doc(4, [0, 1, -1, 3]), r"outside \[0, 4\)"),
    (_function_doc(4, [0, 1, 2, 2 ** 63]), "succ (has entries outside|must be a list)"),
    (_function_doc(4, [0, 1, 2, 10 ** 30]), "list of integers"),
    (_function_doc(4, [0, 1, 2.5, 3]), "list of integers"),
    (_function_doc(3, [0, 1, 2, 0]), "succ has 4 entries, header n asks for 3"),
    (_function_doc(4.0, [0, 1, 2, 3]), "header n must be an integer"),
    (_graph_doc(3, [0, 1, 2], [1, 0]), "indptr has 3 entries, header n asks for 4"),
    (_graph_doc(3, [0, 2, 1, 2], [1, 0]), "indptr must rise"),
    (_graph_doc(3, [1, 1, 2, 2], [1, 0]), "indptr must rise"),
    (_graph_doc(3, [0, 1, 1, 1], [1, 0]), "indptr must rise"),
    (_graph_doc(3, [0, 1, 2, 2], [1, 3]), r"indices has entries outside \[0, 3\)"),
    ({"format": "qsep-instance", "header": {"model": "function", "n": 2}},
     "malformed instance file"),
    ({"format": "qsep-instance", "header": {"model": "hyper", "n": 2},
      "payload": {}}, "unknown model"),
    ({"format": "qsep-certificate"}, "not an instance file"),
    (_graph_doc(3, [0, 1, 2, 2], [1, 2]), "adjacency is not symmetric"),
    (_graph_doc(2, [0, 2, 3], [1, 1, 0]), "adjacency is not symmetric"),
])
def test_instance_loader_rejects_bad_documents(doc, message):
    with pytest.raises(FileFormatError, match=message):
        instance_from_jsonable(doc)


def test_instance_loader_accepts_what_it_writes():
    g = graph_from_edges(5, np.array([[0, 1], [1, 2], [3, 1]]))
    back = instance_from_jsonable(instance_to_jsonable(g))
    assert np.array_equal(back.indptr, g.indptr)
    assert np.array_equal(back.indices, g.indices)
    empty = instance_from_jsonable(_function_doc(0, []))
    assert empty.n == 0 and empty.succ.dtype == np.int64


@pytest.mark.parametrize("doc", [[], {"format": "qsep-instance"},
                                 {"format": "qsep-certificate", "kind": 3, "payload": {}},
                                 {"format": "qsep-certificate", "kind": "ClawScale"}])
def test_certificate_loader_rejects_bad_documents(doc):
    with pytest.raises(FileFormatError):
        Certificate.from_jsonable(doc)
