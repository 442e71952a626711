"""Generator layer: counts, partitions, witnesses, determinism."""

import hashlib
import itertools
import warnings

import numpy as np
import pytest
import sympy
from scipy import stats

from qsep import (
    CapacityError,
    FixedPointParams,
    ParameterError,
    PrimeShortageError,
    ScaleParams,
    gen_claw_graph,
    gen_collision_function,
    gen_fixedpoint_function,
    gen_star_graph,
    gen_starpath_graph,
    scale_table,
    write_instance,
)
from qsep.adversary import AdversarySession
from qsep.generators import FAMILIES, primes_in_range, star_degree_set
from qsep.oracle import canonical_json, instance_to_jsonable


# --- frozen count arithmetic -------------------------------------------------

def test_path_counts_frozen_example():
    # n = 1024, rho = 0.25, beta = 2.2, scales 2..5 give (52, 24, 10, 4)
    table = scale_table(1024, ScaleParams(i_min=2, i_max=5, rho=0.25))
    assert table.a.tolist() == [52, 24, 10, 4]
    assert table.path_elements == 52 * 4 + 24 * 8 + 10 * 16 + 4 * 32


def test_witness_count_frozen_example():
    # n = 1024, c = 0.3, gamma = 1.1, rho = 1, single scale 3: b_3 = 96 = a_3
    table = scale_table(1024, ScaleParams(i_min=3, i_max=3, rho=1.0))
    assert table.a.tolist() == [96]
    assert table.b.tolist() == [96]


def test_auto_rho_fills_but_fits():
    table = scale_table(1 << 14, ScaleParams(i_min=2, i_max=8))
    assert 0 < table.rho <= 1
    assert table.capacity <= 1 << 14
    # rho is maximal up to float resolution: nudging it up must overflow
    if table.rho < 1:
        with pytest.raises(CapacityError):
            scale_table(1 << 14, ScaleParams(i_min=2, i_max=8,
                                             rho=min(1.0, table.rho * 1.02)))


def test_capacity_errors():
    with pytest.raises(CapacityError):
        scale_table(64, ScaleParams(i_min=2, i_max=5, rho=1.0))
    with pytest.raises(CapacityError):
        scale_table(20, ScaleParams(i_min=2, i_max=4))  # even a_i = 1 needs 28


def test_parameter_validation():
    with pytest.raises(ParameterError):
        scale_table(256, ScaleParams(i_min=5, i_max=3))
    with pytest.raises(ParameterError):
        scale_table(256, ScaleParams(gamma=2.5))
    with pytest.raises(ParameterError):
        scale_table(256, ScaleParams(c=0.7))
    with pytest.raises(ParameterError):
        scale_table(256, ScaleParams(rho=1.5))


# --- scale_table memo ---------------------------------------------------------

def test_scale_table_equal_keys_share_one_table():
    params = ScaleParams(i_min=2, i_max=6, c=0.3)
    table = scale_table(1 << 12, params, witness_overhead=4)
    assert scale_table(1 << 12, ScaleParams(i_min=2, i_max=6, c=0.3),
                       witness_overhead=4) is table
    assert scale_table(np.int64(1 << 12), params, np.int64(4)) is table
    assert type(table.n) is int and type(table.witness_overhead) is int
    assert scale_table(1 << 12, params) is not table   # another overhead


def test_scale_table_is_read_only():
    table = scale_table(1 << 12, ScaleParams(i_min=2, i_max=6))
    for arr in (table.scales, table.a, table.b):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(AttributeError):
        table.rho = 0.5


def test_scale_table_raises_on_every_bad_call():
    for _ in range(2):
        with pytest.raises(CapacityError):
            scale_table(64, ScaleParams(i_min=2, i_max=5, rho=1.0))
        with pytest.raises(CapacityError):
            scale_table(20, ScaleParams(i_min=2, i_max=4))
        with pytest.raises(ParameterError):
            scale_table(256, ScaleParams(i_min=5, i_max=3))


# --- primes ------------------------------------------------------------------

def test_primes_frozen_windows():
    assert primes_in_range(4, 8) == [5, 7]
    assert primes_in_range(24, 32) == [29, 31]


def test_primes_match_sympy():
    rng = np.random.default_rng(0)
    for _ in range(40):
        lo = float(rng.uniform(0, 80))
        hi = lo + float(rng.uniform(0, 40))
        mine = primes_in_range(lo, hi)
        ref = [int(p) for p in sympy.primerange(2, int(hi) + 2) if lo < p < hi]
        assert mine == ref


# --- collision ---------------------------------------------------------------

def brute_collision_pairs(succ):
    order = np.argsort(succ, kind="stable")
    vals = succ[order]
    pairs = []
    start = 0
    for stop in range(1, len(vals) + 1):
        if stop == len(vals) or vals[stop] != vals[start]:
            group = order[start:stop]
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    pairs.append((int(group[i]), int(group[j]), int(vals[start])))
            start = stop
    return pairs


PAR = ScaleParams(i_min=2, i_max=5, rho=0.25)


def test_collision_witness_count_matches_brute_force():
    inst, cert, meta = gen_collision_function(1024, PAR, seed=7)
    t = cert.payload["t"]
    b_t = meta.extras["b_t"]
    pairs = brute_collision_pairs(inst.succ)
    assert len(pairs) == b_t
    locs = {tuple(sorted(w[:2])) for w in meta.witness_locations}
    assert {(min(x, y), max(x, y)) for x, y, _ in pairs} == locs
    for x, y, z in meta.witness_locations:
        assert inst.succ[x] == z and inst.succ[y] == z and x != y
    assert meta.good_index == t


def test_collision_single_scale_96_collisions():
    par = ScaleParams(i_min=3, i_max=3, rho=1.0)
    inst, cert, meta = gen_collision_function(1024, par, seed=3)
    assert meta.extras["b_t"] == 96
    assert len(brute_collision_pairs(inst.succ)) == 96


def test_collision_scale_accounting_and_partition():
    inst, cert, meta = gen_collision_function(1024, PAR, seed=11)
    assert meta.check_partition(1024)
    census = meta.scale_census()
    for i, a_i in zip(meta.extras["scales"], meta.extras["a"]):
        assert census[1 << i] == a_i


def test_collision_fixed_point_filler_and_cycle_filler():
    inst, _, meta = gen_collision_function(1024, PAR, seed=5, filler="fixed")
    spare = 1024 - sum(a << i for i, a in zip(meta.extras["scales"], meta.extras["a"]))
    fixed = int((inst.succ == np.arange(1024)).sum())
    assert fixed == spare
    inst2, _, meta2 = gen_collision_function(1024, PAR, seed=5, filler="cycles")
    assert int((inst2.succ == np.arange(1024)).sum()) == 0
    assert len(brute_collision_pairs(inst2.succ)) == meta2.extras["b_t"]


def test_collision_b_override_zero_has_no_collisions():
    inst, _, meta = gen_collision_function(1024, PAR, seed=13, b_override=0)
    assert brute_collision_pairs(inst.succ) == []
    assert meta.witness_locations == []


def test_collision_good_scale_uniform_chi_square():
    par = ScaleParams(i_min=2, i_max=4, rho=0.25)
    counts = np.zeros(3, dtype=np.int64)
    for seed in range(10_000):
        _, cert, _ = gen_collision_function(256, par, seed=seed)
        counts[cert.payload["t"] - 2] += 1
    p = stats.chisquare(counts).pvalue
    assert p > 0.01, f"good-scale frequencies {counts.tolist()} (p = {p:.4f})"


def test_collision_determinism():
    a = gen_collision_function(1024, PAR, seed=42)[0]
    b = gen_collision_function(1024, PAR, seed=42)[0]
    assert a.succ.tobytes() == b.succ.tobytes()
    assert canonical_json(instance_to_jsonable(a)) == \
        canonical_json(instance_to_jsonable(b))
    c = gen_collision_function(1024, PAR, seed=43)[0]
    assert a.succ.tobytes() != c.succ.tobytes()


def test_collision_unknown_filler_raises_before_any_draw():
    # ScaleParams(3, 3) fills n = 8 with one 8-path, so no element is
    # spare; n = 4 cannot hold it, so the filler is checked before that
    for n in (4, 8, 1024):
        with pytest.raises(ParameterError, match="unknown filler 'bogus'"):
            gen_collision_function(n, ScaleParams(i_min=3, i_max=3), 0,
                                   filler="bogus")


def _collision_cases():
    """(n, params, seed, kwargs) over spare counts 0, 1, 3 (odd), 16 and
    336 (even), both fillers, b_override=0, t at both ends of the window,
    n = 2^17, and calls that must raise."""
    spare = [(1024, ScaleParams(2, 4)), (1025, ScaleParams(2, 4)),
             (4099, ScaleParams(2, 5)), (1024, ScaleParams(4, 8)), (1024, PAR)]
    for (n, par), seed, filler in itertools.product(spare, (0, 1), ("fixed", "cycles")):
        for kw in ({}, {"b_override": 0}, {"t_override": par.i_min},
                   {"t_override": par.i_max}):
            yield n, par, seed, {"filler": filler, **kw}
    big = ScaleParams()
    for filler, kw in itertools.product(("fixed", "cycles"),
                                        ({"t_override": 4}, {"t_override": 8})):
        yield 1 << 17, big, 5, {"filler": filler, **kw}
    yield 1024, PAR, 0, {"t_override": 1}
    yield 1024, PAR, 0, {"t_override": 6}
    yield 1024, PAR, 0, {"b_override": -1}
    yield 1024, PAR, 0, {"t_override": 5, "b_override": 5}   # a_5 = 4
    yield 1024, PAR, 0, {"filler": "bogus"}
    yield 20, ScaleParams(2, 4), 0, {}
    yield 64, ScaleParams(2, 5, rho=1.0), 0, {}
    yield 256, ScaleParams(1, 3), 0, {}


# sha256 over _collision_cases of each instance's and certificate's
# canonical JSON, the dtypes of succ and of the meta members, and each
# error's type and message; it moves only if seeded output moves
COLLISION_DIGEST = "f984c834da61fc4da44cede96a7e32c07c465454edc808e028a46fbdd98d4870"


def test_collision_bytes_pinned():
    h = hashlib.sha256()
    for n, par, seed, kw in _collision_cases():
        h.update(repr((n, par, seed, sorted(kw.items()))).encode())
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                inst, cert, meta = gen_collision_function(n, par, seed, **kw)
        except ParameterError as err:
            h.update(f"{type(err).__name__}: {err}".encode())
            continue
        assert meta is inst.meta
        h.update(canonical_json(instance_to_jsonable(inst)).encode())
        h.update(canonical_json(cert.to_jsonable()).encode())
        h.update(f"{inst.succ.dtype} {meta.members.dtype}".encode())
    assert h.hexdigest() == COLLISION_DIGEST


# --- claw --------------------------------------------------------------------

def test_claw_centers_match_two_b_t():
    inst, cert, meta = gen_claw_graph(1024, PAR, seed=9)
    b_t = meta.extras["b_t"]
    deg3 = int((inst.degrees >= 3).sum())
    assert deg3 == 2 * b_t
    assert len(meta.witness_locations) == 2 * b_t
    for c, *leaves in meta.witness_locations:
        nbrs = set(inst.neighbors(c).tolist())
        assert set(leaves) <= nbrs and len(leaves) == 3
    assert meta.check_partition(1024)


def test_claw_b_override_zero_is_claw_free():
    inst, _, _ = gen_claw_graph(1024, PAR, seed=2, b_override=0)
    assert int((inst.degrees >= 3).sum()) == 0


def test_claw_determinism():
    a = gen_claw_graph(512, ScaleParams(i_min=2, i_max=4, rho=0.25), seed=1)[0]
    b = gen_claw_graph(512, ScaleParams(i_min=2, i_max=4, rho=0.25), seed=1)[0]
    assert a.indices.tobytes() == b.indices.tobytes()


# --- fixed point -------------------------------------------------------------

FP = FixedPointParams()


def test_fixedpoint_unique_witness():
    inst, cert, meta = gen_fixedpoint_function(4096, FP, seed=21)
    fixed = np.flatnonzero(inst.succ == np.arange(4096))
    assert len(fixed) == 1
    assert meta.witness_locations == [(int(fixed[0]),)]
    assert cert.payload["primes"] == [meta.extras["primes"][meta.extras["hosts"][0]]]
    assert meta.check_partition(4096)


def test_fixedpoint_prime_spacing_exact():
    inst, _, meta = gen_fixedpoint_function(4096, FP, seed=33)
    succ = inst.succ
    # structure 0 is the host cycle (single-cycle regime at this n)
    p = meta.extras["primes"][0]
    cyc = meta.members_of(0)
    pos = {int(v): i for i, v in enumerate(cyc)}
    on_cycle = np.zeros(4096, bool)
    on_cycle[cyc] = True
    entries = set()
    for name, length, members in meta.structures():
        if name == "feeder":
            tail = int(members[-1])
            target = int(succ[tail])
            assert on_cycle[target]
            entries.add(pos[target])
            # feeder chains are linear
            for a, b in zip(members[:-1], members[1:]):
                assert succ[a] == b
    ordered = sorted(entries)
    assert ordered[0] == 0
    gaps = np.diff(ordered + [len(cyc)])
    assert set(gaps.tolist()) == {p}
    assert len(cyc) % p == 0


def test_fixedpoint_filler_never_fixed():
    inst, _, meta = gen_fixedpoint_function(2048, FP, seed=5)
    assert int((inst.succ == np.arange(2048)).sum()) == len(meta.witness_locations)


def test_fixedpoint_T_exceeds_N():
    with pytest.raises(ParameterError):
        gen_fixedpoint_function(4096, FixedPointParams(T=2), seed=0)


def test_fixedpoint_prime_shortage_and_widening():
    crowded = FixedPointParams(alpha=8.0)
    with pytest.raises(PrimeShortageError):
        gen_fixedpoint_function(65536, crowded, seed=0)
    # same crowding with shorter cycles so the widened layout still fits
    inst, cert, meta = gen_fixedpoint_function(
        65536, FixedPointParams(alpha=8.0, widen=True, cycle_len=2048,
                                feeder_len=4), seed=0)
    assert meta.extras["widened"]
    assert len(set(meta.extras["primes"])) == meta.extras["N"]


@pytest.mark.parametrize("params", [
    FixedPointParams(cycle_len=0), FixedPointParams(cycle_len=-3),
    FixedPointParams(feeder_len=0), FixedPointParams(feeder_len=-1)])
def test_fixedpoint_rejects_lengths_below_one(params):
    with pytest.raises(ParameterError, match="must be >= 1"):
        gen_fixedpoint_function(4096, params, seed=0)


def test_fixedpoint_rejects_unknown_h_spec():
    with pytest.raises(ParameterError):
        gen_fixedpoint_function(4096, FP, h_spec="clique:3", seed=0)


def test_fixedpoint_determinism():
    a = gen_fixedpoint_function(2048, FP, seed=8)[0]
    b = gen_fixedpoint_function(2048, FP, seed=8)[0]
    assert a.succ.tobytes() == b.succ.tobytes()


# --- star --------------------------------------------------------------------

def brute_triangles(inst):
    n = inst.n
    tris = []
    nbrs = [set(inst.neighbors(v).tolist()) for v in range(n)]
    cand = [v for v in range(n) if len(nbrs[v]) >= 2]
    for i, u in enumerate(cand):
        for v in cand[i + 1:]:
            if v not in nbrs[u]:
                continue
            for w in cand:
                if w > v and w in nbrs[u] and w in nbrs[v]:
                    tris.append((u, v, w))
    return tris


def test_star_degree_set_properties():
    for n in (256, 1024, 4096):
        degs = star_degree_set(n)
        s = int(np.sqrt(n))
        assert len(degs) == len(set(degs)) == s
        assert sum(degs) == n - s
        assert min(degs) >= np.sqrt(n) / 4 and max(degs) <= 1.5 * np.sqrt(n)


def test_star_planted_triangle_unique():
    inst, cert, meta = gen_star_graph(1024, "triangle", seed=12)
    tris = brute_triangles(inst)
    assert len(tris) == 1
    assert set(tris[0]) == set(meta.witness_locations[0])
    got = sorted(int(inst.degree(v)) for v in meta.witness_locations[0])
    assert got == [3, 3, 3]
    hosts = meta.extras["host_stars"]
    assert cert.payload["degrees"] == sorted(meta.extras["degrees"][j] for j in hosts)
    assert meta.check_partition(1024)


def test_star_degree_census():
    inst, _, meta = gen_star_graph(1024, 0, seed=4)
    degs = np.asarray(meta.extras["degrees"])
    top = np.sort(inst.degrees)[-len(degs):]
    assert np.array_equal(np.sort(degs), top)
    assert brute_triangles(inst) == []


def test_star_determinism():
    a = gen_star_graph(1024, "triangle", seed=2)[0]
    b = gen_star_graph(1024, "triangle", seed=2)[0]
    assert a.indices.tobytes() == b.indices.tobytes()


# --- starpath ----------------------------------------------------------------

def test_starpath_planted_star_unique():
    inst, cert, meta = gen_starpath_graph(1024, 4, seed=19)
    k = 4
    big = np.flatnonzero(inst.degrees >= k + 1)
    assert len(big) == 1
    u, *pend = meta.witness_locations[0]
    assert int(big[0]) == u
    assert all(inst.degree(p) == 1 for p in pend)
    assert set(pend) <= set(inst.neighbors(u).tolist())
    assert 1 <= cert.payload["index"] <= meta.extras["s"]
    assert meta.check_partition(1024)


def test_starpath_backbone_profile():
    inst, cert, meta = gen_starpath_graph(1024, 5, seed=23)
    backbone = meta.members_of(0)
    v0, spine = int(backbone[0]), backbone[1:]
    u = meta.witness_locations[0][0]
    if v0 != u:
        assert inst.degree(v0) == 1
    for v in spine[1:-1]:
        if int(v) != u:
            assert inst.degree(int(v)) == 3
    if int(spine[-1]) != u:
        assert inst.degree(int(spine[-1])) == 2


def test_starpath_certificate_points_at_u():
    for seed in range(30):
        inst, cert, meta = gen_starpath_graph(512, 4, seed=seed)
        u = meta.witness_locations[0][0]
        k_star = cert.payload["index"]
        backbone = meta.members_of(0)
        hang = meta.members_of(k_star)
        column = set(hang.tolist()) | {int(backbone[k_star])}
        if k_star == 1:
            column.add(int(backbone[0]))
        assert u in column


def test_starpath_rejects_small_k():
    with pytest.raises(ParameterError):
        gen_starpath_graph(1024, 3, seed=0)


def test_starpath_determinism():
    a = gen_starpath_graph(1024, 4, seed=6)[0]
    b = gen_starpath_graph(1024, 4, seed=6)[0]
    assert a.indices.tobytes() == b.indices.tobytes()


# --- instance files ----------------------------------------------------------

def test_generated_instance_files_byte_deterministic(tmp_path):
    for name, gen in [
        ("collision", lambda s: gen_collision_function(512, ScaleParams(2, 4, rho=0.25), seed=s)[0]),
        ("claw", lambda s: gen_claw_graph(512, ScaleParams(2, 4, rho=0.25), seed=s)[0]),
        ("fixedpoint", lambda s: gen_fixedpoint_function(2048, FP, seed=s)[0]),
        ("star", lambda s: gen_star_graph(1024, "triangle", seed=s)[0]),
        ("starpath", lambda s: gen_starpath_graph(1024, 4, seed=s)[0]),
    ]:
        p1 = tmp_path / f"{name}-1.json"
        p2 = tmp_path / f"{name}-2.json"
        write_instance(gen(77), p1)
        write_instance(gen(77), p2)
        assert p1.read_bytes() == p2.read_bytes(), name


# --- every construction's bytes ----------------------------------------------

def _family_cases():
    """(construction, n, seed, keywords) through Family.make over every
    construction: small and odd n, both fillers, b_override=0, clique
    sizes 0, 2 and 5, k = 4, 6 and 9, fixed point with N >= 2 widened and
    with 1 leftover element,
    and calls that must raise."""
    small = {"i_min": 2, "i_max": 4}
    for n, seed, filler, kw in itertools.product(
            (64, 1025, 4099), (0, 3), ("fixed", "cycles"),
            ({}, {"b_override": 0})):
        yield "collision-fn", n, seed, {"params": small, "filler": filler, **kw}
    for n, seed, kw in itertools.product((64, 1031, 4096), (0, 3),
                                         ({}, {"b_override": 0}, {"t_override": 4})):
        yield "claw-graph", n, seed, {"params": small, **kw}
    yield "collision-fn", 1 << 14, 1, {}
    yield "claw-graph", 1 << 14, 1, {}
    for n, seed in itertools.product((64, 1000, 4097, 1 << 14), (0, 5)):
        yield "fixedpoint-fn", n, seed, {}
        yield "fixedpoint-fn", n, seed, {"params": {
            "feeder_len": 1, "cycle_len": 7, "widen": True}}
    for n in (16, 17, 40):   # 1, 2 and 25 leftover elements
        yield "fixedpoint-fn", n, 0, {"params": {
            "prime_lo": 2, "prime_hi": 4, "cycle_len": 9, "feeder_len": 2}}
    for seed, T in itertools.product((1, 2), (1, 2)):
        yield "fixedpoint-fn", 8192, seed, {"params": {
            "alpha": 3.0, "widen": True, "cycle_len": 1024, "T": T}}
    for n, seed, h in itertools.product((64, 1001, 4096, 1 << 14), (0, 7),
                                        ("triangle", 0, 2, 5)):
        yield "star-graph", n, seed, {"h_spec": h}
    for n, seed, k in itertools.product((64, 1001, 4099, 1 << 14), (0, 7), (4, 6, 9)):
        yield "starpath-graph", n, seed, {"k": k}
    yield "collision-fn", 1024, 0, {"params": small, "filler": "bogus"}
    yield "collision-fn", 20, 0, {"params": small}
    yield "claw-graph", 1024, 0, {"params": small, "t_override": 9}
    yield "claw-graph", 1024, 0, {"params": small, "b_override": -1}
    yield "fixedpoint-fn", 8192, 0, {"params": {"alpha": 3.0, "cycle_len": 1024}}
    yield "fixedpoint-fn", 4096, 0, {"params": {"T": 2}}
    yield "fixedpoint-fn", 1, 0, {}
    yield "fixedpoint-fn", 64, 0, {"params": {"cycle_len": 0, "widen": True}}
    yield "star-graph", 64, 0, {"h_spec": 1}
    yield "star-graph", 64, 0, {"h_spec": 9}
    yield "star-graph", 64, 0, {"h_spec": "square"}
    yield "starpath-graph", 64, 0, {"k": 3}
    yield "starpath-graph", 10, 0, {"k": 4}


def _adversary_cases():
    """(n, params, seed, probes): sessions finalized after 0 to 40 probes
    of uniform elements, some resolving early and some not."""
    for j in range(50):
        n, par = ((256, ScaleParams(2, 4)), (1024, ScaleParams(2, 4)),
                  (4096, ScaleParams(2, 6)))[j % 3]
        yield n, par, 100 + j, (0, 1, 5, 40)[j % 4]


def _digest_instance(h, inst, cert) -> None:
    meta = inst.meta
    h.update(canonical_json(instance_to_jsonable(inst)).encode())
    h.update(canonical_json(cert.to_jsonable()).encode() if cert else b"-")
    h.update(f"{meta.kinds.dtype} {meta.offsets.dtype} {meta.members.dtype}".encode())


def test_every_construction_bytes_pinned():
    h = hashlib.sha256()
    for name, n, seed, kw in _family_cases():
        h.update(repr((name, n, seed, sorted(kw.items()))).encode())
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                inst, cert = FAMILIES[name].make(n, seed, **kw)
        except ParameterError as err:
            h.update(f"{type(err).__name__}: {err}".encode())
            continue
        assert inst.meta.check_partition(n)
        _digest_instance(h, inst, cert)
    for n, par, seed, probes in _adversary_cases():
        h.update(repr((n, par, seed, probes)).encode())
        session = AdversarySession(n, par, seed)
        for v in np.random.default_rng(seed).integers(n, size=probes).tolist():
            if session.probe_degree(v):
                session.probe_neighbor(v, 0)
        _digest_instance(h, session.finalize(), None)
        h.update(canonical_json(session.trace).encode())
    assert h.hexdigest() == EVERY_CONSTRUCTION_DIGEST


# sha256 over _family_cases and _adversary_cases of each instance's and
# certificate's canonical JSON, the meta arrays' dtypes, each error's type
# and message, and each session's trace; it moves only if seeded output moves
EVERY_CONSTRUCTION_DIGEST = "ecad02c5e6f25724e976f463accaa8e11e829b20c7300d0728c579bf9151dcd7"
