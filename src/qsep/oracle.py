"""Black-box instances, query accounting, witnesses, and relabeling.

Two query models share one accounting discipline:

* function model: a total map f on {0..n-1}; the only query is x -> f(x)
* graph model: adjacency lists; queries are degree(v) and neighbor(v, i)

``CountedOracle`` wraps an instance behind this query surface. It counts
every query (repeated queries count again), enforces an optional hard
budget, and can apply a hidden relabeling permutation so that algorithms
only ever see conjugated labels. It keeps no log of the queries it
answers. Ground-truth structure travels with the instance as
``StructureMeta``; the oracle never exposes it, and nothing in the public
query API reveals the permutation.
"""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Iterator

import numpy as np

# structure kind codes used by StructureMeta
KIND_PATH = 0
KIND_CYCLE = 1
KIND_FEEDER = 2
KIND_STAR = 3
KIND_BACKBONE = 4
KIND_ISOLATED = 5
KIND_GADGET = 6
KIND_NAMES = ("path", "cycle", "feeder", "star", "backbone", "isolated", "witness-gadget")


class BudgetExceeded(RuntimeError):
    """Raised by an oracle when a query would pass the hard budget."""


class ModelMismatchError(TypeError):
    """A function query hit a graph oracle, or the other way around."""


class FileFormatError(ValueError):
    """An instance or certificate file whose contents break its format."""


def _as_index_array(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.int64))


def index_dtype(n: int):
    """The narrowest integer dtype that holds every label of [n] and n
    itself: int32 below 2^31, else int64. Arrays that only ever index
    (walk tables) use it, and so do scatters that build an index array;
    arrays whose entries an oracle returns stay int64, and so does the
    relabel inverse the oracle gathers through on every call, since numpy
    casts any other index array to intp first."""
    return np.int32 if n < (1 << 31) else np.int64


@dataclass
class StructureMeta:
    """Ground-truth layout of a generated instance.

    Structures are stored in columnar form: ``kinds[i]`` is a kind code,
    and the members of structure i are ``members[offsets[i]:offsets[i+1]]``
    in walk order. A generator describes them as runs over one member
    array (``from_runs``). ``witness_locations`` holds the planted
    witnesses as element tuples; ``extras`` carries construction-specific
    values that are not element ids (counts, primes, degrees, realized
    parameters).
    """

    kinds: np.ndarray
    offsets: np.ndarray
    members: np.ndarray
    good_index: int | None = None
    witness_locations: list[tuple[int, ...]] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @staticmethod
    def from_runs(runs, members, good_index=None, witness_locations=None,
                  extras=None) -> "StructureMeta":
        """runs lists (kind, count, length): count structures of length
        members each, taken in order from members, which must hold them all
        (an int64 members array is kept without a copy)."""
        kinds, counts, lengths = np.array(runs, dtype=np.int64).reshape(-1, 3).T
        offsets = np.zeros(int(counts.sum()) + 1, dtype=np.int64)
        np.cumsum(np.repeat(lengths, counts), out=offsets[1:])
        members = _as_index_array(members)
        if offsets[-1] != len(members):
            raise ValueError(f"structures hold {offsets[-1]} members, not {len(members)}")
        return StructureMeta(np.repeat(kinds, counts).astype(np.int8), offsets, members,
                             good_index, witness_locations or [], extras or {})

    @property
    def count(self) -> int:
        return len(self.kinds)

    def length(self, i: int) -> int:
        return int(self.offsets[i + 1] - self.offsets[i])

    def members_of(self, i: int) -> np.ndarray:
        return self.members[self.offsets[i]:self.offsets[i + 1]]

    def kind_name(self, i: int) -> str:
        return KIND_NAMES[self.kinds[i]]

    def structures(self) -> Iterator[tuple[str, int, np.ndarray]]:
        for i in range(self.count):
            yield self.kind_name(i), self.length(i), self.members_of(i)

    def check_partition(self, n: int) -> bool:
        """Member lists are pairwise disjoint and cover {0..n-1}: n members,
        each in range, so covering every element leaves no room for a
        repeat."""
        m = self.members
        if len(m) != n:
            return False
        if n == 0:
            return True
        if m.min() < 0 or m.max() >= n:
            return False
        seen = np.zeros(n, dtype=bool)
        seen[m] = True
        return bool(seen.all())

    def scale_census(self) -> dict[int, int]:
        """Count path/cycle structures by length (power-of-two lengths only)."""
        census: dict[int, int] = {}
        lengths = np.diff(self.offsets)
        for k, ln in zip(self.kinds, lengths):
            if k in (KIND_PATH, KIND_CYCLE):
                ln = int(ln)
                if ln >= 4 and ln & (ln - 1) == 0:
                    census[ln] = census.get(ln, 0) + 1
        return census

    def transport(self, perm: np.ndarray) -> "StructureMeta":
        """Relabel every element id through perm (old label -> new label)."""
        return StructureMeta(
            kinds=self.kinds.copy(),
            offsets=self.offsets.copy(),
            members=perm[self.members],
            good_index=self.good_index,
            witness_locations=[tuple(int(perm[v]) for v in loc) for loc in self.witness_locations],
            extras=dict(self.extras),
        )

    def to_jsonable(self) -> dict:
        return {
            "ground-truth": True,
            "kinds": self.kinds.tolist(),
            "offsets": self.offsets.tolist(),
            "members": self.members.tolist(),
            "good_index": self.good_index,
            "witness_locations": [list(map(int, loc)) for loc in self.witness_locations],
            "extras": _jsonable(self.extras),
        }

    @staticmethod
    def from_jsonable(d: dict) -> "StructureMeta":
        """FileFormatError unless the kinds are known codes, the members
        are integers, the offsets rise from 0 to len(members), one more
        than there are kinds, each witness location is a list of integers
        and the extras are an object."""
        kinds = _int_array(d["kinds"], "meta kinds", None, len(KIND_NAMES))
        members = _int_array(d["members"], "meta members", None, None)
        offsets = _int_array(d["offsets"], "meta offsets", None, None)
        if len(offsets) != len(kinds) + 1 or offsets[0] != 0 \
                or offsets[-1] != len(members) or (np.diff(offsets) < 0).any():
            raise FileFormatError("meta offsets must rise from 0 to len(members), "
                                  "one more offset than kinds")
        locations = [tuple(loc) for loc in d.get("witness_locations", [])]
        if not all(type(v) is int for loc in locations for v in loc):
            raise FileFormatError("meta witness locations must be lists of integers")
        if not isinstance(d.get("extras", {}), dict):
            raise FileFormatError("meta extras must be a JSON object")
        return StructureMeta(
            kinds=kinds.astype(np.int8),
            offsets=offsets,
            members=members,
            good_index=d.get("good_index"),
            witness_locations=locations,
            extras=d.get("extras", {}),
        )


@dataclass
class FunctionInstance:
    n: int
    succ: np.ndarray
    meta: StructureMeta | None = None
    info: dict = field(default_factory=dict)

    model = "function"

    def __post_init__(self) -> None:
        self.succ = _as_index_array(self.succ)
        if len(self.succ) != self.n:
            raise ValueError("succ length must equal n")


@dataclass
class GraphInstance:
    """Undirected graph in CSR form; adjacency order is fixed at build time."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    meta: StructureMeta | None = None
    info: dict = field(default_factory=dict)

    model = "graph"

    def __post_init__(self) -> None:
        self.indptr = _as_index_array(self.indptr)
        self.indices = _as_index_array(self.indices)
        if len(self.indptr) != self.n + 1:
            raise ValueError("indptr length must equal n + 1")

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.any(self.neighbors(u) == v))


def graph_from_edges(n: int, edges: np.ndarray) -> GraphInstance:
    """Build a CSR graph from an (m, 2) edge array.

    Each undirected edge appears once in ``edges``; both directions are
    materialized. Neighbor order is the order in which edges were listed,
    which keeps builds reproducible for a fixed seed.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    deg = np.bincount(src, minlength=n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    # a stable sort by src, done as an unstable (faster) sort on the unique
    # key src * m + position, which is < n * m
    m = len(src)
    if int(n) * m > np.iinfo(np.int64).max:
        raise ValueError(f"{m} half-edges on {n} vertices overflow the int64 sort key")
    key = src * m
    key += np.arange(m, dtype=np.int64)
    indices = dst[np.argsort(key)]
    return GraphInstance(n=n, indptr=indptr, indices=indices)


# each known certificate kind's payload keys, with what each value must be
# (JSON true and false are not integers here)
_INT = ("an integer", lambda v: type(v) is int)
_SCALE = ("an integer in [0, 64)", lambda v: type(v) is int and 0 <= v < 64)
_INTS = ("a list of integers",
         lambda v: type(v) is list and all(type(x) is int for x in v))
_PAYLOAD_KEYS = {
    "CollisionScale": {"t": _SCALE},
    "ClawScale": {"t": _SCALE},
    "FixedPointPrimes": {"primes": _INTS},
    "StarDegrees": {"degrees": _INTS},
    "BackboneIndex": {"index": _INT, "k": _INT},
}


@dataclass
class Certificate:
    """Untrusted structural hint handed to a search algorithm."""

    kind: str
    payload: dict

    def to_jsonable(self) -> dict:
        return {"format": "qsep-certificate", "version": 1, "kind": self.kind, "payload": _jsonable(self.payload)}

    @staticmethod
    def from_jsonable(d: dict) -> "Certificate":
        if not isinstance(d, dict) or d.get("format") != "qsep-certificate":
            raise FileFormatError("not a certificate file")
        if not isinstance(d.get("kind"), str) or not isinstance(d.get("payload"), dict):
            raise FileFormatError("a certificate needs a kind string and a payload object")
        kind, payload = d["kind"], d["payload"]
        if kind not in _PAYLOAD_KEYS:
            raise FileFormatError(f"unknown certificate kind {kind!r}")
        for key, (what, ok) in _PAYLOAD_KEYS[kind].items():
            if key not in payload or not ok(payload[key]):
                raise FileFormatError(f"a {kind} payload needs {key!r} as {what}, "
                                      f"got {payload.get(key)!r}")
        return Certificate(kind=kind, payload=payload)


@dataclass(frozen=True)
class Witness:
    kind: str
    vertices: tuple[int, ...]


def validate_witness(instance, w: Witness) -> bool:
    """Check a witness against ground truth. Sound and complete per kind."""
    n = instance.n
    vs = w.vertices
    if any(not (0 <= int(v) < n) for v in vs):
        return False
    if instance.model == "function":
        f = instance.succ
        if w.kind == "collision":
            if len(vs) != 3:
                return False
            x, y, z = vs
            return x != y and f[x] == z and f[y] == z
        if w.kind == "fixed-point":
            return len(vs) == 1 and f[vs[0]] == vs[0]
        return False
    if instance.model == "graph":
        if w.kind in ("claw", "k-star"):
            c, *leaves = vs
            if len(set(leaves)) != len(leaves) or len(leaves) < 1 or c in leaves:
                return False
            if w.kind == "claw" and len(leaves) != 3:
                return False
            nbrs = set(instance.neighbors(c).tolist())
            return all(l in nbrs for l in leaves)
        if w.kind == "clique":
            if len(set(vs)) != len(vs) or len(vs) < 2:
                return False
            return all(
                instance.has_edge(vs[i], vs[j])
                for i in range(len(vs))
                for j in range(i + 1, len(vs))
            )
        return False
    raise ModelMismatchError(f"unknown instance model {instance.model!r}")


# ---------------------------------------------------------------------------
# permutations and relabeling


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    """The inverse of perm, in index_dtype(len(perm))."""
    dtype = index_dtype(len(perm))
    inv = np.empty(len(perm), dtype=dtype)
    inv[perm] = np.arange(len(perm), dtype=dtype)
    return inv


def apply_permutation(instance, perm: np.ndarray):
    """Relabel an instance through perm (old label -> new label).

    Functions are conjugated, so the relabeled object is again a function
    on the same label space and the cycle type is preserved. Graphs keep
    each adjacency list's internal order, so applying perm and then its
    inverse reproduces the original arrays bit for bit.
    """
    perm = _as_index_array(perm)
    n = instance.n
    if len(perm) != n:
        raise ValueError("permutation size mismatch")
    meta = instance.meta.transport(perm) if instance.meta is not None else None
    if instance.model == "function":
        new_succ = np.empty(n, dtype=np.int64)
        new_succ[perm] = perm[instance.succ]
        return FunctionInstance(n=n, succ=new_succ, meta=meta, info=dict(instance.info))
    deg = instance.degrees
    new_deg = np.empty(n, dtype=np.int64)
    new_deg[perm] = deg
    new_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(new_deg, out=new_indptr[1:])
    m = len(instance.indices)
    new_indices = np.empty(m, dtype=np.int64)
    if m:
        within = np.arange(m, dtype=np.int64) - np.repeat(instance.indptr[:-1], deg)
        new_indices[np.repeat(new_indptr[perm], deg) + within] = perm[instance.indices]
    return GraphInstance(n=n, indptr=new_indptr, indices=new_indices, meta=meta, info=dict(instance.info))


@functools.lru_cache(maxsize=2)
def _relabel_maps(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (permutation, inverse) pair drawn from seed, read-only and
    shared by every oracle built with the same n and seed. The permutation
    maps to the labels an oracle returns, so it stays int64. The inverse
    is scattered in index_dtype(n) and stored cast once to int64, so the
    oracle's gathers through it need no per-call cast."""
    perm = np.random.default_rng(seed).permutation(n)
    inv = invert_permutation(perm).astype(np.int64)
    perm.flags.writeable = inv.flags.writeable = False
    return perm, inv


def relabel(instance, seed: int):
    """Compose the instance with the permutation CountedOracle(relabel_seed=seed)
    applies, a uniformly random one drawn from seed."""
    return apply_permutation(instance, _relabel_maps(instance.n, seed)[0])


# ---------------------------------------------------------------------------
# the counted oracle

class CountedOracle:
    """Query access to one instance with strict accounting.

    The oracle optionally conjugates labels through a hidden permutation
    drawn from ``relabel_seed``, the one ``relabel(instance, relabel_seed)``
    applies. Oracles given the same n and relabel_seed share one read-only
    pair of maps. Algorithms must treat the oracle as the only window onto
    the instance. Every query is checked (model, label, neighbour index),
    charged and relabelled in one path, so a refused query costs nothing;
    no query method calls another, so a subclass may wrap each by name.
    """

    def __init__(self, instance, relabel_seed: int | None = None,
                 budget: int | None = None):
        self.n = instance.n
        self.model = instance.model
        self.budget = budget
        self._count = 0
        if instance.model == "function":
            self._succ = instance.succ
        else:
            self._indptr = instance.indptr
            self._indices = instance.indices
        if relabel_seed is not None:
            self._out, self._in = _relabel_maps(self.n, relabel_seed)
        else:
            self._out = None   # internal -> visible
            self._in = None    # visible -> internal

    # -- accounting ---------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    def remaining(self) -> int | None:
        """Queries the budget still pays for, never negative; None if unbounded."""
        return None if self.budget is None else max(0, self.budget - self._count)

    def _charge(self, k: int = 1) -> None:
        if self.budget is not None and self._count + k > self.budget:
            raise BudgetExceeded(f"budget {self.budget} reached at count {self._count}")
        self._count += k

    def _label(self, x, query: str):
        """The instance's label for visible label x in a query of kind query
        ("function", "degree" or "neighbor"); refuses the other model's
        query (ModelMismatchError), then a label outside [0, n)."""
        if (query == "function") != (self.model == "function"):
            raise ModelMismatchError(f"{query} query on a {self.model} oracle")
        x = int(x)
        if not 0 <= x < self.n:
            raise ValueError(f"{'element' if query == 'function' else 'vertex'} {x} out of range")
        return x if self._in is None else self._in[x]

    def _labels(self, xs, query: str) -> np.ndarray:
        """Batch form of _label over xs as contiguous int64; it also refuses
        a batch that is not one-dimensional. One max over the uint64 view
        checks both ends of the range: negatives wrap to values >= 2^63."""
        if (query == "function") != (self.model == "function"):
            raise ModelMismatchError(f"{query} query on a {self.model} oracle")
        xs = _as_index_array(xs)
        if xs.ndim != 1:
            raise ValueError(f"a batch must be one-dimensional, got shape {xs.shape}")
        if len(xs) and xs.view(np.uint64).max() >= self.n:
            raise ValueError(f"{'element' if query == 'function' else 'vertex'} out of range")
        return xs if self._in is None else self._in[xs]

    def _visible(self, yi):
        """An instance label, or an array of them, as the caller sees it."""
        return yi if self._out is None else self._out[yi]

    # -- function queries ---------------------------------------------------

    def query_function(self, x: int) -> int:
        xi = self._label(x, "function")
        self._charge()
        return int(self._visible(self._succ[xi]))

    def query_function_many(self, xs) -> np.ndarray:
        """Batch form of query_function; counts len(xs) queries."""
        xi = self._labels(xs, "function")
        self._charge(len(xi))
        return self._visible(self._succ[xi])

    # -- graph queries ------------------------------------------------------

    def query_degree(self, v: int) -> int:
        vi = self._label(v, "degree")
        self._charge()
        return int(self._indptr[vi + 1] - self._indptr[vi])

    def query_neighbor(self, v: int, i: int) -> int:
        vi, i = self._label(v, "neighbor"), int(i)
        d = int(self._indptr[vi + 1] - self._indptr[vi])
        if not 0 <= i < d:
            raise IndexError(f"neighbor index {i} out of range for degree {d}")
        self._charge()
        return int(self._visible(self._indices[self._indptr[vi] + i]))

    def query_degree_many(self, vs) -> np.ndarray:
        """Batch form of query_degree; counts len(vs) queries."""
        vi = self._labels(vs, "degree")
        self._charge(len(vi))
        return self._indptr[vi + 1] - self._indptr[vi]

    def query_neighbor_many(self, vs, is_) -> np.ndarray:
        """Batch form of query_neighbor; counts len(vs) queries."""
        vi = self._labels(vs, "neighbor")
        is_ = _as_index_array(is_)
        if is_.shape != vi.shape:
            raise ValueError("vs and is_ must have matching shapes")
        ds = self._indptr[vi + 1] - self._indptr[vi]
        if (is_ < 0).any() or (is_ >= ds).any():
            raise IndexError("neighbor index out of range")
        self._charge(len(vi))
        return self._visible(self._indices[self._indptr[vi] + is_])


def _unrelabel_witness(oracle: CountedOracle, w: Witness) -> Witness:
    """Map a witness from oracle-visible labels back to instance labels.

    Trusted harness helper; not part of the query surface.
    """
    if oracle._in is None:
        return w
    return Witness(kind=w.kind, vertices=tuple(int(oracle._in[v]) for v in w.vertices))


# ---------------------------------------------------------------------------
# file format


_PLAIN = frozenset((int, float, str, bool, type(None)))


def _jsonable(obj):
    if type(obj) in _PLAIN:  # most leaves; skips the checks below
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        # a list of plain leaves (every tolist() payload) is copied in C
        if _PLAIN.issuperset(map(type, obj)):
            return list(obj)
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def canonical_json(obj) -> str:
    """obj as sorted, compact JSON; a NaN or infinity, which strict JSON
    parsers refuse, raises ValueError instead of being written."""
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def instance_to_jsonable(instance) -> dict:
    header = {
        "model": instance.model,
        "n": instance.n,
        "construction": instance.info.get("construction"),
        "seed": instance.info.get("seed"),
        "parameters": _jsonable(instance.info.get("parameters", {})),
    }
    if instance.model == "function":
        payload = {"succ": instance.succ.tolist()}
    else:
        payload = {"indptr": instance.indptr.tolist(), "indices": instance.indices.tolist()}
    doc = {"format": "qsep-instance", "version": 1, "header": header, "payload": payload}
    if instance.meta is not None:
        doc["meta"] = instance.meta.to_jsonable()
    return doc


def _int_array(values, what: str, length: int | None,
               bound: int | None) -> np.ndarray:
    """A JSON list as an int64 array of ``length`` entries (any length if
    None), each in [0, bound) (any integer if bound is None)."""
    arr = np.asarray(values)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise FileFormatError(f"{what} must be a list of integers")
    if length is not None and len(arr) != length:
        raise FileFormatError(f"{what} has {len(arr)} entries, header n asks for {length}")
    if bound is not None and arr.size and (arr.min() < 0 or arr.max() >= bound):
        raise FileFormatError(f"{what} has entries outside [0, {bound})")
    return arr.astype(np.int64)


def instance_from_jsonable(doc: dict):
    """Parse an instance document; FileFormatError unless its arrays fit
    its header: succ has n entries in [0, n); a graph's indptr has n + 1
    non-decreasing offsets from 0 to len(indices), which lie in [0, n),
    and every arc u->v is matched by an arc v->u, as often."""
    try:
        if doc.get("format") != "qsep-instance":
            raise FileFormatError("not an instance file")
        header, payload = doc["header"], doc["payload"]
        n, model = header["n"], header["model"]
        if type(n) is not int or n < 0:
            raise FileFormatError(f"header n must be an integer >= 0, got {n!r}")
        meta = StructureMeta.from_jsonable(doc["meta"]) if "meta" in doc else None
        info = {
            "construction": header.get("construction"),
            "seed": header.get("seed"),
            "parameters": header.get("parameters", {}),
        }
        if model == "function":
            succ = _int_array(payload["succ"], "succ", n, n)
            return FunctionInstance(n=n, succ=succ, meta=meta, info=info)
        if model != "graph":
            raise FileFormatError(f"unknown model {model!r}")
        indices = _int_array(payload["indices"], "indices", None, n)
        indptr = _int_array(payload["indptr"], "indptr", n + 1, len(indices) + 1)
        degrees = np.diff(indptr)
        if indptr[0] != 0 or indptr[-1] != len(indices) or (degrees < 0).any():
            raise FileFormatError("indptr must rise from 0 to len(indices)")
        # undirected: the arcs u->v, as keys u*n+v, are the reversed arcs
        src = np.repeat(np.arange(n, dtype=np.int64), degrees)
        arcs, back = src * n + indices, indices * n + src
        arcs.sort()
        back.sort()
        if not np.array_equal(arcs, back):
            raise FileFormatError("adjacency is not symmetric: an arc lacks its reverse")
        return GraphInstance(n=n, indptr=indptr, indices=indices, meta=meta, info=info)
    except FileFormatError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        raise FileFormatError(f"malformed instance file ({type(e).__name__}: {e})") from e


def write_json(path, doc) -> None:
    """Write doc as canonical JSON and a newline, the layout of every qsep
    JSON file."""
    with open(path, "w") as fh:
        fh.write(canonical_json(doc) + "\n")


@contextlib.contextmanager
def read_text(path, **kwargs):
    """Open a UTF-8 text file to read. Bytes that are not UTF-8, or a JSON
    parse of text that is not JSON or nests too deep, raise FileFormatError
    naming the file."""
    try:
        with open(path, encoding="utf-8", **kwargs) as fh:
            yield fh
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise FileFormatError(f"{path}: {e}") from None


def read_json(path):
    with read_text(path) as fh:
        return json.load(fh)


def write_instance(instance, path) -> None:
    write_json(path, instance_to_jsonable(instance))


def read_instance(path):
    return instance_from_jsonable(read_json(path))


def write_certificate(cert: Certificate, path) -> None:
    write_json(path, cert.to_jsonable())


def read_certificate(path) -> Certificate:
    return Certificate.from_jsonable(read_json(path))
