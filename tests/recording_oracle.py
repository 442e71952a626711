"""A CountedOracle that logs the queries it answers, for tests that pin
query sequences. The library's oracle keeps no log."""

import numpy as np

from qsep.oracle import CountedOracle


class RecordingOracle(CountedOracle):
    """``transcript`` holds each answered query, in order, as a (query,
    answer) pair of Python ints: ``(x, y)`` for a function query,
    ``(("deg", v), d)`` for a degree query and ``(("nbr", v, i), w)`` for
    a neighbour query. Each method logs only after the oracle's own call
    returns, so a query the oracle refuses raises before it is logged."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.transcript = []

    def query_function(self, x):
        y = super().query_function(x)
        self.transcript.append((int(x), y))
        return y

    def query_function_many(self, xs):
        ys = super().query_function_many(xs)
        self.transcript.extend(zip(_ints(xs), ys.tolist()))
        return ys

    def query_degree(self, v):
        d = super().query_degree(v)
        self.transcript.append((("deg", int(v)), d))
        return d

    def query_neighbor(self, v, i):
        w = super().query_neighbor(v, i)
        self.transcript.append((("nbr", int(v), int(i)), w))
        return w

    def query_degree_many(self, vs):
        ds = super().query_degree_many(vs)
        self.transcript.extend((("deg", v), d) for v, d in zip(_ints(vs), ds.tolist()))
        return ds

    def query_neighbor_many(self, vs, is_):
        ws = super().query_neighbor_many(vs, is_)
        self.transcript.extend((("nbr", v, i), w) for v, i, w
                               in zip(_ints(vs), _ints(is_), ws.tolist()))
        return ws


def _ints(a) -> list:
    """A batch's labels as the oracle reads them: cast to int64."""
    return np.asarray(a, dtype=np.int64).tolist()
