"""Machine-speed calibration for the benchmark's timings.

On a shared host the same arithmetic can run 1.2-1.7x slower for a few
hundred milliseconds to tens of seconds, while other tenants load the
cores, caches and memory bus. CPU time shows the slowdown as much as wall
time does, so neither CPU time nor a longer run removes it. The benchmark
therefore runs a fixed reference kernel next to every timed operation
(and every set-up) and scales the operation's time by how fast the
reference ran just before and just after it:

    normalized = measured * REFERENCE_MS / (mean of the two reference times)

`REFERENCE_MS` is a constant, so a normalized time reads in milliseconds
of a machine on which the reference takes `REFERENCE_MS`, which is about
what an unloaded 2-core x86-64 VM gives. The kernel is the benchmark's own
frozen code, so no change to `pne` changes it: a point-convolution pass
(gather, per-pair outer products, segment sums, dense contractions,
scatter back) into buffers allocated once, a grid ring search for nearest
neighbors in Python loops, and a chain of small-array numpy calls, the mix
of memory traffic and interpreter work the program's operations are made
of. Each operation keeps its own allocation and page-fault costs; the
reference has none.
"""

import time

import numpy as np

# milliseconds one reference takes on an unloaded 2-core x86-64 VM
# (Xeon, one BLAS thread)
REFERENCE_MS = 25.0
# calibrations on each side of an interval that set its speed: the host's
# speed changes within a second, so only the nearest ones track it
WINDOW = 1


class Clock:
    def __init__(self):
        rng = np.random.default_rng(12345)
        queries, in_f, emb, out_f = 150, 32, 16, 64
        counts = rng.integers(8, 25, size=queries)
        pairs = int(counts.sum())
        self.support = rng.standard_normal((1000, in_f))
        self.starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        self.query_ids = np.repeat(np.arange(queries), counts)
        self.indices = rng.integers(0, len(self.support), size=pairs)
        self.embed = rng.standard_normal((pairs, 1, emb))
        self.kernel = rng.standard_normal((in_f * emb, out_f)) / 20.0
        self.small = rng.standard_normal((16, 16)) / 4.0
        # every large buffer is allocated here, so that a reference run
        # touches no fresh memory and its time does not depend on the allocator
        # state the program left behind
        self.fn = np.empty((pairs, in_f, 1))
        self.z = np.empty((pairs, in_f, emb))
        self.zq = np.empty((queries, in_f * emb))
        self.out = np.empty((queries, out_f))
        self.dq = np.empty((queries, in_f * emb))
        self.dz = np.empty((pairs, in_f * emb))
        self.d_fn = np.empty((pairs, in_f, 1))
        self.d_support = np.empty_like(self.support)
        self.x = np.empty((16, 16))
        self.y = np.empty((16, 16))
        # a grid of occupied cells for the search part
        self.points = rng.uniform(0.0, 8.0, size=(600, 3))
        cells = {}
        for i, c in enumerate(map(tuple, np.floor(self.points).astype(np.int64))):
            cells.setdefault(c, []).append(i)
        self.cell_coords = np.array(list(cells), dtype=np.int64)
        self.cell_points = [np.array(v, dtype=np.int64) for v in cells.values()]
        self.search_queries = self.points[::5]
        self.stamps = []       # midpoint of each calibration (perf_counter)
        self.durations = []    # seconds each calibration took
        self.reference()       # warm the caches

    def reference(self):
        """Run the reference kernel once; returns a checksum so the work
        cannot be skipped."""
        np.take(self.support, self.indices, axis=0, out=self.fn[:, :, 0])
        np.multiply(self.fn, self.embed, out=self.z)                      # (T, I, E)
        np.add.reduceat(self.z.reshape(len(self.z), -1), self.starts, axis=0, out=self.zq)
        np.matmul(self.zq, self.kernel, out=self.out)
        np.tanh(self.out, out=self.out)                                   # (M, O)
        np.matmul(self.out, self.kernel.T, out=self.dq)
        np.take(self.dq, self.query_ids, axis=0, out=self.dz)             # (T, I*E)
        np.matmul(self.dz.reshape(self.z.shape), self.embed.transpose(0, 2, 1), out=self.d_fn)
        self.d_support.fill(0.0)
        np.add.at(self.d_support, self.indices, self.d_fn[:, :, 0])
        x, y = self.x, self.y
        x[...] = self.small
        for _ in range(40):
            np.matmul(x, self.small, out=y)
            np.maximum(y, 0.0, out=y)
            np.add(y, 0.1, out=y)
            np.divide(y, float(np.abs(y).max()) + 1.0, out=x)
        return float(self.d_support.sum() + x.sum()) + self.search()

    def search(self, k=16):
        """Grid ring search for the k nearest points of a few queries: the
        interpreter-bound part, small numpy calls in Python loops."""
        total = 0
        for q in self.search_queries:
            cheb = np.abs(self.cell_coords - np.floor(q).astype(np.int64)).max(axis=1)
            order = np.argsort(cheb, kind="stable")
            cand, found, ci = [], 0, 0
            while ci < len(order) and found < 4 * k:
                hit = self.cell_points[order[ci]]
                cand.append(hit)
                found += len(hit)
                ci += 1
            idx = np.concatenate(cand)
            d = np.linalg.norm(self.points[idx] - q, axis=1)
            sel = idx[np.lexsort((idx, d))[:k]]
            total += int(sel.sum())
        return total

    def calibrate(self):
        t0 = time.perf_counter()
        self.reference()
        t1 = time.perf_counter()
        self.stamps.append(0.5 * (t0 + t1))
        self.durations.append(t1 - t0)

    def factor(self, start, end):
        """REFERENCE_MS over the median reference time of the WINDOW
        calibrations before and the WINDOW after the interval (only those
        of one side at either end of the run)."""
        cut = int(np.searchsorted(self.stamps, 0.5 * (start + end)))
        near = self.durations[max(0, cut - WINDOW):cut + WINDOW]
        return REFERENCE_MS * 1e-3 / float(np.median(near))

    def normalize(self, intervals):
        """Normalized seconds of each (start, end) interval."""
        return [(end - start) * self.factor(start, end) for start, end in intervals]
