"""Fixed reference kernel that samples how fast the host runs right now.

The host's cores speed up and slow down from one second to the next, so a
raw iteration time mixes the program's cost with the host's current pace.
Dividing each iteration by this kernel, timed next to it in the same
process, cancels most of that pace.  The kernel mixes the kinds of work the
three workloads are made of: interpreted Python, many small numpy calls on
batch-100 arrays, a small ``einsum``, a batch-1000 matmul and per-stream
Philox normals.  It holds no memory-bound part: a 2-MB ``cumsum`` tried in
its place swung with the neighbours' memory traffic far more than the
lookback and amerasian iterations did.

It imports numpy only, never ``sigfbsde``, so a change to the program can
never change the yardstick.
"""

from __future__ import annotations

import time

import numpy as np


class ReferenceKernel:
    """Owns its arrays; :meth:`run` repeats identical work on every call."""

    def __init__(self):
        rng = np.random.default_rng(20240207)
        self.mat_a = rng.standard_normal((1000, 64))
        self.mat_b = rng.standard_normal((64, 64))
        self.mat_out = np.empty((1000, 64))
        self.small_in = rng.standard_normal((100, 14))
        self.small_w = rng.standard_normal((14, 64))
        self.small_out = np.empty((100, 64))
        self.incs = rng.standard_normal((100, 20, 3))
        self.normals = np.empty((4, 2_500))
        self.bit_gen = np.random.Philox(key=[0, 0])
        self.gen = np.random.Generator(self.bit_gen)
        self.template = self.bit_gen.state
        for _ in range(20):  # fault in pages and warm the caches
            self.run()

    @property
    def nbytes(self) -> int:
        """Bytes held by the kernel's arrays, to keep them out of peak RSS."""
        return sum(a.nbytes for a in (self.mat_a, self.mat_b, self.mat_out, self.small_in,
                                      self.small_w, self.small_out, self.incs,
                                      self.normals))

    def run(self):
        acc = 0.0
        for i in range(1_500):
            acc += i * 0.5
        for _ in range(40):
            np.matmul(self.small_in, self.small_w, out=self.small_out)
            np.maximum(self.small_out, 0.0, out=self.small_out)
            self.small_out.sum(axis=0)
        np.matmul(self.mat_a, self.mat_b, out=self.mat_out)
        np.einsum("bsi,bsj->bij", self.incs, self.incs)
        for row in range(self.normals.shape[0]):
            state = dict(self.template)
            state["state"] = {"counter": np.zeros(4, dtype=np.uint64),
                              "key": np.array([7, row], dtype=np.uint64)}
            self.bit_gen.state = state
            self.gen.standard_normal(out=self.normals[row])

    def timed(self) -> float:
        """Seconds taken by one :meth:`run`."""
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start
