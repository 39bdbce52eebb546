"""The three desk workloads.

A workload is a config for ``harness.load_config`` (desk shapes, one run,
``workers=1``) with a shortened iteration count, so that a whole run fits in
a benchmark round.  Why each one is there is written in ``BENCHMARK.json``
and the README.  This module imports no numpy, so a worker can load it
before it starts timing the import of ``sigfbsde``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    warmup: int      # leading iterations of a round left out of the timings
    checks: tuple    # output checks run on every round, see references.run_checks

    @property
    def iterations(self) -> int:
        return self.overrides["iterations"]


WORKLOADS = {w.name: w for w in (
    Workload("lookback-forward",
             {"experiment": "lookback", "profile": "desk", "method": "forward",
              "iterations": 200, "runs": 1, "workers": 1},
             warmup=20, checks=("estimate", "loss", "outputs")),
    Workload("amerasian-reflected",
             {"experiment": "amerasian", "profile": "desk", "method": "reflected",
              "iterations": 100, "runs": 1, "workers": 1},
             warmup=10, checks=("estimate", "oracle", "loss", "outputs")),
    Workload("quadratic-d100-embed",
             {"experiment": "quadratic", "profile": "desk", "method": "backward",
              "d": 100, "iterations": 15, "runs": 1, "workers": 1},
             warmup=1, checks=("estimate", "outputs")),
)}
