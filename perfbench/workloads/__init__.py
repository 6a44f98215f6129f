"""The benchmark's workloads, by name.

Each module defines a ``Workload`` class with this life cycle, driven by
``run.py``:

* ``__init__(seed, tiny)`` generates every input from the seed, before
  any timing;
* ``setup()`` builds the system and makes one warm-up call (timed as
  set-up, repeated);
* ``start_phase()`` starts a sequence of rounds (``tracing`` tells
  whether spans are recorded); ``min_rounds()`` is its shortest length;
* ``new_round()`` prepares one round without timing it;
* ``run_round(state, laps)`` is the timed round and returns a :class:`Round`;
  it calls ``laps.lap()`` at fixed points of its work and runs any check
  inside the round under ``laps.untimed()`` (``harness.Laps``);
* ``finish_round(state, round)`` checks and records the round, untimed;
  ``priced`` holds the images or tokens the phase's first round computed;
* ``verify()`` runs the oracles after all timing;
* ``layer_values()`` gives the per-layer values the program's own state
  and virtual clock provide (the rest come from spans);
* ``close()`` releases what ``setup()`` holds.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any

NAMES = ("vit_noisy_eval", "decode_prefix_cluster", "vision_memo_cluster")


@dataclass
class Round:
    """What one timed round did."""

    items: int  #: images classified, decode steps completed, or requests resolved
    attempted: int
    failed: int
    outputs: Any = None
    extra: dict = field(default_factory=dict)


def load(name: str):
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    return importlib.import_module(f"workloads.{name}").Workload
