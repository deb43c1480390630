"""Seeded workload generation.

A workload is a list of CLI invocations (argv after the program name,
without ``--out``) or, for ``library``, a parameter dict for the in-process
pass in library.py. The seed picks the magnetic field B, and in wide-band
also the central level n0, so a claim can be rechecked on an unseen seed
while a pass does the same work on every seed. B rescales every frequency
and time scale together; the grids span a fixed multiple of T_r, so the
phase range and the number of classical periods on a grid
(T_r/T_cl = 4 n0) do not depend on it. n0 does set the peak count, and the
peak walk is O(samples x peaks), so n0 is fixed (the CLI default) wherever
analysis runs. wide-band has no analysis; its n0 range keeps the populated
level count, and so samples x levels, fixed. The program only ever sees the
generated flags.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NAMES = ("default-mix", "long-grid", "wide-band", "library")

# n0 - k >= 0 on these, so the truncated level count depends on sigma only:
# 25 levels at sigma = 3, 287 levels at sigma = 400 (both bands).
_SMALL_N0 = (15, 15)
_WIDE_N0 = (1950, 2050)
_B_TESLA = (5.0, 15.0)


@dataclass(frozen=True)
class Invocation:
    """One CLI run: its argv and the packet it populates (for term counts)."""

    argv: tuple[str, ...]
    n0: int
    sigma: float
    bands: str          # PacketSpec vocabulary: positive | negative | both
    series_samples: int  # output samples x series the rows summarize

    @property
    def command(self) -> str:
        return self.argv[0]


def _field_and_level(rng: random.Random, n0_range: tuple[int, int]) -> tuple[str, int]:
    b = f"{rng.uniform(*_B_TESLA):.3f}"
    return b, rng.randint(*n0_range)


def generate(name: str, seed: int) -> dict:
    """Workload description: {"name", "seed", "invocations" | "library"}."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    rng = random.Random(f"{name}:{seed}")
    b, n0 = _field_and_level(rng, _WIDE_N0 if name == "wide-band" else _SMALL_N0)
    common = ("--B", b, "--n0", str(n0))
    if name == "default-mix":
        invocations = [
            Invocation(("timescales", *common), n0, 3.0, "positive", 0),
            Invocation(("autocorr", *common), n0, 3.0, "positive", 4096),
            Invocation(("current", "--bands", "both", "--gamma-mev", "0.7", *common),
                       n0, 3.0, "both", 4096),
            # six gamma rows, each classifying one 4096-sample series
            Invocation(("gamma-scan", "--gamma-mev", "4", *common),
                       n0, 3.0, "positive", 6 * 4096),
        ]
    elif name == "long-grid":
        invocations = [
            Invocation(("autocorr", "--samples", "100000", *common),
                       n0, 3.0, "positive", 100000),
            Invocation(("current", "--samples", "100000", *common),
                       n0, 3.0, "positive", 100000),
        ]
    elif name == "wide-band":
        invocations = [
            Invocation(("current", "--bands", "both", "--sigma", "400",
                        "--samples", "25000", *common), n0, 400.0, "both", 25000),
        ]
    else:
        return {"name": name, "seed": seed,
                "library": {"B": float(b), "n0": n0, "samples": 40001,
                            "gamma_mev": 0.7, "deloc_n0": 11, "deloc_sigma": 40.0,
                            "hermite_order": 10000, "hermite_points": 4001,
                            "hermite_half_width": 150.0}}
    return {"name": name, "seed": seed, "invocations": invocations}
