"""Small engine utilities shared across stages."""

from __future__ import annotations


def round_half_away(values, digits: int):
    """SQL ROUND semantics: half rounds AWAY from zero, like DuckDB.

    ``np.round`` / ``pc.round`` default to half-to-even and disagree with a
    SQL oracle exactly on representable ties — e.g. 4/512 = 0.0078125 at 6
    digits rounds to 0.007812 (numpy) vs 0.007813 (DuckDB). Only
    power-of-two denominators land exactly on a tie, so the class surfaced
    first in the sf0.1 sweep (doc lengths 128/512). Use this for every
    float column an oracle compares."""
    import numpy as np

    p = 10.0 ** digits
    a = np.asarray(values, dtype=np.float64)
    return np.copysign(np.floor(np.abs(a) * p + 0.5), a) / p
