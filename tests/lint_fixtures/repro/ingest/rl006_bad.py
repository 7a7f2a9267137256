"""RL006 fixture: a bin window whose dtypes are left to inference.

Record counts must stay int64 and bin values float64; an inferred dtype
turns the counts into floats or the values into ints with the input.
"""

import numpy as np


def make_window(capacity, logged_timestamps):
    # BAD: counts default to float64 -> RL006 here.
    counts = np.zeros(capacity)
    # BAD: a JSON list of ints infers int64 -> RL006 here.
    ts = np.asarray(logged_timestamps)
    # OK: explicit dtype keyword.
    values = np.full(capacity, 0.0, dtype=np.float64)
    return counts, ts, values
