"""Runtime support for compiled blocks: guarded libm and conversion helpers.

The guarded wrappers give the C-library behaviour the workloads expect
(NaN/inf results) instead of Python exceptions — important because a
bit-flipped operand can push any intrinsic into its edge cases, and the
fault model wants those cases to *propagate* (and possibly be detected or
verified away), not crash the interpreter itself.
"""

from __future__ import annotations

import math
import struct
from typing import Dict


def guarded_sqrt(x: float) -> float:
    if x != x:
        return x
    if x < 0.0:
        return math.nan
    try:
        return math.sqrt(x)
    except (OverflowError, ValueError):
        return math.nan


def guarded_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def guarded_log(x: float) -> float:
    if x != x:
        return x
    if x < 0.0:
        return math.nan
    if x == 0.0:
        return -math.inf
    try:
        return math.log(x)
    except (OverflowError, ValueError):
        return math.nan


def guarded_pow(x: float, y: float) -> float:
    try:
        r = math.pow(x, y)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.nan
    return r


def guarded_sin(x: float) -> float:
    try:
        return math.sin(x)
    except (OverflowError, ValueError):
        return math.nan


def guarded_cos(x: float) -> float:
    try:
        return math.cos(x)
    except (OverflowError, ValueError):
        return math.nan


def guarded_floor(x: float) -> float:
    if x != x or math.isinf(x):
        return x
    return float(math.floor(x))


def guarded_fmin(a: float, b: float) -> float:
    # C fmin: if one argument is NaN, return the other.
    if a != a:
        return b
    if b != b:
        return a
    return a if a < b else b


def guarded_fmax(a: float, b: float) -> float:
    if a != a:
        return b
    if b != b:
        return a
    return a if a > b else b


def int_bits_to_double(u: int) -> float:
    (x,) = struct.unpack("<d", struct.pack("<Q", u & 0xFFFFFFFFFFFFFFFF))
    return x


def double_to_int_bits(x: float) -> int:
    try:
        (u,) = struct.unpack("<Q", struct.pack("<d", float(x)))
    except (OverflowError, ValueError):
        u = 0
    if u >= 1 << 63:
        u -= 1 << 64
    return u


#: names injected into the namespace of every compiled block
EXEC_GLOBALS: Dict[str, object] = {
    "__builtins__": {
        "abs": abs,
        "bool": bool,
        "float": float,
        "int": int,
        "range": range,
        "type": type,
        "IndexError": IndexError,
    },
    "_INF": math.inf,
    "_NAN": math.nan,
    "_fmod": math.fmod,
    "_sqrt": guarded_sqrt,
    "_fabs": abs,
    "_sin": guarded_sin,
    "_cos": guarded_cos,
    "_exp": guarded_exp,
    "_log": guarded_log,
    "_pow": guarded_pow,
    "_floor": guarded_floor,
    "_fmin": guarded_fmin,
    "_fmax": guarded_fmax,
    "_i2f": int_bits_to_double,
    "_f2i": double_to_int_bits,
}
