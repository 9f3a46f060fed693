"""Test function catalog for the numeric operator paths.

Each entry carries a value map and enough derivatives for the operators that
consume it. Every entry is a function of one variable, vectorized over numpy
arrays; support_bound A means the function vanishes outside [-A, A] (None
for unbounded support), and the integrals of the numeric layer run over
[-A, A].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass
class TestFunction:
    """A named function R -> C with analytic derivatives.

    gradient(x) returns the derivative. second_derivative is optional and
    only needed by second-order operators.
    """

    name: str
    value: Callable
    gradient: Callable
    support_bound: Optional[float] = None
    second_derivative: Optional[Callable] = None
    # arguments where smoothness degrades (jumps, kinks, flat non-analytic
    # points); integral paths split their meshes here
    corners: tuple = ()

    def __call__(self, x):
        return self.value(x)


def _support_bound(f) -> float:
    """The support bound A of f, its support_bound attribute.

    Integrals over [-A, A] need a positive finite A; anything else raises.
    """
    a = getattr(f, "support_bound", None)
    if a is None:
        raise ValueError("a finite support bound is required")
    a = float(a)
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"support bound {a} must be positive and finite")
    return a


# ---- rank-one catalog entries ----------------------------------------------

def _exp_v(x):
    return np.exp(x)

def _gauss_v(x):
    return np.exp(-np.asarray(x, dtype=float) ** 2 / 2.0)

def _gauss_d(x):
    x = np.asarray(x, dtype=float)
    return -x * np.exp(-x ** 2 / 2.0)

def _gauss_d2(x):
    x = np.asarray(x, dtype=float)
    return (x ** 2 - 1.0) * np.exp(-x ** 2 / 2.0)


def _bump_v(x):
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    u = np.where(inside, 1.0 - x * x, 1.0)
    out = np.where(inside, np.exp(1.0 - 1.0 / u), 0.0)
    return out if out.ndim else float(out)

def _bump_d(x):
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    u = np.where(inside, 1.0 - x * x, 1.0)
    out = np.where(inside, np.exp(1.0 - 1.0 / u) * (-2.0 * x / u ** 2), 0.0)
    return out if out.ndim else float(out)

def _bump_d2(x):
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    u = np.where(inside, 1.0 - x * x, 1.0)
    val = np.exp(1.0 - 1.0 / u)
    out = np.where(inside, val * ((2.0 * x / u ** 2) ** 2 - 2.0 * (1.0 + 3.0 * x * x) / u ** 3), 0.0)
    return out if out.ndim else float(out)


def _indicator_v(x):
    x = np.asarray(x, dtype=float)
    out = np.where(np.abs(x) <= 1.0, 1.0, 0.0)
    return out if out.ndim else float(out)


def _smoothstep(u):
    """C-infinity monotone step, 0 for u<=0 and 1 for u>=1."""
    u = np.asarray(u, dtype=float)
    left = np.where(u > 0.0, u, 1.0)
    right = np.where(u < 1.0, 1.0 - u, 1.0)
    a = np.where(u > 0.0, np.exp(-1.0 / left), 0.0)
    b = np.where(u < 1.0, np.exp(-1.0 / right), 0.0)
    denom = a + b
    denom = np.where(denom == 0.0, 1.0, denom)
    return a / denom

def _smoothstep_d(u):
    """s'(u) = a b (1/u^2 + 1/(1-u)^2) / (a + b)^2, a = e^(-1/u), b = e^(-1/(1-u))."""
    u = np.asarray(u, dtype=float)
    inside = (u > 0.0) & (u < 1.0)
    v = np.where(inside, u, 0.5)
    a, b = np.exp(-1.0 / v), np.exp(-1.0 / (1.0 - v))
    return np.where(inside, a * b * (1.0 / v**2 + 1.0 / (1.0 - v)**2) / (a + b)**2, 0.0)


_W13 = 0.5  # transition width of the smoothed [1,3] indicator

def _ind13_v(x):
    x = np.asarray(x, dtype=float)
    out = _smoothstep((x - 1.0) / _W13) * _smoothstep((3.0 - x) / _W13)
    return out if out.ndim else float(out)

def _ind13_d(x):
    x = np.asarray(x, dtype=float)
    out = (_smoothstep_d((x - 1.0) / _W13) / _W13 * _smoothstep((3.0 - x) / _W13)
           - _smoothstep((x - 1.0) / _W13) * _smoothstep_d((3.0 - x) / _W13) / _W13)
    return out if out.ndim else float(out)


def catalog() -> dict[str, TestFunction]:
    return {
        "exp": TestFunction("exp", _exp_v, _exp_v, None, _exp_v),
        "gaussian": TestFunction("gaussian", _gauss_v, _gauss_d, 8.0, _gauss_d2),
        "bump": TestFunction("bump", _bump_v, _bump_d, 1.0, _bump_d2,
                             corners=(-1.0, 1.0)),
        "indicator": TestFunction("indicator", _indicator_v, lambda x: 0.0 * np.asarray(x, dtype=float),
                                  1.0, corners=(-1.0, 1.0)),
        "ind13": TestFunction("ind13", _ind13_v, _ind13_d, 3.0,
                              corners=(1.0, 1.5, 2.5, 3.0)),
    }


def get_function(name: str) -> TestFunction:
    cat = catalog()
    if name not in cat:
        raise ValueError(f"unknown catalog function {name!r}; have {sorted(cat)}")
    return cat[name]

