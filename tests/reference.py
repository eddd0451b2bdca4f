"""Reference algorithms that the tests hold the engine against."""

from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from oconf.linalg import EchelonBasis


def solve_row_combination(rows: Sequence[Dict[int, Fraction]], target: Dict[int, Fraction]) -> Optional[List[Fraction]]:
    """Express `target` as a linear combination of `rows`; None if inconsistent.

    A fresh transposed elimination per call, independent of the augmented
    rows behind `EchelonBasis.coordinates`.  The rows need not be
    independent; the solution with every free coefficient 0 is returned.
    """
    # Unknowns are the coefficients c_0..c_{n-1} plus column n for the
    # right-hand side: coordinate j gives sum_i c_i rows[i][j] - target[j] x_n = 0.
    n = len(rows)
    eqs: Dict[int, Dict[int, Fraction]] = {}
    for i, r in enumerate(rows):
        for j, v in r.items():
            eqs.setdefault(j, {})[i] = v
    for j, t in target.items():
        if t:
            eqs.setdefault(j, {})[n] = t
    eb = EchelonBasis(eqs.values())
    if n in eb.rows:
        return None  # inconsistent
    x = eb.kernel_vector({n: Fraction(-1)})
    return [x.get(i, Fraction(0)) for i in range(n)]
