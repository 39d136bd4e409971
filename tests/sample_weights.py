"""Small weights that several test modules share.

two_cell_weight is the hand-checked scalar weight 1, 4 on the two cells of
level 1; rotating_weight is the n = 2 rotating family at alpha = 0.6, the
matrix weight most unit tests fit, and rotating_setup pairs it with its
operator family at p.
"""

import numpy as np

from haarweight import MatrixWeight, WeightSpec, build_reducing_family, make_weight


def two_cell_weight():
    return MatrixWeight(d=1, n=1, level=1, cells=np.array([[[1.0]], [[4.0]]]))


def rotating_weight(level=4):
    spec = WeightSpec("w", "rotating", d=1, n=2, level=level,
                      params={"alpha": 0.6}, seed=3)
    return make_weight(spec)


def rotating_setup(level=4, p=3.0):
    w = rotating_weight(level)
    return w, build_reducing_family(w, p)
