"""
Types, flags and exact densities
================================

"""

import random

from triflag import (ColouredGraph, Flag, avg_coefficient, enumerate_flags,
                     flag_from_vector, identity_flag, ten_types,
                     verify_chain_rule)

# a type is a fully labelled coloured triangle; there are ten of them
types = ten_types()
print([tuple(t.entries) for t in types])

# over a 3-vertex type, a 4-vertex flag is determined by the colours the
# extra vertex sends to the three labels: 27 flags per type
sigma1 = types[0]                       # the all-red triangle
print(len(enumerate_flags(sigma1, 4)))

# the averaging coefficient is a plain probability: inject the type into
# a 5-vertex model at random, split the two leftover vertices at random,
# and ask both sides to induce the chosen flags
f111 = flag_from_vector(sigma1, (1, 1, 1))
all_red = ColouredGraph(5, 3, (1,) * 10)
print(avg_coefficient(sigma1, f111, f111, all_red))     # certain

one_green = list(all_red.matrix())
one_green = [list(r) for r in one_green]
one_green[3][4] = one_green[4][3] = 3
L = ColouredGraph.from_matrix(one_green)
print(avg_coefficient(sigma1, f111, f111, L))           # 1/10

# densities compose through intermediate sizes exactly
rng = random.Random(1)
H = Flag(ColouredGraph(6, 3, tuple(rng.randint(1, 3) for _ in range(15))), ())
F = Flag(ColouredGraph(3, 3, (1, 1, 1)), ())
print(verify_chain_rule(F, 4, H))
print(verify_chain_rule(identity_flag(sigma1), 4,
                        Flag(ColouredGraph(6, 3, (1,) * 15), (0, 1, 2))))
