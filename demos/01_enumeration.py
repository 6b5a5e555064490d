"""
Counting edge-coloured complete graphs up to isomorphism
========================================================

"""

from triflag import canonical_key, count_models_polya, enumerate_models

# the number of 3-colourings of K_l up to colour-preserving isomorphism
for l in range(6):
    models = enumerate_models(l, 3)
    print("l=%d: %d classes" % (l, len(models)))

# the same numbers from the cycle index of the symmetric group acting on
# vertex pairs; a completely independent computation
for l in range(6):
    print("l=%d: polya says %d" % (l, count_models_polya(l, 3)))

# a canonical key is a relabelling-invariant fingerprint
models = enumerate_models(3, 3)
for M in models:
    print(canonical_key(M).hex(), tuple(M.entries))

# relabelling never changes the key
M = models[4]
print(canonical_key(M) == canonical_key(M.relabel((2, 0, 1))))
