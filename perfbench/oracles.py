"""Independent checks of the program's outputs.

Everything here is computed by this directory's own loops from raw colour
listings and rational entries, apart from `sympy_psd`, which asks sympy's
exact `is_positive_semidefinite`.  None of it calls the package's
algorithms; the package's data classes are only read.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations


def colour_matrix(n, entries):
    """n x n colour matrix from a row-major upper-triangle listing."""
    mat = [[0] * n for _ in range(n)]
    t = 0
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = entries[t]
            t += 1
    return mat


def mono_triangles(n, entries):
    """Monochromatic triangles per colour, and their total."""
    mat = colour_matrix(n, entries)
    per = {1: 0, 2: 0, 3: 0}
    for a in range(n):
        for b in range(a + 1, n):
            c_ab = mat[a][b]
            for c in range(b + 1, n):
                if mat[a][c] == c_ab and mat[b][c] == c_ab:
                    per[c_ab] += 1
    per["total"] = per[1] + per[2] + per[3]
    return per


def colour_profiles(n, entries):
    """Sorted multiset of per-vertex colour-degree counts (an isomorphism
    invariant)."""
    mat = colour_matrix(n, entries)
    return sorted(tuple(sum(1 for u in range(n) if u != v and mat[v][u] == c)
                        for c in (1, 2, 3)) for v in range(n))


BAD_PATTERNS = {(2, 1, 0), (1, 1, 1), (0, 2, 1)}


def has_bad_subgraph(key):
    """Whether a 5-vertex model has a 4-subset from the bad family: a
    monochromatic triangle in colour c whose other three edges carry
    (i, j, k) edges of colour c, of the more frequent and of the less
    frequent other colour, with (i, j, k) in BAD_PATTERNS."""
    mat = colour_matrix(5, key)
    for quad in combinations(range(5), 4):
        edges = [mat[a][b] for a, b in combinations(quad, 2)]
        for c in (1, 2, 3):
            if not any(all(mat[a][b] == c for a, b in combinations(tri, 2))
                       for tri in combinations(quad, 3)):
                continue
            others = sorted((edges.count(d) for d in (1, 2, 3) if d != c),
                            reverse=True)
            if (edges.count(c) - 3, *others) in BAD_PATTERNS:
                return True
    return False


def injections(type_entries, model_entries):
    """Ordered vertex triples of a 5-vertex model that induce the labelled
    3-vertex type."""
    t01, t02, t12 = type_entries
    mat = colour_matrix(5, model_entries)
    return sum(1 for a, b, c in permutations(range(5), 3)
               if mat[a][b] == t01 and mat[a][c] == t02 and mat[b][c] == t12)


def lambdas(cert, table, keys):
    """lambda_k = p(mono K3, M_k) - bound - sum_r <Q^r, A[r][k]>, summed
    here over the table's cells, for each model key in `keys`."""
    out = {}
    for key in keys:
        lam = Fraction(mono_triangles(5, key)["total"], 10) - cert.bound
        for r, block in enumerate(cert.blocks):
            q = block.Q.rows
            lam -= Fraction(sum(q[i][j] * c for (i, j), c
                                in table.counts[r][key].items()), 120)
        out[key] = lam
    return out


def table_sum_rule(cert, table, keys):
    """Problems with the table's sum rule: for each block and model, the
    cells add up to twice the injections of the block's type, and the
    table's injection count is the one counted here."""
    problems = []
    for key in keys:
        for r, block in enumerate(cert.blocks):
            inj = injections(block.type_sigma.entries, key)
            cells = sum(table.counts[r][key].values())
            if cells != 2 * inj or table.valid_injections[r][key] != inj:
                problems.append("table sum rule fails at block %d model %s"
                                % (r + 1, bytes(key).hex()))
    return problems


def quadratic_form(rows, v):
    """v^T Q v, exactly."""
    n = len(rows)
    return sum((Fraction(v[i]) * rows[i][j] * Fraction(v[j])
                for i in range(n) if v[i] for j in range(n) if v[j]),
               Fraction(0))


def sympy_psd(rows):
    import sympy
    return bool(sympy.Matrix(rows).is_positive_semidefinite)


def is_permuted_copy(block, base, perm):
    """True when `block` lists `base`'s flags in the order `perm`, with Q
    permuted to match (a congruence, so the PSD verdict carries over)."""
    n = len(perm)
    return (block.type_sigma.entries == base.type_sigma.entries
            and all(block.vectors[i] == base.vectors[perm[i]]
                    for i in range(n))
            and all(block.Q.rows[i][j] == base.Q.rows[perm[i]][perm[j]]
                    for i in range(n) for j in range(n)))

