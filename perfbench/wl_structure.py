"""structure: one long-lived process analysing a stream of colourings.

Each operation takes one 3-colouring of K_n through `mono_triangles`,
`is_member_gn`, `subgraph_class_counts(G, 5)` and `is_isomorphic` against a
relabelled or altered copy.  A round holds the same kinds and sizes in every
run; the seed picks the labellings, matchings, swaps and random colours.

Blow-ups have few distinct 5-subset listings, so their cost is subset
extraction; random colourings canonicalise hundreds of distinct classes.  A
change to canonicalisation or to subset extraction shows on one family and
not the other.

The isomorphism test compares plain blow-ups and half of the random
colourings with a relabelled copy, and the other colourings with an altered
copy whose colour-degree profiles differ.  Relabelled copies of blow-ups with
a recoloured matching are left out: for n > 10 the backtracking search takes
from under 1 ms to tens of seconds on them, depending on the labelling.
n = 10 gets no isomorphism test: at that size the exhaustive canonical form
takes seconds per graph.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import oracles

BLOWUP_NS = range(10, 26)            # odd n plain, even n with a matching
NEAR_MISS_NS = (12, 15, 18, 21, 24)  # blow-ups with two edge colours swapped
RANDOM_NS = range(8, 21)             # uniformly random colourings
RELABEL_SAMPLE = 3                   # colourings re-counted after relabelling
NO_ISO_N = 10


@dataclass
class Item:
    kind: str                # blowup, blowup-matching, near-miss, random
    family: str              # extremal or random (names the span)
    G: object
    member: bool             # membership known from the construction
    partner: object = None   # copy for the isomorphism test
    isomorphic: bool = False


class Workload:
    def __init__(self, seed, workdir, tracer):
        self.rng = random.Random(seed)
        self.check_rng = random.Random("check-%d" % seed)
        self.tr = tracer

    def setup(self):
        tr = self.tr
        tr.patch("triflag.graphs", "mono_triangles", "graphs.mono_triangles")
        tr.patch("triflag.graphs", "subgraph_class_counts",
                 "graphs.subgraph_class_counts",
                 lambda args, result, calls: (tr.tag, {}))
        tr.patch("triflag.graphs", "canonical_keys_batch",
                 "graphs.canonical_keys_batch",
                 lambda args, result, calls: ("", {"rows": len(args[0])}))
        tr.patch("triflag.graphs", "is_isomorphic", "graphs.is_isomorphic",
                 lambda args, result, calls: (
                     "small" if args[0].n < NO_ISO_N else "large", {}))
        tr.patch("triflag.extremal", "build_gex", "extremal.build_gex")
        tr.patch("triflag.extremal", "is_member_gn", "extremal.is_member_gn")
        from triflag import extremal, graphs
        self.graphs, self.extremal = graphs, extremal
        self.items = self._inputs()

    # -- inputs ---------------------------------------------------------

    def _inputs(self):
        rng, graphs, extremal = self.rng, self.graphs, self.extremal
        items = []
        for n in BLOWUP_NS:
            G = extremal.build_gex(n)
            if n % 2:
                items.append(Item("blowup", "extremal", G, True))
            else:
                items.append(Item("blowup-matching", "extremal",
                                  self._with_matching(G), True))
        for n in NEAR_MISS_NS:
            items.append(Item("near-miss", "extremal",
                              self._near_miss(extremal.build_gex(n)), False))
        for n in RANDOM_NS:
            while True:
                G = graphs.ColouredGraph(
                    n, 3, [rng.randint(1, 3) for _ in range(n * (n - 1) // 2)])
                if oracles.mono_triangles(n, G.entries)["total"] != \
                        graphs.corollary_value(n):
                    break
            items.append(Item("random", "random", G, False))
        for t, item in enumerate(items):
            item.G = self._relabel(item.G)
            if item.G.n == NO_ISO_N:
                continue
            item.isomorphic = item.kind == "blowup" or (
                item.kind == "random" and t % 2 == 0)
            copy = item.G if item.isomorphic else self._altered(item.G)
            item.partner = self._relabel(copy)
        return items

    def _relabel(self, G):
        perm = list(range(G.n))
        self.rng.shuffle(perm)
        return G.relabel(perm)

    def _classes(self, n):
        q, r = divmod(n, 5)
        sizes = [q + 1] * r + [q] * (5 - r)
        starts = [sum(sizes[:i]) for i in range(5)]
        return [list(range(s, s + k)) for s, k in zip(starts, sizes)]

    def _with_matching(self, G):
        """Recolour a matching between two classes of a blow-up with the
        class colour: the result stays in the extremal family."""
        rng = self.rng
        a, b = rng.sample(self._classes(G.n), 2)
        size = rng.randint(1, min(len(a), len(b)))
        mat = G.matrix()
        fill = mat[a[0]][a[1]]
        for u, v in zip(rng.sample(a, size), rng.sample(b, size)):
            mat[u][v] = mat[v][u] = fill
        return self.graphs.ColouredGraph.from_matrix(mat)

    def _swapped(self, G, accept):
        """Swap the colours of two differently coloured edges, retrying
        until `accept(entries)` holds."""
        while True:
            ent = list(G.entries)
            i, j = self.rng.sample(range(len(ent)), 2)
            if ent[i] == ent[j]:
                continue
            ent[i], ent[j] = ent[j], ent[i]
            if accept(ent):
                return self.graphs.ColouredGraph(G.n, G.k, ent)

    def _near_miss(self, G):
        """Off the extremal family: the triangle count leaves the formula."""
        target = self.graphs.corollary_value(G.n)
        return self._swapped(G, lambda ent: oracles.mono_triangles(
            G.n, ent)["total"] != target)

    def _altered(self, G):
        """Not isomorphic to G: the colour-degree profiles differ."""
        profile = oracles.colour_profiles(G.n, G.entries)
        return self._swapped(G, lambda ent: oracles.colour_profiles(
            G.n, ent) != profile)

    # -- operations -----------------------------------------------------

    def round_ops(self):
        return list(range(len(self.items)))

    def run(self, t):
        item = self.items[t]
        graphs = self.graphs
        self.tr.tag = item.family
        mono = graphs.mono_triangles(item.G)
        member, _ = self.extremal.is_member_gn(item.G)
        counts = graphs.subgraph_class_counts(item.G, 5)
        iso = None
        if item.partner is not None:
            iso = graphs.is_isomorphic(item.G, item.partner)
        return mono, member, counts, iso

    def failed(self, t, out, err):
        return err is not None

    def digest(self, out, err):
        return (type(err).__name__, str(err)) if err is not None else out

    # -- checks ---------------------------------------------------------

    def check(self, first):
        problems = []
        graphs = self.graphs
        lambdas = None
        sample = set(self.check_rng.sample(range(len(self.items)),
                                           RELABEL_SAMPLE))
        for t, (item, (out, err)) in enumerate(zip(self.items, first)):
            if err is not None:
                continue            # failed operations are counted
            mono, member, counts, iso = out
            n = item.G.n
            bad = []
            own = oracles.mono_triangles(n, item.G.entries)
            if own != mono:
                bad.append("triangle counts %s, expected %s" % (mono, own))
            if item.member and own["total"] != graphs.corollary_value(n):
                bad.append("blow-up triangle count is not corollary_value")
            if member != item.member:
                bad.append("membership %s" % member)
            if item.partner is not None and iso != item.isomorphic:
                bad.append("isomorphism %s" % iso)
            if sum(counts.values()) != math.comb(n, 5):
                bad.append("class counts do not sum to C(n, 5)")
            if t in sample and graphs.subgraph_class_counts(
                    self._relabel(item.G), 5) != counts:
                bad.append("class counts change under relabelling")
            if item.kind == "blowup":
                if lambdas is None:
                    lambdas = self._shipped_lambdas()
                if any(lambdas[key] != 0 for key in counts):
                    bad.append("a class of the blow-up has lambda != 0")
            problems += ["%s n=%d: %s" % (item.kind, n, b) for b in bad]
        return problems

    def _shipped_lambdas(self):
        from triflag import certificate
        cert = certificate.load_shipped_certificate()
        table = certificate.coefficient_table(cert)
        return oracles.lambdas(cert, table, table.model_keys)
