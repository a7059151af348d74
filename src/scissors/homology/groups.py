"""Group homology of finite groups via the coinvariant bar complex.

Homogeneous (g₀, …, g_k)⊗m chains modulo the diagonal action are normalized
to g₀ = 1, so a degree-k generator is (h₁, …, h_k) ⊗ m; deleting the leading
entry renormalizes by h₁⁻¹ and twists the coefficient through the action.
The complex is the normalized one: the degenerate chains, those with two
equal consecutive entries g_{i−1} = g_i (h₁ = 1 among them), span a
subcomplex with no homology, so they and the faces that land on them are
dropped, which leaves (|G| − 1)^k tuples in degree k.
"""

from itertools import product

from ..linalg import mat_mul, net_faces
from . import ChainComplex, HomologyResult, SizeCap, SparseIntMatrix

MAX_GROUP_ORDER = 16
MAX_DEGREE = 4


def check_group_order(n: int) -> None:
    """Refuse a group of order above MAX_GROUP_ORDER before its table is
    built or checked: the table has n² entries and associativity n³."""
    if n > MAX_GROUP_ORDER:
        raise SizeCap(f"group order {n} > {MAX_GROUP_ORDER}")


class FiniteGroup:
    """Multiplication table group; elements are indices 0..n−1, 0 = identity."""

    def __init__(self, table, name: str = ""):
        check_group_order(len(table))
        self.table = [list(map(int, row)) for row in table]
        self.n = len(self.table)
        self.name = name or f"group({self.n})"
        if not self.table:
            raise ValueError("empty group table")
        if any(len(r) != self.n for r in self.table):
            raise ValueError("table must be square")
        if any(self.table[0][j] != j or self.table[j][0] != j
               for j in range(self.n)):
            raise ValueError("element 0 must be the identity")
        self.inv = [None] * self.n
        for a in range(self.n):
            for b in range(self.n):
                if self.table[a][b] == 0:
                    self.inv[a] = b
        if any(v is None for v in self.inv):
            raise ValueError("not a group: missing inverses")
        for a in range(self.n):
            for b in range(self.n):
                for c in range(self.n):
                    if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                        raise ValueError("not associative")

    def mul(self, a, b):
        return self.table[a][b]

    def __len__(self):
        return self.n


def cyclic_group(m: int) -> FiniteGroup:
    check_group_order(m)
    table = [[(a + b) % m for b in range(m)] for a in range(m)]
    return FiniteGroup(table, name=f"Z/{m}")


def symmetric_group_3() -> FiniteGroup:
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    idx = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # (p∘q)(i) = p[q[i]]
        return tuple(p[q[i]] for i in range(3))

    table = [[idx[compose(p, q)] for q in perms] for p in perms]
    return FiniteGroup(table, name="S3")


def trivial_group() -> FiniteGroup:
    return FiniteGroup([[0]], name="1")


class GModule:
    """Finitely generated free ℤ-module with an action matrix per element."""

    def __init__(self, group: FiniteGroup, rank: int, action,
                 name: str = ""):
        self.group = group
        self.rank = rank
        self.action = [
            [list(map(int, row)) for row in action[g]]
            for g in range(group.n)]
        self.name = name or f"module(rank {rank})"
        ident = [[1 if i == j else 0 for j in range(rank)]
                 for i in range(rank)]
        if self.action[0] != ident:
            raise ValueError("identity must act as the identity matrix")
        for a in range(group.n):
            for b in range(group.n):
                if mat_mul(self.action[a], self.action[b]) != \
                        self.action[group.mul(a, b)]:
                    raise ValueError("action is not a homomorphism")

    def act(self, g, vec):
        M = self.action[g]
        return tuple(sum(M[i][j] * vec[j] for j in range(self.rank))
                     for i in range(self.rank))


def trivial_module(group: FiniteGroup, rank: int = 1) -> GModule:
    ident = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    return GModule(group, rank, [ident] * group.n, name="trivial Z"
                   if rank == 1 else f"trivial Z^{rank}")


def induced_module(group: FiniteGroup, subgroup_elements,
                   sub_module: GModule) -> GModule:
    """ℤ[G] ⊗_{ℤ[H]} M for H given by its element indices inside G."""
    H = list(subgroup_elements)
    Hset = set(H)
    reps = []
    covered = set()
    for g in range(group.n):
        if g in covered:
            continue
        reps.append(g)
        for h in H:
            covered.add(group.mul(g, h))
    r = sub_module.rank
    rank = len(reps) * r
    rep_index = {c: i for i, c in enumerate(reps)}

    def locate(g):
        # g = rep · h uniquely
        for c in reps:
            h = group.mul(group.inv[c], g)
            if h in Hset:
                return c, h
        raise ValueError("coset decomposition failed")

    # sub_module is an H-module: its action list is indexed by H positions
    h_index = {h: i for i, h in enumerate(H)}
    action = []
    for g in range(group.n):
        M = [[0] * rank for _ in range(rank)]
        for ci, c in enumerate(reps):
            c2, h = locate(group.mul(g, c))
            A = sub_module.action[h_index[h]]
            for i in range(r):
                for j in range(r):
                    M[rep_index[c2] * r + i][ci * r + j] = A[i][j]
        action.append(M)
    return GModule(group, rank, action,
                   name=f"Z[G]⊗_H {sub_module.name}")


def restricted_group(group: FiniteGroup, elements) -> FiniteGroup:
    """Subgroup on the listed element indices as its own table group."""
    elems = list(elements)
    if elems[0] != 0:
        if 0 in elems:
            elems.remove(0)
            elems.insert(0, 0)
        else:
            raise ValueError("subgroup must contain the identity")
    pos = {g: i for i, g in enumerate(elems)}
    table = [[pos[group.mul(a, b)] for b in elems] for a in elems]
    return FiniteGroup(table, name=f"{group.name}|sub{len(elems)}")


def _nondegenerate(n: int, k: int) -> list:
    """The k-tuples over 0..n−1 with no entry equal to the one before it,
    the first one before them being 0 (the identity), in lex order."""
    return [t for t in product(range(1, n), *[range(n)] * (k - 1))
            if all(a != b for a, b in zip(t, t[1:]))] if k else [()]


def bar_complex(group: FiniteGroup, module: GModule,
                degree_cap: int, _slack: int = 0) -> ChainComplex:
    """Normalized coinvariant bar complex: in degree k, the nondegenerate
    tuples of G^k times basis(M)."""
    if degree_cap > MAX_DEGREE + _slack:
        raise SizeCap(f"degree cap {degree_cap - _slack} > {MAX_DEGREE}")
    if group.n ** degree_cap * module.rank > 300_000:
        raise SizeCap("bar complex too large")
    r = module.rank
    basis = {}
    index = {}
    for k in range(degree_cap + 1):
        basis[k] = [(t, m) for t in _nondegenerate(group.n, k)
                    for m in range(r)]
        index[k] = {b: i for i, b in enumerate(basis[k])}
    ranks = {k: len(basis[k]) for k in basis}
    boundaries = {}
    for k in range(1, degree_cap + 1):
        mat = SparseIntMatrix(ranks[k - 1], ranks[k])
        below = index[k - 1]
        for col, (t, m) in enumerate(basis[k]):
            h1 = t[0]
            inv = group.inv[h1]
            # face 0: renormalize to leading identity, twist the coefficient;
            # a degenerate face is absent from `below` and dropped
            shifted = tuple(group.mul(inv, g) for g in t[1:])
            unit = tuple(1 if i == m else 0 for i in range(r))
            acted = module.act(inv, unit)
            for i, coeff in enumerate(acted):
                row = below.get((shifted, i))
                if coeff and row is not None:
                    mat.add_at(row, col, coeff)
            # faces 1..k: plain deletions, face i the face i − 1 of t
            for face, c in net_faces([(-1, t)]).items():
                row = below.get((face, m))
                if row is not None:
                    mat.add_at(row, col, c)
        boundaries[k] = mat
    return ChainComplex(ranks, boundaries, labels=basis)


def group_homology(group: FiniteGroup, module: GModule, degree_cap: int):
    # one slack degree so H_cap sees the boundary coming from above
    cx = bar_complex(group, module, degree_cap + 1, _slack=1)
    return [cx.homology(k) for k in range(degree_cap + 1)]


def cyclic_homology_oracle(m: int, k: int) -> HomologyResult:
    """H_k(ℤ/m; ℤ) from the periodic resolution: ℤ, ℤ/m, 0, ℤ/m, 0, ..."""
    if k == 0:
        return HomologyResult(0, 1, ())
    if k % 2 == 1:
        return HomologyResult(k, 0, (m,) if m > 1 else ())
    return HomologyResult(k, 0, ())


def shapiro_check(group: FiniteGroup, subgroup_elements, sub_module: GModule,
                  degree_cap: int) -> bool:
    """H_*(G, ℤ[G]⊗_{ℤH} M) == H_*(H, M) degreewise up to the cap."""
    induced = induced_module(group, subgroup_elements, sub_module)
    lhs = group_homology(group, induced, degree_cap)
    rhs = group_homology(sub_module.group, sub_module, degree_cap)
    return all(a.betti == b.betti and a.torsion == b.torsion
               for a, b in zip(lhs, rhs))
