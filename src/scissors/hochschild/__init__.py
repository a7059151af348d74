"""Hochschild complexes of finite-dimensional ℚ-algebras.

An algebra is given by exact structure constants with the unit as basis
element 0.  Degree-n chains live in A^⊗(n+1); the subspace Ω_n is the joint
kernel of the inner contractions ε_i, computed as an exact rational kernel,
and carries the boundary b with b∘b = 0.  Homology dimensions are computed in
the normalized model A⊗(A/ℚ·1)^⊗n, whose basis a₀ da₁ … da_n (no unit in the
differential slots) expands triangularly into pure tensors.

Every linear map of the package (the product, chain sums, ε_i, b, the
d-basis expansion, the involutions and the spin action) is one sum of
(tuple, coefficient) terms, netted by the one collector `_collect`.
"""

from fractions import Fraction
from itertools import product

from ..errors import ParseError, SizeCapExceeded
from ..linalg import nullspace_sparse, rank_sparse, rref_sparse

OMEGA_CAP = 65536  # largest A^⊗(n+1) that omega_basis takes a kernel in
MAX_SOURCE = 200_000  # largest normalized source of hochschild_homology
MAX_DIM = 64  # largest dimension of an algebra read from JSON


class NotInOmega(ValueError):
    pass


class WrongAlgebra(ValueError):
    pass


def _collect(pairs) -> dict:
    """{key: Σ value} over the (key, value) pairs, zero sums dropped."""
    out = {}
    for key, value in pairs:
        if key in out:
            out[key] += value
        else:
            out[key] = value
    return {key: value for key, value in out.items() if value}


class FiniteDimAlgebra:
    """Structure-constant algebra over ℚ; basis element 0 is the unit."""

    def __init__(self, dim: int, mul_table, labels=None, name: str = "",
                 conj_signs=None, validate: bool = True):
        self.dim = dim
        self.name = name or f"algebra(dim {dim})"
        self.labels = list(labels) if labels else [f"e{i}" for i in range(dim)]
        # mul_table[i][j] = dict k -> Fraction with e_i e_j = Σ c e_k
        self.mul_table = [
            [{k: Fraction(c) for k, c in cell.items() if c}
             for cell in row]
            for row in mul_table]
        self.conj_signs = list(conj_signs) if conj_signs else None
        if validate:
            self.validate()

    def mul_basis(self, i: int, j: int) -> dict:
        return self.mul_table[i][j]

    def mul_vec(self, u: dict, v: dict) -> dict:
        table = self.mul_table
        return _collect((k, a * b * c) for i, a in u.items()
                        for j, b in v.items()
                        for k, c in table[i][j].items())

    def validate(self):
        for i in range(self.dim):
            if self.mul_basis(0, i) != {i: Fraction(1)}:
                raise ValueError(f"unit law fails at 1·e{i}")
            if self.mul_basis(i, 0) != {i: Fraction(1)}:
                raise ValueError(f"unit law fails at e{i}·1")
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    lhs = self.mul_vec(self.mul_basis(i, j), {k: Fraction(1)})
                    rhs = self.mul_vec({i: Fraction(1)}, self.mul_basis(j, k))
                    if lhs != rhs:
                        raise ValueError(
                            f"associativity fails at ({i},{j},{k})")

    def conj_basis_sign(self, i: int) -> int:
        if self.conj_signs is None:
            raise WrongAlgebra(
                f"{self.name} carries no conjugation involution")
        return self.conj_signs[i]

    def __repr__(self):
        return f"FiniteDimAlgebra({self.name}, dim={self.dim})"


class HochschildChain:
    """Element of A^⊗(n+1): finitely supported map from index tuples to ℚ.
    The constructor checks its terms; the package's own maps use `_of`."""

    def __init__(self, algebra: FiniteDimAlgebra, degree: int, coeffs=None):
        self.algebra = algebra
        self.degree = degree
        self.coeffs = {}
        if coeffs:
            for t, v in coeffs.items():
                v = Fraction(v)
                if v:
                    if len(t) != degree + 1:
                        raise ValueError("tuple length != degree + 1")
                    self.coeffs[tuple(t)] = v

    @classmethod
    def _of(cls, algebra, degree: int, coeffs: dict) -> "HochschildChain":
        """The chain of {tuple of degree + 1: nonzero Fraction}, unchecked."""
        ch = object.__new__(cls)
        ch.algebra, ch.degree, ch.coeffs = algebra, degree, coeffs
        return ch

    def __add__(self, other):
        if other.degree != self.degree and other.coeffs:
            raise ValueError("tuple length != degree + 1")
        return HochschildChain._of(self.algebra, self.degree, _collect(
            [*self.coeffs.items(), *other.coeffs.items()]))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        return HochschildChain._of(
            self.algebra, self.degree,
            {t: scalar * v for t, v in self.coeffs.items()} if scalar else {})

    def __neg__(self):
        return (-1) * self

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, HochschildChain)
                and self.degree == other.degree
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return (f"HochschildChain(deg={self.degree}, "
                f"{len(self.coeffs)} terms)")


def pure_tensor(algebra, *indices) -> HochschildChain:
    return HochschildChain(algebra, len(indices) - 1,
                           {tuple(indices): Fraction(1)})


def _face(table, i: int, n: int, t) -> list:
    """The (tuple, coefficient) terms of face i of the pure tensor t of
    degree n: ε_i for i < n, the cyclic term a_n a₀ ⊗ a₁ ⊗ … ⊗ a_{n−1} for
    i = n."""
    if i < n:
        return [(t[:i] + (k,) + t[i + 2:], c)
                for k, c in table[t[i]][t[i + 1]].items()]
    return [((k,) + t[1:n], c) for k, c in table[t[n]][t[0]].items()]


def _boundary_terms(table, n: int, t) -> list:
    """The terms of b_n = Σ_{i<=n} (−1)^i face_i on the pure tensor t."""
    return [(s, -c if i % 2 else c)
            for i in range(n + 1) for s, c in _face(table, i, n, t)]


def _face_chain(i: int, n: int, chain: HochschildChain) -> HochschildChain:
    table = chain.algebra.mul_table
    return HochschildChain._of(chain.algebra, n - 1, _collect(
        (s, v * c) for t, v in chain.coeffs.items()
        for s, c in _face(table, i, n, t)))


def epsilon(i: int, n: int, chain: HochschildChain) -> HochschildChain:
    """ε_i: contract slots i, i+1 by the multiplication (0 <= i <= n−1)."""
    if not (0 <= i <= n - 1):
        raise IndexError(f"epsilon index {i} out of range for degree {n}")
    if chain.degree != n:
        raise ValueError("degree mismatch")
    return _face_chain(i, n, chain)


def in_omega(chain: HochschildChain) -> bool:
    n = chain.degree
    return all(epsilon(i, n, chain).is_zero() for i in range(n))


def hochschild_boundary(n: int, chain: HochschildChain,
                        check: bool = True) -> HochschildChain:
    """b_n = Σ_{i<n} (−1)^i ε_i + (−1)^n (cyclic); requires chain ∈ Ω_n."""
    if check and not in_omega(chain):
        raise NotInOmega("chain is not in the joint ε-kernel")
    table = chain.algebra.mul_table
    return HochschildChain._of(chain.algebra, n - 1, _collect(
        (s, v * c) for t, v in chain.coeffs.items()
        for s, c in _boundary_terms(table, n, t)))


# -- Ω_n as an exact kernel -----------------------------------------------------

def omega_basis(A: FiniteDimAlgebra, n: int):
    """Exact basis of Ω_n(A) = ∩ ker ε_i inside A^⊗(n+1)."""
    d = A.dim
    if d ** (n + 1) > OMEGA_CAP:
        raise SizeCapExceeded(f"dim^(n+1) = {d ** (n + 1)} > {OMEGA_CAP}")
    tuples = list(product(range(d), repeat=n + 1))
    # row (i, s) of the stacked ε_i; no two terms of a column share a row
    rows = {}
    for col, t in enumerate(tuples):
        for i in range(n):
            for s, c in _face(A.mul_table, i, n, t):
                rows.setdefault((i, s), {})[col] = c
    return [HochschildChain(A, n, {tuples[col]: v for col, v in vec.items()})
            for vec in nullspace_sparse(list(rows.values()), len(tuples))]


# -- normalized model -----------------------------------------------------------

def d_basis_tuples(dim: int, n: int):
    """Index tuples (i₀; i₁..i_n) of the normalized basis, i_j >= 1."""
    return [(i0,) + rest
            for i0 in range(dim)
            for rest in product(range(1, dim), repeat=n)]


def d_basis_chain(A: FiniteDimAlgebra, t) -> HochschildChain:
    """The chain e_{i₀} d e_{i₁} … d e_{i_n} expanded into A^⊗(n+1)."""
    coeffs = {(t[0],): Fraction(1)}
    for idx in t[1:]:
        # ω·da = ω⊗a − (ω with last slot multiplied by a)⊗1
        coeffs = _collect([
            *((s + (idx,), v) for s, v in coeffs.items()),
            *((s[:-1] + (k, 0), -v * c) for s, v in coeffs.items()
              for k, c in A.mul_table[s[-1]][idx].items())])
    return HochschildChain._of(A, len(t) - 1, coeffs)


def _normalized_boundary_columns(A: FiniteDimAlgebra, n: int):
    """Sparse columns of b̄_n in the normalized bases (degree n → n−1).

    Column t is b_n of the pure tensor t with the terms that carry a unit
    in a d-slot dropped."""
    dst = {t: i for i, t in enumerate(d_basis_tuples(A.dim, n - 1))}
    cols = [{dst[s]: v for s, v in _collect(
                _boundary_terms(A.mul_table, n, t)).items() if s in dst}
            for t in d_basis_tuples(A.dim, n)]
    return cols, len(dst)


def normalized_rank_b(A: FiniteDimAlgebra, n: int) -> int:
    """rank of b̄_n over ℚ (0 when n <= 0 or the source is empty): the rank
    of its columns."""
    if n <= 0:
        return 0
    return rank_sparse(*_normalized_boundary_columns(A, n))


def hochschild_homology(A: FiniteDimAlgebra, n: int) -> int:
    """dim_ℚ HH_n(A) = dim ker b̄_n − rank b̄_{n+1} in the normalized model."""
    d = A.dim
    if d * (d - 1) ** (n + 1) > MAX_SOURCE:
        raise SizeCapExceeded("normalized complex too large at degree "
                              f"{n + 1}")
    return (d * (d - 1) ** n - normalized_rank_b(A, n)
            - normalized_rank_b(A, n + 1))


def hochschild_homology_table(A: FiniteDimAlgebra, max_degree: int):
    return [hochschild_homology(A, n) for n in range(max_degree + 1)]


# -- built-in algebras ------------------------------------------------------------

def _table_from_products(dim, prod):
    return [[prod(i, j) for j in range(dim)] for i in range(dim)]


def rationals_algebra() -> FiniteDimAlgebra:
    return FiniteDimAlgebra(1, [[{0: 1}]], labels=["1"], name="Q",
                            conj_signs=[1])


def gaussian_rationals() -> FiniteDimAlgebra:
    # basis 1, i with i² = −1
    def prod(a, b):
        if a == 0:
            return {b: 1}
        if b == 0:
            return {a: 1}
        return {0: -1}

    return FiniteDimAlgebra(2, _table_from_products(2, prod),
                            labels=["1", "i"], name="QI", conj_signs=[1, -1])


_QUAT = {
    (1, 1): (0, -1), (2, 2): (0, -1), (3, 3): (0, -1),
    (1, 2): (3, 1), (2, 1): (3, -1),
    (2, 3): (1, 1), (3, 2): (1, -1),
    (3, 1): (2, 1), (1, 3): (2, -1),
}


def quaternions() -> FiniteDimAlgebra:
    def prod(a, b):
        if a == 0:
            return {b: 1}
        if b == 0:
            return {a: 1}
        k, s = _QUAT[(a, b)]
        return {k: s}

    return FiniteDimAlgebra(4, _table_from_products(4, prod),
                            labels=["1", "i", "j", "k"], name="quat",
                            conj_signs=[1, -1, -1, -1])


def matrix_algebra(n: int) -> FiniteDimAlgebra:
    """M_n(ℚ) on a basis with the unit first: 1, then traceless units."""
    # basis: e_0 = identity; then E_pq for p != q; then E_pp − E_00, in the
    # coordinates of the matrix units E_pq (index p·n + q)
    basis = [{p * n + p: Fraction(1) for p in range(n)}]
    basis += [{p * n + q: Fraction(1)}
              for p in range(n) for q in range(n) if p != q]
    basis += [{p * n + p: Fraction(1), 0: Fraction(-1)} for p in range(1, n)]

    def unit_prod(a, b):
        (p, q), (r, s) = divmod(a, n), divmod(b, n)
        return {p * n + s: 1} if q == r else {}

    return FiniteDimAlgebra(
        n * n, _rebased(basis, _table_from_products(n * n, unit_prod)),
        name=f"mat{n}")


def _rebased(basis, table):
    """Structure constants on a new basis.

    `basis` holds the new basis vectors as sparse rational vectors in the
    old coordinates, and table[i][j] the old product e_i·e_j as a sparse
    vector.  Entry [a][b] of the result is basis[a]·basis[b] in the new
    coordinates.  With T the matrix whose columns are the new basis, the
    reduced echelon form of [T | I] is [I | T⁻¹]."""
    dim = len(basis)
    rows = [{dim + i: Fraction(1)} for i in range(dim)]
    for j, vec in enumerate(basis):
        for i, c in vec.items():
            rows[i][j] = c
    _, reduced = rref_sparse(rows, 2 * dim)
    t_inv = [{j - dim: v for j, v in row.items() if j >= dim}
             for row in reduced]

    def new_coords(vec: dict) -> dict:
        out = {}
        for i, row in enumerate(t_inv):
            acc = sum(row[r] * v for r, v in vec.items() if r in row)
            if acc:
                out[i] = acc
        return out

    old = FiniteDimAlgebra(dim, table, validate=False)
    return [[new_coords(old.mul_vec(u, v)) for v in basis] for u in basis]


_BUILTIN_CACHE: dict = {}


def builtin_algebra(name: str) -> FiniteDimAlgebra:
    if name not in _BUILTIN_CACHE:
        makers = {
            "Q": rationals_algebra,
            "QI": gaussian_rationals,
            "quat": quaternions,
            "mat2": lambda: matrix_algebra(2),
            "mat4": lambda: matrix_algebra(4),
        }
        if name not in makers:
            raise ParseError(f"unknown algebra {name!r}")
        _BUILTIN_CACHE[name] = makers[name]()
    return _BUILTIN_CACHE[name]


def with_unit_first(dim, table, unit_coords):
    """Change basis so the (given) unit vector becomes basis element 0."""
    unit = [Fraction(c) for c in unit_coords]
    pivot = next((i for i, c in enumerate(unit) if c), None)
    if pivot is None:
        raise ValueError("unit vector is zero")
    # new basis: unit first, then the standard vectors except the pivot
    basis = [{i: c for i, c in enumerate(unit) if c}]
    basis += [{i: Fraction(1)} for i in range(dim) if i != pivot]
    return _rebased(basis, table)


def algebra_from_json(obj) -> FiniteDimAlgebra:
    """{"dim": n, "mul": [[[[k, c], ...], ...], ...], "unit": [c, ...]?}.

    mul[i][j] lists the terms c·e_k of e_i·e_j; repeated k are summed.  A
    dimension above MAX_DIM is refused (SizeCapExceeded) before the table
    is read.  When a unit vector is given and is not basis element 0, the
    basis is changed so the unit comes first.  Every malformed field is a
    ParseError.
    """
    from ..io import _integer
    from ..numbers import parse_fraction

    try:
        dim = _integer(obj["dim"], "dim", 1)
        if dim > MAX_DIM:
            raise SizeCapExceeded(
                f"algebra dimension {dim} is above the cap {MAX_DIM}")
        mul = obj["mul"]
        if len(mul) != dim or any(len(row) != dim for row in mul):
            raise ParseError(f"mul must be a {dim}×{dim} table")
        table = [[_collect((_integer(k, "structure-constant index", 0, dim),
                            parse_fraction(str(v))) for k, v in cell)
                  for cell in row]
                 for row in mul]
        unit = obj.get("unit")
        if unit is not None:
            if len(unit) != dim:
                raise ParseError(f"unit must have {dim} coordinates")
            unit = [parse_fraction(str(u)) for u in unit]
            if not any(unit):
                raise ParseError("unit vector is zero")
        labels = obj.get("labels")
        if labels is not None and (not isinstance(labels, list)
                                   or len(labels) != dim):
            raise ParseError(f"labels must be a list of {dim} names")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad algebra JSON: {exc}") from exc
    if unit is not None and unit != [Fraction(int(i == 0))
                                     for i in range(dim)]:
        table = with_unit_first(dim, table, unit)
        labels = None
    try:
        return FiniteDimAlgebra(dim, table, labels=labels,
                                name=obj.get("name", "user"))
    except ValueError as exc:
        raise ParseError(f"bad algebra JSON: {exc}") from exc
