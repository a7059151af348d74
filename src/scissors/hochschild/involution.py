"""Conjugation involutions, eigenspace splits and the unit-spin action on
quaternion Hochschild chains.

Two involutions coexist: slotwise conjugation a₀⊗a₁ ↦ a₀*⊗a₁* on all of A⊗A
(used for the (H⊗H)⁻ eigenspace and the wedge identification), and the
chain-level involution on Ω_n — τ(a₀da₁) = −a₀*d(a₁*) in degree 1, with the
degree sign (−1)^{(n−2)(n−3)/2} and reversal of the d-slots in higher degree —
which commutes with b and restricts the complex to its ±1 eigenparts.  On I₁
the two differ by a global sign.

Each map is one sum of (tuple, coefficient) terms through the package's
collector `_collect`, and every ±1 eigenpart, of either involution, is the
one projection `_eigenpart`: (c ± τc)/2.
"""

from fractions import Fraction

from ..linalg import nullspace_sparse, rank_sparse, rref_sparse
from . import (
    FiniteDimAlgebra,
    HochschildChain,
    NotInOmega,
    WrongAlgebra,
    _collect,
    _face_chain,
    d_basis_chain,
    d_basis_tuples,
    epsilon,
    hochschild_boundary,
    in_omega,
    omega_basis,
    pure_tensor,
)


class NotStable(ValueError):
    pass


class NotUnitNorm(ValueError):
    pass


def tau_slotwise(chain: HochschildChain) -> HochschildChain:
    """Slotwise conjugation on A^⊗(n+1) (diagonal on the standard basis)."""
    A = chain.algebra
    out = {}
    for t, v in chain.coeffs.items():
        s = 1
        for i in t:
            s *= A.conj_basis_sign(i)
        if s:
            out[t] = v * s
    return HochschildChain._of(A, chain.degree, out)


def _omega_coordinates(chain: HochschildChain) -> dict:
    """Coordinates of an Ω_n element in the d-basis (triangular readout)."""
    if not in_omega(chain):
        raise NotInOmega("chain is not in Ω_n")
    # validity is implied: the d-basis expansion is triangular with leading
    # pure tensors exactly the unit-free tuples
    return {t: v for t, v in chain.coeffs.items() if 0 not in t[1:]}


def tau_chain(n: int, chain: HochschildChain) -> HochschildChain:
    """The chain-level involution on Ω_n (commutes with b, squares to id).

    τ(a₀ da₁ … da_n) = (−1)^{n(n+1)/2} a₀* da_n* … da₁*: the unique sign and
    reversal extending τ(a₀da₁) = −a₀*d(a₁*) that commutes with b in the
    A^⊗(n+1) model of Ω_n.  On Ω₀ = A it is the conjugation.
    """
    if n == 0:
        return tau_slotwise(chain)
    A = chain.algebra
    terms = []
    for t, v in _omega_coordinates(chain).items():
        s = (-1) ** (n * (n + 1) // 2) * v
        for i in t:
            s *= A.conj_basis_sign(i)
        image = d_basis_chain(A, (t[0],) + t[:0:-1])
        terms += [(u, s * w) for u, w in image.coeffs.items()]
    return HochschildChain._of(A, n, _collect(terms))


def tau_swap(chain: HochschildChain) -> HochschildChain:
    """a₀⊗a₁ ↦ a₁*⊗a₀*: the orientation-reversing component's involution.

    This is the eigenspace decomposition under which a₀⊗a₁ ↦ a₀∧a₁* is an
    isomorphism of the minus part onto ⋀²(A).
    """
    A = chain.algebra
    # the swap permutes the tuples, so no two terms meet
    return HochschildChain(A, 1, {
        (j, i): v * A.conj_basis_sign(i) * A.conj_basis_sign(j)
        for (i, j), v in chain.coeffs.items()})


def tau(n: int, chain: HochschildChain) -> HochschildChain:
    """Public involution: slotwise in degree <= 1, chain-level above."""
    if n <= 1:
        return tau_slotwise(chain)
    return tau_chain(n, chain)


# -- eigenspace machinery ---------------------------------------------------------

def _eigenpart(chains, involution, sign):
    """The nonzero (c + sign·τc)/2 of the chains: their τ = sign parts."""
    half = Fraction(1, 2)
    parts = (half * (c + sign * involution(c)) for c in chains)
    return [p for p in parts if not p.is_zero()]


def _chains_to_rows(chains):
    tuples = sorted({t for c in chains for t in c.coeffs})
    index = {t: i for i, t in enumerate(tuples)}
    rows = [{index[t]: v for t, v in c.coeffs.items()} for c in chains]
    return rows, tuples


def span_dim(chains) -> int:
    rows, tuples = _chains_to_rows(chains)
    return rank_sparse(rows, len(tuples))


def span_equal(chains_a, chains_b) -> bool:
    """Equality of ℚ-spans inside A^⊗(n+1)."""
    both = list(chains_a) + list(chains_b)
    da, db, dboth = span_dim(chains_a), span_dim(chains_b), span_dim(both)
    return da == db == dboth


def eigenspace_split(chains, involution):
    """(plus basis, minus basis) of a τ-stable span of chains."""
    plus = _eigenpart(chains, involution, 1)
    minus = _eigenpart(chains, involution, -1)
    # stability check: τ maps the span into itself
    if span_dim(list(chains) + plus + minus) != span_dim(list(chains)):
        raise NotStable("involution leaves the span")
    return _reduce_basis(plus), _reduce_basis(minus)


def _reduce_basis(chains):
    if not chains:
        return []
    rows, tuples = _chains_to_rows(chains)
    _, reduced = rref_sparse(rows, len(tuples))
    A, deg = chains[0].algebra, chains[0].degree
    return [HochschildChain(A, deg, {tuples[j]: v for j, v in row.items()})
            for row in reduced]


def tensor_square_basis(A: FiniteDimAlgebra):
    return [pure_tensor(A, i, j)
            for i in range(A.dim) for j in range(A.dim)]


def _columns_to_rows(cols, nrows):
    rows = [dict() for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            rows[i][j] = v
    return rows


def kernel_in_span(basis_chains, operator):
    """Chains spanning ker(operator) within the span of the given basis."""
    if not basis_chains:
        return []
    cols, tuples = _chains_to_rows([operator(c) for c in basis_chains])
    combos = nullspace_sparse(_columns_to_rows(cols, len(tuples)),
                              len(basis_chains))
    A = basis_chains[0].algebra
    deg = basis_chains[0].degree
    return [HochschildChain._of(A, deg, _collect(
        (t, v * w) for j, v in vec.items()
        for t, w in basis_chains[j].coeffs.items())) for vec in combos]


def wedge_rank_of_minus(A: FiniteDimAlgebra) -> int:
    """Rank of (A⊗A)⁻ → ⋀²(A), a₀⊗a₁ ↦ a₀ ∧ a₁*.

    The minus eigenspace here is that of the swap-conjugation involution
    a₀⊗a₁ ↦ a₁*⊗a₀* (slotwise conjugation would send both 1⊗i and i⊗1 to
    multiples of 1∧i and only reach rank 3).
    """
    _, minus = eigenspace_split(tensor_square_basis(A), tau_swap)
    pairs = [(p, q) for p in range(A.dim) for q in range(p + 1, A.dim)]
    index = {pq: i for i, pq in enumerate(pairs)}
    rows = [_collect(
        (index[min(i, j), max(i, j)],
         (v if i < j else -v) * A.conj_basis_sign(j))
        for (i, j), v in chain.coeffs.items() if i != j) for chain in minus]
    return rank_sparse(rows, len(pairs))


# -- spin action ------------------------------------------------------------------

def quat_conj(A: FiniteDimAlgebra, u: dict) -> dict:
    return {i: v * A.conj_basis_sign(i) for i, v in u.items()}


def unit_quaternion(A: FiniteDimAlgebra, coords) -> dict:
    q = {i: Fraction(c) for i, c in enumerate(coords) if Fraction(c)}
    norm = A.mul_vec(q, quat_conj(A, q))
    if norm != {0: Fraction(1)}:
        raise NotUnitNorm(f"|q|² = {norm.get(0, 0)} != 1")
    return q


def spin_action(q1: dict, q2: dict, n: int,
                chain: HochschildChain) -> HochschildChain:
    """σ(a₀⊗…⊗a_n) = q₁a₀q₂* ⊗ q₂a₁q₁* ⊗ q₁a₂q₁* ⊗ … ⊗ q₁a_nq₁*."""
    A = chain.algebra
    if A.conj_signs is None:
        raise WrongAlgebra("spin action needs a conjugation algebra")
    # images[min(slot, 2)][i]: the slot's map on the basis element e_i
    images = [[A.mul_vec(A.mul_vec(left, {i: Fraction(1)}),
                         quat_conj(A, right)) for i in range(A.dim)]
              for left, right in ((q1, q2), (q2, q1), (q1, q1))]

    def expand(t, v):
        # the tensor product of the slot images; its tuples are distinct
        partial = [((), v)]
        for s, i in enumerate(t):
            image = images[min(s, 2)][i]
            partial = [(key + (k,), coeff * c) for key, coeff in partial
                       for k, c in image.items()]
        return partial

    return HochschildChain._of(A, n, _collect(
        term for t, v in chain.coeffs.items() for term in expand(t, v)))


# -- the (ε₀, −ε₁) audit -----------------------------------------------------------

def ses_audit(A: FiniteDimAlgebra) -> dict:
    """Exact ranks for 0 → I₁⁻ → (A⊗A)⁻ → A⁻⊕A⁻ under (ε₀, −ε₁cyclic).

    ε₁ is the cyclic multiplication a₀⊗a₁ ↦ a₁a₀ (the second term of b₁).
    Reports dimensions instead of asserting exactness; over the ℚ-rational
    quaternions the image is the antidiagonal, so the cokernel is nonzero.
    """
    _, minus_basis = eigenspace_split(tensor_square_basis(A), tau_slotwise)
    minus_dim = len(minus_basis)
    # target: A⁻ ⊕ A⁻ with A⁻ the −1 eigenspace of conjugation
    neg_idx = [i for i in range(A.dim) if A.conj_basis_sign(i) == -1]
    tgt_index = {}
    for pos, i in enumerate(neg_idx):
        tgt_index[("l", i)] = pos
        tgt_index[("r", i)] = len(neg_idx) + pos
    rows = []
    for chain in minus_basis:
        terms = [("l", t[0], v)
                 for t, v in epsilon(0, 1, chain).coeffs.items()]
        terms += [("r", t[0], -v)
                  for t, v in _face_chain(1, 1, chain).coeffs.items()]
        if any(A.conj_basis_sign(i) == 1 for _, i, _ in terms):
            # lands outside A⁻: not in the minus complex
            raise NotStable("(ε₀, −ε₁) does not land in A⁻⊕A⁻")
        rows.append({tgt_index[side, i]: v for side, i, v in terms})
    image_dim = rank_sparse(rows, 2 * len(neg_idx))
    kernel_dim = minus_dim - image_dim
    # I₁⁻ computed independently: ker(b₁|Ω₁) ∩ minus eigenspace
    i1 = kernel_in_span(omega_basis(A, 1),
                        lambda c: hochschild_boundary(1, c, check=False))
    i1_minus_dim = span_dim(_eigenpart(i1, tau_slotwise, -1))
    # the antidiagonal {(x, −x)} inside A⁻⊕A⁻ for the discrepancy note
    anti = []
    for i in neg_idx:
        anti.append({tgt_index[("l", i)]: Fraction(1),
                     tgt_index[("r", i)]: Fraction(-1)})
    image_in_antidiagonal = rank_sparse(rows + anti, 2 * len(neg_idx)) == \
        max(image_dim, len(neg_idx))
    return {
        "minus_dim": minus_dim,
        "kernel_dim": kernel_dim,
        "image_dim": image_dim,
        "cokernel_dim": 2 * len(neg_idx) - image_dim,
        "i1_minus_dim": i1_minus_dim,
        "kernel_equals_i1_minus": kernel_dim == i1_minus_dim,
        "image_in_antidiagonal": image_in_antidiagonal,
        "right_exact_over_Q": 2 * len(neg_idx) == image_dim,
    }


def i2_equals_b2_minus(A: FiniteDimAlgebra) -> bool:
    """I₂(A)⁻ = B₂(A)⁻ as subspaces of Ω₂ (chain-level τ eigenspaces).

    B₂ is b₃ of the d-basis of Ω₃."""
    i2 = kernel_in_span(omega_basis(A, 2),
                        lambda c: hochschild_boundary(2, c, check=False))
    b2 = [hochschild_boundary(3, d_basis_chain(A, t), check=False)
          for t in d_basis_tuples(A.dim, 3)]

    def tau2(c):
        return tau_chain(2, c)

    return span_equal(_eigenpart(i2, tau2, -1), _eigenpart(b2, tau2, -1))
