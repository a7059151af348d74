"""Conjugation involutions, eigenspace splits and the unit-spin action on
quaternion Hochschild chains.

Two involutions coexist: slotwise conjugation a₀⊗a₁ ↦ a₀*⊗a₁* on all of A⊗A
(used for the (H⊗H)⁻ eigenspace and the wedge identification), and the
chain-level involution on Ω_n — τ(a₀da₁) = −a₀*d(a₁*) in degree 1, with the
degree sign (−1)^{(n−2)(n−3)/2} and reversal of the d-slots in higher degree —
which commutes with b and restricts the complex to its ±1 eigenparts.  On I₁
the two differ by a global sign.
"""

from fractions import Fraction
from itertools import product

from ..linalg import rank_sparse, rref_sparse
from . import (
    FiniteDimAlgebra,
    HochschildChain,
    NotInOmega,
    WrongAlgebra,
    d_basis_chain,
    d_basis_tuples,
    epsilon,
    in_omega,
)


class NotStable(ValueError):
    pass


class NotUnitNorm(ValueError):
    pass


def conj_vector(A: FiniteDimAlgebra, vec: dict) -> dict:
    return {i: v * A.conj_basis_sign(i) for i, v in vec.items()}


def tau_slotwise(chain: HochschildChain) -> HochschildChain:
    """Slotwise conjugation on A^⊗(n+1) (diagonal on the standard basis)."""
    A = chain.algebra
    out = {}
    for t, v in chain.coeffs.items():
        s = 1
        for i in t:
            s *= A.conj_basis_sign(i)
        out[t] = v * s
    return HochschildChain(A, chain.degree, out)


def _omega_coordinates(chain: HochschildChain) -> dict:
    """Coordinates of an Ω_n element in the d-basis (triangular readout)."""
    if not in_omega(chain):
        raise NotInOmega("chain is not in Ω_n")
    A = chain.algebra
    coords = {}
    for t, v in chain.coeffs.items():
        if all(i >= 1 for i in t[1:]):
            coords[t] = v
    # validity is implied: the d-basis expansion is triangular with leading
    # pure tensors exactly the unit-free tuples
    return coords


def tau_chain(n: int, chain: HochschildChain) -> HochschildChain:
    """The chain-level involution on Ω_n (commutes with b, squares to id).

    τ(a₀ da₁ … da_n) = (−1)^{n(n+1)/2} a₀* da_n* … da₁*: the unique sign and
    reversal extending τ(a₀da₁) = −a₀*d(a₁*) that commutes with b in the
    A^⊗(n+1) model of Ω_n.
    """
    A = chain.algebra
    if n == 0:
        return HochschildChain(
            A, 0, {t: v * A.conj_basis_sign(t[0])
                   for t, v in chain.coeffs.items()})
    coords = _omega_coordinates(chain)
    sign_global = (-1) ** ((n * (n + 1) // 2) % 2)
    out = HochschildChain(A, n)
    for t, v in coords.items():
        s = sign_global
        for i in t:
            s *= A.conj_basis_sign(i)
        reversed_t = (t[0],) + tuple(reversed(t[1:]))
        out = out + (v * s) * d_basis_chain(A, reversed_t)
    return out


def tau_swap(chain: HochschildChain) -> HochschildChain:
    """a₀⊗a₁ ↦ a₁*⊗a₀*: the orientation-reversing component's involution.

    This is the eigenspace decomposition under which a₀⊗a₁ ↦ a₀∧a₁* is an
    isomorphism of the minus part onto ⋀²(A).
    """
    A = chain.algebra
    out = {}
    for (i, j), v in chain.coeffs.items():
        s = A.conj_basis_sign(i) * A.conj_basis_sign(j)
        t = (j, i)
        nv = out.get(t, Fraction(0)) + v * s
        if nv:
            out[t] = nv
        elif t in out:
            del out[t]
    return HochschildChain(A, 1, out)


def tau(n: int, chain: HochschildChain) -> HochschildChain:
    """Public involution: slotwise in degree <= 1, chain-level above."""
    if n <= 1:
        return tau_slotwise(chain)
    return tau_chain(n, chain)


# -- eigenspace machinery ---------------------------------------------------------

def _chains_to_rows(chains):
    tuples = sorted({t for c in chains for t in c.coeffs})
    index = {t: i for i, t in enumerate(tuples)}
    rows = [{index[t]: v for t, v in c.coeffs.items()} for c in chains]
    return rows, tuples, index


def span_dim(chains) -> int:
    if not chains:
        return 0
    rows, _, _ = _chains_to_rows(chains)
    return rank_sparse(rows, max(max(r) for r in rows if r) + 1
                       if any(rows) else 0)


def span_equal(chains_a, chains_b) -> bool:
    """Equality of ℚ-spans inside A^⊗(n+1)."""
    both = list(chains_a) + list(chains_b)
    da, db, dboth = span_dim(chains_a), span_dim(chains_b), span_dim(both)
    return da == db == dboth


def eigenspace_split(chains, involution):
    """(plus basis, minus basis) of a τ-stable span of chains."""
    plus, minus = [], []
    half = Fraction(1, 2)
    for c in chains:
        tc = involution(c)
        p = half * (c + tc)
        m = half * (c - tc)
        if not p.is_zero():
            plus.append(p)
        if not m.is_zero():
            minus.append(m)
    # stability check: τ maps the span into itself
    if span_dim(list(chains) + plus + minus) != span_dim(list(chains)):
        raise NotStable("involution leaves the span")
    return _reduce_basis(plus), _reduce_basis(minus)


def _reduce_basis(chains):
    if not chains:
        return []
    rows, tuples, _ = _chains_to_rows(chains)
    _, reduced = rref_sparse(rows, len(tuples))
    A = chains[0].algebra
    deg = chains[0].degree
    out = []
    for row in reduced:
        out.append(HochschildChain(
            A, deg, {tuples[j]: v for j, v in row.items()}))
    return out


def tensor_square_basis(A: FiniteDimAlgebra):
    from . import pure_tensor
    return [pure_tensor(A, i, j)
            for i in range(A.dim) for j in range(A.dim)]


def kernel_in_span(basis_chains, operator):
    """Chains spanning ker(operator) within the span of the given basis."""
    if not basis_chains:
        return []
    from ..linalg import nullspace_sparse
    images = [operator(c) for c in basis_chains]
    tuples = sorted({t for img in images for t in img.coeffs})
    tindex = {t: i for i, t in enumerate(tuples)}
    # rows of the operator matrix (target coordinate per row)
    rows = [dict() for _ in tuples]
    for j, img in enumerate(images):
        for t, v in img.coeffs.items():
            rows[tindex[t]][j] = v
    combos = nullspace_sparse(rows, len(basis_chains))
    A = basis_chains[0].algebra
    deg = basis_chains[0].degree
    out = []
    for vec in combos:
        chain = HochschildChain(A, deg)
        for j, v in vec.items():
            chain = chain + v * basis_chains[j]
        out.append(chain)
    return out


def wedge_rank_of_minus(A: FiniteDimAlgebra) -> int:
    """Rank of (A⊗A)⁻ → ⋀²(A), a₀⊗a₁ ↦ a₀ ∧ a₁*.

    The minus eigenspace here is that of the swap-conjugation involution
    a₀⊗a₁ ↦ a₁*⊗a₀* (slotwise conjugation would send both 1⊗i and i⊗1 to
    multiples of 1∧i and only reach rank 3).
    """
    _, minus = eigenspace_split(tensor_square_basis(A), tau_swap)
    pairs = [(p, q) for p in range(A.dim) for q in range(A.dim) if p < q]
    index = {pq: i for i, pq in enumerate(pairs)}
    rows = []
    for chain in minus:
        row = {}
        for (i, j), v in chain.coeffs.items():
            w = v * A.conj_basis_sign(j)
            if i == j:
                continue
            key = (i, j) if i < j else (j, i)
            sgn = 1 if i < j else -1
            col = index[key]
            nv = row.get(col, Fraction(0)) + sgn * w
            if nv:
                row[col] = nv
            elif col in row:
                del row[col]
        rows.append(row)
    return rank_sparse(rows, len(pairs))


# -- spin action ------------------------------------------------------------------

def quat_conj(A: FiniteDimAlgebra, u: dict) -> dict:
    return conj_vector(A, u)


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
    q1c = quat_conj(A, q1)
    q2c = quat_conj(A, q2)

    def slot_map(slot):
        if slot == 0:
            return lambda e: A.mul_vec(A.mul_vec(q1, e), q2c)
        if slot == 1:
            return lambda e: A.mul_vec(A.mul_vec(q2, e), q1c)
        return lambda e: A.mul_vec(A.mul_vec(q1, e), q1c)

    maps = [slot_map(s) for s in range(n + 1)]
    out = HochschildChain(A, n)
    acc = {}
    for t, v in chain.coeffs.items():
        vecs = [maps[s]({i: Fraction(1)}) for s, i in enumerate(t)]
        # expand the tensor product of the transformed slots
        partial = {(): v}
        for vec in vecs:
            nxt = {}
            for key, coeff in partial.items():
                for i, c in vec.items():
                    nk = key + (i,)
                    nv = nxt.get(nk, Fraction(0)) + coeff * c
                    if nv:
                        nxt[nk] = nv
                    elif nk in nxt:
                        del nxt[nk]
            partial = nxt
        for key, coeff in partial.items():
            nv = acc.get(key, Fraction(0)) + coeff
            if nv:
                acc[key] = nv
            elif key in acc:
                del acc[key]
    return HochschildChain(A, n, acc)


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
    kernel_members = []
    for chain in minus_basis:
        e0 = epsilon(0, 1, chain)
        e1 = _cyclic_eps(chain)
        row = {}
        ok = True
        for i, v in e0.coeffs.items():
            i = i[0]
            if A.conj_basis_sign(i) == 1:
                ok = False  # lands outside A⁻: not in the minus complex
            else:
                row[tgt_index[("l", i)]] = v
        for i, v in e1.coeffs.items():
            i = i[0]
            if A.conj_basis_sign(i) == 1:
                ok = False
            else:
                row[tgt_index[("r", i)]] = row.get(
                    tgt_index[("r", i)], Fraction(0)) - v
        if not ok:
            raise NotStable("(ε₀, −ε₁) does not land in A⁻⊕A⁻")
        rows.append(row)
        if not row:
            kernel_members.append(chain)
    image_dim = rank_sparse(rows, 2 * len(neg_idx))
    kernel_dim = minus_dim - image_dim
    # I₁⁻ computed independently: ker(b₁|Ω₁) ∩ minus eigenspace
    from . import omega_basis
    i1 = kernel_in_span(omega_basis(A, 1), _b1)
    i1_minus = [c for c in _project_minus(i1) if not c.is_zero()]
    i1_minus_dim = span_dim(_reduce_basis(i1_minus)) if i1_minus else 0
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


def _cyclic_eps(chain: HochschildChain) -> HochschildChain:
    A = chain.algebra
    out = {}
    for (a0, a1), v in chain.coeffs.items():
        for k, c in A.mul_basis(a1, a0).items():
            nv = out.get((k,), Fraction(0)) + v * c
            if nv:
                out[(k,)] = nv
            elif (k,) in out:
                del out[(k,)]
    return HochschildChain(A, 0, out)


def _b1(chain: HochschildChain) -> HochschildChain:
    return epsilon(0, 1, chain) - _cyclic_eps(chain)


def _project_minus(chains):
    half = Fraction(1, 2)
    out = []
    for c in chains:
        out.append(half * (c - tau_slotwise(c)))
    return out


def i2_equals_b2_minus(A: FiniteDimAlgebra) -> bool:
    """I₂(A)⁻ = B₂(A)⁻ as subspaces of Ω₂ (chain-level τ eigenspaces)."""
    from . import hochschild_boundary, omega_basis
    omega2 = omega_basis(A, 2)
    i2 = kernel_in_span(omega2,
                        lambda c: hochschild_boundary(2, c, check=False))
    omega3 = omega_basis(A, 3) if A.dim ** 4 <= 4096 else \
        [d_basis_chain(A, t) for t in d_basis_tuples(A.dim, 3)]
    b2 = [hochschild_boundary(3, c) for c in omega3]
    b2 = [c for c in b2 if not c.is_zero()]

    def minus_part(chains, n):
        half = Fraction(1, 2)
        out = []
        for c in chains:
            m = half * (c - tau_chain(n, c))
            if not m.is_zero():
                out.append(m)
        return out

    i2m = minus_part(i2, 2)
    b2m = minus_part(b2, 2)
    return span_equal(i2m, b2m)
