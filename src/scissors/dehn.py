"""The length⊗angle invariant in ℝ⊗ℤ ℝ/ℤ, in certified normal form.

A tensor is a list of (length, angle) terms.  Normalization drops rational
multiples of π (ℓ⊗(p/q)π = 0), merges equal angles by summing lengths, and
eliminates angles through certified integer relations ∑ m_j θ_j ≡ 0 (mod π):
solving for the pivot pushes rational coefficients through the length slot,
which is legal because lengths form a ℚ-vector space.  Every "nonzero"
verdict is certified; "equal/zero" verdicts are conditional on the height
bound of the relation search and say so.
"""

from fractions import Fraction

from .algebraic import as_scalar, lift, scalar_sign
from .angles import (
    AnglePair,
    find_angle_relations,
    is_rational_angle,
    two_cos_minpoly,
)
from .errors import DEFAULT_HEIGHT_BOUND
from .geom import Polytope
from .numbers import format_number, parse_number


class DehnTensor:
    __slots__ = ("terms", "relations_used", "height_bound", "rational_drops")

    def __init__(self, terms: list, relations_used: list = None,
                 height_bound: int = DEFAULT_HEIGHT_BOUND,
                 rational_drops: list = None):
        self.terms = terms  # [(length scalar, AnglePair)], normal form
        self.relations_used = [] if relations_used is None else relations_used
        self.height_bound = height_bound
        self.rational_drops = [] if rational_drops is None else rational_drops

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k)
                   for k in self.__slots__)

    __hash__ = None

    def is_empty(self) -> bool:
        return not self.terms

    def to_json(self):
        return {
            "terms": [{"length": format_number(as_scalar(l)),
                       **a.to_json()} for l, a in self.terms],
            "height_bound": self.height_bound,
            "relations": [r.to_json() for r in self.relations_used],
            "rational_angles_dropped": self.rational_drops,
        }

    @classmethod
    def from_json(cls, obj) -> "DehnTensor":
        # lengths, cos and sin in one number field, as for a polytope
        flat = iter(lift([parse_number(t[k]) for t in obj["terms"]
                          for k in ("length", "cos", "sin")]))
        raw = [(next(flat), AnglePair(next(flat), next(flat)))
               for _ in obj["terms"]]
        return tensor_normalize(raw, obj.get("height_bound",
                                             DEFAULT_HEIGHT_BOUND))

    def __repr__(self):
        return f"DehnTensor({len(self.terms)} terms, h<={self.height_bound})"


def _merge(raw):
    """Merge terms with equal angles, sorted by key; drop the terms whose
    lengths sum to zero."""
    acc = {}
    for length, angle in raw:
        length, k = as_scalar(length), angle.key()
        acc[k] = (acc[k][0] + length, angle) if k in acc else (length, angle)
    return [acc[k] for k in sorted(acc) if scalar_sign(acc[k][0]) != 0]


def tensor_normalize(raw_terms,
                     height_bound: int = DEFAULT_HEIGHT_BOUND) -> DehnTensor:
    """Canonical form of a raw (length, angle) term list."""
    kept, drops = [], []
    for length, angle in raw_terms:
        if scalar_sign(length) == 0 or angle.is_straight():
            continue  # ℓ = 0, or θ ∈ {0, π}
        q = is_rational_angle(angle)
        if q is None:
            kept.append((length, angle))
        else:
            drops.append({"q": format_number(Fraction(q)),
                          "cos": format_number(as_scalar(angle.cos))})
    terms = _merge(kept)
    used = []
    # only angles certified irrational over π are left, so a lone angle has
    # no relation m·θ ≡ 0 (mod π) to find; the substitution below brings in
    # no angle that was not there before
    while len(terms) >= 2:
        rels = find_angle_relations([a for _, a in terms], height_bound)
        if not rels:
            break
        (rel,) = rels
        used.append(rel)
        ms = rel.coefficients
        # pivot: smallest nonzero |m|, then largest index (deterministic)
        pivot = min((abs(m), -j)
                    for j, m in enumerate(ms) if m != 0)[1] * -1
        mk = ms[pivot]
        new_raw = []
        for i, (length, angle) in enumerate(terms):
            if i != pivot:
                new_raw.append((length, angle))
                continue
            for j, mj in enumerate(ms):
                if j == pivot or mj == 0:
                    continue
                new_raw.append((length * Fraction(-mj, mk), terms[j][1]))
        terms = _merge(new_raw)
    return DehnTensor(terms, used, height_bound, drops)


def tensor_add(a: DehnTensor, b: DehnTensor,
               height_bound=None) -> DehnTensor:
    hb = height_bound or max(a.height_bound, b.height_bound)
    return tensor_normalize(list(a.terms) + list(b.terms), hb)


def tensor_neg(t: DehnTensor) -> DehnTensor:
    out = DehnTensor([(-l, a) for l, a in t.terms],
                     list(t.relations_used), t.height_bound,
                     list(t.rational_drops))
    return out


def dehn_invariant(p: Polytope,
                   height_bound: int = DEFAULT_HEIGHT_BOUND) -> DehnTensor:
    """Σ edge-length ⊗ dihedral angle over the boundary, in normal form."""
    raw = [(e.length, e.angle) for e in p.edges()]
    return tensor_normalize(raw, height_bound)


def is_zero(t: DehnTensor) -> str:
    """'Zero' | 'NonzeroCertified' | 'Unknown' for a normalized tensor.

    The single-angle case is complete: a lone surviving term has nonzero
    length and a certified π-irrational angle, which is exactly nonvanishing
    in ℝ⊗ℝ/ℤ.  With several surviving angles, independence rests only on the
    height-bounded search, so the verdict stays Unknown.
    """
    if not t.terms:
        return "Zero"
    if len(t.terms) == 1:
        return "NonzeroCertified"
    return "Unknown"


def nonzero_certificate(t: DehnTensor):
    """Re-checkable evidence for a NonzeroCertified verdict."""
    if is_zero(t) != "NonzeroCertified":
        return None
    length, angle = t.terms[0]
    minpoly = two_cos_minpoly(angle)
    return {
        "length": format_number(as_scalar(length)),
        "angle": angle.to_json(),
        "two_cos_minpoly": [str(c) for c in minpoly],
        "monic": minpoly[-1] == 1,
        "reason": ("angle is no rational multiple of π: complete check via "
                   "the algebraic-integer test on 2cosθ"),
    }


class CongruenceVerdict:
    __slots__ = ("tag", "witness", "height_bound")

    def __init__(self, tag: str, witness: dict, height_bound: int):
        # NotCongruent_Volume | NotCongruent_Dehn | Congruent_DSJ | Unknown
        self.tag = tag
        self.witness = witness
        self.height_bound = height_bound

    def to_json(self):
        return {"tag": self.tag, "witness": self.witness,
                "height_bound": self.height_bound}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k)
                   for k in self.__slots__)

    __hash__ = None

    def __repr__(self):
        return (f"CongruenceVerdict(tag={self.tag!r}, "
                f"witness={self.witness!r}, "
                f"height_bound={self.height_bound!r})")


def compare_polytopes(a: Polytope, b: Polytope,
                      height_bound: int = DEFAULT_HEIGHT_BOUND
                      ) -> CongruenceVerdict:
    """Scissors-congruence verdict from volume and the edge-angle tensor."""
    va, vb = a.volume(), b.volume()
    if scalar_sign(va - vb) != 0:
        return CongruenceVerdict(
            "NotCongruent_Volume",
            {"volume_a": format_number(as_scalar(va)),
             "volume_b": format_number(as_scalar(vb))},
            height_bound)
    da = dehn_invariant(a, height_bound)
    db = dehn_invariant(b, height_bound)
    diff = tensor_add(da, tensor_neg(db), height_bound)
    verdict = is_zero(diff)
    if verdict == "NonzeroCertified":
        return CongruenceVerdict(
            "NotCongruent_Dehn",
            {"difference": diff.to_json(),
             "certificate": nonzero_certificate(diff)},
            height_bound)
    if verdict == "Zero":
        return CongruenceVerdict(
            "Congruent_DSJ",
            {"volume": format_number(as_scalar(va)),
             "relations": [r.to_json() for r in diff.relations_used]},
            height_bound)
    return CongruenceVerdict(
        "Unknown",
        {"difference": diff.to_json()},
        height_bound)
