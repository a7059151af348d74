"""The length⊗angle invariant in ℝ⊗ℤ ℝ/ℤ, in certified normal form.

A tensor is a list of terms (c, m, s, angle) in blocks (m, s).
Normalization drops rational multiples of π (ℓ⊗(p/q)π = 0), merges equal
angles by summing lengths, and eliminates angles block by block through
certified integer relations ∑ m_j θ_j ≡ 0 (mod π): θ and π − θ given by
one rational cos² are related exactly, and the others as PSLQ proposes
them.  Solving for the pivot pushes rational coefficients through the
length slot, which is legal because lengths form a ℚ-vector space.  Every
"nonzero" verdict is certified; "equal/zero" verdicts are conditional on
the height bound of the relation search and say so.

A rational polytope's edges carry ℓ² and an angle given by cos² and the
sign of cos (Conway, Radin and Sadun, "On angles whose squared
trigonometric functions are rational", Discrete Comput. Geom. 22 (1999)),
so its term stands for c√m ⊗ θ with c rational: m is the square class of
ℓ², and s that of cos²θ·(1 − cos²θ), as e^{2iθ} lies in ℚ(√−s).  Lengths
of distinct classes are ℚ-independent, and so are angles of distinct
classes modulo ℚπ, so the invariant vanishes exactly when every block
does.  Any other polytope's term has m = s = None and its length as c, and
all its terms form one block.  A block of one term is nonzero, as its
angle is irrational, and needs no search.
"""

from fractions import Fraction
from math import isqrt

from .angles import (
    AnglePair,
    certified_relation,
    find_angle_relations,
    is_rational_angle,
    two_cos_minpoly,
)
from .errors import DEFAULT_HEIGHT_BOUND
from .numbers import (
    as_scalar,
    format_number,
    format_surd,
    parse_number,
    parse_square,
    scalar_sign,
    surd,
)


class DehnTensor:
    """A normalized tensor: its `terms` (c, m, s, angle), sorted by the
    angle's key, then m, the relations and the rational angles its
    normalization used, and the height bound of its relation search.  A
    term is c√m ⊗ angle in the block (m, s), or c ⊗ angle when m and s are
    None; its JSON is written from those, with no number field."""

    __slots__ = ("terms", "relations_used", "height_bound", "rational_drops")

    def __init__(self, terms: list, relations_used: list = None,
                 height_bound: int = DEFAULT_HEIGHT_BOUND,
                 rational_drops: list = None):
        self.terms = terms
        self.relations_used = [] if relations_used is None else relations_used
        self.height_bound = height_bound
        self.rational_drops = [] if rational_drops is None else rational_drops

    @property
    def rational(self) -> bool:
        """Whether every term is a rational c√m ⊗ angle."""
        return all(m is not None for _c, m, _s, _a in self.terms)

    def pairs(self) -> list:
        """The (length, angle) of each term, c√m built in `numberfield`."""
        from .numberfield import sqrt

        return [(c if m is None else c * sqrt(Fraction(m)), angle)
                for c, m, _s, angle in self.terms]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k)
                   for k in self.__slots__)

    __hash__ = None

    def is_empty(self) -> bool:
        return not self.terms

    def blocks(self) -> dict:
        """{(m, s): [(c, angle), ...]}, sorted."""
        out = {}
        for c, m, s, angle in self.terms:
            out.setdefault((m, s), []).append((c, angle))
        return dict(sorted(out.items()))

    def terms_json(self) -> list:
        return [_term_json(c, m, angle) for c, m, _s, angle in self.terms]

    def to_json(self):
        return {
            "terms": self.terms_json(),
            "height_bound": self.height_bound,
            "relations": [r.to_json() for r in self.relations_used],
            "rational_angles_dropped": self.rational_drops,
        }

    def __repr__(self):
        return f"DehnTensor({len(self.terms)} terms, h<={self.height_bound})"


def _term_json(c, m, angle) -> dict:
    """The JSON of the term c√m ⊗ angle, or c ⊗ angle when m is None."""
    length = format_number(as_scalar(c)) if m is None else format_surd(c, m)
    return {"length": length, **angle.to_json()}


def _merge(raw):
    """Merge terms with equal angles, sorted by key; drop the terms whose
    lengths sum to zero."""
    acc = {}
    for length, angle in raw:
        length, k = as_scalar(length), angle.key()
        acc[k] = (acc[k][0] + length, angle) if k in acc else (length, angle)
    return [acc[k] for k in sorted(acc) if acc[k][0]]


def _drop(angle, q) -> dict:
    return {"q": format_number(Fraction(q)), "cos": angle.to_json()["cos"]}


def _substitute(terms, rel):
    """The terms [(length, angle)] with the relation's pivot angle (smallest
    nonzero |m|, then largest index) written through the others."""
    ms = rel.coefficients
    pivot = min((abs(m), -j) for j, m in enumerate(ms) if m != 0)[1] * -1
    mk = ms[pivot]
    out = []
    for i, (length, angle) in enumerate(terms):
        if i != pivot:
            out.append((length, angle))
            continue
        for j, mj in enumerate(ms):
            if j != pivot and mj != 0:
                out.append((length * Fraction(-mj, mk), terms[j][1]))
    return out


def same_square_class(a: Fraction, b: Fraction) -> bool:
    """Whether the positive rationals a and b have one square class: ab is
    a rational square, which one isqrt tells."""
    ab = a * b
    n = ab.numerator * ab.denominator
    return n > 0 and isqrt(n) ** 2 == n


class _SquareClasses:
    """Square classes of positive rationals, each named by the radicand
    (`scalars.surd`) of its first member."""

    def __init__(self):
        self.reps = []
        self.memo = {}

    def of(self, x: Fraction):
        """(r, k): r names x's class and √x = k·√r, k rational."""
        hit = self.memo.get(x)
        if hit is None:
            k, m = surd(x)
            for r in self.reps:
                if same_square_class(m, r):  # √m = √(mr)/√r
                    hit = (r, k * Fraction(isqrt(m * r), r))
                    break
            else:
                self.reps.append(m)
                hit = (m, k)
            self.memo[x] = hit
        return hit


def _normalize(raw, height_bound) -> DehnTensor:
    """The normal form of the terms (c, x, angle) in `raw`: c√x ⊗ angle for
    rational c and x and an angle given by its rational cos², or, with x
    None in every term, c ⊗ angle for any exact length c."""
    lengths, angles = _SquareClasses(), _SquareClasses()
    acc, drops = {}, []
    for c, x, angle in raw:
        if x == 0 or not c or angle.is_straight():
            continue  # ℓ = 0, or θ ∈ {0, π}
        q = is_rational_angle(angle)
        if q is not None:
            drops.append(_drop(angle, q))
            continue
        m = None
        if x is not None:
            m, k = lengths.of(x)
            c *= k
        key = (angle.key(), m)
        acc[key] = (acc[key][0] + c, angle) if key in acc else (c, angle)
    blocks = {}  # each block's terms in the order of their angles' keys
    for (_key, m), (c, angle) in sorted(acc.items()):
        # a merged length that cancels is Fraction(0)
        if c:
            s = None if m is None else \
                angles.of(angle.cos2 * (1 - angle.cos2))[0]
            blocks.setdefault((m, s), []).append((c, angle))
    used, terms = [], []
    for (m, s), block in sorted(blocks.items()):
        terms.extend((c, m, s, angle)
                     for c, angle in _reduce_block(block, height_bound, used))
    terms.sort(key=lambda t: (t[3].key(), t[1]))
    return DehnTensor(terms, used, height_bound, drops)


def _reduce_block(terms, height_bound, used):
    """The terms [(c, angle)] of one block, sorted by angle key, in normal
    form: θ and π − θ are related exactly (θ + (π − θ) ≡ 0), then the
    search runs on the block alone while it holds two or more angles.  The
    relations used are appended to `used`.  Only angles certified
    irrational over π are left, so a lone angle has no relation to find,
    and a substitution brings in no angle that was not there before."""
    while len(terms) >= 2:
        rel = _supplementary(terms)
        if rel is None:
            rels = find_angle_relations([a for _, a in terms], height_bound)
            if not rels:
                break
            rel = rels[0]
        used.append(rel)
        terms = _merge(_substitute(terms, rel))
    return terms


def _supplementary(terms):
    """The certified relation θ + θ′ ≡ 0 (mod π) for the first two angles of
    the block with one rational cos² and cosines of opposite signs, or
    None."""
    seen = {}
    for j, (_c, angle) in enumerate(terms):
        if angle.cos2 is None:
            continue
        i = seen.setdefault(angle.cos2, j)
        if i != j:
            ms = [0] * len(terms)
            ms[i] = ms[j] = 1
            return certified_relation([a for _, a in terms], ms)
    return None


def tensor_normalize(raw_terms,
                     height_bound: int = DEFAULT_HEIGHT_BOUND) -> DehnTensor:
    """Canonical form of a raw (length, angle) term list."""
    return _normalize([(l, None, a) for l, a in raw_terms], height_bound)


def tensor_add(a: DehnTensor, b: DehnTensor,
               height_bound=None) -> DehnTensor:
    hb = height_bound or max(a.height_bound, b.height_bound)
    if a.rational and b.rational:
        raw = [(c, m, angle) for c, m, _s, angle in a.terms + b.terms]
    else:
        raw = [(l, None, angle) for l, angle in a.pairs() + b.pairs()]
    return _normalize(raw, hb)


def tensor_neg(t: DehnTensor) -> DehnTensor:
    return DehnTensor([(-c, m, s, a) for c, m, s, a in t.terms],
                      list(t.relations_used), t.height_bound,
                      list(t.rational_drops))


def dehn_invariant(p, height_bound: int = DEFAULT_HEIGHT_BOUND) -> DehnTensor:
    """Σ edge-length ⊗ dihedral angle over the boundary of the
    `geom.Polytope` p, in normal form."""
    return dehn_sum([(1, p)], height_bound)


def dehn_sum(signed, height_bound: int = DEFAULT_HEIGHT_BOUND) -> DehnTensor:
    """Σ k·D(P) over the (k, P) of `signed`, in normal form.  The raw edge
    terms of all the polytopes are normalized once, so a block that cancels
    in the sum is never searched."""
    edges = [(k, e) for k, p in signed for e in p.edges()]
    if all(e.length2 is not None for _, e in edges):
        raw = [(k, e.length2, e.angle) for k, e in edges]
    else:
        raw = [(k * e.length, None, e.angle) for k, e in edges]
    return _normalize(raw, height_bound)


def is_zero(t: DehnTensor) -> str:
    """'Zero' | 'NonzeroCertified' | 'Unknown' for a normalized tensor.

    Blocks vanish independently, and a block of one term has a nonzero
    length and a certified π-irrational angle, which is exactly
    nonvanishing in ℝ⊗ℝ/ℤ: a tensor with such a block is nonzero.
    Otherwise independence rests only on the height-bounded search, so the
    verdict stays Unknown.
    """
    if t.is_empty():
        return "Zero"
    if any(len(b) == 1 for b in t.blocks().values()):
        return "NonzeroCertified"
    return "Unknown"


def nonzero_certificate(t: DehnTensor):
    """Re-checkable evidence for a NonzeroCertified verdict: the lone term
    and the polynomial of 2cosθ when one term is left, else the block
    certificate of a rational tensor."""
    if is_zero(t) != "NonzeroCertified":
        return None
    if len(t.terms) != 1:
        return block_certificate(t)
    (term,), angle = t.terms_json(), t.terms[0][3]
    minpoly = two_cos_minpoly(angle)
    return {
        "length": term["length"],
        "angle": angle.to_json(),
        "two_cos_minpoly": [str(c) for c in minpoly],
        "monic": minpoly[-1] == 1,
        "reason": ("angle is no rational multiple of π: complete check via "
                   "the algebraic-integer test on 2cosθ"),
    }


def block_certificate(t: DehnTensor):
    """Re-checkable evidence that a rational tensor is nonzero: the first
    block (m, s) that holds a single term, that term, and all the terms,
    from which `recheck` recomputes every term's classes.  Its "type" is
    "dehn-block"."""
    for (m, s), block in t.blocks().items():
        if len(block) == 1:
            (c, angle), = block
            return {
                "type": "dehn-block",
                "m": format_number(Fraction(m)),
                "s": format_number(Fraction(s)),
                "term": _term_json(c, m, angle),
                "terms": t.terms_json(),
                "reason": ("the only term of its block: lengths of distinct "
                           "square classes m of ℓ², and angles of distinct "
                           "classes s of cos²θ·sin²θ, are independent over "
                           "ℚ modulo ℚπ, and cos²θ is not in "
                           "{0, 1/4, 1/2, 3/4, 1}, so θ ∉ ℚπ (Niven)"),
            }
    return None


def block_holds(m, s, term, terms) -> bool:
    """The recheck of a "dehn-block" certificate from the literals its
    recheck has read: the classes m and s, and the named term and every
    term, each as its (cos, sin, length) literals.  The classes of every
    term are recomputed (m of ℓ², s of cos²θ·sin²θ); the block (m, s) must
    hold exactly one of them, `term`, with a nonzero length and an angle
    that is no rational multiple of π (Niven: cos²θ is not in
    {0, 1/4, 1/2, 3/4, 1})."""
    m, s = parse_number(m), parse_number(s)
    if not (isinstance(m, Fraction) and isinstance(s, Fraction)):
        return False
    in_block = []
    for t in terms:
        parts = [parse_square(x) for x in t]
        if None in parts:
            return False
        (c2, c_sign), (s2, s_sign), (l2, _) = parts
        if s_sign < 0 or c2 + s2 != 1:
            return False
        if l2 and same_square_class(l2, m) and \
                same_square_class(c2 * s2, s):
            in_block.append((t, AnglePair.from_cos2(c2, c_sign)))
    if len(in_block) != 1:
        return False
    t, angle = in_block[0]
    return t == term and is_rational_angle(angle) is None


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


def compare_polytopes(a, b, height_bound: int = DEFAULT_HEIGHT_BOUND
                      ) -> CongruenceVerdict:
    """Scissors-congruence verdict for the `geom.Polytope`s a and b from
    volume and the edge-angle tensor D(a) − D(b), normalized once.  The
    certificate of a rational NotCongruent_Dehn names its block."""
    va, vb = a.volume(), b.volume()
    if scalar_sign(va - vb) != 0:
        return CongruenceVerdict(
            "NotCongruent_Volume",
            {"volume_a": format_number(as_scalar(va)),
             "volume_b": format_number(as_scalar(vb))},
            height_bound)
    diff = dehn_sum([(1, a), (-1, b)], height_bound)
    verdict = is_zero(diff)
    if verdict == "NonzeroCertified":
        cert = block_certificate(diff) if diff.rational \
            else nonzero_certificate(diff)
        return CongruenceVerdict(
            "NotCongruent_Dehn",
            {"difference": diff.to_json(), "certificate": cert},
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
