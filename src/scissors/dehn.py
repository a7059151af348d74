"""The length⊗angle invariant in ℝ⊗ℤ ℝ/ℚπ, in certified normal form.

A tensor is a list of terms (c, m, s, angle) in blocks (m, s).
Normalization drops rational multiples of π (ℓ⊗(p/q)π = 0) and writes a
term whose cos θ is negative as −ℓ⊗(π − θ) (ℓ⊗π = 0), so every angle has
cos θ > 0 and θ and π − θ merge with equal angles by summing lengths.  It
then eliminates angles block by block through the integer relations
∑ m_j θ_j ≡ 0 (mod π) that PSLQ proposes and an exact product certifies.
Solving for the pivot pushes rational coefficients through the length
slot, which is legal because lengths form a ℚ-vector space.  Every
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
angle is irrational, and needs no search.  `tensor_certificates` writes
the evidence of a normalized tensor's verdict.
"""

from fractions import Fraction
from math import isqrt

from .angles import (
    AnglePair,
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
    angle's key, then m, the relations its search found, the distinct
    rational angles it dropped, and the height bound of its relation
    search.  A term is c√m ⊗ angle in the block (m, s), or c ⊗ angle when
    m and s are None, with cos θ > 0; its JSON is written from those, with
    no number field."""

    __slots__ = ("terms", "relations_used", "height_bound", "rational_drops")

    def __init__(self, terms: list, relations_used: list = None,
                 height_bound: int = DEFAULT_HEIGHT_BOUND,
                 rational_drops: list = None):
        self.terms = terms
        self.relations_used = [] if relations_used is None else relations_used
        self.height_bound = height_bound
        self.rational_drops = [] if rational_drops is None else rational_drops

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


def _square_classes(xs) -> dict:
    """{x: (r, k)} for the positive rationals in `xs`: √x = k·√r, k rational,
    where r, which names x's class, is the least radicand (`numbers.surd`)
    of that class among `xs`, so the names do not depend on their order."""
    radicands = {x: surd(x) for x in xs}
    names = []  # one per class, the least radicand first
    for m in sorted({m for _k, m in radicands.values()}):
        if not any(same_square_class(m, r) for r in names):
            names.append(m)
    out = {}
    for x, (k, m) in radicands.items():
        r = next(r for r in names if same_square_class(m, r))
        out[x] = (r, k * Fraction(isqrt(m * r), r))  # √m = √(mr)/√r
    return out


def _normalize(raw, height_bound) -> DehnTensor:
    """The normal form of the terms (c, x, angle) in `raw`: c√x ⊗ angle for
    rational c and x and an angle given by its rational cos², or, with x
    None in every term, c ⊗ angle for any exact length c."""
    kept, drops = [], {}
    for c, x, angle in raw:
        if x == 0 or not c or angle.is_straight():
            continue  # ℓ = 0, or θ ∈ {0, π}
        q = is_rational_angle(angle)
        if q is not None:
            drops.setdefault(angle.key(), (angle, q))
            continue
        sign, angle = angle.acute()
        kept.append((sign * c, x, angle))
    lengths = _square_classes({x for _c, x, _a in kept if x is not None})
    acc = {}
    for c, x, angle in kept:
        m = None
        if x is not None:
            m, k = lengths[x]
            c *= k
        key = (angle.key(), m)
        acc[key] = (acc[key][0] + c, angle) if key in acc else (c, angle)
    # a merged length that cancels is Fraction(0)
    merged = [(m, c, angle) for (_key, m), (c, angle) in sorted(acc.items())
              if c]
    angles = _square_classes({a.cos2 * (1 - a.cos2)
                              for m, _c, a in merged if m is not None})
    blocks = {}  # each block's terms in the order of their angles' keys
    for m, c, angle in merged:
        s = None if m is None else angles[angle.cos2 * (1 - angle.cos2)][0]
        blocks.setdefault((m, s), []).append((c, angle))
    used, terms = [], []
    for (m, s), block in sorted(blocks.items()):
        terms.extend((c, m, s, angle)
                     for c, angle in _reduce_block(block, height_bound, used))
    terms.sort(key=lambda t: (t[3].key(), t[1]))
    return DehnTensor(terms, used, height_bound,
                      [_drop(a, q) for _k, (a, q) in sorted(drops.items())])


def _reduce_block(terms, height_bound, used):
    """The terms [(c, angle)] of one block, sorted by angle key, in normal
    form: the search runs on the block alone while it holds two or more
    angles, and the relations it finds are appended to `used`.  Only
    angles certified irrational over π, each with cos θ > 0, are left, so
    a lone angle has no relation to find, θ and π − θ have merged already,
    and a substitution brings in no angle that was not there before."""
    while len(terms) >= 2:
        rels = find_angle_relations([a for _, a in terms], height_bound)
        if not rels:
            break
        used.append(rels[0])
        terms = _merge(_substitute(terms, rels[0]))
    return terms


def tensor_normalize(raw_terms,
                     height_bound: int = DEFAULT_HEIGHT_BOUND) -> DehnTensor:
    """Canonical form of a raw (length, angle) term list."""
    return _normalize([(l, None, a) for l, a in raw_terms], height_bound)


def tensor_add(a: DehnTensor, b: DehnTensor,
               height_bound=None) -> DehnTensor:
    hb = height_bound or max(a.height_bound, b.height_bound)
    if all(m is not None for _c, m, _s, _a in a.terms + b.terms):
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


def tensor_certificates(t: DehnTensor) -> list:
    """Every certificate of a normalized tensor's verdict, each with its
    "type": the distinct rational angles it dropped ("rational-angles"),
    the relations its search found ("angle-relations"), and, when it is
    NonzeroCertified, the evidence of `nonzero_certificate`."""
    certs = []
    if t.rational_drops:
        certs.append({"type": "rational-angles", "dropped": t.rational_drops})
    if t.relations_used:
        certs.append({"type": "angle-relations",
                      "relations": [r.to_json() for r in t.relations_used]})
    nonzero = nonzero_certificate(t)
    if nonzero is not None:
        certs.append(nonzero)
    return certs


def nonzero_certificate(t: DehnTensor):
    """Re-checkable evidence for a NonzeroCertified verdict: the lone term
    and the polynomial of 2cosθ when one term is left ("nonzero-dehn"),
    else the block certificate of a rational tensor."""
    if is_zero(t) != "NonzeroCertified":
        return None
    if len(t.terms) != 1:
        return block_certificate(t)
    (term,), angle = t.terms_json(), t.terms[0][3]
    minpoly = two_cos_minpoly(angle)
    return {
        "type": "nonzero-dehn",
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
    """A verdict's `tag`, its `witness` and the height bound of its search,
    written in a report's results (`to_json`), and the `certificates` that
    a report carries beside them."""

    __slots__ = ("tag", "witness", "height_bound", "certificates")

    def __init__(self, tag: str, witness: dict, height_bound: int,
                 certificates: list):
        # NotCongruent_Volume | NotCongruent_Dehn | Congruent_DSJ | Unknown
        self.tag = tag
        self.witness = witness
        self.height_bound = height_bound
        self.certificates = certificates

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


_TAGS = {"Zero": "Congruent_DSJ", "NonzeroCertified": "NotCongruent_Dehn",
         "Unknown": "Unknown"}


def compare_polytopes(a, b, height_bound: int = DEFAULT_HEIGHT_BOUND
                      ) -> CongruenceVerdict:
    """Scissors-congruence verdict for the `geom.Polytope`s a and b from
    volume and the edge-angle tensor D(a) − D(b), normalized once.  Its
    certificates are the volume mismatch, or those of `tensor_certificates`
    for the difference."""
    va, vb = a.volume(), b.volume()
    if scalar_sign(va - vb) != 0:
        volumes = {"volume_a": format_number(as_scalar(va)),
                   "volume_b": format_number(as_scalar(vb))}
        return CongruenceVerdict("NotCongruent_Volume", volumes, height_bound,
                                 [{"type": "volume-mismatch", **volumes}])
    diff = dehn_sum([(1, a), (-1, b)], height_bound)
    tag = _TAGS[is_zero(diff)]
    witness = {"volume": format_number(as_scalar(va))} \
        if tag == "Congruent_DSJ" else {"difference": diff.to_json()}
    return CongruenceVerdict(tag, witness, height_bound,
                             tensor_certificates(diff))
