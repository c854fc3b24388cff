"""Hall polynomials in q by exact multi-prime interpolation, with a store.

Counting at single fields is delegated to ``fqrep.FieldContext``; this
module lifts the counts to polynomials in q via exact integer Newton fits
with degree escalation, validated on held-out prime powers.  Keys use abstract
homogeneous points ('slot', k) with a degree pattern, since Hall numbers
only depend on the degrees of the points involved.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .config import (
    HallPolynomialContradiction,
    InsufficientPointsError,
    InterpolationError,
    JobConfig,
    memoized,
)
from .fqrep import FieldContext, closed_points, cyclic_image, eval_poly, mseg_dim, point_count
from .laurent import LaurentPoly
from .quiver import Quiver, _integer_kernel
from .store import CacheStore

# Held-out sample fields every fitted polynomial must agree with.
MIN_VALIDATE = 2


# ---------------------------------------------------------------------------
# exact fitting
# ---------------------------------------------------------------------------


def fit_integer_poly(pairs, cap=None):
    """Least-degree integer polynomial through the pairs.

    The degree is at most top = min(``cap``, len(pairs) - 1 -
    ``MIN_VALIDATE``), so at least ``MIN_VALIDATE`` pairs are held out.  A
    polynomial of degree <= top through every pair is the interpolant
    through the first top + 1 pairs, so that one fit is checked for integer
    coefficients and on the remaining pairs.  It is fitted by Newton's
    divided differences: at integer nodes the Newton basis prod_{j<k}
    (x - x_j) is integral, and every divided difference of an integer
    polynomial is an integer, so the coefficients are integers exactly when
    every division is exact.  Returns (coeffs, n_fit), where n_fit = degree
    + 1 (1 for the zero polynomial) is the number of pairs a least-degree
    fit consumes; raises InterpolationError if no degree up to top works.
    """
    pairs = list(pairs)
    top = len(pairs) - 1 - MIN_VALIDATE
    if cap is not None:
        top = min(cap, top)
    if top >= 0 and (coeffs := _newton_integer_fit(pairs[: top + 1])) is not None:
        if all(eval_poly(coeffs, x) == y for x, y in pairs[top + 1 :]):
            return coeffs, max(len(coeffs), 1)
    raise InterpolationError(
        f"no integer polynomial of degree <= {max(top, 0)} fits {len(pairs)} samples"
    )


def _newton_integer_fit(pairs):
    """Coefficients, ascending and without trailing zeros, of the
    interpolant through the pairs, or None when they are not integers."""
    xs = [x for x, _ in pairs]
    dd = [y for _, y in pairs]
    for k in range(1, len(pairs)):
        for j in range(len(pairs) - 1, k - 1, -1):
            num, den = dd[j] - dd[j - 1], xs[j] - xs[j - k]
            if num % den:
                return None
            dd[j] = num // den
    coeffs = []
    for k in range(len(pairs) - 1, -1, -1):
        # coeffs * (x - x_k) + dd[k]
        coeffs = [0] + coeffs
        for j in range(len(coeffs) - 1):
            coeffs[j] -= xs[k] * coeffs[j + 1]
        coeffs[0] += dd[k]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def fit_rational_function(pairs, max_degree=8, min_validate=2):
    """Exact P(x)/Q(x) through the pairs, degrees escalated jointly.

    Returns (num_coeffs, den_coeffs) as integer tuples with primitive
    content and positive leading denominator coefficient.
    """
    pairs = [(Fraction(x), Fraction(y)) for x, y in pairs]
    for total in range(0, 2 * max_degree + 1):
        for dq in range(0, total + 1):
            dp = total - dq
            need = dp + dq + 1
            if need + min_validate > len(pairs):
                continue
            sol = _solve_rational(pairs[:need], dp, dq)
            if sol is None:
                continue
            num, den = sol
            ok = True
            for x, y in pairs[need:]:
                dv = eval_poly(den, x)
                if dv == 0 or eval_poly(num, x) != y * dv:
                    ok = False
                    break
            if ok:
                return _normalize_rational(num, den)
    raise InterpolationError(
        f"no rational function of degree <= {max_degree} fits {len(pairs)} samples"
    )


def _solve_rational(pairs, dp, dq):
    """Solve sum p_i x^i - y * sum q_j x^j = 0; returns (p, q) or None."""
    rows = []
    for x, y in pairs:
        row = [x**i for i in range(dp + 1)]
        row += [-y * x**j for j in range(dq + 1)]
        rows.append(row)
    for vec in _integer_kernel(rows):
        num = vec[: dp + 1]
        den = vec[dp + 1 :]
        if any(den):
            # Reject spurious solutions where the denominator vanishes at a node.
            if all(eval_poly(den, x) != 0 for x, _ in pairs):
                return num, den
    return None


def _normalize_rational(num, den):
    from math import gcd

    lcm = 1
    for c in list(num) + list(den):
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    ni = [int(c * lcm) for c in num]
    di = [int(c * lcm) for c in den]
    g = 0
    for c in ni + di:
        g = gcd(g, abs(c))
    if g > 1:
        ni = [c // g for c in ni]
        di = [c // g for c in di]
    lead = next((c for c in reversed(di) if c), 1)
    if lead < 0:
        ni = [-c for c in ni]
        di = [-c for c in di]
    while ni and ni[-1] == 0:
        ni.pop()
    while di and di[-1] == 0:
        di.pop()
    return tuple(ni), tuple(di)


# ---------------------------------------------------------------------------
# abstract keys
# ---------------------------------------------------------------------------


def map_points(desc, point_of) -> tuple:
    """desc with each homogeneous point pt replaced by point_of(pt), re-sorted.

    Maps concrete points to abstract ('slot', k) and back; cyclic
    descriptors have no points and are returned as they are.
    """
    if desc[0] == "m":
        return desc
    _, cm, c0, cp, homog = desc
    mapped = tuple(sorted((point_of(pt), lam) for pt, lam in homog))
    return ("c", cm, c0, cp, mapped)


def abstract_triple(descL, descM, descN):
    """Canonical abstract (L, M, N, degrees); points become shared slots."""
    pts = []
    for d in (descL, descM, descN):
        for pt, _ in (d[4] if d[0] == "c" else ()):
            if pt not in pts:
                pts.append(pt)
    pts.sort(key=lambda p: (1 if p[0] == "i" else len(p[1]), p))
    slot_of = {pt: ("slot", k) for k, pt in enumerate(pts)}
    degrees = tuple(1 if p[0] == "i" else len(p[1]) for p in pts)
    abstract = tuple(map_points(d, slot_of.__getitem__) for d in (descL, descM, descN))
    return abstract + (degrees,)


def cyclic_orbit_key(n: int, triple):
    """The image of a cyclic triple (L, M, N) that keys its Hall polynomial.

    Hall numbers are invariant under rotation, and g^L_{M,N} = g^{dL}_{dN,dM}
    (Ringel, Invent. Math. 101 (1990); for n = 1, Macdonald's
    g^lam_{mu nu} = g^lam_{nu mu}).  Of the 2n images rho_r (L, M, N) and
    rho_r (dL, dN, dM), the one whose (L', dim N') is least is taken, then
    M', then N'.  (L', dim N') depends only on the Hall row (L, dim N), so
    the triples of one row share one image row.
    """
    images = []
    for k, (L, M, N) in enumerate(zip(*(_cyclic_images(n, d) for d in triple))):
        if k >= n:
            M, N = N, M
        images.append((L, mseg_dim(n, N[1]), M, N))
    L, _, M, N = min(images)
    return L, M, N


@lru_cache(maxsize=None)
def _cyclic_images(n: int, desc) -> tuple:
    """``cyclic_image(n, desc, r, flip)`` for flip = False, then True, each
    for r = 0, ..., n - 1; worked out once per descriptor."""
    return tuple(cyclic_image(n, desc, r, flip) for flip in (False, True) for r in range(n))


def assign_points(q: int, degrees):
    """Deterministically pick distinct points of the required degrees."""
    by_degree: dict = {}
    out = []
    for d in degrees:
        pool = closed_points(q, d)
        used = by_degree.setdefault(d, 0)
        if used >= len(pool):
            raise InsufficientPointsError(
                f"q={q} has only {len(pool)} points of degree {d}"
            )
        out.append(pool[used])
        by_degree[d] = used + 1
    return out


# ---------------------------------------------------------------------------
# polynomials with provenance
# ---------------------------------------------------------------------------


class HallPolynomial:
    """Integer polynomial in q with its sampling provenance."""

    def __init__(self, coeffs, samples, validations, min_q):
        self.coeffs = tuple(int(c) for c in coeffs)
        self.samples = tuple((int(q), int(v)) for q, v in samples)
        self.validations = tuple((int(q), int(v)) for q, v in validations)
        self.min_q = min_q

    def eval(self, q: int) -> int:
        return eval_poly(self.coeffs, q)

    def is_zero(self) -> bool:
        return not self.coeffs

    def to_laurent(self) -> LaurentPoly:
        """Substitute q = v^2."""
        return LaurentPoly.from_q_poly(self.coeffs)

    def text(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                parts.append(f"{c}")
            else:
                qs = "q" if k == 1 else f"q^{k}"
                if c == 1:
                    parts.append(qs)
                elif c == -1:
                    parts.append(f"-{qs}")
                else:
                    parts.append(f"{c}*{qs}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self):
        return {
            "poly": list(self.coeffs),
            "samples": [list(s) for s in self.samples],
            "validations": [list(s) for s in self.validations],
            "min_q": self.min_q,
        }

    @staticmethod
    def from_json(data) -> "HallPolynomial":
        return HallPolynomial(
            data["poly"], data["samples"], data["validations"], data["min_q"]
        )

    def __repr__(self):
        return f"HallPolynomial({self.text()})"


# ---------------------------------------------------------------------------
# the interpolation engine
# ---------------------------------------------------------------------------


def sample_and_fit(primes, sample, cap=None) -> dict:
    """Fit every key of ``sample(q)``, a dict {key: int}, as a polynomial in q.

    The fields of ``primes`` are sampled in order; one whose sampler raises
    InsufficientPointsError is skipped.  Fitting starts from the least fit's
    1 + MIN_VALIDATE samples and takes the next field whenever any key fails
    ``fit_integer_poly`` with degree cap ``cap``.  A key missing from a
    sample counts 0.  Returns {key: HallPolynomial}, keys sorted; raises
    InterpolationError once the fields run out.
    """
    samples: list = []  # (q, {key: count}) at the usable fields so far
    fields = iter(primes)

    def add_field() -> bool:
        for q in fields:
            try:
                samples.append((q, sample(q)))
            except InsufficientPointsError:
                continue
            return True
        return False

    while len(samples) < 1 + MIN_VALIDATE:
        if not add_field():
            raise InterpolationError("not enough usable sample fields")
    while True:
        try:
            out = {}
            for key in sorted({k for _, counts in samples for k in counts}):
                pairs = [(q, counts.get(key, 0)) for q, counts in samples]
                coeffs, n_fit = fit_integer_poly(pairs, cap)
                out[key] = HallPolynomial(
                    coeffs, pairs[:n_fit], pairs[n_fit:], samples[0][0]
                )
            return out
        except InterpolationError:
            if not add_field():
                raise


class HallPolyEngine:
    """Computes Hall and automorphism-count polynomials for one quiver."""

    def __init__(self, quiver: Quiver, cfg: JobConfig | None = None):
        self.quiver = quiver
        self.cfg = cfg or JobConfig.default()
        self.store = CacheStore(self.cfg.cache_dir) if self.cfg.cache_dir else None

    @memoized
    def ctx(self, q: int) -> FieldContext:
        return FieldContext(self.quiver, q, self.cfg)

    # -- public API ----------------------------------------------------------

    def hall_polynomial(self, descL, descM, descN) -> HallPolynomial:
        """The polynomial q -> g^{L}_{M,N}; descriptors may use concrete points.

        A cyclic triple is looked up, computed and stored under its
        ``cyclic_orbit_key`` image, so one census serves its whole orbit.
        """
        triple = (descL, descM, descN)
        if descL[0] == "m":
            triple = cyclic_orbit_key(self.quiver.n, triple)
        return self._hall(("hall",) + abstract_triple(*triple))

    def aut_polynomial(self, desc) -> HallPolynomial:
        """|Aut M| in q, the closed form ``FieldContext.aut_coeffs``; never stored."""
        q0 = self.cfg.primes[0]
        return HallPolynomial(self.ctx(q0).aut_coeffs(desc), (), (), q0)

    @memoized
    def _hall(self, key) -> HallPolynomial:
        """The store's record of a Hall key, else a fresh fit, which is stored."""
        if self.store is not None:
            record = self.store.get(self.quiver.name, key)
            if record is not None:
                return HallPolynomial.from_json(record)
        value = self._compute_hall(key)
        if self.store is not None:
            self.store.put(self.quiver.name, key, value.to_json())
        return value

    # -- computations ----------------------------------------------------------

    def _usable_qs(self, degrees):
        """The fields with as many closed points of each degree as it has slots.

        Counted by ``point_count``; points are listed (``assign_points``) only
        at the fields that are sampled.
        """
        return [
            q
            for q in self.cfg.primes
            if all(degrees.count(d) <= point_count(q, d) for d in set(degrees))
        ]

    def _descs_at(self, key, q):
        """The (L, M, N) of a Hall key with its slots filled at field q."""
        _, absL, absM, absN, degrees = key
        pts = assign_points(q, degrees)
        return tuple(map_points(d, lambda slot: pts[slot[1]]) for d in (absL, absM, absN))

    def _count_hall(self, key, q) -> int:
        return self.ctx(q).hall(*self._descs_at(key, q))

    def _compute_hall(self, key) -> HallPolynomial:
        qs = self._usable_qs(key[4])
        # Checked before the zero shortcut, so too few fields always raise.
        if len(qs) < 1 + MIN_VALIDATE:
            raise InterpolationError("not enough usable sample fields")
        # Dimension sanity: impossible shapes give the zero polynomial.
        q0 = qs[0]
        nuL, nuM, nuN = map(self.ctx(q0).desc_dim, self._descs_at(key, q0))
        if tuple(m + n for m, n in zip(nuM, nuN)) != nuL:
            return HallPolynomial((), ((q0, 0),), (), q0)
        # g^L_{M,N} never exceeds the number of subspaces of dimension
        # dim N in L, a product of Gaussian binomials of degree
        # sum_v n_v (l_v - n_v) in q, so that degree caps the fit.
        cap = sum(n * (l - n) for l, n in zip(nuL, nuN))
        return sample_and_fit(qs, lambda q: {key: self._count_hall(key, q)}, cap)[key]

    def check_at(self, poly: HallPolynomial, descL, descM, descN, q: int):
        """Recount at a fresh field; a mismatch is a hard contradiction."""
        key = ("hall",) + abstract_triple(descL, descM, descN)
        cnt = self._count_hall(key, q)
        if cnt != poly.eval(q):
            raise HallPolynomialContradiction(
                f"validated polynomial {poly.text()} disagrees at q={q}: {cnt}"
            )
        return True
