"""Reference checker for shrinktarget reports, written without shrinktarget.

Every reference starts from the integer data in the generated config:

* spectra come from the exact integer characteristic polynomial (sympy over
  ZZ), split into square-free factors whose simple roots mpmath finds at 40
  digits, so multiplicities are exact and never a float-tolerance guess;
* Perron roots of shift matrices are bracketed by exact-rational bisection
  on the characteristic polynomial, started from a float estimate;
* period, cyclic classes and mixing gap come from plain graph code
  (Python-int bitsets for the gap);
* bound rows are the closed forms (h/(1+tau), the two-sided factors, the
  bi-Lipschitz and expanding sandwiches, the exact toral values) evaluated
  from those constants.

A printed number passes when it is within ``REL_TOL * max(1, |ref|)`` of its
reference: reports print 12 significant digits, so that is two units of the
last printed digit.  ``check`` returns one :class:`Issue` per failed check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from sympy import Poly, ZZ, symbols
from sympy.polys.matrices import DomainMatrix

from workloads import System

mpmath.mp.dps = 40
REL_TOL = 1e-11
BOUNDARY_TOL = 1e-12  # the case boundary the bound dispatch documents
_X = symbols("x")


@dataclass(frozen=True)
class Issue:
    field: str
    message: str
    gap: float | None = None  # absolute numeric gap, when the check compared numbers


# ---------------------------------------------------------------------------
# Exact spectral data
# ---------------------------------------------------------------------------


def charpoly(matrix: list[list[int]]) -> list[int]:
    """Integer coefficients of det(xI - A), highest degree first."""
    n = len(matrix)
    dm = DomainMatrix([[ZZ(v) for v in row] for row in matrix], (n, n), ZZ)
    return [int(c) for c in dm.charpoly()]


def root_multiplicities(coeffs: list[int]) -> list[tuple[mpmath.mpc, int]]:
    """All complex roots with exact multiplicities (square-free split first)."""
    out = []
    for factor, mult in Poly(coeffs, _X, domain=ZZ).sqf_list()[1]:
        fc = [int(c) for c in factor.all_coeffs()]
        if len(fc) == 2:
            roots = [mpmath.mpf(-fc[1]) / fc[0]]
        else:
            roots = mpmath.polyroots(fc, maxsteps=500, extraprec=400)
        out += [(mpmath.mpc(r), mult) for r in roots]
    return out


def _sign_at(coeffs: list[int], q: Fraction) -> int:
    """Sign of the polynomial at the rational q, exactly."""
    a, b = q.numerator, q.denominator
    n = len(coeffs) - 1
    val = 0
    for i, c in enumerate(coeffs):
        val += c * a ** (n - i) * b**i
    return (val > 0) - (val < 0)


def perron_root(matrix: list[list[int]]) -> mpmath.mpf:
    """Perron root of a nonnegative integer matrix to ~1e-33.

    The float spectral radius seeds a bracket of the characteristic
    polynomial; a sign change certifies a real root inside it and exact
    bisection narrows it.
    """
    coeffs = charpoly(matrix)
    while coeffs[-1] == 0:
        coeffs.pop()
    r0 = float(max(abs(np.linalg.eigvals(np.array(matrix, dtype=float)))))
    for width in (1e-9, 1e-7, 1e-5, 1e-3):
        lo = Fraction(r0 - width * max(1.0, r0))
        hi = Fraction(r0 + width * max(1.0, r0))
        s_lo, s_hi = _sign_at(coeffs, lo), _sign_at(coeffs, hi)
        if s_lo * s_hi < 0:
            break
    else:
        raise RuntimeError(f"no sign change of the characteristic polynomial near {r0}")
    while hi - lo > Fraction(1, 2**112):
        mid = (lo + hi) / 2
        s_mid = _sign_at(coeffs, mid)
        if s_mid == 0:
            return mpmath.mpf(mid.numerator) / mid.denominator
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    mid = (lo + hi) / 2
    return mpmath.mpf(mid.numerator) / mid.denominator


def _int_det(matrix: list[list[int]]) -> int:
    c = charpoly(matrix)
    return (-1) ** (len(matrix)) * c[-1]


@dataclass(frozen=True)
class Profile:
    lambda1: float
    lambda2: float
    ln_l2: float
    h_top: float
    ln_l1: float | None


@dataclass(frozen=True)
class MatrixRef:
    dim: int
    det: int
    clusters: tuple[tuple[float, int, bool], ...]  # (modulus, multiplicity, nonreal)
    d_s: int
    d_u: int
    hyperbolic: bool
    expanding: bool
    lam_s: float | None
    lam_u: float | None
    h_top: float | None
    crude: Profile | None
    sharp: Profile | None


def _singular_values(matrix: list[list[int]]) -> list[mpmath.mpf]:
    n = len(matrix)
    ata = [[sum(matrix[k][i] * matrix[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return sorted(mpmath.sqrt(mpmath.re(r)) for r, _ in root_multiplicities(charpoly(ata)))


def matrix_ref(matrix: list[list[int]]) -> MatrixRef:
    d = len(matrix)
    det = _int_det(matrix)
    roots = root_multiplicities(charpoly(matrix))
    groups: list[list] = []  # [modulus, multiplicity, nonreal]
    for r, m in sorted(roots, key=lambda rm: abs(rm[0])):
        mod = abs(r)
        nonreal = abs(mpmath.im(r)) > mpmath.mpf(10) ** -25
        if groups and abs(groups[-1][0] - mod) < mpmath.mpf(10) ** -25:
            groups[-1][1] += m
            groups[-1][2] = groups[-1][2] or nonreal
        else:
            groups.append([mod, m, nonreal])
    one = mpmath.mpf(1)
    hyperbolic = all(g[0] != one for g in groups)
    expanding = hyperbolic and groups[0][0] > one
    stable = [g for g in groups if g[0] < one]
    unstable = [g for g in groups if g[0] > one]
    lam_s = lam_u = None
    if len(groups) == 2 and stable and unstable:
        lam_s, lam_u = float(stable[0][0]), float(unstable[0][0])
    h = crude = sharp = None
    if hyperbolic:
        h_mp = sum(g[1] * mpmath.log(g[0]) for g in unstable)
        h = float(h_mp)
        sv = _singular_values(matrix)
        crude = Profile(
            lambda1=math.inf if expanding else float(-mpmath.log(stable[-1][0])),
            lambda2=float(mpmath.log(unstable[0][0])),
            ln_l2=float(mpmath.log(sv[-1])),
            h_top=h,
            ln_l1=float(-mpmath.log(sv[0])) if abs(det) == 1 else None,
        )
        if expanding:
            sharp = Profile(
                math.inf, float(mpmath.log(groups[0][0])), float(mpmath.log(groups[-1][0])), h, None
            )
        elif lam_s is not None and abs(det) == 1:
            a, b = float(-mpmath.log(stable[0][0])), float(mpmath.log(unstable[0][0]))
            sharp = Profile(a, b, b, h, a)
    return MatrixRef(
        dim=d,
        det=det,
        clusters=tuple((float(g[0]), g[1], bool(g[2])) for g in groups),
        d_s=sum(g[1] for g in stable),
        d_u=sum(g[1] for g in unstable),
        hyperbolic=hyperbolic,
        expanding=expanding,
        lam_s=lam_s,
        lam_u=lam_u,
        h_top=h,
        crude=crude,
        sharp=sharp,
    )


# ---------------------------------------------------------------------------
# Graph data for shifts
# ---------------------------------------------------------------------------


def period(adj: list[list[int]]) -> int:
    """Gcd of cycle lengths, from breadth-first levels."""
    k = len(adj)
    dist = [-1] * k
    dist[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for b in range(k):
                if adj[a][b] and dist[b] < 0:
                    dist[b] = dist[a] + 1
                    nxt.append(b)
        frontier = nxt
    if min(dist) < 0:
        raise ValueError("graph is not strongly connected from symbol 0")
    g = 0
    for a in range(k):
        for b in range(k):
            if adj[a][b]:
                g = math.gcd(g, dist[a] + 1 - dist[b])
    return g or 1


def mixing_gap(adj: list[list[int]]) -> int:
    """Smallest p with A^p > 0, from bitsets of the p-step reach of each symbol."""
    k = len(adj)
    full = (1 << k) - 1
    succ = [[b for b in range(k) if adj[a][b]] for a in range(k)]
    reach = [sum(1 << b for b in s) for s in succ]
    p = 1
    while any(r != full for r in reach):
        reach = [_or_rows(reach, succ[a]) for a in range(k)]
        p += 1
        if p > (k - 1) ** 2 + 1:
            raise ValueError("matrix is not primitive")
    return p


def _or_rows(reach: list[int], idx: list[int]) -> int:
    out = 0
    for j in idx:
        out |= reach[j]
    return out


@dataclass(frozen=True)
class ShiftRef:
    kind: str  # "sft" or "sofic"
    sided: str
    adjacency: tuple[tuple[int, ...], ...]
    h_top: float
    period: int
    mixing_gap: int | None
    labels: tuple[str, ...] = ()


def shift_ref(system: System) -> ShiftRef:
    sysd = system.config["system"]
    if system.kind == "sft":
        adj = sysd["transition"]
        labels: tuple[str, ...] = ()
    else:
        adj = [[0] * sysd["states"] for _ in range(sysd["states"])]
        for a, b, _ in sysd["edges"]:
            adj[a][b] += 1
        labels = tuple(sorted({lbl for _, _, lbl in sysd["edges"]}))
    binary = [[1 if v else 0 for v in row] for row in adj]
    cyclic = period(binary)
    return ShiftRef(
        kind=system.kind,
        sided=sysd.get("sided", "one"),
        adjacency=tuple(tuple(r) for r in adj),
        h_top=float(mpmath.log(perron_root(adj))),
        period=cyclic,
        mixing_gap=mixing_gap(binary) if cyclic == 1 and system.kind == "sft" else None,
        labels=labels,
    )


def reference_for(system: System):
    if system.kind == "matrix":
        return matrix_ref(system.config["system"]["entries"])
    return shift_ref(system)


# ---------------------------------------------------------------------------
# Closed-form bound rows: (h_lower, h_upper, dim_lower, dim_upper, case)
# ---------------------------------------------------------------------------

Row = tuple  # (h_lo, h_up, dim_lo, dim_up, case)


def lower_factor(lam1: float, lam2: float, t: float) -> float | None:
    if math.isinf(lam1):
        return 0.0 if math.isinf(t) else lam2 / (lam2 + t)
    if not t < lam1:
        return None
    return (lam1 * lam2 - lam2 * t) / (lam1 * lam2 + lam1 * t)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= BOUNDARY_TOL


def hyperbolic_set_row(p: Profile, t: float) -> Row:
    """Bi-Lipschitz sandwich of a hyperbolic set, S = N (tau_lower substituted)."""
    l1, l2, lam1, lam2, h = p.ln_l1, p.ln_l2, p.lambda1, p.lambda2, p.h_top
    if _close(t, l1):
        return (0.0, 0.0, None, h / lam1, "boundary_zero")
    if t > l1:
        return (0.0, 0.0, 0.0, 0.0, "degenerate_zero")
    f_up = (l1 * l2 - t * l2) / (l1 * l2 + t * l1)
    if _close(l1, lam1) and _close(l2, lam2):
        h_val = f_up * h
        dim_val = (l1 + l2) / (l1 * (l2 + t)) * h
        return (h_val, h_val, dim_val, dim_val, "exact")
    f_low = lower_factor(lam1, lam2, t)
    h_low = None if f_low is None else f_low * h
    dim_low = None if f_low is None else (1.0 / l1 + f_low / l2) * h
    return (h_low, f_up * h, dim_low, (1.0 / lam1 + f_up / lam2) * h, "generic")


def expanding_row(p: Profile, t: float) -> Row:
    lam, lnl, h = p.lambda2, p.ln_l2, p.h_top
    f_up = 0.0 if math.isinf(t) else lnl / (lnl + t)
    if _close(lnl, lam):
        h_val = f_up * h
        dim_val = 0.0 if math.isinf(t) else h / (lnl + t)
        return (h_val, h_val, dim_val, dim_val, "exact")
    f_low = lam / (lam + t)
    return (f_low * h, f_up * h, f_low * h / lnl, f_up * h / lam, "generic")


def covering_row(p: Profile, t: float) -> Row:
    f = lower_factor(p.lambda1, p.lambda2, t)
    if f is None:
        return (None, None, None, None, "generic")
    if p.ln_l1 is not None:
        dim_low = (1.0 / p.ln_l1 + f / p.ln_l2) * p.h_top
    else:
        dim_low = f * p.h_top / p.ln_l2
    return (f * p.h_top, None, dim_low, None, "generic")


def exact_matrix_row(ref: MatrixRef, t: float) -> tuple[str, Row]:
    """The exact-value theorem for the spectrum, S = N."""
    if ref.expanding:
        d, mods = ref.dim, ref.clusters
        if len(mods) == 1:
            b = math.log(mods[0][0])
            h_val, dim_val = d * b * b / (b + t), d * b / (b + t)
            return "expanding_torus_exact", (h_val, h_val, dim_val, dim_val, "exact")
        big_h = sum(m * math.log(mod) for mod, m, _ in mods)
        ln1, lnd = math.log(mods[0][0]), math.log(mods[-1][0])
        f1, fd = ln1 / (ln1 + t), lnd / (lnd + t)
        return "expanding_torus_exact", (f1 * big_h, fd * big_h, f1 * big_h / lnd, fd * big_h / ln1, "generic")
    a, b = -math.log(ref.lam_s), math.log(ref.lam_u)
    if t < a - BOUNDARY_TOL:
        h = ref.d_s * (a * b - t * b) / (b + t)
        dim = ref.d_s * (a + b) / (b + t)
        return "toral_automorphism_exact", (h, h, dim, dim, "exact")
    if _close(t, a):
        return "toral_automorphism_exact", (0.0, 0.0, None, float(ref.d_s), "boundary_zero")
    return "toral_automorphism_exact", (0.0, 0.0, 0.0, 0.0, "degenerate_zero")


def shift_row(ref: ShiftRef, t: float) -> Row:
    """Mixing shift, S = N: one-sided h/(1+t); two-sided (1-t)/(1+t) h, 2h/(1+t)."""
    h = ref.h_top
    if ref.sided == "one":
        up = h / (1.0 + t)
        return (up, up, up, up, "exact")
    if _close(t, 1.0):
        return (0.0, 0.0, None, h, "boundary_zero")
    if t > 1.0:
        return (0.0, 0.0, 0.0, 0.0, "degenerate_zero")
    h_up, dim_up = (1.0 - t) / (1.0 + t) * h, 2.0 / (1.0 + t) * h
    return (h_up, h_up, dim_up, dim_up, "exact")


def sweep_row(ref, t: float) -> Row:
    if isinstance(ref, ShiftRef):
        return shift_row(ref, t)
    if ref.expanding or (ref.lam_s is not None and abs(ref.det) == 1):
        return exact_matrix_row(ref, t)[1]
    return hyperbolic_set_row(ref.crude, t)


# ---------------------------------------------------------------------------
# Report checks
# ---------------------------------------------------------------------------


class _Checks:
    def __init__(self) -> None:
        self.issues: list[Issue] = []

    def fail(self, field: str, message: str, gap: float | None = None) -> None:
        self.issues.append(Issue(field, message, gap))

    def equal(self, field: str, reported, expected) -> None:
        if reported != expected:
            numbers = all(isinstance(v, int) and not isinstance(v, bool) for v in (reported, expected))
            gap = float(abs(reported - expected)) if numbers else None
            self.fail(field, f"reported {reported!r}, expected {expected!r}", gap)

    def num(self, field: str, reported: str | None, expected: float | None) -> None:
        """A printed number against its reference; None means 'unavailable'."""
        if expected is None or reported is None:
            if (expected is None) != (reported is None):
                self.fail(field, f"reported {reported!r}, expected {expected!r}")
            return
        value = float(reported)
        if math.isinf(expected) or math.isinf(value):
            if value != expected:
                self.fail(field, f"reported {reported}, expected {expected!r}")
            return
        gap = abs(value - expected)
        if gap > REL_TOL * max(1.0, abs(expected)):
            self.fail(field, f"reported {reported}, reference {expected!r}", gap)

    def ordered(self, field: str, lo: str | None, hi: str | None) -> None:
        if lo is not None and hi is not None and float(lo) > float(hi) + REL_TOL:
            self.fail(field, f"lower {lo} exceeds upper {hi}")

    def row(self, field: str, reported: dict, expected: Row, case_key: str = "case") -> None:
        h_lo, h_up, d_lo, d_up, case = expected
        self.equal(f"{field}.{case_key}", reported.get(case_key), case)
        self.num(f"{field}.h_lower", reported.get("h_lower"), h_lo)
        self.num(f"{field}.h_upper", reported.get("h_upper"), h_up)
        self.num(f"{field}.dim_lower", reported.get("dim_lower"), d_lo)
        self.num(f"{field}.dim_upper", reported.get("dim_upper"), d_up)
        self.ordered(f"{field}.h", reported.get("h_lower"), reported.get("h_upper"))
        self.ordered(f"{field}.dim", reported.get("dim_lower"), reported.get("dim_upper"))

    def profile(self, field: str, reported: dict | None, expected: Profile | None) -> None:
        if (reported is None) != (expected is None):
            self.fail(field, f"reported {reported!r}, expected {expected!r}")
            return
        if expected is None:
            return
        for name in ("lambda1", "lambda2", "ln_l1", "ln_l2", "h_top"):
            self.num(f"{field}.{name}", reported.get(name), getattr(expected, name))


def _tau(system: System) -> float:
    return float(system.config["rates"][0]["phi"]["tau"])


def check(system: System, command: str, report: dict, ref) -> list[Issue]:
    """Every failed check of one CLI report against the references."""
    c = _Checks()
    if report.get("config") != system.config:
        c.fail("config", "report does not echo the config it was given")
    results = report.get("results", [])
    if len(results) != 1 or results[0].get("task") != command:
        c.fail("results", f"expected one {command!r} result")
        return c.issues
    res = results[0]
    if res.get("status") != "ok":
        c.fail("status", f"task errored: {res.get('error')}")
        return c.issues
    _CHECKS[command](c, system, res, ref)
    return c.issues


def _check_analyze(c: _Checks, system: System, res: dict, ref) -> None:
    if isinstance(ref, MatrixRef):
        c.equal("dim", res.get("dim"), ref.dim)
        c.equal("determinant", res.get("determinant"), ref.det)
        c.equal("kind", res.get("kind"), "automorphism" if abs(ref.det) == 1 else "endomorphism")
        got = res.get("clusters", [])
        shape = [(g.get("multiplicity"), g.get("has_nonreal")) for g in got]
        want = [(m, nonreal) for _, m, nonreal in ref.clusters]
        if shape != want:
            gaps = [min(abs(float(g["modulus"]) - mod) for mod, _, _ in ref.clusters) for g in got]
            gaps += [min(abs(float(g["modulus"]) - mod) for g in got) for mod, _, _ in ref.clusters]
            c.fail("clusters", f"(multiplicity, nonreal) {shape}, expected {want}", max(gaps))
        else:
            for i, (g, (mod, _, _)) in enumerate(zip(got, ref.clusters)):
                c.num(f"clusters[{i}].modulus", g.get("modulus"), mod)
        c.equal("d_s", res.get("d_s"), ref.d_s)
        c.equal("d_u", res.get("d_u"), ref.d_u)
        c.equal("is_hyperbolic", res.get("is_hyperbolic"), ref.hyperbolic)
        c.equal("is_expanding", res.get("is_expanding"), ref.expanding)
        c.num("lambda_s_mod", res.get("lambda_s_mod"), ref.lam_s)
        c.num("lambda_u_mod", res.get("lambda_u_mod"), ref.lam_u)
        if ref.hyperbolic:
            c.num("h_top", res.get("h_top"), ref.h_top)
            c.profile("crude_profile", res.get("crude_profile"), ref.crude)
            c.profile("sharp_profile", res.get("sharp_profile"), ref.sharp)
        return
    c.num("h_top", res.get("h_top"), ref.h_top)
    c.equal("period", res.get("period"), ref.period)
    c.equal("sided", res.get("sided"), ref.sided)
    if ref.kind == "sofic":
        c.equal("states", res.get("states"), len(ref.adjacency))
        c.equal("labels", tuple(res.get("labels", ())), ref.labels)
        return
    k = len(ref.adjacency)
    c.equal("alphabet_size", res.get("alphabet_size"), k)
    classes = res.get("classes", [])
    steps_ok = len(classes) == k and all(
        classes[b] == (classes[a] + 1) % ref.period
        for a in range(k)
        for b in range(k)
        if ref.adjacency[a][b]
    )
    if not steps_ok:
        c.fail("classes", "cyclic classes do not advance by one along every edge")
    c.equal("mixing_gap", res.get("mixing_gap"), ref.mixing_gap)


def _check_bounds(c: _Checks, system: System, res: dict, ref) -> None:
    t = _tau(system)
    c.num("tau_upper", res.get("tau_upper"), t)
    c.num("tau_lower", res.get("tau_lower"), t)
    rows = res.get("rows", [])
    if isinstance(ref, ShiftRef):
        expected = [(f"{ref.sided}_sided_shift", shift_row(ref, t))]
    else:
        make = expanding_row if ref.expanding else hyperbolic_set_row
        expected = [("crude_sandwich", make(ref.crude, t))]
        if ref.sharp is not None:
            expected.append(("sharp_sandwich", make(ref.sharp, t)))
        expected.append(("covering_lower", covering_row(ref.crude, t)))
    c.equal("rows.rule", [r.get("rule") for r in rows], [name for name, _ in expected])
    for i, (row, (_, want)) in enumerate(zip(rows, expected)):
        c.row(f"rows[{i}]", row, want)
        if isinstance(ref, ShiftRef):
            c.num(f"rows[{i}].h_top", row.get("h_top"), ref.h_top)
            c.equal(f"rows[{i}].period", row.get("period"), ref.period)


def _check_exact(c: _Checks, system: System, res: dict, ref) -> None:
    t = _tau(system)
    c.num("tau_lower", res.get("tau_lower"), t)
    rule, want = exact_matrix_row(ref, t)
    rows = res.get("rows", [])
    c.equal("rows.rule", [r.get("rule") for r in rows], [rule])
    if rows:
        c.row("rows[0]", rows[0], want)


def _check_sweep(c: _Checks, system: System, res: dict, ref) -> None:
    taus = system.config["sweep"]["taus"]
    rows = res.get("rows", [])
    c.equal("rows.count", len(rows), len(taus))
    for i, (row, t) in enumerate(zip(rows, taus)):
        c.num(f"rows[{i}].tau", row.get("tau"), t)
        c.row(f"rows[{i}]", row, sweep_row(ref, t), case_key="case_tag")


def _check_oracle(c: _Checks, system: System, res: dict, ref: ShiftRef) -> None:
    """Each row's bracket must be one grid step wide and contain h/(1+tau);
    a miss records the distance from the bracket to that value."""
    c.num("h_top", res.get("h_top"), ref.h_top)
    rates = system.config["rates"]
    params = system.config["oracle_params"]
    rows = res.get("rows", [])
    c.equal("rows.count", len(rows), len(rates))
    for i, row in enumerate(rows):
        t = float(rates[i]["phi"]["tau"])
        predicted = ref.h_top / (1.0 + t)
        c.num(f"rows[{i}].tau", row.get("tau"), t)
        c.num(f"rows[{i}].shift_exact_value", row.get("shift_exact_value"), predicted)
        lo, hi = float(row["bracket_lo"]), float(row["bracket_hi"])
        if not lo <= predicted <= hi:
            gap = max(lo - predicted, predicted - hi)
            c.fail(f"rows[{i}].bracket", f"[{lo}, {hi}] misses h/(1+tau) = {predicted!r}", gap)
        if abs((hi - lo) - params.get("grid_step", 0.01)) > 1e-9:
            c.fail(f"rows[{i}].bracket_width", f"[{lo}, {hi}] is not one grid step wide")
        if float(row["moran_estimate"]) > predicted * (1.0 + REL_TOL):
            c.fail(f"rows[{i}].moran_estimate", f"lower estimate {row['moran_estimate']} exceeds {predicted!r}")
        c.equal(f"rows[{i}].depth", row.get("depth"), params["depth"])
        c.equal(f"rows[{i}].stages", row.get("stages"), params["stages"])


def floor_guarded(x: float) -> int:
    r = round(x)
    return int(r) if abs(x - r) <= 1e-9 else math.floor(x)


def _target_symbols(target: dict, n: int, length: int) -> list[int]:
    cycles = [target["cycle"]] if target["kind"] == "symbols" else [s["cycle"] for s in target["cycle"]]
    cyc = cycles[n % len(cycles)]
    return [cyc[j % len(cyc)] for j in range(length)]


def _check_witness(c: _Checks, system: System, res: dict, ref: ShiftRef) -> None:
    t = _tau(system)
    target = system.config["rates"][0]["target"]
    rows = res.get("rows", [])
    c.equal("rows.count", len(rows), 1)
    for i, row in enumerate(rows):
        planned = row.get("planned_hits", [])
        hits = row.get("hits", [])
        c.equal(f"rows[{i}].all_verified", row.get("all_verified"), True)
        c.equal(f"rows[{i}].independently_confirmed", row.get("independently_confirmed"), planned)
        c.equal(f"rows[{i}].hits.time", [h[0] for h in hits], planned)
        if any(b <= a for a, b in zip(planned, planned[1:])):
            c.fail(f"rows[{i}].planned_hits", "hit times are not strictly increasing")
        for time, achieved, required in hits:
            c.equal(f"rows[{i}].hits[{time}].required", required, floor_guarded(t * time) + 1)
            if achieved < required:
                c.fail(f"rows[{i}].hits[{time}]", f"achieved {achieved} < required {required}")
        if len(ref.adjacency) > 10:
            continue  # multi-digit symbols are printed without separators
        word = [int(ch) for ch in row.get("prefix", "")]
        if planned:
            eta = system.config.get("oracle_params", {}).get("eta", 0.05)
            c.equal(f"rows[{i}].prefix.length", len(word), planned[-1] + floor_guarded((t + eta) * planned[-1]) + 1)
        if any(not ref.adjacency[a][b] for a, b in zip(word, word[1:])):
            c.fail(f"rows[{i}].prefix", "prefix is not an admissible word")
        for time, achieved, _ in hits:
            window = word[time:]
            z = _target_symbols(target, time, len(window))
            agree = next((j for j, (x, y) in enumerate(zip(window, z)) if x != y), len(window))
            c.equal(f"rows[{i}].hits[{time}].achieved", achieved, agree + 1)


_CHECKS = {
    "analyze": _check_analyze,
    "bounds": _check_bounds,
    "exact": _check_exact,
    "sweep": _check_sweep,
    "oracle": _check_oracle,
    "witness": _check_witness,
}


def oracle_stats(system: System, res: dict, ref: ShiftRef, stats: dict) -> None:
    """Accumulate witness prefix symbols and hits, and oracle brackets that
    contain the exact value h/(1+tau)."""
    rates = system.config["rates"]
    for i, row in enumerate(res.get("rows", [])):
        tau = float(rates[i]["phi"]["tau"])
        if res["task"] == "oracle":
            stats["brackets"] += 1
            lo, hi = float(row["bracket_lo"]), float(row["bracket_hi"])
            stats["brackets_exact"] += lo <= ref.h_top / (1.0 + tau) <= hi
            continue
        hits = row["planned_hits"]
        if hits:
            eta = system.config.get("oracle_params", {}).get("eta", 0.05)
            stats["prefix_symbols"] += hits[-1] + floor_guarded((tau + eta) * hits[-1]) + 1
        stats["planned"] += len(hits)
        stats["confirmed"] += len(set(row["independently_confirmed"]) & set(hits))
