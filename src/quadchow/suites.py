"""Named verification suites: every identity the engine exists to re-derive,
instantiated case by case with exact equality checks.

Each suite yields :class:`CaseResult` records with the instantiating
parameters and both sides, which `run_suite` prints, flag cycles with the
windows of the orientation asked for, so the command-line front end can emit
per-case pass/fail lines and a machine-readable report.  All checks are exact
(integer or mod-2); there are no tolerances anywhere.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from quadchow import quadpow
from quadchow.bridge import (
    MixedCycle,
    alpha,
    eta,
    flag_cycle_to_quad,
    incidence_class,
    eta_pushdown,
    eta_pushdown_expansion,
    action_via_pullpush,
    degree_congruence,
    theta_action,
    theta_prime,
    validate_incidence,
)
from quadchow.quadpow import (
    Correspondence,
    QuadCycle,
    action,
    alternating_sym,
    basis_symbols,
    compose,
    delta_i,
    diagonal_class,
    external,
    external_list,
    format_cycle,
    h_power_cycle,
    l_cycle,
    monomial_cycle,
    one,
    primordial_shape,
    quad_context,
    rho_i,
    swap_ruling,
    sym,
    sym_h_chain,
)
from quadchow.schubert import FlagCycle, build_geometry, pullback_ladder

__all__ = ["CaseResult", "SUITES", "run_suite", "suite_names"]

MAX_TEXT = 2000


@dataclass
class CaseResult:
    """One case; a suite yields both sides as computed, and `run_suite`
    replaces each by its printed form."""

    id: str
    params: dict
    status: str
    lhs: object
    rhs: object

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def _clip(text: str) -> str:
    if len(text) > MAX_TEXT:
        return text[: MAX_TEXT - 3] + "..."
    return text


def _case(cid: str, params: dict, lhs, rhs) -> CaseResult:
    return CaseResult(cid, params, "pass" if lhs == rhs else "fail", lhs, rhs)


def _printed(x, orientation: int) -> str:
    """A side as printed: a flag cycle with the orientation's windows."""
    if isinstance(x, FlagCycle):
        x = x.render(orientation)
    return _clip(x if isinstance(x, str) else repr(x))


# -- suite implementations -------------------------------------------------------


def suite_lemma21(n: int, seed: int = 0) -> Iterator[CaseResult]:
    """The split-diagonal chain on powers of the quadric (quadric powers only)."""
    ctx = quad_context(n)
    d = ctx.d
    quadpow.check_sym_factors(d + 1)  # the top orbit sum, before any case
    # base: the mod-2 diagonal identity, under both ruling namings
    diag = diagonal_class(ctx, p=2)
    corr = delta_i(ctx, 1, p=2)
    if n % 4 == 0:
        hd = h_power_cycle(ctx, d, p=2)
        corr = corr + external(hd, hd)
    yield _case("diagonal(i=1)", {"n": n}, corr, diag)
    yield _case("diagonal-swapped(i=1)", {"n": n}, swap_ruling(corr), diag)
    for i in range(2, d + 1):
        prefix = [h_power_cycle(ctx, j) for j in range(1, i)]
        # cyclic-orbit sum of Delta_{i-1} x h^{i-1}
        lhs = QuadCycle(ctx, i + 1, {})
        cur = external(delta_i(ctx, i - 1), h_power_cycle(ctx, i - 1))
        cyc = tuple(list(range(1, i + 1)) + [0])
        for j in range(i + 1):
            if j:
                cur = cur.permute(cyc)
            lhs = lhs + cur
        rhs = sym(external_list(prefix + [one(ctx, 1), l_cycle(ctx, 0)]))
        for k in range(i - 1, d + 1):
            rhs = rhs + sym(
                external_list(prefix + [h_power_cycle(ctx, k), l_cycle(ctx, k)])
            )
        yield _case("orbit-sum", {"n": n, "i": i}, lhs, rhs)
        doubled = sym(
            external_list(prefix + [h_power_cycle(ctx, i - 1), l_cycle(ctx, i - 1)])
        )
        half = doubled.divide_exact(2)
        alt = alternating_sym(
            external_list(prefix + [h_power_cycle(ctx, i - 1), l_cycle(ctx, i - 1)])
        )
        yield _case("even-part", {"n": n, "i": i}, half, alt)
        yield _case("difference", {"n": n, "i": i}, delta_i(ctx, i), rhs - doubled)


def suite_lemma24(n: int, seed: int = 0) -> Iterator[CaseResult]:
    """The Z/W pullback ladders on F(i-1, i); this is the convention gate."""
    M = build_geometry(n)
    for i in range(1, M.d + 1):
        for case_id, params, lhs, rhs in pullback_ladder(M, i):
            yield _case(case_id, params, lhs, rhs)


def suite_lemma25(n: int, seed: int = 0) -> Iterator[CaseResult]:
    """The pushforward-of-product summation identity on consecutive grassmannians."""
    M = build_geometry(n)
    d = M.d
    for i in range(1, d + 1):
        for k in range(i, d + 1):
            for m in range(0, k + 1):
                lhs = M.pullpush(M.class_W(i, k - i) * M.class_Z(i, n - i - m), [i - 1])
                rhs = M.w_sigma_sum(i, k - m, range(max(i - m, 0), min(k - m, i) + 1))
                yield _case("sum-identity", {"n": n, "i": i, "k": k, "m": m}, lhs, rhs)


def suite_lemma26(n: int, seed: int = 0) -> Iterator[CaseResult]:
    """Tautological Chern classes mod 2 as pull-pushes of elementary classes,
    with the intermediate identities checked separately."""
    M = build_geometry(n)
    d = M.d
    for i in range(1, d + 1):
        for j in range(0, i + 1):
            lhs = M.chern_taut(i - 1, j, 2)
            rhs = M.pullpush(M.class_Z(i, n - 2 * i + j, 2), [i - 1])
            yield _case("chern-pushdown", {"n": n, "i": i, "j": j}, lhs, rhs)
        for j in range(1, i + 1):
            # the Whitney truncation mod 2
            lhs = M.chern_taut(i - 1, j, 2)
            rhs = M.chern_quot(i - 1, j, 2) + M.w_sigma_sum(
                i, j, range(max(1, j - d + i - 1), j), 2
            )
            yield _case("whitney-truncation", {"n": n, "i": i, "j": j}, lhs, rhs)
        for j in range(1, d + 1):
            # the summation-identity instance the induction uses (integral)
            lhs = M.pullpush(M.class_W(i, d - i) * M.class_Z(i, n - i - d + j), [i - 1])
            rhs = M.w_sigma_sum(i, j, range(max(j - d + i, 0), j + 1))
            yield _case("summation-instance", {"n": n, "i": i, "j": j}, lhs, rhs)
            # the top-W absorption mod 2
            lhs = M.pullpush(M.class_W(i, d - i, 2) * M.class_Z(i, n - i - d + j, 2), [i - 1])
            prev = M.pullpush(M.class_Z(i, n - i - d + j - 1, 2), [i - 1])
            rhs = M.class_W(i - 1, d - i + 1, 2) * prev
            yield _case("top-absorption", {"n": n, "i": i, "j": j}, lhs, rhs)
        # the quotient-bundle facts the induction quotes
        for j in range(0, d - i + 1 + 1):
            yield _case(
                "quotient-chern", {"n": n, "i": i, "j": j},
                M.class_W(i, j), M.chern_quot(i, j),
            )
        for l in range(d - i + 1, n + 1 - i + 1):
            yield _case(
                "quotient-even", {"n": n, "i": i, "l": l},
                M.chern_quot(i, l, 2), M.zero([i], 2),
            )


def suite_lemma32(n: int, seed: int = 0) -> Iterator[CaseResult]:
    """Route equivalence: the direct correspondence action of the incidence
    pushforward against the push-pull expression through G_i x X^i."""
    M = build_geometry(n)
    ctx = M.ctx
    for i in range(0, M.d + 1):
        validate_incidence(M, i)
        yield CaseResult(
            "incidence-gate", {"n": n, "i": i}, "pass", "action", "pull-push"
        )
    for i in range(1, M.d + 1):
        corr = Correspondence(theta_action(M, i, 2), 1, i)
        for s in basis_symbols(ctx):
            x = monomial_cycle(ctx, [s], p=2)
            direct = action(corr, x)
            route = action_via_pullpush(M, i, x)
            yield _case(
                "route", {"n": n, "i": i, "x": quadpow._format_symbol(s)}, direct, route
            )


def suite_prop31(n: int, seed: int = 0) -> Iterator[CaseResult]:
    """The three-case action formula, plus the expansion machinery behind it
    (the mixed-cycle factorization, its pullback relation, the double-sum
    rewriting, the coordinate extractions and the Whitney collapse)."""
    M = build_geometry(n)
    ctx, d = M.ctx, M.d
    for i in range(1, d + 1):
        al = alpha(M, i, p=2)
        for k in range(0, d + 1):
            got = action(al, h_power_cycle(ctx, k, 2))
            if k == 0:
                exp = sym_h_chain(ctx, list(range(1, i)) + [0], 2)
            elif k <= i - 1:
                exp = QuadCycle(ctx, i, {}, 2)
            else:
                exp = sym_h_chain(ctx, list(range(1, i)) + [k], 2)
            yield _case("action", {"n": n, "i": i, "k": k}, got, exp)
        # the mixed pushdown expression itself
        for k in range(i, d + 1):
            direct = eta_pushdown(M, i, k)
            yield _case(
                "pushdown", {"n": n, "i": i, "k": k},
                direct, sym_h_chain(ctx, list(range(1, i)) + [k], 2),
            )
    # the mixed-cycle factorization and its pullback relation
    for i in range(2, d + 1):
        I = [i - 1, i]
        A = incidence_class(M, i, 2).pull_flag(I).pull_x(i, [i - 1])
        B = MixedCycle.from_flag(M.class_Z(i - 1, n - i + 1, 2), i - 1) * eta(M, i - 1, 2)
        B = B.pull_flag(I).pull_x(i, list(range(i - 1)))
        lhs = (A * B).push_flag([i])
        rhs = MixedCycle.from_flag(M.class_Z(i, n - i, 2), i) * eta(M, i, 2)
        yield _case("factorization", {"n": n, "i": i}, lhs, rhs)
        lhs = incidence_class(M, i - 1, 2).pull_flag(I)
        xi = MixedCycle.from_flag(M.class_O1(i, 2), 1)
        h1 = MixedCycle.from_quad(M, I, h_power_cycle(ctx, 1, 2))
        rhs = (xi + h1) * incidence_class(M, i, 2).pull_flag(I)
        yield _case("incidence-pullback", {"n": n, "i": i}, lhs, rhs)
    # the double-sum rewriting and the coordinate chain
    for i in range(2, d + 1):
        for k in range(i, d + 1):
            direct = eta_pushdown(M, i, k)
            yield _case(
                "double-sum", {"n": n, "i": i, "k": k},
                direct, eta_pushdown_expansion(M, i, k),
            )
            # coordinate on top right h^{i-1}, both descriptions
            coord = _coordinate_on_last(direct, i - 1)
            yield _case(
                "coordinate-direct", {"n": n, "i": i, "k": k},
                coord, sym_h_chain(ctx, list(range(1, i - 1)) + [k], 2),
            )
            t = k - i + 1
            inner = M.w_sigma_sum(i, t, range(1, min(t, i) + 1), 2) * M.class_Z(
                i - 1, n - i + 1, 2
            )
            terms = eta(M, i - 1, 2).action_on_flag(inner)
            yield _case("coordinate-expansion", {"n": n, "i": i, "k": k}, coord, terms)
            # Whitney collapse and the resulting next pushdown
            acc = M.w_sigma_sum(i, t, range(0, min(t, i) + 1), 2)
            yield _case(
                "whitney-collapse", {"n": n, "i": i, "k": k}, acc, M.zero([i - 1], 2)
            )
            inner = M.class_W(i - 1, t, 2) * M.class_Z(i - 1, n - i + 1, 2)
            got314 = eta(M, i - 1, 2).action_on_flag(inner)
            yield _case(
                "pushdown-next", {"n": n, "i": i, "k": k},
                got314, sym_h_chain(ctx, list(range(1, i - 1)) + [k], 2),
            )
            # coordinate on top right h^k: the alternative extraction
            coord_k = _coordinate_on_last(direct, k)
            yield _case(
                "retrieved-coordinate", {"n": n, "i": i, "k": k},
                coord_k, sym_h_chain(ctx, range(1, i), 2),
            )
    # the retrieved identity shape: p(z_i . eta_i) = sym(h^1 x ... x h^i)
    for i in range(1, d + 1):
        got = eta(M, i, 2).action_on_flag(M.class_Z(i, n - i, 2))
        yield _case(
            "retrieved-identity", {"n": n, "i": i},
            got, sym_h_chain(ctx, range(1, i + 1), 2),
        )


def _coordinate_on_last(x: QuadCycle, m: int) -> QuadCycle:
    """Pair the last slot against l_m and push it out ('coordinate on top right h^m')."""
    ctx = x.ctx
    dual = l_cycle(ctx, m, x.p).pull_proj(x.m, [x.m - 1])
    return (x * dual).push_proj(list(range(x.m - 1)))


def suite_cor315(n: int, seed: int = 0) -> Iterator[CaseResult]:
    """alpha_i mod 2 differs from the split-diagonal cycle by h-power products."""
    M = build_geometry(n)
    ctx = M.ctx
    for i in range(1, M.d + 1):
        al = alpha(M, i, p=2).cycle
        beta = al - delta_i(ctx, i, p=2)
        ok = quadpow.is_nonessential(beta)
        yield CaseResult(
            "nonessential", {"n": n, "i": i},
            "pass" if ok else "fail", format_cycle(beta), "h-power span",
        )
        yield CaseResult(
            "symmetric", {"n": n, "i": i},
            "pass" if _symmetric_check(al) else "fail",
            "alpha_i", "S_{i+1}-invariant",
        )


def _symmetric_check(x: QuadCycle) -> bool:
    """x is fixed by the m - 1 adjacent transpositions, which generate S_m."""
    slots = list(range(x.m))
    return all(x.permute(slots[:k] + [k + 1, k] + slots[k + 2 :]) == x for k in range(x.m - 1))


def suite_prop316(n: int, seed: int = 0) -> Iterator[CaseResult]:
    """The degree-congruence criterion, exhaustively over sorted index tuples."""
    M = build_geometry(n)
    d = M.d
    for i in range(1, d):
        for k in range(i + 1, d + 1):
            for m in range(1, i + 1):
                expected_set = sorted([k] + [x for x in range(1, i + 1) if x != m])
                for a in itertools.combinations_with_replacement(range(d + 1), i):
                    yield _case(
                        "degree",
                        {"n": n, "i": i, "k": k, "m": m, "a": list(a)},
                        degree_congruence(M, i, k, m, a),
                        1 if sorted(a) == expected_set else 0,
                    )


def suite_lemma42(n: int, seed: int = 0) -> Iterator[CaseResult]:
    """Composition against the 1-primordial shape, over every coefficient vector."""
    ctx = quad_context(n)
    d = ctx.d
    quadpow.check_sym_factors(d)  # rho_d, the largest symmetrization, before any case
    for i1 in range(2, d + 1):
        bits_len = max(0, d - i1 + 2 - i1)
        for bits in itertools.product((0, 1), repeat=bits_len):
            pi = primordial_shape(ctx, i1, bits)
            for i in range(1, i1):
                mult = external(one(ctx, 1, 2), h_power_cycle(ctx, i1 - i, 2))
                tau = Correspondence(mult * pi.cycle, 1, 1)
                lhs = compose(Correspondence(rho_i(ctx, i, 2), 1, i), tau).cycle
                rhs = external(one(ctx, 1, 2), rho_i(ctx, i - 1, 2))
                yield _case(
                    "composite", {"n": n, "i1": i1, "i": i, "a": list(bits)}, lhs, rhs
                )
                pulled = lhs.pull_diagonal([0, 0] + list(range(1, i)), i)
                yield _case(
                    "diagonal-pullback", {"n": n, "i1": i1, "i": i, "a": list(bits)},
                    pulled, rho_i(ctx, i - 1, 2),
                )


def suite_prop51(n: int, seed: int = 0) -> Iterator[CaseResult]:
    """The action table of the two-variable correspondence into F(0,i) and the
    pushforward identities that descend the h-chain."""
    M = build_geometry(n)
    ctx, d = M.ctx, M.d
    for i in range(1, d + 1):
        tp = theta_prime(M, i)
        I = frozenset([0, i])
        atoms = [h_power_cycle(ctx, k, 2) for k in range(i)] + [l_cycle(ctx, 0, 2)]
        labels = ["h^%d" % k for k in range(i)] + ["l0"]
        for ia in range(len(atoms)):
            for ib in range(len(atoms)):
                if ia == ib:
                    continue
                got = tp.action_on_quad(external(atoms[ia], atoms[ib]))
                if ib == len(atoms) - 1:
                    exp = M.pullback(I, M.h_power(ia, 2)) * M.pullback(
                        I, M.class_Z(i, n - i, 2)
                    )
                else:
                    exp = M.zero(I, 2)
                yield _case(
                    "action-table",
                    {"n": n, "i": i, "alpha": labels[ia], "beta": labels[ib]},
                    got, exp,
                )
        got = tp.id_times_action(rho_i(ctx, i, 2))
        exp = None
        for k in range(i):
            quadpart = sym_h_chain(ctx, [j for j in range(i) if j != k], 2)
            flagpart = M.pullback(I, M.h_power(k, 2)) * M.pullback(
                I, M.class_Z(i, n - i, 2)
            )
            term = MixedCycle.from_quad(M, I, quadpart) * MixedCycle.from_flag(
                flagpart, i - 1
            )
            exp = term if exp is None else exp + term
        yield _case("rho-image", {"n": n, "i": i}, got, exp)
        mult = MixedCycle.from_flag(M.pullback(I, M.h_power(1, 2)), i - 1)
        pushed = (got * mult).push_flag([i])
        exp2 = MixedCycle.from_quad(
            M, frozenset([i]), sym_h_chain(ctx, range(i - 1), 2)
        ) * MixedCycle.from_flag(M.class_Z(i, n - i, 2), i - 1)
        yield _case("descend-first", {"n": n, "i": i}, pushed, exp2)
        for k in range(2, i):
            inc = incidence_class(M, i, 2)
            m1 = inc.pull_x(i - k + 1, [i - k])
            hk = MixedCycle.from_quad(
                M, frozenset([i]),
                h_power_cycle(ctx, k, 2).pull_proj(i - k + 1, [i - k]),
            )
            m2 = MixedCycle.from_quad(
                M, frozenset([i]), sym_h_chain(ctx, range(i - k + 1), 2)
            ) * MixedCycle.from_flag(M.class_Z(i, n - i, 2), i - k + 1)
            lhs = (m1 * hk * m2).push_x(list(range(i - k)))
            rhs = MixedCycle.from_quad(
                M, frozenset([i]), sym_h_chain(ctx, range(i - k), 2)
            ) * MixedCycle.from_flag(M.class_Z(i, n - i, 2), i - k)
            yield _case("descend(k)", {"n": n, "i": i, "k": k}, lhs, rhs)


def suite_degrees_gd(n: int, seed: int = 0) -> Iterator[CaseResult]:
    """The multiset criterion for degrees of products of the highest-row
    elementary classes, exhaustive over all sorted tuples."""
    M = build_geometry(n)
    d = M.d
    for e in range(0, d + 1):
        for a in itertools.combinations_with_replacement(range(d + 1), e + 1):
            classes = [M.class_Z(d, n - d - aj) for aj in a]
            yield _case(
                "multiset", {"n": n, "a": list(a)},
                M.deg_product(classes) % 2, 1 if sorted(a) == list(range(d + 1)) else 0,
            )


def suite_cross_model(n: int, seed: int = 0) -> Iterator[CaseResult]:
    """The quadric ring computed combinatorially against the Schubert model of
    G_0: products, degrees and mod-2 reductions over all basis pairs, plus a
    seeded sample of triple products."""
    M = build_geometry(n)
    ctx = M.ctx
    syms = basis_symbols(ctx)
    for s in syms:
        for t in syms:
            quad = monomial_cycle(ctx, [s]) * monomial_cycle(ctx, [t])
            flag = M.x_class(s) * M.x_class(t)
            back = flag_cycle_to_quad(M, flag)
            yield _case(
                "product",
                {"n": n, "s": quadpow._format_symbol(s), "t": quadpow._format_symbol(t)},
                quad, back,
            )
            yield _case(
                "degree",
                {"n": n, "s": quadpow._format_symbol(s), "t": quadpow._format_symbol(t)},
                quad.push_proj([]).coeffs.get((), 0), M.deg(flag),
            )
            yield _case(
                "mod2",
                {"n": n, "s": quadpow._format_symbol(s), "t": quadpow._format_symbol(t)},
                quad.mod2(), flag_cycle_to_quad(M, flag.mod2()),
            )
    rng = random.Random(seed)
    for trial in range(20):
        triple = [rng.choice(syms) for _ in range(3)]
        quad = monomial_cycle(ctx, [triple[0]])
        flag = M.x_class(triple[0])
        for s in triple[1:]:
            quad = quad * monomial_cycle(ctx, [s])
            flag = flag * M.x_class(s)
        yield _case(
            "triple-product",
            {"n": n, "syms": [quadpow._format_symbol(s) for s in triple]},
            quad, flag_cycle_to_quad(M, flag),
        )
    for k in range(0, n + 1):
        yield _case(
            "h-power", {"n": n, "k": k},
            h_power_cycle(ctx, k), flag_cycle_to_quad(M, M.h_power(k)),
        )


SUITES: dict[str, Callable[..., Iterator[CaseResult]]] = {
    "lemma21": suite_lemma21,
    "lemma24": suite_lemma24,
    "lemma25": suite_lemma25,
    "lemma26": suite_lemma26,
    "lemma32": suite_lemma32,
    "prop31": suite_prop31,
    "cor315": suite_cor315,
    "prop316": suite_prop316,
    "lemma42": suite_lemma42,
    "prop51": suite_prop51,
    "degrees-gd": suite_degrees_gd,
    "cross-model": suite_cross_model,
}


def suite_names() -> list[str]:
    return sorted(SUITES)


def run_suite(
    name: str,
    n: int,
    orientation: int = 1,
    seed: int = 0,
    progress: Callable[[CaseResult], None] | None = None,
) -> list[CaseResult]:
    """Every case of one suite, in order, its sides printed with the windows
    of `orientation` (1 or -1: the ruling named G_d at even n).  An n outside
    the suite's range raises RangeError from the suite's first step, before
    any case."""
    if name not in SUITES:
        raise KeyError("unknown suite: %r" % (name,))
    if orientation not in (1, -1):
        raise ValueError("orientation must be 1 or -1")
    results = []
    for case in SUITES[name](n, seed):
        case.lhs, case.rhs = _printed(case.lhs, orientation), _printed(case.rhs, orientation)
        results.append(case)
        if progress is not None:
            progress(case)
    return results
