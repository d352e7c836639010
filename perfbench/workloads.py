"""The benchmark's four workloads.

Each workload is a list of questions.  A question's `ask` is one verdict:
one public `relwp` call (or a replay plus an oracle check) answering one
question, and the only part that is timed.  Its `grade` compares the verdict
with an answer known independently of the code path under test, and counts
the elementary checks the verdict reports deciding.

Inputs come from `--seed` alone.  The law batteries and the strictness
battery are exhaustive and take no seed; the random derivations, the ndet
claims and the random While statements do.

Every `relwp` function is reached through its module object (``O.f``, not
``from ... import f``), so the traced run sees the calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Tuple

from relwp import generic as G
from relwp import genprog as GP
from relwp import observations as O
from relwp import programs as P
from relwp import rules as R
from relwp import specmonads as sm
from relwp import whilelang as W
from relwp import domains as D

WORKLOADS = ("laws", "exc_strict", "ni", "oracle")
SIZES = ("full", "tiny")

# Elementary checks one pass must decide, per workload and size.  A verdict
# that checks less (an early exit, a smaller battery) fails the gate, so
# checks_per_s cannot rise by checking less.
RECORDED_CHECKS: Dict[str, Dict[str, int]] = {
    "laws": {"full": 91552, "tiny": 3244},
    "exc_strict": {"full": 4232, "tiny": 88},
    "ni": {"full": 62, "tiny": 10},
    "oracle": {"full": 3520, "tiny": 24},
}

RIGHT, WRONG = "right", "wrong"


@dataclass(frozen=True)
class Grade:
    checks: int
    status: str          # RIGHT or WRONG
    decided: bool        # False when the verdict came back unknown or not definite
    note: str = ""


@dataclass(frozen=True)
class Question:
    id: str
    ask: Callable[[], object]
    grade: Callable[[object], Grade]
    input: str = ""      # the generated input, as printed with a wrong verdict


def spread_out(groups: List[List[Question]]) -> List[Question]:
    """All questions, each group's spaced evenly over the pass.  The machine's
    speed drifts over seconds, so a block of similar verdicts asked back to
    back would move the median with the drift; spaced out, every kind of
    verdict sees the pass's average speed."""
    keyed = [((i + 0.5) / len(g), gi, q) for gi, g in enumerate(groups) for i, q in enumerate(g)]
    return [q for _, _, q in sorted(keyed, key=lambda k: k[:2])]


def build(workload: str, seed: int, size: str = "full") -> List[Question]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; expected one of {SIZES}")
    return _BY_NAME[workload](seed, size == "tiny")


# ---------------------------------------------------------------------------
# laws: the morphism-law batteries of the paper's observations

Z2 = D.domain("Z2", 2)


def _law_question(qid: str, obs, battery, bind_kinds: Tuple[str, ...]) -> Question:
    """Expected kinds follow the paper: the ret law is an equality for every
    observation; the bind law is an equality for the strict ones, strictly
    less for forall-exists, and never a violation for the lax prob one."""

    def grade(rep) -> Grade:
        decided = (rep.ret_law.definite and rep.bind_law.definite
                   and "unknown" not in (rep.ret_law.kind, rep.bind_law.kind))
        ok = (rep.ret_law.kind in ("equal", "unknown")
              and rep.bind_law.kind in bind_kinds + ("unknown",))
        return Grade(rep.ret_law.checked + rep.bind_law.checked, RIGHT if ok else WRONG,
                     decided, f"ret {rep.ret_law.kind}, bind {rep.bind_law.kind}")

    return Question(qid, lambda: O.check_morphism_laws(obs, battery), grade)


# Each battery is asked as several law reports.  A report covers every middle
# pair against a strided slice of the continuation tables; the ret instances
# go with the first slice.  The slice counts shape the verdict times into two
# clusters: twenty state reports about twice the cost of all the others.  The
# median then sits inside the lower cluster and the tail (ten verdicts above
# it) inside the upper one, so neither jumps between batteries of different
# sizes as the machine's speed wanders.
def _law_slices(name: str, slices: int, obs, battery,
                bind_kinds: Tuple[str, ...]) -> List[Question]:
    n = min(slices, len(battery.fs))
    return [_law_question(f"laws/{name}/{k}", obs,
                          replace(battery, rets=battery.rets if k == 0 else (),
                                  fs=battery.fs[k::n]), bind_kinds)
            for k in range(n)]


def _laws(seed: int, tiny: bool) -> List[Question]:
    del seed  # exhaustive batteries
    if tiny:
        state = O.battery_state(Z2, Z2, depth=2, table_limit=2, m_limit=3)
        imp = O.battery_imp(Z2, Z2, depth=2, table_limit=2, m_limit=3)
        ndet = O.battery_ndet(Z2, depth=2, table_limit=8)
        prob = O.battery_prob(Z2, depth=2, table_limit=2, m_limit=3)
    else:
        state = O.battery_state(Z2, Z2, depth=2)
        imp = O.battery_imp(Z2, Z2, depth=2)
        ndet = O.battery_ndet(Z2, depth=3)
        prob = O.battery_prob(Z2, depth=2, m_limit=None)
    eq = ("equal",)
    return spread_out([
        _law_slices("st", 20, O.observation_st(), state, eq),
        _law_slices("part", 24, O.observation_part(), imp, eq),
        _law_slices("tot", 24, O.observation_tot(), imp, eq),
        _law_slices("ndet-forall", 4, O.observation_ndet(O.FORALL), ndet, eq),
        _law_slices("ndet-exists", 8, O.observation_ndet(O.EXISTS), ndet, eq),
        _law_slices("ndet-forall-exists", 12, O.observation_ndet(O.FORALL_EXISTS), ndet,
                    ("strictly-less",)),
        _law_slices("prob", 12, O.observation_prob(), prob, ("equal", "strictly-less")),
    ])


# ---------------------------------------------------------------------------
# exc_strict: the split-context exception carrier, in all three components


def _exc_strict(seed: int, tiny: bool) -> List[Question]:
    del seed  # exhaustive battery
    el, er = D.domain("EL", 2), D.domain("ER", 2)
    depth, table_limit = (2, 2) if tiny else (3, 16)

    def grade(rep) -> Grade:
        return Grade(rep.checked, RIGHT if rep.ok else WRONG, True,
                     f"{len(rep.failures)} failures")

    return [Question(f"exc_strict/depth{depth}",
                     lambda: G.check_exc_strictness(el, er, Z2, depth, table_limit), grade)]


# ---------------------------------------------------------------------------
# ni: noninterference of While statements, judged against itself

LOW_LOCATIONS = ("l", "m")

# Explicit flow, implicit flow through if and while, and secure overwrites.
NI_CORPUS = (
    "l := h",
    "if h then l := 1 else l := 0",
    "while h do (h := h - 1; l := l + 1)",
    "if h then l := 1 else l := 1",
    "l := h; l := 0",
    "h := l + 1",
    "while h do h := h - 1",
    "if l then h := 1 else skip",
)
# The 27-state store costs seconds per judgment, so only one insecure and
# one secure statement of the corpus run on it, and no random ones.
NI_CORPUS_LARGE = ("l := h", "if h then l := 1 else l := 1")


def _store(locations: Tuple[str, ...], values: int) -> W.StoreSignature:
    labels = {loc: (W.LOW if loc in LOW_LOCATIONS else W.HIGH) for loc in locations}
    return W.store_signature(locations, D.domain(f"V{values}", values), labels)


def random_statement(rng: random.Random, locations: Tuple[str, ...], values: int,
                     depth: int = 3) -> str:
    """Source text of a random statement; compound statements are
    parenthesised so sequencing never runs into an else branch."""

    def expr(d: int) -> str:
        r = rng.random()
        if d <= 0 or r < 0.45:
            return rng.choice(locations) if rng.random() < 0.65 else str(rng.randrange(values))
        if r < 0.55:
            return f"!{expr(d - 1)}"
        op = rng.choice(("+", "-", "*", "=", "<", "<=", "&&", "||"))
        return f"({expr(d - 1)} {op} {expr(d - 1)})"

    def stmt(d: int) -> str:
        r = rng.random()
        if d <= 0 or r < 0.35:
            return f"{rng.choice(locations)} := {expr(1)}"
        if r < 0.6:
            return f"({stmt(d - 1)}; {stmt(d - 1)})"
        if r < 0.85:
            return f"(if {expr(1)} then {stmt(d - 1)} else {stmt(d - 1)})"
        return f"(while {expr(1)} do {stmt(d - 1)})"

    return stmt(depth)


def _low_view(sig: W.StoreSignature, store: int) -> Tuple[int, ...]:
    """Low locations of a packed store (first location most significant),
    decoded here rather than through the store helpers under test."""
    digits = []
    for _ in sig.locations:
        store, d = divmod(store, sig.values.size)
        digits.append(d)
    digits.reverse()
    return tuple(d for loc, d in zip(sig.locations, digits) if loc in LOW_LOCATIONS)


def ni_holds(sig: W.StoreSignature, ast) -> bool:
    """Brute force: every pair of low-equal stores whose runs both end
    ends low-equal (partial correctness, as the judgment is stated)."""
    n = sig.values.size ** len(sig.locations)
    finals = [W.run_stmt(sig, ast, s) for s in range(n)]
    for s1 in range(n):
        for s2 in range(n):
            if _low_view(sig, s1) != _low_view(sig, s2):
                continue
            f1, f2 = finals[s1], finals[s2]
            if f1 is not None and f2 is not None and _low_view(sig, f1) != _low_view(sig, f2):
                return False
    return True


def _ni_question(qid: str, sig: W.StoreSignature, text: str) -> Question:
    ast = W.parse_while(text)

    def grade(v) -> Grade:
        truth = ni_holds(sig, ast)
        wrong = (v.holds and not truth) or (v.failed and truth)
        return Grade(v.checked, WRONG if wrong else RIGHT, not v.is_unknown,
                     f"{v.kind}, brute force says {'holds' if truth else 'fails'}")

    return Question(qid, lambda: R.oracle_check(W.ni_judgment(ast, sig)), grade, text)


def _ni(seed: int, tiny: bool) -> List[Question]:
    rng = random.Random(seed)
    two, three = ("l", "h"), ("l", "h", "m")
    if tiny:
        stores = [(two, 2, NI_CORPUS[:4], 6)]
    else:
        stores = [(two, 2, NI_CORPUS, 12), (two, 3, NI_CORPUS, 12),
                  (three, 2, NI_CORPUS, 12), (three, 3, NI_CORPUS_LARGE, 0)]
    groups = []
    for locs, vals, corpus, randoms in stores:
        sig = _store(locs, vals)
        tag = f"{len(locs)}x{vals}"
        group = [_ni_question(f"ni/{tag}/corpus{i}", sig, text) for i, text in enumerate(corpus)]
        group += [_ni_question(f"ni/{tag}/random{i}", sig, random_statement(rng, locs, vals))
                  for i in range(randoms)]
        groups.append(group)
    return spread_out(groups)


# ---------------------------------------------------------------------------
# oracle: random derivations replayed and oracle-checked, and ndet claims

D4 = D.domain("D4", 4)


def _derivation_question(qid: str, d) -> Question:
    def ask():
        return R.check_derivation(d), R.oracle_check(d.conclusion)

    def grade(res) -> Grade:
        replay, v = res
        ok = replay.ok and not v.failed
        return Grade(1, RIGHT if ok else WRONG, not v.is_unknown,
                     f"replay {'ok' if replay.ok else replay.message}, oracle {v.kind}")

    return Question(qid, ask, grade, _shape(d))


def _shape(d) -> str:
    """The derivation's rule tree, as Rule(premise, ...)."""
    if not d.premises:
        return d.rule.rule
    return f"{d.rule.rule}({', '.join(_shape(p) for p in d.premises)})"


def _claim_question(qid: str, j, truth: bool, outcomes: str) -> Question:
    def grade(v) -> Grade:
        wrong = (v.holds and not truth) or (v.failed and truth)
        return Grade(1, WRONG if wrong else RIGHT, not v.is_unknown,
                     f"{v.kind}, outcome sets say {truth}")

    return Question(qid, lambda: R.oracle_check(j), grade, outcomes)


def outcome_sets(c1, c2):
    return ({v.index for v in P.run_ndet(c1)}, {v.index for v in P.run_ndet(c2)})


def claim_truth(mode: str, r1: set, r2: set) -> bool:
    """Whether theta-ndet meets the demand 'end on the diagonal', from the two
    outcome sets: some common outcome under exists, every left outcome also a
    right one under forall-exists."""
    return bool(r1 & r2) if mode == O.EXISTS else r1 <= r2


# Shares of prob derivations with 0 to 4 flip couplings, as random_derivation
# draws them at depth 3 (measured over 6,400 draws).
PROB_FLIP_SHARES = (0.41, 0.33, 0.17, 0.07, 0.02)


def _prob_derivations(rng: random.Random, count: int) -> list:
    """`count` prob derivations, drawn until every number of flip couplings
    has its share, so every seed has the same number of heavy ones.  The
    slowest prob derivations (binds of several flip couplings) make the
    oracle tail, and their costs spread wide: 400 drawn freely moved the
    tail by 0.2 between seeds."""
    quota = [int(count * share) for share in PROB_FLIP_SHARES]
    quota[0] += count - sum(quota)
    out = []
    while len(out) < count:
        d = R.random_derivation(rng, P.PROB, depth=3)
        flips = _shape(d).count("FlipCoupling")
        if flips < len(quota) and quota[flips] > 0:
            quota[flips] -= 1
            out.append(d)
    return out


def _oracle(seed: int, tiny: bool) -> List[Question]:
    per_effect, per_truth = (2, 2) if tiny else (400, 80)
    rng = random.Random(seed)
    groups = []
    for effect in (P.STATE, P.IMP, P.EXC, P.NDET, P.IO):
        group = []
        for i in range(per_effect):
            # The ndet modes take turns so each pass has the same mix.
            kw = {"ndet_mode": O.NDET_MODES[i % 3]} if effect == P.NDET else {}
            d = R.random_derivation(rng, effect, depth=3, **kw)
            group.append(_derivation_question(f"oracle/{effect}{i}", d))
        groups.append(group)
    # Three times as many prob derivations put the p99 tail on a flatter
    # stretch of their costs.
    groups.append([_derivation_question(f"oracle/{P.PROB}{i}", d)
                   for i, d in enumerate(_prob_derivations(rng, 3 * per_effect))])
    # Claims are drawn until each mode has per_truth true and per_truth false
    # ones, so the share of (slower, undecided) true claims is the same at
    # every seed.
    sig = P.ndet_sig()
    space = sm.pure_space(D4, D4)
    diagonal = sm.demonic_spec(space, [frozenset(i * D4.size + i for i in range(D4.size))])
    for mode in (O.EXISTS, O.FORALL_EXISTS):
        obs = O.observation_ndet(mode)
        claims = {True: [], False: []}
        while len(claims[True]) < per_truth or len(claims[False]) < per_truth:
            c1 = GP.random_program(rng, sig, D4, 3)
            c2 = GP.random_program(rng, sig, D4, 3)
            r1, r2 = outcome_sets(c1, c2)
            truth = claim_truth(mode, r1, r2)
            if len(claims[truth]) < per_truth:
                j = R.judgment(obs, c1, c2, diagonal)
                claims[truth].append(_claim_question(
                    f"oracle/{mode}/{truth}{len(claims[truth])}", j, truth,
                    f"{sorted(r1)} vs {sorted(r2)}"))
        groups += [claims[True], claims[False]]
    return spread_out(groups)


_BY_NAME = {"laws": _laws, "exc_strict": _exc_strict, "ni": _ni, "oracle": _oracle}
