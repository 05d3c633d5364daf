"""Reference semantics written for the benchmark, independent of itlmc.

- `KripkeModel` evaluates formulas world by world on a finite dynamic
  poset: O is the successor, <> and [] ask for some or every point of the
  forward orbit, and -> quantifies over the up-set.
- `orbit_truth` evaluates a formula at a rational point of a piecewise
  affine system by applying the affine pieces itself. It is three-valued:
  True and False are sound, None means the sampler cannot tell.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import product


class KripkeModel:
    """Finite poset with a step map and a valuation, as plain sets."""

    def __init__(self, worlds, order, step, valuation):
        self.worlds = tuple(worlds)
        self.leq = {(w, w) for w in self.worlds} | {tuple(p) for p in order}
        self.step = dict(step)
        self.valuation = {a: frozenset(ws) for a, ws in valuation.items()}
        self.up = {
            w: frozenset(v for v in self.worlds if (w, v) in self.leq)
            for w in self.worlds
        }

    def orbit(self, w) -> list:
        seen, out = set(), []
        while w not in seen:
            seen.add(w)
            out.append(w)
            w = self.step[w]
        return out

    def extension(self, phi, memo=None) -> frozenset:
        """Worlds where phi holds, computed pointwise from the definitions."""
        if memo is None:
            memo = {}
        got = memo.get(phi)
        if got is not None:
            return got
        op = phi[0]
        if op == "bot":
            out = frozenset()
        elif op == "atom":
            out = self.valuation.get(phi[1], frozenset())
        elif op in ("and", "or", "imp"):
            a = self.extension(phi[1], memo)
            b = self.extension(phi[2], memo)
            if op == "and":
                out = a & b
            elif op == "or":
                out = a | b
            else:
                out = frozenset(
                    w for w in self.worlds
                    if all(v not in a or v in b for v in self.up[w])
                )
        else:
            a = self.extension(phi[1], memo)
            if op == "next":
                out = frozenset(w for w in self.worlds if self.step[w] in a)
            elif op == "dia":
                out = frozenset(
                    w for w in self.worlds if any(x in a for x in self.orbit(w))
                )
            else:  # box and wbox coincide on finite posets
                out = frozenset(
                    w for w in self.worlds if all(x in a for x in self.orbit(w))
                )
        memo[phi] = out
        return out

    def structure_errors(self, kind: str, bound: int) -> list[str]:
        """Violations of the class-`kind` model laws up to `bound` worlds."""
        errors = []
        ws = self.worlds
        if not 1 <= len(ws) <= bound:
            errors.append(f"{len(ws)} worlds, bound is {bound}")
        for a, b in self.leq:
            if a not in self.up or b not in self.up:
                errors.append(f"order mentions unknown world in {a}<={b}")
                return errors
            if a != b and (b, a) in self.leq:
                errors.append(f"antisymmetry fails on {a}, {b}")
            for c in ws:
                if (b, c) in self.leq and (a, c) not in self.leq:
                    errors.append(f"transitivity fails on {a}<={b}<={c}")
        if set(self.step) != set(ws) or not set(self.step.values()) <= set(ws):
            errors.append("step is not a total map on the worlds")
            return errors
        for a, b in self.leq:
            if (self.step[a], self.step[b]) not in self.leq:
                errors.append(f"step is not monotone on {a}<={b}")
        if kind == "p":
            for w in ws:
                hit = {self.step[u] for u in self.up[w]}
                if not self.up[self.step[w]] <= hit:
                    errors.append(f"step is not open at {w}")
        for atom, members in self.valuation.items():
            if not members <= set(ws):
                errors.append(f"val {atom} mentions unknown worlds")
            elif any(not self.up[w] <= members for w in members):
                errors.append(f"val {atom} is not an up-set")
        return errors


def parse_model_text(text: str) -> KripkeModel:
    """Read the `.dpm` layout (worlds/order/step/val sections)."""
    worlds, order, step, valuation = [], [], {}, {}
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        head, _, rest = body.partition(":")
        head, tokens = head.strip(), rest.split()
        if head == "worlds":
            worlds.extend(tokens)
        elif head == "order":
            order.extend(tuple(t.split("<=")) for t in tokens)
        elif head == "step":
            step.update(tuple(t.split("->")) for t in tokens)
        elif head.startswith("val"):
            valuation[head[3:].strip()] = frozenset(tokens)
        else:
            raise ValueError(f"unknown model section {head!r}")
    return KripkeModel(worlds, order, step, valuation)


def model_from_itlmc(model, valuation) -> KripkeModel:
    """Copy a DynamicPoset's declared fields into a reference model."""
    return KripkeModel(model.worlds, model.order_pairs, model.step, valuation)


# --------------------------------------------------------------------------
# small model classes, for classification and sampling

def _orders(n: int):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in product((0, 1), repeat=len(pairs)):
        rel = {(i, i) for i in range(n)} | {p for p, b in zip(pairs, bits) if b}
        if any((j, i) in rel for i, j in rel if i != j):
            continue
        if all((a, c) in rel for a, b in rel for b2, c in rel if b == b2):
            yield rel


def small_models(kind: str, bound: int, atom_names=("p", "q")) -> list[KripkeModel]:
    """Every class-`kind` model with at most `bound` worlds, with every up-set valuation."""
    out = []
    for n in range(1, bound + 1):
        names = [f"w{i}" for i in range(n)]
        for rel in _orders(n):
            order = [(names[i], names[j]) for i, j in rel]
            upsets = [
                frozenset(names[i] for i in range(n) if (m >> i) & 1)
                for m in range(1 << n)
                if all((m >> j) & 1 for i, j in rel if (m >> i) & 1)
            ]
            for targets in product(range(n), repeat=n):
                step = {names[i]: names[t] for i, t in enumerate(targets)}
                shell = KripkeModel(names, order, step, {})
                if shell.structure_errors(kind, bound):
                    continue
                for sets in product(upsets, repeat=len(atom_names)):
                    out.append(KripkeModel(names, order, step, dict(zip(atom_names, sets))))
    return out


def random_model(rng, kind: str, bound: int, atom_names=("p", "q")) -> KripkeModel:
    """A random class-`kind` model with at most `bound` worlds."""
    n = rng.randint(1, bound)
    names = [f"w{i}" for i in range(n)]
    below = {(i, i) for i in range(n)}
    for _ in range(rng.randint(0, n * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j and (j, i) not in below:
            below |= {(a, b) for a in range(n) for b in range(n)
                      if (a, i) in below and (j, b) in below}
    order = [(names[i], names[j]) for i, j in below]
    step = {w: w for w in names}
    for _ in range(40):
        trial = {w: names[rng.randrange(n)] for w in names}
        if not KripkeModel(names, order, trial, {}).structure_errors(kind, bound):
            step = trial
            break
    shell = KripkeModel(names, order, step, {})
    valuation = {}
    for atom in atom_names:
        seeds = {w for w in names if rng.random() < 0.4}
        valuation[atom] = frozenset(v for w in seeds for v in shell.up[w])
    return KripkeModel(names, order, step, valuation)


def valid_on(models, phi) -> bool:
    return all(len(m.extension(phi)) == len(m.worlds) for m in models)


# --------------------------------------------------------------------------
# real line: orbit sampling at rational points

class AffineSystem:
    """A piecewise affine map and open valuations, as plain rationals.

    `pieces[i]` = (slope, intercept) holds on the i-th region cut out by
    the sorted `breakpoints`; each valuation is a list of open intervals
    (lo, hi) with None for an infinite end.
    """

    def __init__(self, breakpoints, pieces, valuation):
        self.breakpoints = [Fraction(b) for b in breakpoints]
        self.pieces = [(Fraction(a), Fraction(c)) for a, c in pieces]
        self.valuation = {
            atom: [(None if lo is None else Fraction(lo), None if hi is None else Fraction(hi))
                   for lo, hi in ivs]
            for atom, ivs in valuation.items()
        }

    def apply(self, x: Fraction) -> Fraction:
        a, c = self.pieces[bisect_left(self.breakpoints, x)]
        return a * x + c

    def member(self, atom: str, x: Fraction) -> bool:
        return any(
            (lo is None or lo < x) and (hi is None or x < hi)
            for lo, hi in self.valuation.get(atom, ())
        )


def orbit_truth(system: AffineSystem, phi, x: Fraction, cap: int = 20):
    """Sound three-valued truth of phi at x (None when undecided)."""
    op = phi[0]
    if op == "bot":
        return False
    if op == "atom":
        return system.member(phi[1], x)
    if op in ("and", "or"):
        a = orbit_truth(system, phi[1], x, cap)
        b = orbit_truth(system, phi[2], x, cap)
        if op == "and":
            return False if a is False or b is False else (True if a and b else None)
        return True if a is True or b is True else (False if a is False and b is False else None)
    if op == "imp":
        # Extensions are open: the consequent's set lies inside the interior.
        b = orbit_truth(system, phi[2], x, cap)
        if b is True:
            return True
        if b is False and orbit_truth(system, phi[1], x, cap) is True:
            return False
        return None
    if op == "next":
        return orbit_truth(system, phi[1], system.apply(x), cap)
    # <> holds iff some orbit point satisfies the child; both boxes imply
    # that every orbit point does.
    seen: set = set()
    unknown = False
    for _ in range(cap):
        if x in seen:
            break
        seen.add(x)
        t = orbit_truth(system, phi[1], x, cap)
        if op == "dia" and t is True:
            return True
        if op in ("box", "wbox") and t is False:
            return False
        unknown = unknown or t is None
        x = system.apply(x)
    else:
        return None
    if op == "dia" and not unknown:
        return False
    return None
