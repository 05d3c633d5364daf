import random
from itertools import combinations, product

import pytest

from itlmc import (
    Atom,
    ContinuityRequired,
    DomainNotInvariant,
    DynamicPoset,
    MalformedOrder,
    MalformedStep,
    MalformedValuation,
    check_morphism,
    eval_formula,
    interior,
    is_up_set,
    parse_formula,
    pull_back_valuation,
    validate_valuation,
)
from itlmc.formula import walk
from itlmc.poset import build_frame, eval_sliced
from conftest import eval_box_by_orbit, kripke_extension, random_model

FIG4 = DynamicPoset(
    ("w", "v", "u"),
    (("v", "u"),),
    {"w": "v", "v": "v", "u": "u"},
)


def test_up_sets_and_interior():
    assert is_up_set(FIG4, {"v", "u"})
    assert not is_up_set(FIG4, {"v"})
    assert interior(FIG4, {"w", "v"}) == frozenset({"w"})
    assert interior(FIG4, {"w", "v", "u"}) == frozenset({"w", "v", "u"})


def test_continuity_and_openness_flags():
    assert FIG4.is_continuous and not FIG4.is_open
    ident = FIG4.replace_step({w: w for w in FIG4.worlds})
    assert ident.is_continuous and ident.is_open
    # v <= u but S(v)=u is not below S(u)=v
    broken = DynamicPoset(("v", "u"), (("v", "u"),), {"v": "u", "u": "v"})
    assert not broken.is_continuous


def test_malformed_structures():
    with pytest.raises(MalformedOrder, match="antisymmetry"):
        DynamicPoset(("a", "b"), (("a", "b"), ("b", "a")), {"a": "a", "b": "b"})
    with pytest.raises(MalformedOrder, match="transitivity"):
        DynamicPoset(
            ("a", "b", "c"),
            (("a", "b"), ("b", "c")),
            {w: w for w in "abc"},
        )
    with pytest.raises(MalformedStep, match="undefined"):
        DynamicPoset(("a", "b"), (), {"a": "a"})
    with pytest.raises(MalformedStep):
        DynamicPoset(("a",), (), {"a": "z"})
    with pytest.raises(MalformedStep, match="unknown z"):
        DynamicPoset(("a",), (), {"a": "a", "z": "a"})
    with pytest.raises(MalformedStep, match="undefined on u"):
        FIG4.replace_step({"w": "w", "v": "v"})
    with pytest.raises(MalformedStep, match="unknown worlds at w"):
        FIG4.replace_step({"w": "x", "v": "v", "u": "u"})


def test_validate_valuation():
    assert validate_valuation(FIG4, {"p": {"u"}}) == []
    problems = validate_valuation(FIG4, {"p": {"v"}})
    assert problems and "up-set" in problems[0]


def test_evaluation_lists_every_valuation_fault():
    with pytest.raises(MalformedValuation) as caught:
        eval_formula(FIG4, {"p": {"z"}, "q": {"v"}}, parse_formula("p | q"))
    assert caught.value.violations == ["val p mentions unknown worlds ['z']", "val q is not an up-set"]


def test_evaluation_requires_continuity():
    broken = DynamicPoset(("v", "u"), (("v", "u"),), {"v": "u", "u": "v"})
    with pytest.raises(ContinuityRequired):
        eval_formula(broken, {"p": frozenset({"u"})}, Atom("p"))


def test_connectives_on_fig4():
    val = {"p": frozenset({"u"}), "q": frozenset()}
    cases = {
        "p": {"u"},
        "~p": {"w"},
        "~~p": {"v", "u"},
        "O p": {"u"},
        "<>p": {"u"},
        "[]p": {"u"},
        "[*]p": {"u"},
        "p -> q": {"w"},
        "p | ~p": {"w", "u"},
    }
    for text, want in cases.items():
        got = eval_formula(FIG4, val, parse_formula(text))
        assert got == frozenset(want), text


def test_box_matches_orbit_oracle_on_random_models():
    rng = random.Random(41)
    battery = [
        parse_formula(t)
        for t in ("p", "p -> q", "p | ~p", "<>p", "O p -> p", "p & q")
    ]
    from itlmc import StrongBox, WeakBox

    for _ in range(300):
        model, valuation = random_model(rng, max_worlds=6)
        for phi in battery:
            oracle = eval_box_by_orbit(model, valuation, phi)
            assert eval_formula(model, valuation, StrongBox(phi)) == oracle
            assert eval_formula(model, valuation, WeakBox(phi)) == oracle


# Chains that must follow an orbit to its last new world, alone and nested.
_CHAINS = [parse_formula(t) for t in (
    "[]p", "[*]p", "<>p", "[]<>p", "<>[]p", "[*]<>q", "<>[*](p | q)",
    "[](p -> <>q)", "<>(p & O []q)", "O <>p -> []q", "[]p -> <>q",
)]


def _longest_orbit_lanes(n, shape):
    """(model, valuation) lanes on n worlds whose step is an n-cycle or an n-path,
    under each of the discrete order and the two chains that keeps it monotone,
    with every valuation of p and q by up-sets."""
    worlds = tuple(f"w{i}" for i in range(n))
    step = {w: worlds[(i + 1) % n if shape == "cycle" else min(i + 1, n - 1)]
            for i, w in enumerate(worlds)}
    chain = list(combinations(worlds, 2))
    orders = [(), chain, [(b, a) for a, b in chain]]
    models = [m for m in (DynamicPoset(worlds, o, step) for o in orders) if m.is_continuous]
    subsets = [frozenset(c) for r in range(n + 1) for c in combinations(worlds, r)]
    lanes = []
    for model in models:
        upsets = [u for u in subsets if is_up_set(model, u)]
        lanes += [(model, {"p": p, "q": q}) for p, q in product(upsets, repeat=2)]
    return lanes


@pytest.mark.parametrize("shape", ["cycle", "path"])
@pytest.mark.parametrize("n", range(1, 6))
def test_chains_close_within_n_minus_1_rounds_on_the_longest_orbits(n, shape):
    # An n-cycle or an n-path meets its last new world after n - 1 steps,
    # so a chain capped at fewer rounds misses it. All lanes share one step;
    # where the chains order some of them, the order is a lane mask.
    lanes = _longest_orbit_lanes(n, shape)
    full = (1 << len(lanes)) - 1
    model = lanes[0][0]
    moves = [[(model.index[model.step[w]], full)] for w in model.worlds]
    ups = [[(j, sum(1 << k for k, (m, _) in enumerate(lanes) if not m.leq(w, v)))
             for j, v in enumerate(model.worlds) if any(m.leq(w, v) for m, _ in lanes)]
           for w in model.worlds]
    frame = build_frame(moves, ups, full)
    # Only the discrete order keeps a cycle monotone.
    assert (frame.order is None) == (shape == "cycle" or n == 1)
    atom_rows = {a: [sum(1 << k for k, (_, val) in enumerate(lanes) if w in val[a])
                     for w in model.worlds] for a in "pq"}
    for phi in _CHAINS:
        top = eval_sliced(frame, walk(phi)[1], atom_rows)
        for k, (m, val) in enumerate(lanes):
            ext = kripke_extension(m, val, phi)
            assert [w in ext for w in m.worlds] == [row >> k & 1 for row in top], (phi, k)
            assert eval_formula(m, val, phi) == ext


# -- morphisms ---------------------------------------------------------------

def _embedding(rng):
    """Disjoint union dst + junk, mapping the copy identically onto dst."""
    dst, dst_val = random_model(rng, max_worlds=4, atom_names=("p", "q"))
    junk, _ = random_model(rng, max_worlds=3, atom_names=())
    worlds = tuple(f"c_{w}" for w in dst.worlds) + tuple(
        f"j_{w}" for w in junk.worlds
    )
    order = tuple((f"c_{a}", f"c_{b}") for a, b in dst.order_pairs) + tuple(
        (f"j_{a}", f"j_{b}") for a, b in junk.order_pairs
    )
    step = {f"c_{w}": f"c_{v}" for w, v in dst.step.items()}
    step.update({f"j_{w}": f"j_{v}" for w, v in junk.step.items()})
    src = DynamicPoset(worlds, order, step)
    domain = [f"c_{w}" for w in dst.worlds]
    mapping = {f"c_{w}": w for w in dst.worlds}
    return src, dst, dst_val, domain, mapping


def _collapse(rng):
    """Everything onto a one-point model."""
    src, _ = random_model(rng, max_worlds=5, atom_names=())
    dst = DynamicPoset(("pt",), (), {"pt": "pt"})
    dst_val = {"p": frozenset({"pt"}) if rng.random() < 0.5 else frozenset()}
    return src, dst, dst_val, list(src.worlds), {w: "pt" for w in src.worlds}


def _step_endomorphism(rng):
    """On an open model the step map itself is a morphism onto the model."""
    dst, dst_val = random_model(rng, max_worlds=5, require_open=True)
    return dst, dst, dst_val, list(dst.worlds), dict(dst.step)


def test_morphisms_preserve_formulas():
    rng = random.Random(99)
    formulas = [
        parse_formula(t)
        for t in (
            "p", "q", "~p", "p -> q", "p | ~p", "O p", "<>p", "[]p",
            "[*]p", "[](p -> O p) -> (p -> []p)", "<>(p & q) -> <>p",
        )
    ]
    verified = 0
    while verified < 200:
        family = rng.choice([_embedding, _collapse, _step_endomorphism])
        src, dst, dst_val, domain, mapping = family(rng)
        assert check_morphism(src, dst, domain, mapping) == []
        verified += 1
        src_val = pull_back_valuation(dst_val, domain, mapping)
        for phi in formulas:
            big = eval_formula(dst, dst_val, phi)
            small = eval_formula(src, src_val, phi)
            assert small & frozenset(domain) == frozenset(
                w for w in domain if mapping[w] in big
            ), phi


def test_morphism_violations_reported():
    # order-reversing map breaks monotonicity
    chain = DynamicPoset(("a", "b"), (("a", "b"),), {"a": "a", "b": "b"})
    out = check_morphism(chain, chain, ["a", "b"], {"a": "b", "b": "a"})
    assert any("monotonicity" in v for v in out)
    # w is mapped below a world that nothing above w reaches
    fork = DynamicPoset(
        ("r", "x", "y"),
        (("r", "x"), ("r", "y")),
        {"r": "r", "x": "x", "y": "y"},
    )
    out = check_morphism(chain, fork, ["a", "b"], {"a": "r", "b": "x"})
    assert any("lift" in v for v in out)


def test_each_morphism_law_has_its_own_message():
    assert check_morphism(FIG4, FIG4, ["z", "v"], {}) == ["domain mentions unknown worlds ['z']"]
    assert check_morphism(FIG4, FIG4, ["v", "u"], {"u": "z"}) == [
        "map sends u outside the target model", "map undefined on domain world v"]
    # {v} is step-invariant but not an up-set, and u above v is never hit.
    assert check_morphism(FIG4, FIG4, ["v"], {"v": "v"}) == [
        "domain is not an up-set", "lift fails at v: u above its image is never hit"]
    chain = DynamicPoset(("a", "b"), (("a", "b"),), {"a": "a", "b": "b"})
    rise = DynamicPoset(("v", "u"), (("v", "u"),), {"v": "u", "u": "u"})
    assert check_morphism(chain, rise, ["a", "b"], {"a": "v", "b": "u"}) == [
        "step equivariance fails at a"]


def test_morphism_domain_must_be_invariant():
    with pytest.raises(DomainNotInvariant):
        check_morphism(FIG4, FIG4, ["w"], {"w": "w"})
