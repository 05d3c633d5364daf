import json
import os
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from itlmc import SemanticClass, parse_formula, print_poset_model, validity
from itlmc.cli import main

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "src" / "itlmc" / "corpus"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _env(seed):
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_parse(capsys):
    code, out, _ = run(capsys, "parse", "~p | O(q & false)")
    assert code == 0
    assert "(p -> false) | O (q & false)" in out
    assert "fragments: db dw b w d" in out


def test_parse_error_exit_3(capsys):
    code, _, err = run(capsys, "parse", "p <-> q <-> r")
    assert code == 3
    assert "non-associative" in err


def test_parse_deeply_nested_parentheses(capsys):
    code, out, _ = run(capsys, "parse", "(" * 400 + "p" + ")" * 400)
    assert code == 0
    assert out.startswith("p\n")


def _nested_iffs(depth):
    text = "q"
    for _ in range(depth):
        text = f"p <-> ({text})"
    return text


def test_parse_prints_16_nested_iffs(capsys):
    # Iff is defined away, so each level doubles the printed text.
    code, out, _ = run(capsys, "parse", _nested_iffs(16))
    assert code == 0
    assert len(out) == 1_179_655
    assert out.endswith(") -> p) -> p)\nfragments: db dw b w d\n")


def test_parse_refuses_text_of_40_nested_iffs(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "parse", _nested_iffs(40))
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert "formula text would exceed 16777216 characters" in err


def test_check_bundled_model_by_relative_path(capsys):
    code, out, _ = run(
        capsys, "check", "--model", "corpus/poset/fig4-fs.dpm",
        "(O p -> O q) -> O(p -> q)",
    )
    assert code == 1
    assert "falsified at: w" in out


def test_check_valid_formula_exits_0(capsys):
    code, out, _ = run(
        capsys, "check", "--model", str(CORPUS / "poset/fig4-fs.dpm"), "p -> p"
    )
    assert code == 0
    assert "valid" in out


def test_check_missing_file_exits_3(capsys):
    code, _, err = run(capsys, "check", "--model", "no-such.dpm", "p")
    assert code == 3 and "error" in err


def test_check_model_with_a_repeated_world_name_exits_3(capsys, tmp_path):
    model = tmp_path / "dup.dpm"
    model.write_text("worlds: w v w\norder:\nstep: w->w v->v\n")
    code, out, err = run(capsys, "check", "--model", str(model), "p")
    assert (code, out, err) == (3, "", "error: duplicate world names\n")


def test_real_check(capsys):
    code, out, _ = run(
        capsys, "real-check", "--system", "corpus/real/r-kinked.rds", "[*]p"
    )
    assert code == 1
    assert "(-inf, 0)" in out and "extrapolated" in out

    code, out, _ = run(
        capsys, "real-check", "--system", "corpus/real/r-kinked.rds",
        "~O p & O~~p -> O q | ~O q",
    )
    assert code == 0
    assert "valid" in out


def test_real_check_undetermined_exits_2(capsys):
    code, out, _ = run(
        capsys, "real-check", "--system", "corpus/real/r-double.rds",
        "--caps", "iter=2,restart=1,window=2", "[]p",
    )
    assert code == 2
    assert "undetermined" in out


def test_real_check_component_cap_ends_a_blow_up(capsys, tmp_path):
    # The box chain doubles its component count at every step; without the
    # component cap this ran for more than 20 s.
    path = tmp_path / "blow-up.rds"
    path.write_text("map: piecewise x<=2 : -2*x + 3 ; x>2 : 2*x - 5\nval q: (-18, 17/2)\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "real-check", "--system", str(path), "[]q")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "status: undetermined\nundetermined\n"


def test_real_check_component_cap_from_file_and_flag(capsys, tmp_path):
    # Under x -> -x, <>q is q with its mirror image: four components beyond q.
    path = tmp_path / "mirror.rds"
    text = "map: -x\nval q: (1, 2) u (3, 4) u (5, 6) u (7, 8)\n"
    path.write_text(text)
    for caps, code in ((), 1), (("--caps", "components=3"), 2), (("--caps", "components=4"), 1):
        assert run(capsys, "real-check", "--system", str(path), *caps, "<>q")[0] == code, caps
    path.write_text(text + "caps: components=0\n")
    for caps, code in ((), 2), (("--caps", "components=4"), 1):
        assert run(capsys, "real-check", "--system", str(path), *caps, "<>q")[0] == code, caps


@pytest.mark.parametrize("sep", [" ", ",", ", ", " ,\t"])
def test_caps_items_part_at_commas_or_spaces_in_a_file_and_the_flag(capsys, tmp_path, sep):
    # Each setting alone makes <>q undetermined on the mirror system above,
    # so both items of each pair must be read.
    path = tmp_path / "mirror.rds"
    text = "map: -x\nval q: (1, 2) u (3, 4) u (5, 6) u (7, 8)\n"
    for caps in (f"iter=64{sep}components=3", f"components=64{sep}iter=1"):
        path.write_text(text)
        assert run(capsys, "real-check", "--system", str(path), "--caps", caps, "<>q")[0] == 2
        path.write_text(text + f"caps: {caps}\n")
        assert run(capsys, "real-check", "--system", str(path), "<>q")[0] == 2


def test_real_check_bad_caps_exits_3(capsys):
    for caps in ("iter=soon", "iter=+3", "iter=\u0663", "steps=3"):
        code, _, err = run(
            capsys, "real-check", "--system", "corpus/real/r-double.rds",
            "--caps", caps, "[]p",
        )
        assert code == 3, caps


def test_real_check_negative_caps_exits_3(capsys):
    code, out, err = run(
        capsys, "real-check", "--system", "corpus/real/r-kinked.rds",
        "--caps", "iter=-1", "[]p",
    )
    assert code == 3
    assert out == "" and "negative" in err


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", "--class", "p", "--bound", "2", "p | ~p")
    assert code == 1
    assert "countermodel" in out and "falsified at:" in out

    code, out, _ = run(
        capsys, "validate", "--class", "p", "--bound", "3",
        "(O p -> O q) -> O(p -> q)",
    )
    assert code == 0
    assert "valid in class p up to 3 worlds" in out


# Every `$ itlmc` example whose output README prints in full, with the exit
# code README documents for its verdict.
README_EXAMPLES = [
    ('parse "[]p -> [](p | q)"', 0),
    ('check --model corpus/poset/fig4-fs.dpm "(<>p -> []q) -> [](p -> q)"', 1),
    ('real-check --system corpus/real/r-kinked.rds "[*]p"', 1),
    ('validate --class e --bound 3 "(O p -> O q) -> O (p -> q)"', 1),
    ("prove --logic ITL.db corpus/deriv/d-wh.drv", 0),
    ("paper-suite --filter fig4", 0),
]


@pytest.mark.parametrize(
    "command, code", README_EXAMPLES, ids=[command.split()[0] for command, _ in README_EXAMPLES]
)
def test_output_matches_readme(capsys, command, code):
    text = (ROOT / "README.md").read_text()
    line = f"$ itlmc {command}\n"
    start = text.index(line) + len(line)
    expected = text[start:text.index("\n\n$ ", start) + 1]
    assert run(capsys, *shlex.split(command))[:2] == (code, expected)


def test_countermodel_output_is_independent_of_hash_seed():
    outputs = []
    for seed in ("1", "4"):
        done = subprocess.run(
            [sys.executable, "-m", "itlmc.cli", "validate", "--class", "e",
             "--bound", "3", "(p -> q) | (q -> p)"],
            env=_env(seed), capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert "order: w2<=w0 w2<=w1\n" in outputs[0]


def test_a_reader_that_stops_after_one_line_ends_the_run_with_141():
    # 300 sweeps print about 16 KB into a 4 KB pipe, so the command is still
    # writing when the reader closes the pipe after the first line.
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("the pipe's capacity cannot be set here")
    read, write = os.pipe()
    fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 4096)
    argv = [sys.executable, "-m", "itlmc.cli", "sweep", "--bound", "1", *["ITL.db"] * 300]
    with subprocess.Popen(argv, stdout=write, stderr=subprocess.PIPE, env=_env("0")) as proc:
        os.close(write)
        line = b""
        while not line.endswith(b"\n"):
            line += os.read(read, 1)
        os.close(read)
        err = proc.stderr.read()
    assert line.startswith(b"ITL.db     class e bound 1: 21 schemas, clean")
    assert proc.returncode == 141 and err == b""


def test_internal_error_is_not_a_verdict(capsys, monkeypatch):
    def fail(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("itlmc.cli.eval_real", fail)
    code, out, err = run(
        capsys, "real-check", "--system", "corpus/real/r-const.rds", "O p"
    )
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: RecursionError: ")
    assert err.count("\n") == 1


def test_deep_formulas_get_a_verdict(capsys, tmp_path):
    deep = "O " * 2000 + "p"
    code, out, _ = run(capsys, "check", "--model", "corpus/poset/fig4-fs.dpm", deep)
    assert code == 1 and "falsified at: w\n" in out
    code, out, _ = run(capsys, "validate", "--class", "e", "--bound", "2", deep)
    assert code == 1 and out.startswith("countermodel:\n")
    deep = "O " * 990 + "p"
    code, out, _ = run(capsys, "real-check", "--system", "corpus/real/r-const.rds", deep)
    assert code in (0, 1) and out.endswith("valid\n")
    path = tmp_path / "deep.drv"
    for theorem in (
        " -> ".join(["p"] * 2000),
        " & ".join(f"p{i}" for i in range(600)) + " -> p0",
    ):
        path.write_text(f"1. {theorem} ; ipc-taut\n")
        code, out, _ = run(capsys, "prove", "--logic", "ITL.db", str(path))
        assert code == 0 and out.startswith("accepted (1 lines)\n")


def test_validate_bound_too_large_exits_3(capsys):
    code, _, err = run(capsys, "validate", "--class", "e", "--bound", "7", "p")
    assert code == 3 and "maximum" in err


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_validate_bound_below_one_exits_3(capsys, bound):
    code, out, err = run(capsys, "validate", "--class", "e", "--bound", bound, "p")
    assert (code, out, err) == (3, "", "error: bound must be at least 1\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate", "--class", "x", "--bound", "2", "p"], "argument --class: invalid choice: 'x'"),
        (["validate", "--class", "e", "--bound", "abc", "p"], "argument --bound: invalid int value: 'abc'"),
        ([], "itlmc: error: the following arguments are required: command"),
    ],
)
def test_usage_errors_exit_3(capsys, argv, message):
    # 2 is "undetermined", so argparse's own usage exit must not leak through
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("usage: itlmc") and message in err


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: itlmc")
    code, out, _ = run(capsys, "validate", "--help")
    assert code == 0 and out.startswith("usage: itlmc validate")


def test_real_check_zero_window_is_undetermined(capsys):
    code, out, _ = run(
        capsys, "real-check", "--system", "corpus/real/r-kinked.rds",
        "--caps", "window=0", "[*]p",
    )
    assert code == 2 and "undetermined" in out


def test_prove_weak_logic_rejects_mixed_henceforths(capsys, tmp_path):
    path = tmp_path / "mixed.drv"
    path.write_text("1. []p -> [*]p ; ipc-taut\n")
    code, out, err = run(capsys, "prove", "--logic", "ITL.dw", str(path))
    assert code == 1 and err == ""
    assert out == "rejected at line 1: formula outside the logic's language\n"


def test_prove(capsys):
    code, out, _ = run(
        capsys, "prove", "--logic", "ITL.db", str(CORPUS / "deriv/d-wh.drv")
    )
    assert code == 0
    assert "accepted (17 lines)" in out

    code, out, _ = run(
        capsys, "prove", "--logic", "ITL.d", str(CORPUS / "deriv/d-wh.drv")
    )
    assert code == 1
    assert "rejected at line" in out


def test_prove_unknown_logic_exits_3(capsys):
    code, _, err = run(
        capsys, "prove", "--logic", "QTL.db", str(CORPUS / "deriv/d-wh.drv")
    )
    assert code == 3 and err.startswith("error: unknown logic 'QTL.db'; available: CDTL+.b, ")


def test_paper_suite_filtered(capsys):
    code, out, _ = run(capsys, "paper-suite", "--filter", "fig5-cem")
    assert code == 0
    assert "PASS fig5-cem/failure-at-root" in out


def test_paper_suite_unknown_filter_exits_3(capsys):
    code, _, err = run(capsys, "paper-suite", "--filter", "zzz")
    assert code == 3


def test_paper_suite_malformed_corpus_file_exits_3(capsys, tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(CORPUS, root)
    (root / "deriv" / "d-wh.drv").write_text("1. p ; mp x\n")
    code, out, err = run(capsys, "paper-suite", "--corpus", str(root), "--filter", "d-wh")
    assert code == 3 and out == ""
    assert err == "error: premise reference must be a line number, found 'x' (at 7..11)\n"


@pytest.mark.parametrize("path, old, new, line", [
    ("poset/fig4-fs.dpm", "val p: u", "val p:",
     "fig4-fs/shift-schemas: (<>p -> []q) -> [](p -> q): expected {v, u}, got {w, v, u}"),
    ("poset/fig4-fs.dpm", "u->u", "u->v",
     "fig4-fs/shift-schemas: (O p -> O q) -> O(p -> q): expected {v, u}, got {}"),
    # Open, and both schemas hold at v and u, its only worlds.
    ("poset/fig4-fs.dpm", "", "worlds: v u\norder: v<=u\nstep: v->v u->u\nval p: u\nval q: u\n",
     "fig4-fs/shift-schemas: expected a continuous, non-open step"),
    ("poset/fig5-cem.dpm", "val q: v1 v2", "val q: v2",
     "fig5-cem/failure-at-root: ~O p & O~~p -> O q | ~O q: "
     "expected {w1, v0, v1, v2}, got {w0, w1, v0, v1, v2}"),
    ("poset/fs-gap.dpm", "val p: u", "val p:",
     "fs-gap/boxed-repair: ((O <>p -> O []q) -> O(<>p -> []q)) -> ((<>p -> []q) -> [](p -> q)): "
     "expected {a, b, u}, got {x, a, b, u}"),
    ("deriv/d-fs.drv", "", "1. p ; axiom x\n", "fs-gap/boxed-repair: boxed repair: got {u}"),
    ("real/r-const.rds", "val p: (0, inf)", "val p: (1, inf)",
     "r-const/shift-failure: (<>p -> []q) -> [](p -> q): expected (0, inf), got (-inf, inf)"),
    ("real/r-shift.rds", "val p: (-inf, 0)", "val p: (-inf, 1)",
     "r-shift/endpoint-drift: <>p: expected (-inf, 0), got (-inf, 1)"),
    ("real/r-double.rds", "map: 2*x", "map: 2*x\ncaps: iter=1",
     "r-double/distribution-gap: []p: expected (-inf, 0), got None"),
    ("real/r-double.rds", "map: 2*x", "map: 2*x\ncaps: iter=0",
     "r-double/axiom-spot-check: draw 1: axiom x gave None [undetermined]"),
])
def test_paper_suite_fails_each_broken_fact(capsys, tmp_path, path, old, new, line):
    # Each row edits one corpus file; an empty `old` replaces the whole file.
    root = tmp_path / "corpus"
    shutil.copytree(CORPUS, root)
    target = root / path
    target.write_text(target.read_text().replace(old, new, 1) if old else new)
    fact = line.split(":")[0]
    code, out, _ = run(capsys, "paper-suite", "--corpus", str(root), "--filter", fact)
    assert code == 1
    assert out == f"FAIL {line}\n0/1 facts hold\n"


def test_records_format(capsys):
    code, out, _ = run(
        capsys, "--format", "records", "check",
        "--model", "corpus/poset/fig5-cem.dpm", "~O p & O~~p -> O q | ~O q",
    )
    assert code == 1
    lines = dict(l.split("=", 1) for l in out.strip().splitlines())
    assert lines["verdict"] == "falsified"
    assert lines["world"] == "w0"


def test_separate_runs_clean(capsys):
    code, out, _ = run(capsys, "separate")
    assert code == 0
    assert "18/18 edges verified" in out


def test_corpus_commands_print_their_frozen_output(capsys):
    # `separate` and `paper-suite` on the bundled corpus, plain and records.
    got = []
    for argv in (["separate"], ["--format", "records", "separate"],
                 ["paper-suite"], ["--format", "records", "paper-suite"]):
        code, out, err = run(capsys, *argv)
        assert err == ""
        got.append(f"$ itlmc {' '.join(argv)}  # exit {code}\n{out}")
    assert "".join(got) == (Path(__file__).parent / "corpus_outputs.txt").read_text()


@pytest.mark.parametrize("text, start, end", [
    ("map: x/0\n", 7, 8),
    ("map: 1/0*x\n", 5, 8),
    ("map: piecewise x<=1/0 : 0 ; x>1/0 : x\n", 18, 21),
    ("map: x\nval p: (0, 1/0)\n", 18, 21),
])
def test_real_check_zero_denominator_exits_3(capsys, tmp_path, text, start, end):
    system = tmp_path / "zero.rds"
    system.write_text(text)
    code, out, err = run(capsys, "real-check", "--system", str(system), "p")
    assert code == 3 and out == ""
    assert err == f"error: division by zero (at {start}..{end})\n"


def _corpus_with_edges(tmp_path, edit):
    root = tmp_path / "corpus"
    shutil.copytree(CORPUS, root)
    edges = root / "edge" / "fig6-edges.edg"
    edges.write_text(edit(edges.read_text()))
    return root


def test_separate_malformed_edge_file_exits_3(capsys, tmp_path):
    # the first edge line loses its 'point' field
    root = _corpus_with_edges(tmp_path, lambda t: t.replace(" point=w;", "", 1))
    text = (root / "edge" / "fig6-edges.edg").read_text()
    start = text.index("from=")
    end = text.index("\n", start)
    code, out, err = run(capsys, "separate", "--corpus", str(root))
    assert code == 3 and out == ""
    assert err == f"error: edge line is missing fields: point (at {start}..{end})\n"


def test_separate_bad_edge_formula_reports_a_file_offset(capsys, tmp_path):
    root = _corpus_with_edges(
        tmp_path, lambda t: t.replace("formula=(O p -> O q)", "formula=(O p -> & q)", 1)
    )
    text = (root / "edge" / "fig6-edges.edg").read_text()
    at = text.index("& q)")
    code, _, err = run(capsys, "separate", "--corpus", str(root))
    assert code == 3
    assert err == (
        "error: expected an atom, 'false' or '(', found '&'"
        f" (at {at}..{at + 1})\n"
    )


# Each row edits the bundled edge file once (the first match) and names the
# edge line it breaks, the detail that line must carry and the verified count.
_FS = "formula=(O p -> O q) -> O(p -> q); "
_CD = "formula=[](p | q) -> []p | <>q; witness=r-double; "


@pytest.mark.parametrize("old, new, line, detail, verified", [
    # witness on a poset model
    ("from=CDTL; to=ITL+;", "from=RTL; to=ITL+;", "RTL -> ITL+ [dashed, fs-next]",
     "witness structure poset-e is not sound for RTL", 17),
    ("point=w;", "point=zzz;", "ITL -> ITL+ [solid, fs-next]",
     "point 'zzz' is not a world of fig4-fs; axioms included", 17),
    ("point=w;", "point=v;", "ITL -> ITL+ [solid, fs-next]",
     "formula holds at v; axioms included", 17),
    (f"from=CDTL; to=ITL+; style=dashed; label=fs-next; {_FS}witness=fig4-fs; point=w;",
     f"from=RTL; to=ITL+; style=dashed; label=fs-next; {_FS}witness=fig4-fs; point=zzz;",
     "RTL -> ITL+ [dashed, fs-next]", "witness structure poset-e is not sound for RTL", 17),
    # witness on a real-line system
    ("from=RTL; to=ITL+;", "from=CDTL; to=ITL+;", "CDTL -> ITL+ [dashed, fs-next]",
     "witness structure real is not sound for CDTL", 17),
    ("point=-1;", "point=abc;", "RTL -> ITL+ [dashed, fs-next]",
     "point 'abc' is not a rational number", 17),
    ("point=0;", "point=1;", "ITL+ -> CDTL [dashed, cd]", "formula holds at 1", 17),
    # Points follow the rational literal rule: ASCII digits, no exponent, no zero denominator.
    ("point=0;", "point=\u0660;", "ITL+ -> CDTL [dashed, cd]",
     "point '\u0660' is not a rational number", 17),
    ("point=0;", "point=1e-3;", "ITL+ -> CDTL [dashed, cd]",
     "point '1e-3' is not a rational number", 17),
    ("point=0;", "point=1/0;", "ITL+ -> CDTL [dashed, cd]",
     "point '1/0' is not a rational number", 17),
    (_CD, "formula=<>~p; witness=r-double; ", "ITL+ -> CDTL [dashed, cd]",
     "derivation does not certify this edge; witness evaluation is undetermined", 17),
    (_CD + "point=0;", "formula=<>~p; witness=r-double; point=abc;", "ITL+ -> CDTL [dashed, cd]",
     "derivation does not certify this edge; witness evaluation is undetermined", 17),
    # witness of another kind
    ("witness=fig5-cem", "witness=d-wh", "CDTL -> RTL [dashed, cem]",
     "witness d-wh has unusable kind derivation", 17),
    # derivation
    ("logic=ITL+.db", "logic=ITL.db", "ITL -> ITL+ [solid, fs-next]",
     "derivation rejected: axiom 'fs-next' is not part of ITL.db; "
     "falsified at w on fig4-fs (poset-e); axioms included", 17),
    ("logic=ITL+.db", "logic=ETL+.db", "ITL -> ITL+ [solid, fs-next]",
     "derivation does not certify this edge; falsified at w on fig4-fs (poset-e); axioms included",
     17),
    # inclusion evidence
    ("inclusion=cem:d-cem-itl+", "inclusion=", "RTL -> ETL+ [solid, fs-next]",
     "falsified at -1 on r-const (real); no evidence that ETL+ derives axiom cem", 17),
    ("inclusion=cem:d-cem-itl+", "inclusion=cem:d-ax-cd", "RTL -> ETL+ [solid, fs-next]",
     "falsified at -1 on r-const (real); evidence d-ax-cd rejected: "
     "axiom 'cd' is not part of ETL+.db", 17),
    ("inclusion=cem:d-cem-itl+", "inclusion=cem:d-ax-fs", "RTL -> ETL+ [solid, fs-next]",
     "falsified at -1 on r-const (real); evidence d-ax-fs proves the wrong formula", 17),
])
def test_separate_fails_each_broken_certificate(capsys, tmp_path, old, new, line, detail, verified):
    root = _corpus_with_edges(tmp_path, lambda t: t.replace(old, new, 1))
    code, out, _ = run(capsys, "separate", "--corpus", str(root))
    assert code == 1
    assert [l for l in out.splitlines() if l.startswith("FAIL")] == [f"FAIL {line}: {detail}"]
    assert out.endswith(f"\n{verified}/18 edges verified\n")


_KINDS = {"fig4-fs": "poset-model", "r-const": "real-system", "d-wh": "derivation", "fig6-edges": "edge"}


@pytest.mark.parametrize("entry", sorted(_KINDS))
@pytest.mark.parametrize("field, old", [
    ("witness", "r-const"), ("derivation", "d-ax-fs"), ("inclusion", "cem:d-cem-itl+"),
])
def test_edge_references_to_entries_of_every_kind_never_crash(capsys, tmp_path, field, old, entry):
    # One solid edge's witness, derivation or inclusion evidence names an
    # entry of each kind: a verdict (0 or 1) or an input error (3), never 4.
    def edit(text):
        start = text.index("from=RTL; to=ETL+;")
        end = text.index("\n", start)
        new = f"cem:{entry}" if field == "inclusion" else entry
        return text[:start] + text[start:end].replace(f"{field}={old}", f"{field}={new}") + text[end:]

    root = _corpus_with_edges(tmp_path, edit)
    code, out, err = run(capsys, "separate", "--corpus", str(root))
    assert code in (0, 1, 3)
    if field != "witness" and _KINDS[entry] != "derivation":
        assert code == 3 and out == ""
        assert err == f"error: corpus entry {entry!r} is a {_KINDS[entry]}, not a derivation\n"


def _corpus_with_index(tmp_path, edit):
    root = tmp_path / "corpus"
    shutil.copytree(CORPUS, root)
    index = root / "index.json"
    index.write_text(edit(index.read_text()))
    return root


def test_unknown_entry_message_is_unquoted(capsys, tmp_path):
    root = tmp_path / "empty"
    root.mkdir()
    code, out, err = run(capsys, "paper-suite", "--corpus", str(root))
    assert code == 3 and out == ""
    assert err == f"error: no corpus index at {root / 'index.json'}\n"


def test_corpus_missing_message_is_unquoted(capsys, tmp_path):
    from itlmc import Corpus, UnknownEntry, build_separation_matrix

    def drop(text):
        entries = json.loads(text)
        return json.dumps([e for e in entries if e["id"] != "d-ax-cd"])

    root = _corpus_with_index(tmp_path, drop)
    with pytest.raises(UnknownEntry):
        build_separation_matrix(Corpus(root))
    code, out, err = run(capsys, "separate", "--corpus", str(root))
    assert code == 3 and out == ""
    assert err == "error: no corpus entry named 'd-ax-cd'\n"


def _single_input_error(code, out, err):
    return code == 3 and out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["paper-suite", "separate"])
def test_corpus_that_is_a_regular_file_exits_3(capsys, monkeypatch, tmp_path, command):
    path = tmp_path / "corpus"
    path.write_text("not a directory\n")
    result = run(capsys, command, "--corpus", str(path))
    assert _single_input_error(*result), result
    monkeypatch.setenv("ITL_CORPUS", str(path))
    result = run(capsys, command)
    assert _single_input_error(*result), result


def test_separate_names_an_unknown_source_logic(capsys, tmp_path):
    root = _corpus_with_edges(tmp_path, lambda t: t.replace("from=ITL;", "from=FOO;", 1))
    result = run(capsys, "separate", "--corpus", str(root))
    assert _single_input_error(*result), result
    assert result[2].startswith("error: unknown logic 'FOO.db'; available: ")


@pytest.mark.parametrize("command", ["paper-suite", "separate"])
@pytest.mark.parametrize("text, message", [
    ("[{", "is not JSON: Expecting property name enclosed in double quotes"),
    ('{"id": "x"}', "is not a list of entries"),
    ('[{"id": "x", "kind": 3}]', "entry 1 of corpus index {} is not an object of strings"),
    ('[{"id": "x", "anchor": "a"}]', "entry 1 of corpus index {} lacks kind, path"),
    (
        '[{"id": "x", "kind": "edge", "path": "p", "anchor": "a", "color": "red"}]',
        "entry 1 of corpus index {} has unknown field(s) color",
    ),
])
def test_malformed_corpus_index_exits_3(capsys, tmp_path, command, text, message):
    root = _corpus_with_index(tmp_path, lambda _: text)
    code, out, err = run(capsys, command, "--corpus", str(root))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and message.format(root / "index.json") in err


# "é" is two bytes, so the bad byte is at byte offset 5 and character offset 4.
_NOT_UTF8 = "# é\n".encode() + b"\xff\xfe"


def _not_utf8_error(path):
    return f"error: {path} is not UTF-8: byte 0xff at byte offset 5 (invalid start byte)\n"


@pytest.mark.parametrize("argv", [
    ["check", "--model", "{}", "p"],
    ["real-check", "--system", "{}", "p"],
    ["prove", "--logic", "ITL.db", "{}"],
], ids=lambda argv: argv[0])
def test_non_utf8_input_file_is_named_and_exits_3(capsys, tmp_path, argv):
    path = tmp_path / "bytes.txt"
    path.write_bytes(_NOT_UTF8)
    code, out, err = run(capsys, *(arg.format(path) for arg in argv))
    assert code == 3 and out == ""
    assert err == _not_utf8_error(path)


@pytest.mark.parametrize("name", ["index.json", "deriv/d-wh.drv"])
def test_non_utf8_corpus_file_is_named_and_exits_3(capsys, tmp_path, name):
    root = _corpus_with_index(tmp_path, lambda text: text)
    (root / name).write_bytes(_NOT_UTF8)
    code, out, err = run(capsys, "paper-suite", "--corpus", str(root), "--filter", "d-wh")
    assert code == 3 and out == ""
    assert err == _not_utf8_error(root / name)


def test_input_files_keep_reading_line_ends_as_text_mode_does(capsys, tmp_path):
    # A lone carriage return ends a line, as in a file read through `open`.
    path = tmp_path / "cr.drv"
    path.write_bytes((CORPUS / "deriv" / "d-wh.drv").read_bytes().replace(b"\n", b"\r"))
    assert run(capsys, "prove", "--logic", "ITL.db", str(path))[0] == 0


def test_missing_metavariable_message_is_independent_of_hash_seed(tmp_path):
    path = tmp_path / "s.drv"
    path.write_text("1. p -> p ; axiom ipc-s {}\n")
    for seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-m", "itlmc.cli", "prove", "--logic", "ITL.db", str(path)],
            env=_env(seed), capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert done.stdout == (
            "rejected at line 1: metavariable 'chi' of axiom 'ipc-s' is not assigned\n"
        )


def test_sweep_at_bound_2(capsys):
    code, out, err = run(capsys, "sweep", "--bound", "2")
    assert code == 0, err
    lines = out.splitlines()
    names = [line.split()[0] for line in lines]
    assert names == ["ITL.db", "ITL.dw", "CDTL.db", "CDTL.b", "CDTL+.db"]
    assert all("bound 2: " in line and ", clean (" in line for line in lines), lines


def test_sweep_prints_each_countermodel_and_exits_1(capsys):
    cm = validity(parse_formula("(O p -> O q) -> O (p -> q)"), SemanticClass("e", 2))
    rendered = print_poset_model(cm.model, cm.valuation)
    code, out, _ = run(capsys, "sweep", "--class", "e", "--bound", "2", "CDTL+.db")
    assert code == 1
    head, rest = out.split("\n", 1)
    assert head.startswith("CDTL+.db   class e bound 2: 23 schemas, 1 FAILING: fs-next (")
    assert rest == f"-- fs-next falsified at {cm.world}:\n{rendered}\n"

    code, out, _ = run(capsys, "--format", "records", "sweep", "--class", "e", "--bound", "2",
                       "CDTL+.db", "ITL.db")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("logic=CDTL+.db; class=e; bound=2; schemas=23; falsified=1; ")
    assert lines[1] == f"schema=fs-next; world={cm.world}; model={rendered!r}"
    assert lines[2].startswith("logic=ITL.db; class=e; bound=2; schemas=21; falsified=0; ")


@pytest.mark.parametrize("argv, message", [
    (["NOPE"], "error: unknown logic 'NOPE'; available: CDTL+.b, "),
    (["ITL.db", "NOPE"], "error: unknown logic 'NOPE'; available: CDTL+.b, "),
    (["--bound", "9"], "error: bound 9 exceeds the configured maximum 5\n"),
    (["--bound", "x"], "usage: "),
])
def test_sweep_reports_bad_input_and_exits_3(capsys, argv, message):
    code, out, err = run(capsys, "sweep", *argv)
    assert code == 3 and out == ""
    assert err.startswith(message), err
    if message.startswith("error: "):
        assert err.count("\n") == 1, err


@pytest.mark.parametrize("gap", [" ", "\t"])
def test_justification_head_ends_at_any_whitespace(capsys, tmp_path, gap):
    path = tmp_path / "gap.drv"
    path.write_text(
        f"1. p -> p ; ipc-taut\n2. O(p -> p) ; nec-next{gap}1\n3. []p -> p ; axiom{gap}viii\n"
    )
    code, out, err = run(capsys, "prove", "--logic", "ITL.db", str(path))
    assert (code, err) == (0, "")
    assert out == "accepted (3 lines)\ntheorem: []p -> p\n"
