"""Legacy blueprint parsing, conversion planning, and edit application."""

from __future__ import annotations

import random
import textwrap
from pathlib import Path

import pytest

from archforge.build import extract
from archforge.convert import (
    NODE_ENVS,
    ConversionOptions,
    LegacyNode,
    LegacyProof,
    apply_plan,
    parse_legacy_blueprint,
    plan_conversion,
)
from archforge.errors import ConversionError, StaleSourceError
from archforge.infer import warm_statuses
from archforge.names import Name, SourceSpan
from archforge.source import parse_module_text
from archforge.store import build_store
from archforge.texscan import find_input_macros

from conftest import load_project_at, make_project, read_tree

import _gen


def write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


def store_of(texts: dict[str, str], upstream: frozenset[Name] = frozenset()):
    units = [
        parse_module_text(textwrap.dedent(t), Name.parse(n), path=f"{n}.lean")
        for n, t in texts.items()
    ]
    store = build_store(units, upstream)
    warm_statuses(store)
    return store


BASIC_TEX = r"""
Intro prose.

\begin{theorem}\label{thm:x}\lean{A.b}\leanok\uses{def:y}
T
\end{theorem}
\begin{proof}\uses{lem:z}
P
\end{proof}

Trailing prose.
"""


# ---------------------------------------------------------------------------
# parsing


def test_parse_basic_node(tmp_path):
    tex = write(tmp_path / "ch.tex", BASIC_TEX)
    nodes = parse_legacy_blueprint([tex])
    assert len(nodes) == 1
    n = nodes[0]
    assert n.env == "theorem"
    assert n.label == "thm:x"
    assert n.lean_names == (Name.parse("A.b"),)
    assert n.statement_uses == ("def:y",)
    assert n.statement_lean_ok is True
    assert n.statement_text == "T"
    assert n.proof.uses == ("lem:z",)
    assert n.proof.lean_ok is False
    assert n.proof.text == "P"


def test_parse_span_covers_trailing_proof(tmp_path):
    tex = write(tmp_path / "ch.tex", BASIC_TEX)
    n = parse_legacy_blueprint([tex])[0]
    covered = tex.read_text(encoding="utf-8")[n.span.start : n.span.end]
    assert covered.startswith("\\begin{theorem}")
    assert covered.endswith("\\end{proof}")


def test_parse_no_envs(tmp_path):
    tex = write(tmp_path / "plain.tex", "Just prose, no environments.\n")
    assert parse_legacy_blueprint([tex]) == []


def test_parse_title_and_flags(tmp_path):
    tex = write(
        tmp_path / "t.tex",
        r"""
        \begin{lemma}[Main bound]\label{lem:m}\lean{f}\mathlibok\notready
        \discussion{12}
        Body.
        \end{lemma}
        """,
    )
    n = parse_legacy_blueprint([tex])[0]
    assert n.env == "lemma" and n.title == "Main bound"
    assert n.mathlib_ok is True and n.not_ready is True and n.discussion == 12
    assert n.statement_text == "Body."


def test_parse_multiple_lean_names(tmp_path):
    tex = write(
        tmp_path / "t.tex",
        "\\begin{definition}\\label{d}\\lean{a, B.c}\nX\n\\end{definition}\n",
    )
    n = parse_legacy_blueprint([tex])[0]
    assert n.lean_names == (Name.parse("a"), Name.parse("B.c"))


def test_parse_text_collapses_whitespace_and_comments(tmp_path):
    tex = write(
        tmp_path / "t.tex",
        "\\begin{theorem}\\label{t}\n"
        "First   line\n"
        "% editorial note\n"
        "  second line\n"
        "\\end{theorem}\n",
    )
    n = parse_legacy_blueprint([tex])[0]
    assert n.statement_text == "First line second line"


def test_parse_commented_env_ignored(tmp_path):
    tex = write(
        tmp_path / "t.tex",
        "% \\begin{theorem}\\label{ghost}\n"
        "% \\end{theorem}\n"
        "\\begin{lemma}\\label{real}\nX\n\\end{lemma}\n",
    )
    nodes = parse_legacy_blueprint([tex])
    assert [n.label for n in nodes] == ["real"]


def test_parse_nested_same_env(tmp_path):
    tex = write(
        tmp_path / "t.tex",
        "\\begin{theorem}\\label{outer}\n"
        "\\begin{theorem}\\label{inner}\nY\n\\end{theorem}\n"
        "\\end{theorem}\n",
    )
    # the scanner takes the outer environment whole: one node, full span
    nodes = parse_legacy_blueprint([tex])
    assert len(nodes) == 1
    covered = tex.read_text(encoding="utf-8")[nodes[0].span.start : nodes[0].span.end]
    assert covered.count("\\begin{theorem}") == 2


def test_parse_unclosed_env_raises(tmp_path):
    tex = write(tmp_path / "t.tex", "\\begin{theorem}\\label{t}\nX\n")
    with pytest.raises(ConversionError, match="never closed"):
        parse_legacy_blueprint([tex])


def test_parse_unbalanced_macro_arg_raises(tmp_path):
    tex = write(tmp_path / "t.tex", "\\begin{theorem}\\label{t\nX\n\\end{theorem}\n")
    with pytest.raises(ConversionError, match="unbalanced"):
        parse_legacy_blueprint([tex])


def test_parse_order_across_files(tmp_path):
    a = write(tmp_path / "a.tex", "\\begin{theorem}\\label{one}\nX\n\\end{theorem}\n")
    b = write(tmp_path / "b.tex", "\\begin{lemma}\\label{two}\nY\n\\end{lemma}\n")
    nodes = parse_legacy_blueprint([a, b])
    assert [n.label for n in nodes] == ["one", "two"]
    assert nodes[0].path == str(a) and nodes[1].path == str(b)


def test_parse_all_five_envs(tmp_path):
    body = "".join(
        f"\\begin{{{env}}}\\label{{l:{env}}}\nX\n\\end{{{env}}}\n"
        for env in ("theorem", "lemma", "definition", "corollary", "proposition")
    )
    tex = write(tmp_path / "t.tex", body)
    assert len(parse_legacy_blueprint([tex])) == 5


def test_parse_line_break_before_percent_starts_comment(tmp_path):
    # `\\` is a line break, so the `%` after it starts a comment; `\%` and
    # `\\\%` (an odd run of backslashes) are escaped percent signs
    tex = write(
        tmp_path / "t.tex",
        "x \\\\% \\begin{theorem}\\label{ghost}\\end{theorem}\n"
        "\\begin{theorem}\\label{t}\n"
        "line one \\\\% \\leanok more\n"
        "\\end{theorem}\n"
        "\\begin{lemma}\\label{l}\n"
        "cost 5\\% \\\\\\% \\notready\n"
        "\\end{lemma}\n",
    )
    t, lem = parse_legacy_blueprint([tex])
    assert (t.label, t.statement_lean_ok) == ("t", False)
    assert t.statement_text == "line one \\\\% \\leanok more"
    assert (lem.label, lem.not_ready) == ("l", True)
    assert lem.statement_text == "cost 5\\% \\\\\\%"


def test_parse_line_break_before_macro_name_is_text(tmp_path):
    # `\\leanok` is a line break followed by the word `leanok`
    tex = write(
        tmp_path / "t.tex",
        "\\begin{theorem}\\label{t}\nA \\\\leanok B \\\\\\notready\n\\end{theorem}\n",
    )
    (n,) = parse_legacy_blueprint([tex])
    assert (n.statement_lean_ok, n.not_ready) == (False, True)
    assert n.statement_text == "A \\\\leanok B \\\\"


def test_parse_braces_in_comments_and_escaped_braces(tmp_path):
    # a brace inside a % comment or escaped as \{ or \} neither opens nor
    # closes an argument, and the comment is no part of the argument
    tex = write(
        tmp_path / "t.tex",
        "\\begin{theorem}\\label{t}\\uses{a, % old: b}\n"
        "  c}\\lean{X.y}\n"
        "\\end{theorem}\n"
        "\\begin{lemma}[Sets \\{x\\} % and {\n"
        "]\\label{l\\}m}\\uses{\\{d}\n"
        "\\end{lemma}\n",
    )
    t, lem = parse_legacy_blueprint([tex])
    assert t.statement_uses == ("a", "c")
    assert t.lean_names == (Name.parse("X.y"),)
    assert lem.title == "Sets \\{x\\}"
    assert (lem.label, lem.statement_uses) == ("l\\}m", ("\\{d",))


def test_convert_keeps_crlf_line_breaks_and_tail(tmp_path):
    src = write(tmp_path / "Core.lean", CORE_SRC)
    head = "Intro line\r\nmore\r\n"
    tail = "\r\nTail prose.\r\n"
    tex = tmp_path / "bp.tex"
    tex.write_bytes((head + CORE_TEX.lstrip("\n").replace("\n", "\r\n") + tail).encode("utf-8"))
    before = tex.read_bytes()
    unit = parse_module_text(src.read_text(encoding="utf-8"), Name.parse("Core"), path=str(src))
    store = build_store([unit])
    warm_statuses(store)
    legacy = parse_legacy_blueprint([tex])
    assert [n.label for n in legacy] == ["def:zero", "thm:main"]
    assert legacy[0].span.start == before.index(b"\\begin{definition}") == len(head)
    assert legacy[1].span.line == 7
    assert legacy[1].proof.text == "Proof prose."
    assert before[legacy[1].span.end - len(b"\\end{proof}") : legacy[1].span.end] == (
        b"\\end{proof}"
    )

    apply_plan(plan_conversion(legacy, store))
    after = tex.read_bytes()
    assert after == (
        head + "\\inputleannode{def:zero}\r\n\r\n\\inputleannode{thm:main}\r\n" + tail
    ).encode("utf-8")


def test_find_input_macros_backslash_parity():
    text = (
        "\\\\% \\inputleannode{commented}\n"
        "\\%\\inputleannode{after:escaped:percent}\n"
        "\\\\\\inputleannode{after:line:break}\n"
        "\\\\inputleanmodule{Not.A.Macro}\n"
        "\\inputleanmodule{Real.Module} % \\inputleanmodule{Gone}\n"
    )
    labels, modules = find_input_macros(text, "bp.tex")
    assert labels == {"after:escaped:percent", "after:line:break"}
    assert modules == {"Real.Module"}


# ---------------------------------------------------------------------------
# differential check of the scanner against a per-character reference


class NaiveScanner:
    """Reference scanner: per-character tables and `str.find` searches.

    A `%` or a backslash after an odd run of backslashes is escaped; an
    unescaped `%` comments out the rest of its line, newline included.  A
    brace escaped or commented out is no delimiter, and a comment is no part
    of an argument.
    """

    def __init__(self, text: str, path: str):
        self.text, self.path = text, path
        self.commented: list[bool] = []
        self.inactive: list[bool] = []  # commented or escaped
        run = 0
        in_comment = False
        for ch in text:
            escaped = run % 2 == 1
            if not in_comment and ch == "%" and not escaped:
                in_comment = True
            self.commented.append(in_comment)
            self.inactive.append(in_comment or escaped)
            if ch == "\n":
                in_comment = False
            run = run + 1 if ch == "\\" else 0
        self.commented.append(False)
        self.inactive.append(False)

    def line_of(self, pos: int) -> int:
        return self.text.count("\n", 0, pos) + 1

    def find(self, pat: str, pos: int, stop: int | None = None) -> int:
        stop = len(self.text) if stop is None else stop
        i = self.text.find(pat, pos, stop)
        while i != -1 and self.inactive[i]:
            i = self.text.find(pat, i + 1, stop)
        return i

    def find_macro(self, name: str, start: int, end: int | None = None) -> int:
        pos = start
        while (i := self.find("\\" + name, pos, end)) != -1:
            after = i + 1 + len(name)
            if after >= len(self.text) or not self.text[after].isalpha():
                return i
            pos = i + 1
        return -1

    def balanced_arg(self, pos: int, open_ch: str = "{", close_ch: str = "}"):
        i = pos
        while i < len(self.text) and self.text[i] in " \t\r\n":
            i += 1
        if i >= len(self.text) or self.text[i] != open_ch:
            raise ConversionError(f"{self.path}:{self.line_of(pos)}: expected '{open_ch}' after macro")
        depth = 0
        for j in range(i, len(self.text)):
            if self.inactive[j]:
                continue
            if self.text[j] == open_ch:
                depth += 1
            elif self.text[j] == close_ch:
                depth -= 1
                if depth == 0:
                    arg = "".join(self.text[k] for k in range(i + 1, j) if not self.commented[k])
                    return arg, j + 1
        raise ConversionError(f"{self.path}:{self.line_of(pos)}: unbalanced '{open_ch}'")


def naive_input_macros(text: str, path: str):
    sc = NaiveScanner(text, path)
    found = {"inputleannode": set(), "inputleanmodule": set()}
    for macro, bag in found.items():
        pos = 0
        while (i := sc.find_macro(macro, pos)) != -1:
            arg, pos = sc.balanced_arg(i + 1 + len(macro))
            bag.add(arg.strip())
    return found["inputleannode"], found["inputleanmodule"]


def naive_env_end(sc: NaiveScanner, env: str, body_start: int) -> tuple[int, int]:
    depth, pos = 1, body_start
    begin, end = f"\\begin{{{env}}}", f"\\end{{{env}}}"
    while True:
        nb, ne = sc.find(begin, pos), sc.find(end, pos)
        if ne == -1:
            raise ConversionError(f"{sc.path}:{sc.line_of(body_start)}: \\begin{{{env}}} is never closed")
        if nb != -1 and nb < ne:
            depth, pos = depth + 1, nb + len(begin)
            continue
        depth, pos = depth - 1, ne + len(end)
        if depth == 0:
            return ne, pos


def naive_env_body(sc: NaiveScanner, body: str, offset: int) -> dict:
    data = {"label": None, "lean": (), "uses": (), "leanok": False, "mathlibok": False,
            "notready": False, "discussion": None}
    cut = []
    for macro in ("label", "lean", "uses", "leanok", "mathlibok", "notready", "discussion"):
        pos = 0
        while (i := sc.find_macro(macro, offset + pos, offset + len(body))) != -1:
            after = i + 1 + len(macro)
            if macro in ("leanok", "mathlibok", "notready"):
                data[macro] = True
                cut.append((i - offset, after - offset))
                pos = after - offset
                continue
            arg, past = sc.balanced_arg(after)
            if macro == "lean":
                data[macro] = tuple(Name.parse(a) for a in arg.split(",") if a.strip())
            elif macro == "uses":
                data[macro] = tuple(a.strip() for a in arg.split(",") if a.strip())
            elif macro == "label":
                data[macro] = arg.strip()
            else:
                try:
                    data[macro] = int(arg.strip())
                except ValueError as exc:
                    raise ConversionError(
                        f"{sc.path}:{sc.line_of(i)}: \\discussion expects a number"
                    ) from exc
            cut.append((i - offset, past - offset))
            pos = past - offset
    pieces, prev = [], 0
    for a, b in sorted(cut):
        pieces.append(body[prev:a])
        prev = b
    pieces.append(body[prev:])
    lines = "".join(pieces).split("\n")
    data["text"] = " ".join("\n".join(ln for ln in lines if not ln.lstrip().startswith("%")).split())
    return data


def naive_parse(path: Path) -> list[LegacyNode]:
    text = path.read_bytes().decode("utf-8")
    sc = NaiveScanner(text, str(path))
    nodes, pos = [], 0
    while True:
        hits = [(i, env) for env in NODE_ENVS if (i := sc.find(f"\\begin{{{env}}}", pos)) != -1]
        if not hits:
            return nodes
        start, env = min(hits)
        body_start = start + len(f"\\begin{{{env}}}")
        title, k = None, body_start
        while k < len(text) and text[k] in " \t":
            k += 1
        if k < len(text) and text[k] == "[":
            title, body_start = sc.balanced_arg(k, "[", "]")
            title = title.strip()
        end_start, span_end = naive_env_end(sc, env, body_start)
        d = naive_env_body(sc, text[body_start:end_start], body_start)
        proof, k = None, span_end
        while k < len(text) and (text[k] in " \t\r\n" or text[k] == "%"):
            k = k + 1 if text[k] != "%" else (text.find("\n", k) + 1 or len(text))
        if text.startswith("\\begin{proof}", k) and not sc.inactive[k]:
            p_body = k + len("\\begin{proof}")
            p_end, span_end = naive_env_end(sc, "proof", p_body)
            pd = naive_env_body(sc, text[p_body:p_end], p_body)
            proof = LegacyProof(uses=pd["uses"], lean_ok=pd["leanok"], text=pd["text"])
        span = SourceSpan(start, span_end, sc.line_of(start))
        nodes.append(
            LegacyNode(env, title, d["label"], d["lean"], d["uses"], d["leanok"], d["mathlibok"],
                       d["notready"], d["discussion"], d["text"], proof, str(path), span)
        )
        pos = span_end


BODY_PIECES = (
    "word", " ", "  ", "\n", "\r\n", "\t", "é", "𝔸", "\xa0", ",", "-/", "{x}", "[y]", "\\%",
    "\\\\", "\\\\\\%", "% note\n", "\\\\% note\n", "\n% whole line\n", "% {\n", "\\{", "\\}",
    "\\uses{a, % b}\nc}", "\\label{l:\\{}", "\\leanok", "\\mathlibok",
    "\\notready", "\\leanokay", "\\\\leanok", "\\leané", "\\label{l:a}", "\\label{ l:b }",
    "\\lean{A.b, c}", "\\lean{𝔸.x}", "\\uses{l:a, l:b}", "\\uses{}", "\\discussion{12}",
    "\\inputleannode{l:a}", "\\inputleanmodule{M.N}", "\\begin{proof}", "\\end{proof}",
)
NOISE_PIECES = (
    "%", "\\\\%", "{", "}", "[", "]", "\\discussion{x}", "\\label", "\\uses{a",
    "\\inputleannode", "\\inputleanmodule{open",
    *(f"\\begin{{{env}}}" for env in (*NODE_ENVS, "proof")),
    *(f"\\end{{{env}}}" for env in (*NODE_ENVS, "proof")),
)


def random_tex(rng: random.Random) -> str:
    out = []
    for _ in range(rng.randint(1, 6)):
        env = rng.choice(NODE_ENVS)
        out.append(rng.choice(("", "prose é ", "% c\n", "\\\\% \\begin{lemma}\n", "\r\n")))
        out.append(f"\\begin{{{env}}}" + rng.choice(("", "", "[Title 𝔸]", " [t]", "\n[no]")))
        out.extend(rng.choice(BODY_PIECES) for _ in range(rng.randint(0, 12)))
        out.append(f"\\end{{{env}}}")
        if rng.random() < 0.5:
            out.append(rng.choice(("\n", "\n% gap\n", " \t", "\r\n", "x")) + "\\begin{proof}")
            out.extend(rng.choice(BODY_PIECES[:-2]) for _ in range(rng.randint(0, 6)))
            out.append("\\end{proof}")
        if rng.random() < 0.15:
            out.insert(rng.randrange(len(out) + 1), rng.choice(NOISE_PIECES))
        out.append(rng.choice(("\n", "\n\n", " ")))
    return "".join(out)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ConversionError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def test_scanner_matches_naive_reference(tmp_path):
    parsed = 0
    for seed in range(300):
        text = random_tex(random.Random(seed))
        tex = tmp_path / f"s{seed}.tex"
        tex.write_bytes(text.encode("utf-8"))
        got = outcome(parse_legacy_blueprint, [tex])
        assert got == outcome(naive_parse, tex), (seed, text)
        assert outcome(find_input_macros, text, "bp.tex") == outcome(
            naive_input_macros, text, "bp.tex"
        ), (seed, text)
        parsed += isinstance(got, list) and len(got) > 0
    assert parsed >= 100


# ---------------------------------------------------------------------------
# planning


CORE_SRC = """\
import Architect

def zero := 1

theorem t_main (x : Slot) : Rel zero x := by
  apply zero
  sorry
"""

CORE_TEX = r"""
\begin{definition}\label{def:zero}\lean{zero}\leanok
Zero def.
\end{definition}

\begin{theorem}\label{thm:main}\lean{t_main}\uses{def:zero}
Main claim text.
\end{theorem}
\begin{proof}\uses{def:zero}
Proof prose.
\end{proof}
"""


def project(tmp_path, src_text=CORE_SRC, tex_text=CORE_TEX):
    src = write(tmp_path / "Core.lean", src_text)
    tex = write(tmp_path / "bp.tex", tex_text)
    unit = parse_module_text(
        src.read_text(encoding="utf-8"), Name.parse("Core"), path=str(src)
    )
    store = build_store([unit])
    warm_statuses(store)
    legacy = parse_legacy_blueprint([tex])
    return src, tex, store, legacy


def test_plan_counts(tmp_path):
    src, tex, store, legacy = project(tmp_path)
    plan = plan_conversion(legacy, store)
    assert len(plan.source_edits) == 2
    assert len(plan.latex_edits) == 2
    assert plan.skipped == []


def test_plan_drops_uses_when_lean_ok(tmp_path):
    # def:zero is leanOk, so its one would-be uses list would be dropped;
    # thm:main is not leanOk and keeps both lists
    src, tex, store, legacy = project(tmp_path)
    plan = plan_conversion(legacy, store)
    edits = {e.insert_at: e.text for e in plan.source_edits}
    main_edit = next(t for t in edits.values() if "thm:main" in t)
    assert '(uses := ["def:zero"])' in main_edit
    assert '(proofUses := ["def:zero"])' in main_edit


def test_plan_keep_uses_option(tmp_path):
    src, tex, store, legacy = project(
        tmp_path,
        tex_text=r"""
        \begin{definition}\label{def:zero}\lean{zero}\leanok\uses{thm:main}
        Zero def.
        \end{definition}

        \begin{theorem}\label{thm:main}\lean{t_main}
        Main.
        \end{theorem}
        """,
    )
    dropped = plan_conversion(legacy, store)
    kept = plan_conversion(
        legacy, store, ConversionOptions(drop_uses_when_lean_ok=False)
    )
    text_d = next(t for t in (e.text for e in dropped.source_edits) if "def:zero" in t)
    text_k = next(t for t in (e.text for e in kept.source_edits) if "def:zero" in t)
    assert "uses" not in text_d
    assert '(uses := ["thm:main"])' in text_k


def test_plan_statement_docstring(tmp_path):
    src, tex, store, legacy = project(tmp_path)
    plan = plan_conversion(legacy, store)
    main_edit = next(t for t in (e.text for e in plan.source_edits) if "thm:main" in t)
    assert "(statement := /-- Main claim text. -/)" in main_edit
    assert "(proof := /-- Proof prose. -/)" in main_edit


def test_plan_inserts_before_keyword_line(tmp_path):
    src, tex, store, legacy = project(tmp_path)
    plan = plan_conversion(legacy, store)
    text = src.read_text(encoding="utf-8")
    for edit in plan.source_edits:
        assert edit.path == str(src)
        # insertion lands at the start of a line
        assert edit.insert_at == 0 or text[edit.insert_at - 1] == "\n"
        line = text[edit.insert_at :].split("\n", 1)[0]
        assert line.startswith(("def ", "theorem "))


def test_plan_latex_replacements(tmp_path):
    src, tex, store, legacy = project(tmp_path)
    plan = plan_conversion(legacy, store)
    repls = sorted(e.replacement for e in plan.latex_edits)
    assert repls == [
        "\\inputleannode{def:zero}",
        "\\inputleannode{thm:main}",
    ]


def test_plan_skips_unlean_node_by_default(tmp_path):
    src, tex, store, legacy = project(
        tmp_path,
        tex_text="\\begin{theorem}\\label{prose:only}\nNo formal twin.\n\\end{theorem}\n",
    )
    plan = plan_conversion(legacy, store)
    assert plan.source_edits == [] and plan.latex_edits == []
    assert len(plan.skipped) == 1
    node, reason = plan.skipped[0]
    assert node.label == "prose:only"
    assert "skipped by default" in reason


def test_plan_skips_unknown_names(tmp_path):
    src, tex, store, legacy = project(
        tmp_path,
        tex_text="\\begin{theorem}\\label{t}\\lean{ghost_thm}\nX\n\\end{theorem}\n",
    )
    plan = plan_conversion(legacy, store)
    _, reason = plan.skipped[0]
    assert "no declaration or upstream entry for: ghost_thm" == reason


def test_plan_skips_unembeddable_text(tmp_path):
    src, tex, store, legacy = project(
        tmp_path,
        tex_text="\\begin{theorem}\\label{t}\\lean{t_main}\nBad -/ text.\n\\end{theorem}\n",
    )
    plan = plan_conversion(legacy, store)
    _, reason = plan.skipped[0]
    assert "cannot be embedded" in reason
    assert plan.source_edits == []


def test_plan_double_claim_raises(tmp_path):
    src, tex, store, legacy = project(
        tmp_path,
        tex_text=(
            "\\begin{theorem}\\label{one}\\lean{t_main}\nX\n\\end{theorem}\n"
            "\\begin{lemma}\\label{two}\\lean{t_main}\nY\n\\end{lemma}\n"
        ),
    )
    with pytest.raises(ConversionError, match="claimed by two legacy nodes"):
        plan_conversion(legacy, store)


def test_plan_explicit_label_omitted_when_defaultable(tmp_path):
    # unlabeled env with a single lean name: the attribute needs no label
    src, tex, store, legacy = project(
        tmp_path,
        tex_text="\\begin{theorem}\\lean{t_main}\nX\n\\end{theorem}\n",
    )
    plan = plan_conversion(legacy, store)
    text = plan.source_edits[0].text
    assert "@[blueprint" in text and '"' not in text.split("\n")[0]
    repl = plan.latex_edits[0].replacement
    assert repl == "\\inputleannode{t_main}"


def test_plan_inline_merge_into_existing_attr(tmp_path):
    src, tex, store, legacy = project(
        tmp_path,
        src_text="import Architect\n\n@[simp]\ndef zero := 1\n",
        tex_text="\\begin{definition}\\label{d:z}\\lean{zero}\\leanok\nZ.\n\\end{definition}\n",
    )
    plan = plan_conversion(legacy, store)
    assert len(plan.source_edits) == 1
    edit = plan.source_edits[0]
    assert edit.text.startswith(", blueprint")
    # lands right before the closing bracket of @[simp]
    text = src.read_text(encoding="utf-8")
    assert text[edit.insert_at] == "]"


def test_plan_already_tagged_same_label_skips_source_edit(tmp_path):
    src, tex, store, legacy = project(
        tmp_path,
        src_text='import Architect\n\n@[blueprint "d:z"]\ndef zero := 1\n',
        tex_text="\\begin{definition}\\label{d:z}\\lean{zero}\\leanok\nZ.\n\\end{definition}\n",
    )
    plan = plan_conversion(legacy, store)
    assert plan.source_edits == []
    assert len(plan.latex_edits) == 1


def test_plan_already_tagged_conflicting_label_raises(tmp_path):
    src, tex, store, legacy = project(
        tmp_path,
        src_text='import Architect\n\n@[blueprint "other"]\ndef zero := 1\n',
        tex_text="\\begin{definition}\\label{d:z}\\lean{zero}\\leanok\nZ.\n\\end{definition}\n",
    )
    with pytest.raises(ConversionError, match="already carries"):
        plan_conversion(legacy, store)


def test_plan_shared_label_secondary_gets_bare_attribute(tmp_path):
    src, tex, store, legacy = project(
        tmp_path,
        src_text=(
            "import Architect\n\n"
            "theorem half_a : x := by sorry\n\n"
            "theorem half_b : y := by sorry\n"
        ),
        tex_text=(
            "\\begin{theorem}\\label{thm:both}\\lean{half_a, half_b}\nX\n\\end{theorem}\n"
        ),
    )
    plan = plan_conversion(legacy, store)
    assert len(plan.source_edits) == 2
    texts = sorted(e.text for e in plan.source_edits)
    # one rich attribute, one bare label claim
    assert sum('"thm:both"' in t for t in texts) == 2
    assert any("statement" in t for t in texts)
    bare = [t for t in texts if "statement" not in t]
    assert len(bare) == 1


def test_plan_upstream_attribution_before_first_dependent(tmp_path):
    src, tex, store, legacy = project(
        tmp_path,
        src_text=CORE_SRC,
        tex_text=(
            "\\begin{lemma}\\label{ml:fact}\\lean{Mathlib.A.b}\\mathlibok\nF.\n\\end{lemma}\n"
            "\\begin{theorem}\\label{thm:main}\\lean{t_main}\\uses{ml:fact}\nM.\n\\end{theorem}\n"
        ),
    )
    unit = parse_module_text(
        (tmp_path / "Core.lean").read_text(encoding="utf-8"),
        Name.parse("Core"),
        path=str(tmp_path / "Core.lean"),
    )
    store = build_store([unit], frozenset({Name.parse("Mathlib.A.b")}))
    warm_statuses(store)
    plan = plan_conversion(legacy, store)
    attr_cmd = next(
        e for e in plan.source_edits if e.text.startswith("attribute [blueprint")
    )
    assert '"ml:fact"' in attr_cmd.text
    assert "Mathlib.A.b" in attr_cmd.text
    # anchored at the dependent theorem, so applied text puts it before t_main
    text = (tmp_path / "Core.lean").read_text(encoding="utf-8")
    line = text[attr_cmd.insert_at :].split("\n", 1)[0]
    assert line.startswith("theorem t_main")


def test_plan_upstream_without_dependent_appends_to_root(tmp_path):
    src, tex, store, legacy = project(
        tmp_path,
        src_text=CORE_SRC,
        tex_text="\\begin{lemma}\\label{ml:fact}\\lean{Mathlib.A.b}\\mathlibok\nF.\n\\end{lemma}\n",
    )
    unit = parse_module_text(
        (tmp_path / "Core.lean").read_text(encoding="utf-8"),
        Name.parse("Core"),
        path=str(tmp_path / "Core.lean"),
    )
    store = build_store([unit], frozenset({Name.parse("Mathlib.A.b")}))
    warm_statuses(store)
    plan = plan_conversion(legacy, store, root_path=str(tmp_path / "Core.lean"))
    edit = plan.source_edits[0]
    assert edit.insert_at == len((tmp_path / "Core.lean").read_text(encoding="utf-8"))
    assert edit.text.startswith("attribute [blueprint")


# ---------------------------------------------------------------------------
# applying


def test_apply_end_to_end(tmp_path):
    src, tex, store, legacy = project(tmp_path)
    plan = plan_conversion(legacy, store)
    summary = apply_plan(plan)
    assert str(summary) == "source insertions: 2, latex replacements: 2, skipped nodes: 0"

    new_src = src.read_text(encoding="utf-8")
    assert '@[blueprint "def:zero"' in new_src
    assert '@[blueprint "thm:main"' in new_src
    new_tex = tex.read_text(encoding="utf-8")
    assert "\\inputleannode{def:zero}" in new_tex
    assert "\\inputleannode{thm:main}" in new_tex
    assert "\\begin{theorem}" not in new_tex
    # surrounding prose survives
    assert new_tex.startswith("\n")

    # converted source re-parses and carries the expected metadata
    unit = parse_module_text(new_src, Name.parse("Core"), path=str(src))
    assert unit.warnings == ()
    store2 = build_store([unit])
    warm_statuses(store2)
    assert set(store2.by_label) == {"def:zero", "thm:main"}
    node = store2.by_name[Name.parse("t_main")]
    assert node.statement.text == "Main claim text."
    assert node.proof.text == "Proof prose."


def test_apply_keeps_legacy_order_of_edits_at_one_offset(tmp_path):
    # both attribute commands go before t_main, the first dependent of each, with
    # the same priority: planning order, which is legacy-document order, breaks the tie
    src, tex, _, legacy = project(
        tmp_path,
        tex_text=(
            "\\begin{lemma}\\label{ml:z}\\lean{Mathlib.Z.z}\\mathlibok\nZ.\n\\end{lemma}\n"
            "\\begin{lemma}\\label{ml:a}\\lean{Mathlib.A.a}\\mathlibok\nA.\n\\end{lemma}\n"
            "\\begin{theorem}\\label{thm:main}\\lean{t_main}\\uses{ml:a, ml:z}\nM.\n\\end{theorem}\n"
        ),
    )
    unit = parse_module_text(src.read_text(encoding="utf-8"), Name.parse("Core"), path=str(src))
    store = build_store([unit], frozenset({Name.parse("Mathlib.Z.z"), Name.parse("Mathlib.A.a")}))
    warm_statuses(store)
    plan = plan_conversion(legacy, store)
    tied = [e for e in plan.source_edits if e.priority == 0]
    assert len(tied) == 2 and len({e.insert_at for e in tied}) == 1
    apply_plan(plan)
    text = src.read_text(encoding="utf-8")
    z = text.index('attribute [blueprint "ml:z"')
    a = text.index('attribute [blueprint "ml:a"')
    assert z < a < text.index('@[blueprint "thm:main"') < text.index("theorem t_main")


def test_apply_preserves_declaration_bodies(tmp_path):
    src, tex, store, legacy = project(tmp_path)
    before = src.read_text(encoding="utf-8")
    apply_plan(plan_conversion(legacy, store))
    after = src.read_text(encoding="utf-8")
    # insert-only edits: every original line is still present verbatim
    for line in before.splitlines():
        assert line in after.splitlines()


def test_apply_dry_run_writes_nothing(tmp_path):
    src, tex, store, legacy = project(tmp_path)
    before_src = src.read_bytes()
    before_tex = tex.read_bytes()
    plan = plan_conversion(legacy, store)
    summary = apply_plan(plan, dry_run=True)
    assert src.read_bytes() == before_src
    assert tex.read_bytes() == before_tex
    assert "source insertions: 2" in str(summary)


def test_apply_stale_source_aborts_without_edits(tmp_path):
    src, tex, store, legacy = project(tmp_path)
    plan = plan_conversion(legacy, store)
    src.write_text(src.read_text(encoding="utf-8") + "\n-- drift\n", encoding="utf-8")
    drifted = src.read_bytes()
    tex_before = tex.read_bytes()
    with pytest.raises(StaleSourceError, match="changed since the conversion was planned"):
        apply_plan(plan)
    assert src.read_bytes() == drifted
    assert tex.read_bytes() == tex_before


def test_apply_empty_plan(tmp_path):
    src, tex, store, legacy = project(
        tmp_path, tex_text="No environments here.\n"
    )
    plan = plan_conversion(legacy, store)
    summary = apply_plan(plan)
    assert str(summary) == "source insertions: 0, latex replacements: 0, skipped nodes: 0"


def test_apply_skipped_nodes_left_in_place(tmp_path):
    src, tex, store, legacy = project(
        tmp_path,
        tex_text=(
            "\\begin{theorem}\\label{keep:me}\nProse only.\n\\end{theorem}\n"
            "\\begin{definition}\\label{def:zero}\\lean{zero}\\leanok\nZ.\n\\end{definition}\n"
        ),
    )
    plan = plan_conversion(legacy, store)
    apply_plan(plan)
    new_tex = tex.read_text(encoding="utf-8")
    assert "\\begin{theorem}\\label{keep:me}" in new_tex
    assert "\\inputleannode{def:zero}" in new_tex


def _bare_source(gp, module: str) -> str:
    """The untagged module, behind a comment that makes characters and bytes differ."""

    return "-- α₁ é\n" + _gen.render_module_source(gp, module, tagged=False)


def _convert_generated(root: Path, gp, legacy_text: str, eol: str) -> None:
    """Write the untagged project `gp` with line ends `eol`, convert it, then extract it."""

    modules = {m: _bare_source(gp, m).replace("\n", eol) for m in gp.module_names}
    make_project(root, modules, upstream_names=[u.name for u in gp.upstream])
    (root / "bp.tex").write_bytes(legacy_text.replace("\n", eol).encode("utf-8"))
    bare = load_project_at(root)
    first = bare.store.modules[Name.parse(gp.module_names[0])]
    plan = plan_conversion(parse_legacy_blueprint([root / "bp.tex"]), bare.store, root_path=first.path)
    assert not plan.skipped
    apply_plan(plan)
    extract(load_project_at(root))


def test_convert_crlf_and_non_ascii_sources_like_lf(tmp_path):
    for seed in range(6):
        gp = _gen.gen_project(seed, max_decls=16, roundtrip=True)
        legacy_text = _gen.legacy_blueprint_text(_gen.build_gen_store(gp, tagged=True))
        lf, crlf = tmp_path / f"lf{seed}", tmp_path / f"crlf{seed}"
        _convert_generated(lf, gp, legacy_text, "\n")
        _convert_generated(crlf, gp, legacy_text, "\r\n")

        converted = {k: v for k, v in read_tree(crlf).items() if k.startswith(("src/", "bp.tex"))}
        want = {k: v for k, v in read_tree(lf).items() if k.startswith(("src/", "bp.tex"))}
        assert {k: v.replace(b"\r\n", b"\n") for k, v in converted.items()} == want, seed
        for m in gp.module_names:
            original = _bare_source(gp, m).encode("utf-8")
            rel = "src/" + "/".join(m.split(".")) + ".lean"
            # inserted lines end in `\n`; every original line break is still `\r\n`
            assert converted[rel].count(b"\r\n") == original.count(b"\n"), (seed, rel)
            assert converted[rel].count(b"\r") == original.count(b"\n"), (seed, rel)
        tex = converted["bp.tex"]
        assert tex.count(b"\n") == tex.count(b"\r\n") == tex.count(b"\r"), seed

        artifacts = {k: v for k, v in read_tree(crlf / "build").items() if not k.endswith("manifest.json")}
        assert artifacts == {
            k: v for k, v in read_tree(lf / "build").items() if not k.endswith("manifest.json")
        }, seed
