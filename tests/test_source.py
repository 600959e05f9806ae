"""Tokenizer and module parser behavior."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from archforge.errors import ParseError
from archforge.infer import label_view
from archforge.names import LabelRef, Name
from archforge.source import (
    RESERVED_WORDS,
    AttributeSpec,
    Declaration,
    ModuleUnit,
    RawComment,
    UpstreamAttribution,
    parse_attribute_config,
    parse_module_text,
    tokenize,
)

from conftest import FIXTURES, golden_text, store_from

import _gen


def decls(unit: ModuleUnit) -> list[Declaration]:
    return [i for i in unit.items if isinstance(i, Declaration)]


# ---------------------------------------------------------------------------
# tokenizer


def test_dotted_identifier_is_one_token():
    toks = tokenize("exact MyNat.zero_add.symm")
    idents = [t.text for t in toks if t.kind == "ident"]
    assert idents == ["exact", "MyNat.zero_add.symm"]


def test_projection_after_paren_splits():
    toks = tokenize("exact (zero_add a).symm")
    texts = [t.text for t in toks]
    assert ")" in texts
    # the .symm after a closing paren is not glued to anything
    assert ".symm" in texts or ("symm" in texts)


def test_assign_token_is_atomic():
    toks = tokenize("def x := y")
    assert any(t.text == ":=" for t in toks)
    assert not any(t.text == ":" for t in toks)


def test_line_comments_are_skipped():
    toks = tokenize("a -- b c d\ne")
    assert [t.text for t in toks if t.kind == "ident"] == ["a", "e"]


def test_block_comments_nest():
    toks = tokenize("a /- x /- y -/ z -/ b")
    assert [t.text for t in toks if t.kind == "ident"] == ["a", "b"]


def test_docstring_token_carries_cleaned_text():
    toks = tokenize("/-- Some  claim\n    here. -/")
    doc = [t for t in toks if t.kind == "docstring"]
    assert len(doc) == 1
    assert "Some" in doc[0].value and "here." in doc[0].value


def test_unterminated_docstring_raises():
    with pytest.raises(ParseError, match="unterminated docstring"):
        tokenize("/-- open")


def test_unterminated_block_comment_raises():
    with pytest.raises(ParseError, match="unterminated block comment"):
        tokenize("x /- open")


def test_unterminated_string_raises():
    with pytest.raises(ParseError, match="unterminated string literal"):
        tokenize('x "open')


# Every Token field, in order:
# (kind, text, value, start, end, line, col)
TOKEN_TABLE = {
    # U+2081 SUBSCRIPT ONE is No: it continues an identifier
    "subscript": ("x₁", [("ident", "x₁", "x₁", 0, 2, 1, 0)]),
    # e plus U+0301 COMBINING ACUTE ACCENT (Mn) is one identifier
    "combining_mark": ("e\u0301", [("ident", "e\u0301", "e\u0301", 0, 2, 1, 0)]),
    # U+216B ROMAN NUMERAL TWELVE is Nl: neither a letter nor a digit
    "letter_number": (
        "xⅫ",
        [
            ("ident", "x", "x", 0, 1, 1, 0),
            ("symbol", "Ⅻ", "Ⅻ", 1, 2, 1, 1),
        ],
    ),
    "greek": (
        "λ α₁",
        [
            ("ident", "λ", "λ", 0, 1, 1, 0),
            ("ident", "α₁", "α₁", 2, 4, 1, 2),
        ],
    ),
    "dotted_greek": ("Foo.λ", [("ident", "Foo.λ", "Foo.λ", 0, 5, 1, 0)]),
    # U+00B2 SUPERSCRIPT TWO is a digit to str.isdigit
    "superscript_number": ("1²", [("number", "1²", "1²", 0, 2, 1, 0)]),
    # U+00A0 NO-BREAK SPACE is not whitespace here
    "nbsp": (
        "a\u00a0b",
        [
            ("ident", "a", "a", 0, 1, 1, 0),
            ("symbol", "\u00a0", "\u00a0", 1, 2, 1, 1),
            ("ident", "b", "b", 2, 3, 1, 2),
        ],
    ),
    # U+1D538 is four bytes long in UTF-8; offsets and columns count characters
    "multibyte_before": (
        "αβ := \U0001d538\n  x",
        [
            ("ident", "αβ", "αβ", 0, 2, 1, 0),
            ("symbol", ":=", ":=", 3, 5, 1, 3),
            ("ident", "\U0001d538", "\U0001d538", 6, 7, 1, 6),
            ("ident", "x", "x", 10, 11, 2, 2),
        ],
    ),
    "escapes": (
        '"a\\n\\t\\"\\\\\\\'"',
        [("string", '"a\\n\\t\\"\\\\\\\'"', 'a\n\t"\\\'', 0, 13, 1, 0)],
    ),
    # a `'` that does not continue an identifier opens a char literal
    "char_literals": (
        "'a' '\\'' '\"' '\\n'",
        [
            ("char", "'a'", "a", 0, 3, 1, 0),
            ("char", "'\\''", "'", 4, 8, 1, 4),
            ("char", "'\"'", '"', 9, 12, 1, 9),
            ("char", "'\\n'", "\n", 13, 17, 1, 13),
        ],
    ),
    # \r, \xHH, \uHHHH and \u{H...} stand for the characters they name
    "lean_escapes": (
        "\"\\r\\x41\\u03b1\\u{1F600}\" '\\x41' '\\u{3B1}' '\\r'",
        [
            ("string", "\"\\r\\x41\\u03b1\\u{1F600}\"", "\rA\u03b1\U0001f600", 0, 23, 1, 0),
            ("char", "'\\x41'", "A", 24, 30, 1, 24),
            ("char", "'\\u{3B1}'", "\u03b1", 31, 40, 1, 31),
            ("char", "'\\r'", "\r", 41, 45, 1, 41),
        ],
    ),
    "primes_in_identifiers": (
        "h' f'' x'y",
        [
            ("ident", "h'", "h'", 0, 2, 1, 0),
            ("ident", "f''", "f''", 3, 6, 1, 3),
            ("ident", "x'y", "x'y", 7, 10, 1, 7),
        ],
    ),
    # a gap (`\\`, a newline, the next line's indentation) drops out of the value
    "string_gap": (
        'x "a\\\nb" "c\\\n  \td" y',
        [
            ("ident", "x", "x", 0, 1, 1, 0),
            ("string", '"a\\\nb"', "ab", 2, 8, 1, 2),
            ("string", '"c\\\n  \td"', "cd", 9, 18, 2, 3),
            ("ident", "y", "y", 19, 20, 3, 6),
        ],
    ),
    # a raw string is one token whose value is its body as written
    "raw_strings": (
        'r"a\\b" r#"a"b"# r##"x"#y"## rw',
        [
            ("string", 'r"a\\b"', "a\\b", 0, 6, 1, 0),
            ("string", 'r#"a"b"#', 'a"b', 7, 15, 1, 7),
            ("string", 'r##"x"#y"##', 'x"#y', 16, 27, 1, 16),
            ("ident", "rw", "rw", 28, 30, 1, 28),
        ],
    ),
    "docstring_then_ident": (
        "/-- A\n  /- b -/ -/ c",
        [
            ("docstring", "/-- A\n  /- b -/ -/", "A\n/- b -/", 0, 18, 1, 0),
            ("ident", "c", "c", 19, 20, 2, 13),
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(TOKEN_TABLE))
def test_token_table(case):
    text, expected = TOKEN_TABLE[case]
    assert [tuple(t) for t in tokenize(text)] == expected


@pytest.mark.parametrize(
    "text, message, line",
    [
        ('x\n"\\q"', "unsupported string escape '\\q'", 2),
        ('x\n"ab\\', "unsupported string escape '\\'", 2),
        ('"\\x4"', "unsupported string escape '\\x'", 1),
        ('"\\u{}"', "unsupported string escape '\\u'", 1),
        # no Unicode scalar value: a surrogate, or past U+10FFFF
        ('"\\ud800"', "unsupported string escape '\\ud800'", 1),
        ('"\\u{110000}"', "unsupported string escape '\\u{110000}'", 1),
        ('x\n"ab', "unterminated string literal", 2),
        ('"ab\n"', "unterminated string literal", 1),
        ("a\n\n/- x /- y -/", "unterminated block comment", 3),
        ("\n/-- doc", "unterminated docstring", 2),
    ],
)
def test_tokenize_error_messages_and_lines(text, message, line):
    with pytest.raises(ParseError) as info:
        tokenize(text)
    assert (info.value.message, info.value.line) == (message, line)


def test_char_literals_add_no_reference_and_end_no_command():
    text = "def c : Char := '\"'\ndef d : Char := 'a'\n@[blueprint \"t\"]\ntheorem t : c = d := rfl\n"
    c, d, t = decls(parse_module_text(text, Name.parse("M")))
    assert (c.body_text, c.body_idents, d.body_idents) == ("'\"'", (), ())
    assert (t.name, t.signature_idents) == (Name.parse("t"), ("c", "d"))


def test_lean_escapes_parse_and_add_no_reference():
    text = 'def s := "\\x41"\ndef c : Char := \'\\x41\'\ndef u : Char := \'\\u{3B1}\'\n'
    s, c, u = decls(parse_module_text(text, Name.parse("M")))
    assert (s.body_idents, c.body_idents, u.body_idents) == ((), (), ())
    assert c.body_text == "'\\x41'"


def test_string_gaps_and_raw_strings_parse_and_add_no_reference():
    text = 'def s := "a\\\n  b"\ndef r := r"a\\b"\ndef q := r#"a"b"#\ndef f := q\n'
    s, r, q, f = decls(parse_module_text(text, Name.parse("M")))
    assert (s.body_idents, r.body_idents, q.body_idents, f.body_idents) == ((), (), (), ("q",))
    assert (r.body_text, q.body_text) == ('r"a\\b"', 'r#"a"b"#')


# ---------------------------------------------------------------------------
# the idiom corpus: Lean 4 commands and lexemes as real sources write them

IDIOMS = FIXTURES / "idioms"
IDIOM_EXPECTED = json.loads((IDIOMS / "expected.json").read_text(encoding="utf-8"))


def test_idiom_corpus_has_one_expectation_per_snippet():
    assert sorted(p.stem for p in IDIOMS.glob("*.lean")) == sorted(IDIOM_EXPECTED)


@pytest.mark.parametrize("case", sorted(IDIOM_EXPECTED))
def test_idiom_corpus(case):
    """`<case>.lean` gives the declarations `expected.json` names, in order, each with
    its body's reference candidates, and exactly the `[line, message]` warnings listed."""

    unit = parse_module_text((IDIOMS / f"{case}.lean").read_text(encoding="utf-8"), Name.parse("M"))
    expected = IDIOM_EXPECTED[case]
    assert [[str(d.name), list(d.body_idents)] for d in decls(unit)] == expected["declarations"]
    assert [[w.line, w.message] for w in unit.warnings] == expected["warnings"]


def test_end_on_a_declarations_line_closes_its_namespace():
    text = "namespace X\ntheorem a : True := trivial end X\ntheorem b : True := trivial\n"
    unit = parse_module_text(text, Name.parse("M"))
    a, b = decls(unit)
    assert (a.name, a.body_text, a.body_idents) == (Name.parse("X.a"), "trivial", ())
    assert b.name == Name.parse("b") and unit.warnings == ()


# ---------------------------------------------------------------------------
# reference candidates captured on declarations


def only_decl(text: str) -> Declaration:
    (d,) = decls(parse_module_text(text, Name.parse("M")))
    return d


def test_decl_idents_keep_duplicates_in_order():
    d = only_decl("theorem t (a : Nat) : add zero a = a := rfl\n")
    assert d.signature_idents == ("a", "Nat", "add", "zero", "a", "a")
    assert d.body_idents == ()


def test_decl_idents_ignore_comments():
    d = only_decl("theorem t : P := by\n  exact b.zero_add -- comment with fake_name\n")
    assert d.body_idents == ("b.zero_add",)


def test_decl_idents_skip_comments_docstrings_and_strings():
    d = only_decl('def f := a /- b /- c -/ d -/ "e" e\n  /-- g -/ h\n')
    assert d.body_idents == ("a", "e", "h")


def test_decl_idents_skip_keywords_and_bools():
    d = only_decl("def f := by exact true false sorry foo\n")
    assert d.signature_idents == () and d.body_idents == ("foo",)


def test_decl_idents_empty():
    d = only_decl("def f :=\n  -- nothing\n")
    assert d.body_text == "" and d.signature_idents == d.body_idents == ()
    d = only_decl("inductive T\n")
    assert d.body_text is None and d.signature_idents == d.body_idents == ()


def relexed_idents(text: str | None) -> tuple[str, ...]:
    toks = tokenize(text or "")
    skip = RESERVED_WORDS | {"true", "false"}
    return tuple(t.text for t in toks if t.kind == "ident" and t.text not in skip)


def test_decl_idents_match_relexed_text():
    # the captured tokens are exactly what re-tokenizing the sliced text yields
    units = [parse_module_text(golden_text(), Name.parse("MyNat"))]
    for seed in range(10):
        gp = _gen.gen_project(seed, max_decls=30)
        units += [
            parse_module_text(_gen.render_module_source(gp, m, tagged=True), Name.parse(m))
            for m in gp.module_names
        ]
    for unit in units:
        for d in decls(unit):
            assert d.signature_idents == relexed_idents(d.signature_text)
            assert d.body_idents == relexed_idents(d.body_text)


# ---------------------------------------------------------------------------
# attribute config


def test_config_label_only():
    spec = parse_attribute_config('"thm:main"')
    assert spec.label == "thm:main"
    assert spec.uses == () and spec.statement is None


def test_config_uses_mixes_names_and_labels():
    spec = parse_attribute_config('(uses := [a, "b"]) (discussion := 123)')
    assert spec.uses == (Name.parse("a"), LabelRef("b"))
    assert spec.discussion == 123


def test_config_docstring_options():
    spec = parse_attribute_config(
        '"x" (statement := /-- S -/) (proof := /-- P -/) (title := /-- T -/)'
    )
    assert spec.statement == "S" and spec.proof == "P" and spec.title == "T"


def test_config_flags_and_env():
    spec = parse_attribute_config(
        '(notReady := true) (hasProof := false) (latexEnv := "corollary")'
    )
    assert spec.not_ready is True
    assert spec.has_proof is False
    assert spec.latex_env == "corollary"


def test_readme_attribute_example_parses():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### The `@[blueprint]` attribute", 1)[1]
    block = section.split("```lean\n", 1)[1].split("```", 1)[0]
    assert block.endswith("theorem ...\n")
    text = "def OtherDecl := 1\ndef NoisyDep := 2\n\n" + block.replace(
        "theorem ...", "theorem comm : OtherDecl = OtherDecl := rfl"
    )
    unit = parse_module_text(text, Name.parse("M"))
    assert unit.warnings == ()
    spec = decls(unit)[-1].attribute
    assert spec is not None
    assert spec.label == "label"
    assert spec.statement == "LaTeX statement text."
    assert spec.proof == "LaTeX proof sketch."
    assert spec.title == "Commutativity"
    assert spec.uses == (LabelRef("def:nat"), Name.parse("OtherDecl"))
    assert spec.proof_uses == (LabelRef("lem:aux"),)
    assert spec.excludes == (Name.parse("NoisyDep"),)
    assert spec.latex_env == "proposition"
    assert spec.has_proof is True
    assert spec.discussion == 142
    assert spec.not_ready is True


def test_config_bare_not_ready_flag():
    assert parse_attribute_config('"x" notReady').not_ready is True
    assert parse_attribute_config('notReady (hasProof := false)').not_ready is True
    with pytest.raises(ParseError, match="duplicate blueprint option 'notReady'"):
        parse_attribute_config("notReady (notReady := false)")


def test_config_proof_uses_and_excludes():
    spec = parse_attribute_config('(proofUses := ["l:a"]) (excludes := [helper])')
    assert spec.proof_uses == (LabelRef("l:a"),)
    assert spec.excludes == (Name.parse("helper"),)


NAME_LISTS = {
    "[a b]": (Name.parse("a"), Name.parse("b")),
    '[a, "l:b",]': (Name.parse("a"), LabelRef("l:b")),
    "[a,,b]": None,
    "[,a]": None,
    '[""]': None,
    "[1]": None,
}


@pytest.mark.parametrize("text", list(NAME_LISTS))
def test_name_list_grammar(text):
    # `uses`, `proofUses`, `excludes` and `sorry_using` read one list grammar;
    # a bad list fails the attribute, and degrades `sorry_using` to `sorry`
    expected = NAME_LISTS[text]
    for key, field in (("uses", "uses"), ("proofUses", "proof_uses"), ("excludes", "excludes")):
        if expected is None:
            with pytest.raises(ParseError):
                parse_attribute_config(f"({key} := {text})")
        else:
            assert getattr(parse_attribute_config(f"({key} := {text})"), field) == expected
    unit = parse_module_text(f"theorem t : x := by\n  sorry_using {text}\n", Name.parse("M"))
    (marker,) = decls(unit)[0].sorry_markers
    assert marker.using == (expected or ())
    malformed = [w.message for w in unit.warnings if "malformed sorry_using" in w.message]
    assert len(malformed) == (expected is None)


def test_config_unknown_key_raises():
    with pytest.raises(ParseError, match="unknown blueprint option 'bogus'"):
        parse_attribute_config("(bogus := true)")


def test_config_duplicate_key_raises():
    with pytest.raises(ParseError, match="duplicate blueprint option 'uses'"):
        parse_attribute_config("(uses := [a]) (uses := [b])")


def test_config_type_errors():
    with pytest.raises(ParseError, match="expects an issue number"):
        parse_attribute_config('(discussion := "x")')
    with pytest.raises(ParseError, match="docstring"):
        parse_attribute_config("(statement := 5)")


def test_config_second_label_raises():
    with pytest.raises(ParseError, match="unexpected token"):
        parse_attribute_config('"a" "b"')


# ---------------------------------------------------------------------------
# module structure


def test_golden_declarations():
    unit = parse_module_text(golden_text(), Name.parse("MyNat"))
    assert unit.imports == (Name.parse("Architect"),)
    names = [str(d.name) for d in decls(unit)]
    assert names == [
        "MyNat",
        "MyNat.add",
        "MyNat.zero_add",
        "MyNat.succ_add",
        "MyNat.add_comm",
    ]
    assert unit.warnings == ()


def test_golden_kinds_and_labels():
    unit = parse_module_text(golden_text(), Name.parse("MyNat"))
    by = {str(d.name): d for d in decls(unit)}
    assert by["MyNat"].kind == "inductive"
    assert by["MyNat.add"].kind == "def"
    assert by["MyNat.add"].attribute.label == "def:nat-add"
    # bare @[blueprint] leaves the label to default downstream
    assert by["MyNat.add_comm"].attribute is not None
    assert by["MyNat.add_comm"].attribute.label is None


def test_golden_sorry_markers():
    unit = parse_module_text(golden_text(), Name.parse("MyNat"))
    by = {str(d.name): d for d in decls(unit)}
    assert by["MyNat.zero_add"].sorry_markers == ()
    assert len(by["MyNat.succ_add"].sorry_markers) == 1
    assert by["MyNat.succ_add"].sorry_markers[0].using == ()
    markers = by["MyNat.add_comm"].sorry_markers
    assert len(markers) == 1
    assert markers[0].using == (Name.parse("succ_add"),)


def test_golden_tactic_docstrings():
    unit = parse_module_text(golden_text(), Name.parse("MyNat"))
    by = {str(d.name): d for d in decls(unit)}
    docs = by["MyNat.add_comm"].tactic_docstrings
    assert len(docs) == 2
    assert docs[0].startswith("The base case")
    assert docs[1].startswith("The inductive case")


def test_namespace_prefixes_names():
    unit = parse_module_text(
        "namespace A\nnamespace B\ndef f := 1\nend B\nend A\ndef g := 2\n",
        Name.parse("M"),
    )
    assert [str(d.name) for d in decls(unit)] == ["A.B.f", "g"]
    assert decls(unit)[0].namespace_context == ("A", "B")


def test_namespace_name_must_be_on_its_line():
    unit = parse_module_text("namespace\ntheorem t : True := trivial\n", Name.parse("M"))
    assert [str(d.name) for d in decls(unit)] == ["t"]
    assert [(w.message, w.line) for w in unit.warnings] == [("namespace without name", 1)]


def test_open_applies_to_following_decls():
    unit = parse_module_text(
        "open Foo Bar\ntheorem t : x := by trivial\n", Name.parse("M")
    )
    d = decls(unit)[0]
    assert Name.parse("Foo") in d.opens and Name.parse("Bar") in d.opens


def test_open_in_opens_the_namespace_for_the_next_declaration_only():
    text = (
        "open A\ndef g := 1\nopen Foo in\ntheorem t : True := trivial\n"
        "theorem s : g := trivial\n"
    )
    unit = parse_module_text(text, Name.parse("M"))
    g, t, s = decls(unit)
    assert g.body_idents == ()
    assert t.opens == (Name.parse("A"), Name.parse("Foo"))
    assert s.opens == (Name.parse("A"),)
    assert unit.warnings == ()


@pytest.mark.parametrize("decl", ["theorem t : True := trivial", '@[blueprint "t"] theorem t : True := trivial'])
def test_open_in_keeps_the_declaration_on_its_line(decl):
    unit = parse_module_text(f"open Foo in {decl}\ndef u := 1\n", Name.parse("M"))
    t, u = decls(unit)
    assert (t.name, t.signature_idents, t.body_text) == (Name.parse("t"), ("True",), "trivial")
    assert (t.opens, u.opens) == ((Name.parse("Foo"),), ())
    assert unit.warnings == ()


def test_open_in_after_a_command_ending_in_in_reaches_the_declaration():
    text = "open Foo in\nset_option maxHeartbeats 400000 in\ntheorem t : True := trivial\ndef u := 1\n"
    unit = parse_module_text(text, Name.parse("M"))
    t, u = decls(unit)
    assert (t.opens, u.opens) == ((Name.parse("Foo"),), ())
    assert unit.warnings == ()


@pytest.mark.parametrize("sep", [" ", "\n"], ids=["same-line", "next-line"])
def test_attribute_in_keeps_the_next_declaration(sep):
    text = f'def g := 1\nattribute [local simp] g in{sep}@[blueprint "t"] theorem t : g = 1 := rfl\n'
    unit = parse_module_text(text, Name.parse("M"))
    g, t = decls(unit)
    assert (g.body_text, g.body_idents) == ("1", ())
    assert (t.name, t.attribute.label, t.signature_idents) == (Name.parse("t"), "t", ("g",))
    assert unit.warnings == ()


def test_empty_module():
    unit = parse_module_text("", Name.parse("M"))
    assert unit.items == () and unit.imports == ()


def test_blueprint_comment_becomes_raw_comment():
    unit = parse_module_text(
        "blueprint_comment /-- \\section{Intro} -/\n", Name.parse("M")
    )
    assert len(unit.items) == 1
    item = unit.items[0]
    assert isinstance(item, RawComment)
    assert item.text == "\\section{Intro}"


def test_attribute_command_parses_target():
    unit = parse_module_text(
        'attribute [blueprint "ml:x"] Mathlib.Order.le_trans\n', Name.parse("M")
    )
    item = unit.items[0]
    assert isinstance(item, UpstreamAttribution)
    assert item.target == Name.parse("Mathlib.Order.le_trans")
    assert item.attribute.label == "ml:x"


def test_attribute_command_tags_every_target_on_its_line():
    text = 'def g := 1\ndef h := 2\nattribute [blueprint "x" (title := "T")] g h\ndef k := 3\n'
    unit = parse_module_text(text, Name.parse("M"))
    attributions = [i for i in unit.items if isinstance(i, UpstreamAttribution)]
    assert [a.target for a in attributions] == [Name.parse("g"), Name.parse("h")]
    assert {a.attribute for a in attributions} == {AttributeSpec(label="x", title="T")}
    assert [str(d.name) for d in decls(unit)] == ["g", "h", "k"]
    assert unit.warnings == ()


def test_untagged_attribute_command_with_targets_warns_once():
    unit = parse_module_text("attribute [simp] g h\ndef f := 1\n", Name.parse("M"))
    assert [str(d.name) for d in decls(unit)] == ["f"]
    assert [w.message for w in unit.warnings] == ["attribute command carries no blueprint attribute; ignored"]
    text = 'attribute [local simp] g h in\n@[blueprint "t"] theorem t : g = h := rfl\n'
    unit = parse_module_text(text, Name.parse("M"))
    (t,) = decls(unit)
    assert (t.attribute.label, t.signature_idents) == ("t", ("g", "h"))
    assert unit.warnings == ()


def test_attribute_targets_end_with_their_line():
    # at column 0 and indented alike: `h` on the next line starts a command of its own
    for indent in ("", "  "):
        text = f'namespace N\ndef f := 1\n{indent}attribute [blueprint "x"] g\n{indent}h\nend N\n'
        unit = parse_module_text(text, Name.parse("M"))
        (up,) = [i for i in unit.items if isinstance(i, UpstreamAttribution)]
        assert up.target == Name.parse("g")
        assert [w.message for w in unit.warnings] == ["unrecognized top-level command starting at 'h'"]


def test_attribute_command_rejects_keyword_target():
    with pytest.raises(ParseError, match=r"'attribute \[blueprint \.\.\.\]' needs a target name") as info:
        parse_module_text('def g := 2\nattribute [blueprint "x"]\ndef f := 1\n', Name.parse("M"))
    assert info.value.line == 2
    unit = parse_module_text("attribute [simp]\ndef f := 1\n", Name.parse("M"))
    assert [str(d.name) for d in decls(unit)] == ["f"]
    assert [w.message for w in unit.warnings] == ["'attribute [...]' without target name"]


def test_readme_attribute_command_example_parses():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```lean\nattribute [", 1)[1].split("```", 1)[0]
    unit = parse_module_text("attribute [" + block, Name.parse("M"))
    assert unit.warnings == ()
    (item,) = unit.items
    assert item.target == Name.parse("Mathlib.Order.le_trans")
    assert item.attribute.label == "ml:le-trans"


def test_declaration_docstring_captured():
    unit = parse_module_text(
        "/-- Adds one. -/\n@[blueprint]\ndef bump (n : Nat) : Nat := n + 1\n",
        Name.parse("M"),
    )
    d = decls(unit)[0]
    assert d.docstring == "Adds one."
    assert "n + 1" in d.body_text


def test_signature_body_split_on_toplevel_assign():
    unit = parse_module_text("def f (x : Nat) : Nat := g x\n", Name.parse("M"))
    d = decls(unit)[0]
    assert "Nat" in d.signature_text and ":=" not in d.signature_text
    assert "g x" in d.body_text


def test_inductive_has_no_body_split():
    unit = parse_module_text(
        "inductive T : Type where\n  | mk : T\n", Name.parse("M")
    )
    d = decls(unit)[0]
    assert not d.body_text
    assert "mk" in d.signature_text


def test_source_hash_is_short_and_stable():
    a = parse_module_text("def x := 1\n", Name.parse("M"))
    b = parse_module_text("def x := 1\n", Name.parse("M"))
    c = parse_module_text("def x := 2\n", Name.parse("M"))
    assert a.source_hash == b.source_hash
    assert a.source_hash != c.source_hash
    assert len(a.source_hash) == 16


def test_unterminated_attribute_list_raises():
    with pytest.raises(ParseError, match="unterminated attribute list"):
        parse_module_text("@[blueprint\ndef x := 1\n", Name.parse("M"))


# ---------------------------------------------------------------------------
# degradation: malformed input warns instead of raising


@pytest.mark.parametrize(
    "text, line",
    [
        ("@[blueprint (bogus := true)]\ntheorem t : x := by trivial\n", 1),
        ('def d := 1\n\n@[simp, blueprint "l"\n  (hasProof := maybe)]\ntheorem t : x := by trivial\n', 4),
    ],
    ids=["unknown-option", "bad-value"],
)
def test_bad_config_on_declaration_raises(text, line):
    # a warning would leave the declaration untagged, and its node lost
    with pytest.raises(ParseError) as info:
        parse_module_text(text, Name.parse("M"), path="M.lean")
    assert info.value.path == "M.lean"
    assert info.value.line == line


def test_bad_config_on_attribute_command_raises():
    with pytest.raises(ParseError, match="unknown blueprint option 'bogus'") as info:
        parse_module_text(
            "def d := 1\nattribute [blueprint (bogus := 1)] Mathlib.X.y\n", Name.parse("M")
        )
    assert info.value.line == 2


def test_duplicate_blueprint_keeps_first():
    unit = parse_module_text(
        '@[blueprint "a", blueprint "b"]\ndef d := 1\n', Name.parse("M")
    )
    assert decls(unit)[0].attribute.label == "a"
    assert any("duplicate blueprint" in str(w) for w in unit.warnings)


def test_attr_list_junk_skipped():
    unit = parse_module_text(
        "@[?, blueprint]\ntheorem t : x := by trivial\n", Name.parse("M")
    )
    assert decls(unit)[0].attribute is not None
    assert any("attribute list" in str(w) for w in unit.warnings)


def test_attr_arguments_consumed_silently():
    # arguments of foreign attributes are not junk
    unit = parse_module_text(
        "@[simp 37, blueprint]\ntheorem t : x := by trivial\n", Name.parse("M")
    )
    d = decls(unit)[0]
    assert d.attribute is not None
    assert unit.warnings == ()


def test_malformed_sorry_using_degrades_to_plain_sorry():
    unit = parse_module_text(
        "theorem t : x := by\n  sorry_using (oops)\n", Name.parse("M")
    )
    d = decls(unit)[0]
    assert len(d.sorry_markers) == 1
    assert d.sorry_markers[0].using == ()
    assert any("sorry_using" in str(w) for w in unit.warnings)


def test_end_without_namespace_warns():
    unit = parse_module_text("end Ghost\ndef x := 1\n", Name.parse("M"))
    assert [str(d.name) for d in decls(unit)] == ["x"]
    assert any("end" in str(w) for w in unit.warnings)


def test_unclosed_namespace_warns():
    unit = parse_module_text("namespace A\ndef x := 1\n", Name.parse("M"))
    assert [str(d.name) for d in decls(unit)] == ["A.x"]
    assert len(unit.warnings) == 1


def test_section_end_keeps_enclosing_namespace():
    unit = parse_module_text(
        "namespace A\nsection S\ndef f := 1\nend S\ndef g := 2\nend A\n",
        Name.parse("M"),
    )
    assert [str(d.name) for d in decls(unit)] == ["A.f", "A.g"]
    assert unit.warnings == ()


def test_open_inside_section_ends_at_its_end():
    unit = parse_module_text(
        "namespace A\nsection\nopen P\ndef f := 1\nend\ndef g := 2\nend A\n",
        Name.parse("M"),
    )
    f, g = decls(unit)
    assert f.opens == (Name.parse("P"),) and g.opens == ()
    assert g.namespace_context == ("A",)
    assert unit.warnings == ()


@pytest.mark.parametrize("command", ["variable (x : Nat)", "set_option pp.all true", "#check g"])
def test_bare_end_on_a_commands_line_closes_the_section(command):
    unit = parse_module_text(f"section\n{command} end\ndef f := 1\n", Name.parse("M"))
    assert [str(d.name) for d in decls(unit)] == ["f"]
    assert unit.warnings == ()


@pytest.mark.parametrize(
    "head", ["section\nopen Foo", "section\nopen Foo Bar", "section"], ids=["open", "open-two", "section"]
)
def test_bare_end_after_names_on_a_line_closes_the_section(head):
    # the names a command takes from its line stop at the `end` that closes the section
    unit = parse_module_text(f"{head} end\ndef f := 1\n", Name.parse("M"))
    (f,) = decls(unit)
    assert (str(f.name), f.opens) == ("f", ()) and unit.warnings == ()


def test_section_end_mismatch_and_unclosed_section_warn():
    unit = parse_module_text("section S\ndef f := 1\nend T\nsection\n", Name.parse("M"))
    assert [str(d.name) for d in decls(unit)] == ["f"]
    assert [w.message for w in unit.warnings] == [
        "'end T' does not match section 'S'",
        "section not closed at end of file",
    ]


def test_mutual_block_keeps_the_enclosing_namespace():
    text = (
        "namespace Foo\nmutual\n  def a := b\n  def b := a\nend\n"
        "@[blueprint] theorem t : True := trivial\nend Foo\n"
    )
    unit = parse_module_text(text, Name.parse("M"))
    assert [str(d.name) for d in decls(unit)] == ["Foo.a", "Foo.b", "Foo.t"]
    a, b, t = decls(unit)
    assert (a.body_text, b.body_text) == ("b", "a")
    assert t.namespace_context == ("Foo",)
    assert unit.warnings == ()


def test_mutual_block_ends_the_command_before_it_and_warns_when_unclosed():
    unit = parse_module_text("def f := 1\nmutual\ndef g := 2\n", Name.parse("M"))
    f, g = decls(unit)
    assert f.body_text == "1" and g.body_text == "2"
    assert [w.message for w in unit.warnings] == ["mutual block not closed at end of file"]


@pytest.mark.parametrize("modifier", ["", "private "], ids=["plain", "private"])
def test_tagged_declaration_after_one_on_its_line_is_kept(modifier):
    text = f'def f := 1 @[blueprint "a"] {modifier}theorem t : True := trivial\n'
    unit = parse_module_text(text, Name.parse("M"))
    f, t = decls(unit)
    assert (f.body_text, f.body_idents) == ("1", ())
    assert (t.name, t.attribute.label, t.body_text) == (Name.parse("t"), "a", "trivial")
    assert t.span.start == text.index("@[")
    assert t.attr_close == text.index("]")
    assert unit.warnings == ()


@pytest.mark.parametrize("gap", ["\n", " "], ids=["next-line", "mid-line"])
def test_declaration_cut_inside_a_bracket_warns(gap):
    text = f'def f := (1{gap}@[blueprint "a"] theorem t : True := trivial\ndef g := (2\n'
    unit = parse_module_text(text, Name.parse("M"))
    assert [str(d.name) for d in decls(unit)] == ["f", "t", "g"]
    # the file ending inside a bracket is not reported
    assert [w.message for w in unit.warnings] == ["unbalanced brackets in declaration 'f'"]


def test_mid_line_attribute_list_ends_only_before_a_declaration():
    # `@[` mid-line ends the command only when a declaration follows the list
    text = (
        "def f := g @[simp] x\n"
        "variable (x : Nat) @[blueprint \"b\"] /-- Doc. -/ lemma l : True := trivial\n"
    )
    unit = parse_module_text(text, Name.parse("M"))
    f, l = decls(unit)
    assert f.body_text == "g @[simp] x"
    assert (l.name, l.attribute.label, l.docstring) == (Name.parse("l"), "b", "Doc.")
    assert unit.warnings == ()


@pytest.mark.parametrize("modifier", ["", "private "], ids=["plain", "private"])
def test_mid_line_docstring_before_a_tagged_declaration_is_kept(modifier):
    text = f'def f := 1 /-- Doc. -/ @[blueprint "a"] {modifier}theorem t : True := trivial\n'
    unit = parse_module_text(text, Name.parse("M"))
    f, t = decls(unit)
    assert (f.body_text, f.body_idents) == ("1", ())
    assert (t.name, t.attribute.label, t.docstring) == (Name.parse("t"), "a", "Doc.")
    assert t.span.start == text.index("/--")
    assert unit.warnings == ()


def test_mid_line_docstring_ends_only_before_an_attribute_list_and_declaration():
    text = (
        "def f := by /-- Step. -/ @[simp] x\n"
        "variable (x : Nat) /-- Doc. -/ @[blueprint \"b\"] lemma l : True := trivial\n"
    )
    unit = parse_module_text(text, Name.parse("M"))
    f, l = decls(unit)
    assert (f.body_text, f.tactic_docstrings) == ("by /-- Step. -/ @[simp] x", ("Step.",))
    assert (l.name, l.attribute.label, l.docstring) == (Name.parse("l"), "b", "Doc.")
    assert unit.warnings == ()


@pytest.mark.parametrize(
    ("opening", "message", "names"),
    [
        ("namespace Foo\nmutual\n", "'end Foo' does not match a mutual block", ["Foo.a", "Foo.b"]),
        ("section\n", "'end Foo' does not match an unnamed section", ["a", "b"]),
    ],
    ids=["mutual", "section"],
)
def test_end_mismatch_names_an_unnamed_scope_in_words(opening, message, names):
    # the named `end` closes the innermost scope, whatever its name
    unit = parse_module_text(f"{opening}def a := 1\nend Foo\ndef b := 2\n", Name.parse("M"))
    assert [str(d.name) for d in decls(unit)] == names
    assert unit.warnings[0].message == message
    assert all("''" not in w.message for w in unit.warnings)


def test_section_starts_a_block():
    unit = parse_module_text("def f := 1\nsection S\ndef g := 2\nend S\n", Name.parse("M"))
    assert decls(unit)[0].body_text == "1"


def test_noncomputable_section_keeps_the_enclosing_namespace():
    text = (
        "namespace Foo\nnoncomputable section\n"
        '@[blueprint "a"] theorem t : True := trivial\nend\n'
        '@[blueprint "b"] theorem u : True := trivial\nend Foo\n'
    )
    unit = parse_module_text(text, Name.parse("M"))
    assert [str(d.name) for d in decls(unit)] == ["Foo.t", "Foo.u"]
    assert unit.warnings == ()


def test_noncomputable_section_starts_a_block_and_is_named_by_its_end():
    text = "def f := 1\nnoncomputable section S\ndef g := 2\nend T\n"
    unit = parse_module_text(text, Name.parse("M"))
    f, g = decls(unit)
    assert (f.body_text, g.body_text) == ("1", "2")
    assert [w.message for w in unit.warnings] == ["'end T' does not match section 'S'"]


MODIFIERS = ("private", "protected", "noncomputable", "partial", "unsafe")


@pytest.mark.parametrize("modifier", MODIFIERS)
def test_modifier_keeps_blueprint_tag(modifier):
    unit = parse_module_text(
        f'@[blueprint "l:h"]\n{modifier} def h : Nat := 1\n', Name.parse("M")
    )
    (d,) = decls(unit)
    assert d.name == Name.parse("h") and d.kind == "def"
    assert d.attribute.label == "l:h"
    assert unit.warnings == ()


def test_modifiers_after_docstring_and_attributes():
    unit = parse_module_text(
        "/-- Doc. -/\nprivate noncomputable def f := 1\n"
        "@[blueprint]\n/-- Claim. -/\nprotected theorem t : f := by trivial\n",
        Name.parse("M"),
    )
    f, t = decls(unit)
    assert (f.name, f.docstring) == (Name.parse("f"), "Doc.")
    assert (t.name, t.docstring, t.kind) == (Name.parse("t"), "Claim.", "theorem")
    assert t.attribute is not None
    assert unit.warnings == ()


def test_modifier_at_column_zero_ends_previous_body():
    text = "def f := 1\nprivate def h := 2\n"
    unit = parse_module_text(text, Name.parse("M"))
    f, h = decls(unit)
    assert f.body_text == "1" and h.name == Name.parse("h")
    # an attribute block is inserted in front of the modifiers
    assert h.keyword_line_start == text.index("private")


def test_modifier_without_declaration_warns():
    unit = parse_module_text("private x\ndef y := 1\n", Name.parse("M"))
    assert [str(d.name) for d in decls(unit)] == ["y"]
    assert any("unrecognized" in str(w) for w in unit.warnings)


def test_constant_is_a_declaration():
    unit = parse_module_text("def f := 1\nconstant c : Nat\n", Name.parse("M"))
    f, c = decls(unit)
    assert f.body_text == "1"
    assert (c.name, c.kind) == (Name.parse("c"), "constant")
    assert unit.warnings == ()


def test_variable_ends_the_previous_declaration():
    unit = parse_module_text(
        "def f := 1\nvariable (x : Nat)\ntheorem t : x := rfl\n", Name.parse("M")
    )
    f, t = decls(unit)
    assert (f.body_text, f.body_idents) == ("1", ())
    assert t.name == Name.parse("t")
    assert unit.warnings == ()


DECLARE_NOTHING = (
    "set_option maxHeartbeats 400000 in",
    "universe u v",
    "include hx in",
    'notation "⟪" x "⟫" => inner x',
    'local notation "⟪" x "⟫" => inner x',
    'scoped notation "⟪" x "⟫" => inner x',
    "macro \"tac\" : tactic => `(tactic| simp [inner])",
)


@pytest.mark.parametrize("line", DECLARE_NOTHING)
def test_command_that_declares_nothing_ends_the_previous_declaration(line):
    unit = parse_module_text(
        f"def g := 1\n{line}\ntheorem t : True := trivial\n", Name.parse("M")
    )
    g, t = decls(unit)
    assert (g.body_text, g.body_idents) == ("1", ())
    assert (t.name, t.body_text) == (Name.parse("t"), "trivial")
    assert unit.warnings == ()


@pytest.mark.parametrize("line", DECLARE_NOTHING)
def test_command_that_declares_nothing_is_skipped_silently_at_the_top(line):
    unit = parse_module_text(f"{line}\n@[blueprint \"t\"] theorem t : True := trivial\n", Name.parse("M"))
    (t,) = decls(unit)
    assert (t.name, t.attribute.label, t.signature_idents) == (Name.parse("t"), "t", ("True",))
    assert unit.warnings == ()


@pytest.mark.parametrize("prefix", ["set_option maxHeartbeats 400000 in", "include hx in"])
def test_command_ending_in_in_leaves_the_declaration_on_its_line(prefix):
    text = f'def g := 1\n{prefix} @[blueprint "t"] theorem t : g = 1 := rfl\n'
    unit = parse_module_text(text, Name.parse("M"))
    g, t = decls(unit)
    assert (g.body_text, t.attribute.label, t.signature_idents) == ("1", "t", ("g",))
    assert unit.warnings == ()


def test_local_notation_adds_no_uses_to_the_declaration_before_it():
    text = (
        '@[blueprint "inner"] def inner (x : Nat) := x\n'
        '@[blueprint "g"] def g := 1\n'
        'local notation "⟪" x "⟫" => inner x\n'
    )
    store = store_from({"M": text})
    assert label_view(store, "g").statement_uses == ()


def test_example_ends_the_previous_declaration():
    unit = parse_module_text(
        "def f := 1\nexample : f = 1 := rfl\n@[simp]\nexample : 2 = 2 := rfl\ndef g := 2\n",
        Name.parse("M"),
    )
    f, g = decls(unit)
    assert (f.body_text, f.body_idents) == ("1", ())
    assert g.name == Name.parse("g")
    assert unit.warnings == ()


@pytest.mark.parametrize(
    "before", ["def f := 1", "variable (x : Nat)", "example : 1 = 1 := rfl", "mutual"]
)
def test_indented_declaration_ends_the_command_before_it(before):
    # a declaration keyword, `@[` or a docstring before one, first on its
    # line, starts a declaration at any indentation
    close = "end\n" if before == "mutual" else ""  # a `mutual` block ends at its own `end`
    text = (
        f'namespace Foo\n  {before}\n  @[blueprint "a"]\n  theorem t : True := trivial\n'
        f"{close}end Foo\n"
    )
    unit = parse_module_text(text, Name.parse("M"))
    *rest, t = decls(unit)
    assert (t.name, t.attribute.label, t.body_text) == (Name.parse("Foo.t"), "a", "trivial")
    assert all(d.body_idents == () for d in rest)
    assert unit.warnings == ()


def test_indented_docstring_and_modifiers_start_a_declaration():
    text = "namespace Foo\n  def f := 1\n  /-- Claim. -/\n  private theorem t : True := trivial\nend Foo\n"
    unit = parse_module_text(text, Name.parse("M"))
    f, t = decls(unit)
    assert f.body_text == "1"
    assert (t.name, t.docstring, t.kind) == (Name.parse("Foo.t"), "Claim.", "theorem")
    assert unit.warnings == ()


def test_indented_non_declarations_stay_in_the_command():
    # only a declaration ends a command at an indented line start; other
    # commands, a docstring before a tactic, and a modifier before a
    # structure field belong to the command they stand in
    text = (
        "theorem t : x := by\n  /-- Step. -/\n  open Foo in\n  exact (theorem_like)\n"
        "  attribute [local simp] f in\n  simp\n"
        "structure S where\n  protected x : Nat\ndef g := 1\n"
    )
    unit = parse_module_text(text, Name.parse("M"))
    t, s, g = decls(unit)
    assert t.tactic_docstrings == ("Step.",)
    assert t.body_text.endswith("simp") and g.body_text == "1"
    assert s.signature_text == "where\n  protected x : Nat"
    assert unit.warnings == ()


@pytest.mark.parametrize("indent", ["", "  "])
def test_indented_tagging_attribute_command_ends_the_declaration(indent):
    # an upstream attribution swallowed into the body would lose its tag without a warning
    text = (
        f"namespace N\n{indent}def f : Nat := 1\n\n"
        f'{indent}attribute [blueprint "up:0"] Mathlib.foo\nend N\n'
    )
    unit = parse_module_text(text, Name.parse("M"))
    (f,) = decls(unit)
    assert (f.name, f.body_idents) == (Name.parse("N.f"), ())
    (up,) = [i for i in unit.items if isinstance(i, UpstreamAttribution)]
    assert (up.target, up.attribute.label) == (Name.parse("Mathlib.foo"), "up:0")
    assert unit.warnings == ()


@pytest.mark.parametrize("indent", ["", "  "])
def test_indented_untagged_attribute_command_ends_the_declaration(indent):
    # as at column 0: `g` is no reference of `f`, and the command warns that it is ignored
    text = f"namespace N\n{indent}def f : Nat := 1\n\n{indent}attribute [simp] g\nend N\n"
    unit = parse_module_text(text, Name.parse("M"))
    (f,) = decls(unit)
    assert (f.name, f.body_idents) == (Name.parse("N.f"), ())
    assert [w.message for w in unit.warnings] == ["attribute command carries no blueprint attribute; ignored"]


def test_indented_attribute_in_before_a_declaration_prefixes_it():
    text = "namespace N\n  def f : Nat := 1\n\n  attribute [local simp] g in\n  theorem t : g = 1 := rfl\nend N\n"
    unit = parse_module_text(text, Name.parse("M"))
    f, t = decls(unit)
    assert (f.body_idents, t.name, t.signature_idents) == ((), Name.parse("N.t"), ("g",))
    assert unit.warnings == ()


def test_root_prefixed_declaration_leaves_the_namespace():
    text = (
        "namespace A\n@[blueprint \"t\"]\ntheorem _root_.t : True := trivial\n"
        "protected def _root_.B.g := 1\ndef f := t\nend A\n"
        "@[blueprint \"u\"]\ntheorem u : t := trivial\n"
    )
    t, g, f, _ = decls(parse_module_text(text, Name.parse("M")))
    assert (t.name, g.name, f.name) == (Name.parse("t"), Name.parse("B.g"), Name.parse("A.f"))
    assert label_view(store_from({"M": text}), "u").statement_uses == ("t",)


def test_tagged_example_raises():
    with pytest.raises(ParseError, match="'example' tagged with blueprint needs a name") as info:
        parse_module_text('def f := 1\n@[blueprint "x"]\nexample : 1 = 1 := rfl\n', Name.parse("M"))
    assert info.value.line == 3


def test_tagged_anonymous_instance_raises():
    with pytest.raises(ParseError, match="'instance' tagged with blueprint needs a name") as info:
        parse_module_text('def f := 1\n@[blueprint "i"]\ninstance : Foo Nat := 1\n', Name.parse("M"))
    assert info.value.line == 3


@pytest.mark.parametrize(
    "decl", ["class MyGroup (G : Type) where\n  one : G", "opaque secret : Nat", "alias h := f"]
)
def test_tagged_attribute_block_without_declaration_raises(decl):
    # `class` and `opaque` are outside the dialect, and `alias` declares nothing in it: the tag would be lost
    text = f'def f := 1\n@[blueprint "c:group"]\n{decl}\n'
    with pytest.raises(ParseError, match="blueprint attribute is not attached to a declaration") as info:
        parse_module_text(text, Name.parse("M"))
    assert info.value.line == 2


def test_untagged_attribute_block_without_declaration_warns():
    unit = parse_module_text("@[simp]\nopaque secret : Nat\ndef g := 2\n", Name.parse("M"))
    assert [str(d.name) for d in decls(unit)] == ["g"]
    messages = [w.message for w in unit.warnings]
    assert "attribute block is not attached to a declaration; ignored" in messages


def test_untagged_anonymous_instance_warns():
    unit = parse_module_text("@[simp]\ninstance : Foo Nat := 1\ndef g := 2\n", Name.parse("M"))
    assert [str(d.name) for d in decls(unit)] == ["g"]
    assert "'instance' without a name; skipped" in [w.message for w in unit.warnings]


@pytest.mark.parametrize(
    "head", ["instance : Inhabited Nat := ⟨0⟩", "instance (priority := 100) : Inhabited Nat :=\n  ⟨0⟩"]
)
def test_unnamed_declaration_is_skipped_whole_with_one_warning(head):
    unit = parse_module_text(f"{head}\ndef g := 2\n", Name.parse("M"))
    assert [[str(d.name), list(d.body_idents)] for d in decls(unit)] == [["g", []]]
    assert [(w.line, w.message) for w in unit.warnings] == [(1, "'instance' without a name; skipped")]


@pytest.mark.parametrize("tagged", [False, True], ids=["untagged", "tagged"])
def test_instance_name_after_a_priority_is_read(tagged):
    attr = '@[blueprint "i:foo"]\n' if tagged else ""
    text = f"def g := 1\n{attr}instance (priority := 100) foo : Inhabited Nat := ⟨g⟩\n"
    unit = parse_module_text(text, Name.parse("M"))
    g, foo = decls(unit)
    assert (str(foo.name), foo.kind, foo.signature_text, foo.body_idents) == ("foo", "instance", ": Inhabited Nat", ("g",))
    assert (foo.attribute is not None) == tagged and unit.warnings == ()


@pytest.mark.parametrize("doc", ["", "/-- Old name. -/\n"])
def test_untagged_attribute_block_before_a_command_that_declares_nothing_is_skipped_with_it(doc):
    unit = parse_module_text(f"def g := 1\n{doc}@[deprecated] alias h := g\ndef k := 2\n", Name.parse("M"))
    assert [[str(d.name), list(d.body_idents)] for d in decls(unit)] == [["g", []], ["k", []]]
    assert unit.warnings == ()


@pytest.mark.parametrize("tagged", [False, True], ids=["untagged", "tagged"])
def test_quoted_declaration_name_unsupported(tagged):
    # `«...»` is not tokenized as one name: the declaration has no name
    text = ("@[blueprint]\n" if tagged else "") + "def «a b» := 1\ndef g := 2\n"
    if tagged:
        with pytest.raises(ParseError, match="'def' tagged with blueprint needs a name"):
            parse_module_text(text, Name.parse("M"))
        return
    unit = parse_module_text(text, Name.parse("M"))
    assert [str(d.name) for d in decls(unit)] == ["g"]
    assert "'def' without a name; skipped" in [w.message for w in unit.warnings]


def test_warning_str_carries_location():
    unit = parse_module_text(
        "end Ghost\ndef d := 1\n",
        Name.parse("M"),
        path="Some/File.lean",
    )
    assert str(unit.warnings[0]).startswith("Some/File.lean:")


# ---------------------------------------------------------------------------
# generated and random modules


def test_generated_sorry_marker_counts():
    for seed in range(25):
        gp = _gen.gen_project(seed, max_decls=15)
        for mod in gp.module_names:
            unit = parse_module_text(
                _gen.render_module_source(gp, mod, tagged=True), Name.parse(mod)
            )
            by = {str(d.name): d for d in decls(unit)}
            for gd in gp.module_decls(mod):
                want = 0 if gd.sorry == "none" else 1
                assert len(by[gd.name].sorry_markers) == want


NOISE_COMMENTS = ("-- note", "/- note -/", "/- outer /- inner -/\n  still outer -/")


def _add_noise(text: str, rng: random.Random) -> str:
    """Insert modifiers, sections, comments and `variable` lines at column 0."""

    out: list[str] = []
    sections: list[str] = []
    for block in text.rstrip("\n").split("\n\n"):
        if block.startswith("import"):
            out.append(block)
            continue
        if rng.random() < 0.3:
            sections.append(rng.choice(("", f" S{len(sections)}")))
            out.append("section" + sections[-1])
        if rng.random() < 0.2:
            out.append("variable (y : Slot)")
        lines: list[str] = []
        for line in block.split("\n"):
            if rng.random() < 0.2:
                lines.append(rng.choice(NOISE_COMMENTS))
            if line.split(" ", 1)[0] in _gen.KINDS and rng.random() < 0.5:
                line = " ".join(rng.sample(MODIFIERS, rng.randint(1, 2))) + " " + line
            lines.append(line)
        out.append("\n".join(lines))
        if sections and rng.random() < 0.3:
            out.append("end" + sections.pop())
    out.extend("end" + name for name in reversed(sections))
    return "\n\n".join(out) + "\n"


def _declared(unit: ModuleUnit) -> tuple[set[Name], dict]:
    """The tagged names of a unit, and what each declaration references."""

    tagged = {d.name for d in decls(unit) if d.attribute is not None}
    tagged |= {i.target for i in unit.items if isinstance(i, UpstreamAttribution)}
    refs = {
        d.name: (d.kind, d.attribute, d.signature_idents, d.body_idents,
                 tuple(m.using for m in d.sorry_markers))
        for d in decls(unit)
    }
    return tagged, refs


def test_noise_never_changes_tagged_names():
    rng = random.Random(3)
    for seed in range(30):
        gp = _gen.gen_project(seed, max_decls=12)
        for mod in gp.module_names:
            text = _gen.render_module_source(gp, mod, tagged=True)
            base = parse_module_text(text, Name.parse(mod))
            noisy_text = _add_noise(text, rng)
            noisy = parse_module_text(noisy_text, Name.parse(mod))
            assert base.warnings == noisy.warnings == (), noisy_text
            assert _declared(noisy) == _declared(base), noisy_text


SAFE_LINES = [
    "import Other",
    "def f := g x",
    "theorem t : P x := by",
    "  apply f",
    "  sorry",
    "  sorry_using [f]",
    "@[blueprint]",
    '@[blueprint "l:x" (notReady := true)]',
    "@[simp]",
    "namespace A",
    "end A",
    "end",
    "open Foo",
    "attribute [blueprint] Target.name",
    "lemma l : Q := by trivial",
    "abbrev a := b",
    "inductive I : Type where",
    "  | mk : I",
    "structure S where",
    "  field : Nat",
    "instance : C T where",
    "???",
    ")( ] [",
    ":= :=",
    "blueprint_comment /-- text -/",
    "/-- stray docstring -/",
    "sorry_using",
    "sorry_using [",
    "attribute [blueprint]",
    "theorem : x := by trivial",
    "import",
    "\t  weird\tindent",
    "x₁ α β",
]


def _attr_lists_closed(text: str) -> bool:
    pos = 0
    while True:
        i = text.find("@[", pos)
        if i < 0:
            return True
        if "]" not in text[i:]:
            return False
        pos = i + 2
    return True


NAMELESS_LINES = ("instance : C T where", "theorem : x := by trivial")


def parse_soup(text: str) -> ModuleUnit | None:
    """Parse soup; None when a blueprint tag has nothing to attach to, which must raise.

    That is a tagged nameless declaration, a tagged attribute block that no
    declaration follows, or `attribute [blueprint]` whose next token is not
    a plain name.
    """

    try:
        return parse_module_text(text, Name.parse("Soup"))
    except ParseError as exc:
        lines = text.split("\n")
        if exc.message == "'attribute [blueprint ...]' needs a target name":
            assert lines[exc.line - 1] == "attribute [blueprint]", exc
            return None
        if exc.message == "blueprint attribute is not attached to a declaration":
            assert lines[exc.line - 1].startswith("@[blueprint"), exc
            return None
        assert exc.message.endswith("tagged with blueprint needs a name"), exc
        assert lines[exc.line - 1] in NAMELESS_LINES, exc
        tag_lines = lines[max(0, exc.line - 3) : exc.line - 1]
        assert any(ln.startswith("@[blueprint") for ln in tag_lines), exc
        return None


def test_parser_never_raises_on_tokenizable_soup():
    """Malformed but tokenizable files degrade instead of raising.

    The exceptions are a blueprint tag with nothing to attach to (a
    declaration without a name, an attribute block with no declaration
    after it, an attribute command without a target): they raise rather
    than drop the tag.
    """

    rng = random.Random(20260814)
    for trial in range(300):
        n = rng.randint(0, 14)
        text = "\n".join(rng.choice(SAFE_LINES) for _ in range(n)) + "\n"
        if not _attr_lists_closed(text):
            continue
        unit = parse_soup(text)
        assert unit is None or isinstance(unit, ModuleUnit), f"trial {trial}"


def test_parser_determinism_on_soup():
    rng = random.Random(7)
    for _ in range(50):
        text = "\n".join(rng.choice(SAFE_LINES) for _ in range(8)) + "\n"
        if not _attr_lists_closed(text):
            continue
        assert parse_soup(text) == parse_soup(text)
