"""Parsing, well-formedness, normalization and printing."""
from __future__ import annotations

import pytest
from hypothesis import given, seed, settings, strategies as st

from conftest import corpus_text, get_sig
from test_parser_reference import reference_reachability
from vgadt.syntax import (
    App,
    Constraint,
    ConstraintRel,
    DataConstructorDecl,
    DatatypeDecl,
    FORM_ADT,
    FORM_CODOMAIN,
    FORM_CONSTRAINED,
    MAX_TYPE_DEPTH,
    SignatureError,
    arrow,
    free_vars,
    normalize_constructor,
    parse_signature,
    parse_type,
    product,
    render_signature,
    render_type,
    tapp,
    tvar,
    type_depth,
    wf_check,
    _reachability,
)
from vgadt.checker import compute_closure_flags
from vgadt.variance import COV

CORPUS_FILES = [
    "expr", "eq_cov", "eq_inv", "fun_cov", "expr_sup", "pair_ref", "list",
    "private_fd", "object_emulation", "arrow_bound", "sink_sub",
    "ml_open_demo", "world", "world_min",
]


class TestTypeParsing:
    def test_precedence(self):
        t = parse_type("'a * 'b -> 'c")
        assert t == arrow(product(tvar("a"), tvar("b")), tvar("c"))

    def test_arrow_right_associative(self):
        t = parse_type("'a -> 'b -> 'c")
        assert t == arrow(tvar("a"), arrow(tvar("b"), tvar("c")))

    def test_product_left_associative(self):
        t = parse_type("'a * 'b * 'c")
        assert t == product(product(tvar("a"), tvar("b")), tvar("c"))

    def test_postfix_application(self):
        assert parse_type("int list") == tapp("list", tapp("int"))
        assert parse_type("'a list list") == tapp("list", tapp("list", tvar("a")))
        assert parse_type("('a, 'b) pair") == tapp("pair", tvar("a"), tvar("b"))
        assert parse_type("('a * 'b) list") == tapp(
            "list", product(tvar("a"), tvar("b")))

    def test_parens_group(self):
        assert parse_type("('a -> 'b) -> 'c") == arrow(
            arrow(tvar("a"), tvar("b")), tvar("c"))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SignatureError):
            parse_type("'a ->")


class TestSignatureParsing:
    def test_adt_declaration(self):
        sig = parse_signature(
            "type (+'a) list = Nil of unit | Cons of 'a * 'a list\n")
        info = sig.info("list")
        assert info.arity == 1
        assert info.variances == (COV,)
        assert [k.form for k in info.decl.ctors] == [FORM_ADT, FORM_ADT]

    def test_constrained_gadt_declaration(self):
        sig = parse_signature(
            "type (+'a) expr = Prod : 'b 'c ['a = 'b * 'c]. "
            "'b expr * 'c expr\n")
        k = sig.info("expr").decl.ctors[0]
        assert k.form == FORM_CONSTRAINED
        assert k.exist_vars == ("b", "c")
        assert k.constraints[0].param == 0
        assert k.constraints[0].rel is ConstraintRel.EQ
        assert k.constraints[0].bound == product(tvar("b"), tvar("c"))

    def test_checking_not_parsing_rejects_bad_variance(self):
        # Accepting this declaration is the checker's business to refuse.
        sig = parse_signature("type (+'a, +'b) t = Fun of 'a -> 'b\n")
        assert sig.info("t").variances == (COV, COV)

    def test_codomain_form(self):
        sig = parse_signature(
            "type (+'a) expr = Prod : forall 'b 'c. "
            "'b expr * 'c expr -> ('b * 'c) expr\n")
        k = sig.info("expr").decl.ctors[0]
        assert k.form == FORM_CODOMAIN
        assert k.codomain_args == (product(tvar("b"), tvar("c")),)

    def test_subtyping_constraints(self):
        sig = parse_signature(
            "type (-'a) sink = S : 'b ['a <= 'b]. 'b -> unit\n")
        k = sig.info("sink").decl.ctors[0]
        assert k.constraints[0].rel is ConstraintRel.SUB

    def test_comments_and_edges(self):
        sig = parse_signature(
            "# a comment\nbase int\nbase bool\nsubbase bool <= int\n"
            "private fd = int\nclosed + fd\n")
        assert sig.base_leq("bool", "int")
        assert not sig.base_leq("int", "bool")
        assert ("fd", "int") in sig.private_edges
        assert sig.has_ctor("fd")

    def test_reach_without_edges(self):
        # ml_open_demo.vt declares no subbase and no private type, so no
        # name has an entry and each reaches only itself.
        sig = parse_signature(corpus_text("ml_open_demo"))
        assert sig.head_reach() == {}
        for n in sig.ctors:
            assert sig.head_reach().get(n, {n}) == {n}
            assert all(sig.base_leq(n, m) == (n == m) for m in sig.ctors)

    def test_syntax_error_has_position(self):
        with pytest.raises(SignatureError) as exc:
            parse_signature("type (+'a list = Nil of unit\n")
        diag = exc.value.diagnostics[0]
        assert diag.line == 1 and diag.col > 0

    def test_duplicate_declaration(self):
        with pytest.raises(SignatureError) as exc:
            parse_signature("base int\nbase int\n")
        assert "duplicate" in str(exc.value)

    def test_binder_shadowing_parameter_rejected(self):
        with pytest.raises(SignatureError) as exc:
            parse_signature("type (+'a) t = K : 'a ['a = 'a]. unit\n")
        assert "shadows" in str(exc.value)


class TestWfCheck:
    def test_arity_mismatch(self):
        with pytest.raises(SignatureError) as exc:
            parse_signature(
                "type (+'a, +'b) pair = Mk of 'a * 'b\n"
                "type (+'a) t = K of ('a, 'a, 'a) pair\n")
        assert "expects 2" in str(exc.value)

    def test_private_edge_arity_mismatch(self):
        with pytest.raises(SignatureError) as exc:
            parse_signature(
                "base int\ntype (+'a) box = B of 'a\nprivate pbox = box\n"
                "private pint = int\nprivate pbox2 = pint\n"
                "private weird = box\nprivate box = int\n")
        assert "different arities" in str(exc.value)

    def test_unknown_constructor(self):
        with pytest.raises(SignatureError) as exc:
            parse_signature("type (+'a) t = K of 'a wibble\n")
        assert "unknown type constructor" in str(exc.value)

    def test_unbound_variable(self):
        with pytest.raises(SignatureError) as exc:
            parse_signature("type (+'a) t = K of 'z\n")
        assert "unbound" in str(exc.value)

    def test_unbound_variable_position(self):
        with pytest.raises(SignatureError) as exc:
            parse_signature("type (+'a) t = | K of 'c\n")
        assert str(exc.value.diagnostics[0]) == \
            "1:18: t.K: unbound type variable 'c"
        with pytest.raises(SignatureError) as exc:
            parse_signature("base int\ntype (+'a) t =\n  | K of int\n"
                            "  | L : ['a = 'c]. int\n")
        diag = exc.value.diagnostics[0]
        assert (diag.line, diag.col) == (4, 5)

    def test_edge_diagnostic_position(self):
        with pytest.raises(SignatureError) as exc:
            parse_signature("base int\n\n  subbase int <= nope\n")
        diag = exc.value.diagnostics[0]
        assert (diag.line, diag.col) == (3, 3)

    def test_private_cycle(self):
        with pytest.raises(SignatureError) as exc:
            parse_signature("base a\nbase b\nprivate a = b\nprivate b = a\n")
        assert "cycle" in str(exc.value)
        # Each type on a cycle once, in the order of its first private
        # edge and at that edge, even when that edge closes no cycle.
        with pytest.raises(SignatureError) as exc:
            parse_signature("base a\nbase b\nbase c\nprivate x = a\n"
                            "private a = c\nprivate a = b\nprivate c = c\n"
                            "private b = a\nprivate x = b\n")
        assert [(d.line, d.col, d.message) for d in exc.value.diagnostics] == [
            (5, 1, "private: cycle through 'a'"),
            (7, 1, "private: cycle through 'c'"),
            (8, 1, "private: cycle through 'b'")]

    def test_subbase_requires_bases(self):
        with pytest.raises(SignatureError) as exc:
            parse_signature("base int\ntype (+'a) t = K of 'a\n"
                            "subbase t <= int\n")
        assert "arity-0" in str(exc.value)

    def test_repeated_declaration_reported_at_each_copy(self):
        with pytest.raises(SignatureError) as exc:
            parse_signature("base int\nsubbase foo <= int\n"
                            "subbase foo <= int\n")
        assert [str(d) for d in exc.value.diagnostics] == [
            "2:1: subbase: unknown type 'foo'",
            "3:1: subbase: unknown type 'foo'"]
        sig = parse_signature("base int\nbase bool\nsubbase bool <= int\n"
                              "closed + bool\nclosed + bool\n")
        with pytest.raises(SignatureError) as exc:
            compute_closure_flags(sig, "atomic")
        assert [(d.line, d.col) for d in exc.value.diagnostics] == [
            (4, 1), (5, 1)]
        assert exc.value.diagnostics[0].message.startswith(
            "closed + bool: contradicted")

    def test_wf_check_clean_corpus(self):
        for name in CORPUS_FILES:
            assert wf_check(get_sig(name)) == []


class TestNestingLimit:
    def test_depth_limit(self):
        assert type_depth(parse_type("'a" + " list" * 99)) == MAX_TYPE_DEPTH
        with pytest.raises(SignatureError) as exc:
            parse_type("'a" + " list" * 100)
        assert "nested more than" in str(exc.value)

    def test_deep_arrows_and_parentheses(self):
        for text in ["int -> " * 1200 + "int",
                     "(" * 1200 + "int" + ")" * 1200,
                     "int" + " * int" * 1200]:
            with pytest.raises(SignatureError) as exc:
                parse_type(text)
            diag = exc.value.diagnostics[0]
            assert diag.line == 1 and diag.col > 0


class TestFreeVars:
    def test_examples(self):
        assert free_vars(parse_type("'b * 'c")) == {"b", "c"}
        assert free_vars(App("int", ())) == frozenset()
        assert free_vars(parse_type("'b -> 'b")) == {"b"}


class TestTypeValues:
    """DecompEngine's memo and GroundUniverse's interning key on type trees,
    so trees must be immutable and compared by value."""

    def test_immutable(self):
        for t in (tvar("a"), tapp("int")):
            with pytest.raises(AttributeError):
                t.name = "b"
        with pytest.raises(AttributeError):
            tapp("int").args = ()

    def test_equal_trees_are_one_key(self):
        a, b = parse_type("('a * int) list -> 'b"), parse_type(
            "('a * int) list -> 'b")
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a: 1, b: 2}) == 1

    def test_var_and_app_are_distinct_keys(self):
        assert tvar("int") != tapp("int")
        assert len({tvar("int"), tapp("int")}) == 2


class TestNormalization:
    def _decl(self, text):
        sig = parse_signature(text)
        decl = sig.datatypes()[0]
        return decl, decl.ctors[0]

    def test_codomain_becomes_constraints(self):
        decl, k = self._decl(
            "type (+'a) expr = Prod : forall 'b 'c. "
            "'b expr * 'c expr -> ('b * 'c) expr\n")
        norm = normalize_constructor(decl, k)
        assert norm.form == FORM_CONSTRAINED
        assert norm.exist_vars == ("b", "c")
        assert norm.constraints == (
            type(norm.constraints[0])(0, ConstraintRel.EQ,
                                      product(tvar("b"), tvar("c"))),)
        assert norm.arg == product(tapp("expr", tvar("b")),
                                   tapp("expr", tvar("c")))

    def test_adt_parameter_becomes_fresh_existential(self):
        decl, k = self._decl("type (+'a) expr = Val of 'a\n")
        norm = normalize_constructor(decl, k)
        assert norm.exist_vars == ("a1",)
        assert norm.constraints[0].param == 0
        assert norm.constraints[0].rel is ConstraintRel.EQ
        assert norm.constraints[0].bound == tvar("a1")
        assert norm.arg == tvar("a1")

    def test_unconstrained_parameter_gets_constraint(self):
        decl, k = self._decl(
            "type (+'a, ='b) eq = Refl : 'g ['a = 'g]. unit\n")
        norm = normalize_constructor(decl, k)
        assert norm.exist_vars == ("g", "b1")
        assert [c.param for c in norm.constraints] == [0, 1]
        assert norm.constraints[1].bound == tvar("b1")

    def test_idempotent(self):
        for name in CORPUS_FILES:
            sig = get_sig(name)
            for decl in sig.datatypes():
                for k in decl.ctors:
                    once = normalize_constructor(decl, k)
                    assert normalize_constructor(decl, once) == once

    def test_every_parameter_constrained_exactly_once(self):
        for name in CORPUS_FILES:
            sig = get_sig(name)
            for decl in sig.datatypes():
                for k in decl.ctors:
                    norm = normalize_constructor(decl, k)
                    assert [c.param for c in norm.constraints] == list(
                        range(len(decl.params)))
                    scope = set(norm.exist_vars)
                    assert free_vars(norm.arg) <= scope
                    for c in norm.constraints:
                        assert free_vars(c.bound) <= scope

    def test_free_vars_preserved_up_to_renaming(self):
        decl, k = self._decl("type (+'a) t = K of 'a * ('a -> unit)\n")
        norm = normalize_constructor(decl, k)
        # Same tree shape with the parameter renamed to the fresh name.
        assert norm.arg == product(tvar("a1"),
                                   arrow(tvar("a1"), tapp("unit")))

    def test_constrained_parameter_occurring_in_arg_rejected(self):
        """`parse_signature` reports it with a position (the diagnostics
        golden `constrained_occurs`); a constructor built in code, which
        skips `wf_check`, still raises."""
        k = DataConstructorDecl(
            "K", FORM_CONSTRAINED, ("b",),
            (Constraint(0, ConstraintRel.EQ, tapp("box", tvar("b"))),),
            product(tvar("a"), tvar("b")))
        decl = DatatypeDecl("t", (("a", COV),), (k,))
        with pytest.raises(ValueError) as exc:
            normalize_constructor(decl, k)
        assert "may not also occur" in str(exc.value)


class TestRoundTrip:
    @pytest.mark.parametrize("name", CORPUS_FILES)
    def test_print_parse_print_fixpoint(self, name):
        sig1 = parse_signature(corpus_text(name))
        text1 = render_signature(sig1)
        sig2 = parse_signature(text1)
        assert render_signature(sig2) == text1

    def test_type_render_parse(self):
        for text in ["'a -> 'b -> 'c", "('a -> 'b) -> 'c", "'a * ('b * 'c)",
                     "('a * 'b) * 'c", "('a -> 'b) list", "('a, 'b) pair",
                     "int list list"]:
            t = parse_type(text)
            assert parse_type(render_type(t)) == t


# Random type expressions over the world signature's constructors.
_base = st.sampled_from([tapp("int"), tapp("bool"), tapp("unit"),
                         tvar("a"), tvar("b")])
types = st.recursive(
    _base,
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda p: product(*p)),
        st.tuples(sub, sub).map(lambda p: arrow(*p)),
        sub.map(lambda t: tapp("list", t)),
        sub.map(lambda t: tapp("ref", t)),
    ),
    max_leaves=8,
)


class TestRoundTripProperties:
    @seed(20261018)
    @settings(database=None)
    @given(types)
    def test_render_parse_identity(self, t):
        assert parse_type(render_type(t)) == t

    @seed(20261018)
    @settings(database=None)
    @given(types)
    def test_free_vars_subset(self, t):
        assert free_vars(t) <= {"a", "b"}


NODES = ("a", "b", "c", "d", "e", "f")
#: Edge lists over NODES: repeated edges, self-loops and cycles occur,
#: and nodes that no edge touches stay in NODES.
edge_lists = st.lists(st.tuples(st.sampled_from(NODES),
                                st.sampled_from(NODES)), max_size=10)


@seed(20261020)
@settings(max_examples=500, deadline=None, database=None)
@given(edge_lists)
def test_reachability_equals_reference(edges):
    """`_reachability` has an entry per edge source only; read through
    `.get(n, {n})` it is the reference's reflexive-transitive closure."""
    got = _reachability(edges)
    assert set(got) == {a for a, _ in edges}
    assert ({n: got.get(n, {n}) for n in NODES}
            == reference_reachability(edges, NODES))
