"""The parser and the well-formedness check against a reference: the
recursive-descent parser and `wf_check` that `syntax.parse_signature`
ran before its front end was tuned, kept here as the specification, as
tests/test_lexer_reference.py keeps the lexer's.

Both run on the tokens of the one scanner, `syntax._tokenize`.  On any
text, `parse_signature` must either give the reference's declarations
(their positions included) and constructor table, or raise a
`SignatureError` with the reference's diagnostics, in the same order.
The texts are corpus files and check-wide inputs with tokens dropped,
duplicated and swapped, so they reach every parser and well-formedness
diagnostic as well as many well-formed signatures.
"""
from __future__ import annotations

import pathlib
from typing import NamedTuple, Optional

from hypothesis import given, seed, settings, strategies as st

from vgadt.syntax import (
    ARROW,
    FORM_ADT,
    FORM_CODOMAIN,
    FORM_CONSTRAINED,
    MAX_TYPE_DEPTH,
    PRODUCT,
    UNIT,
    App,
    Constraint,
    ConstraintRel,
    CtorInfo,
    DataConstructorDecl,
    DatatypeDecl,
    Decl,
    Diagnostic,
    Signature,
    SignatureError,
    TypeExpr,
    Var,
    _tokenize,
    arrow,
    free_vars,
    parse_signature,
    product,
    type_depth,
)
from vgadt.variance import Variance, variance_of

ROOT = pathlib.Path(__file__).resolve().parent.parent


def reference_builtin_signature() -> Signature:
    sig = Signature()
    sig.ctors[ARROW] = CtorInfo(ARROW, 2, (Variance.CONTRA, Variance.COV), "builtin")
    sig.ctors[PRODUCT] = CtorInfo(PRODUCT, 2, (Variance.COV, Variance.COV), "builtin")
    sig.ctors[UNIT] = CtorInfo(UNIT, 0, (), "base")
    return sig


def reference_reachability(edges, nodes) -> dict[str, set[str]]:
    succ: dict[str, set[str]] = {n: {n} for n in nodes}
    for a, b in edges:
        succ.setdefault(a, {a}).add(b)
    changed = True
    while changed:
        changed = False
        for n, outs in succ.items():
            extra = set().union(*(succ.get(m, {m}) for m in outs)) - outs
            if extra:
                outs |= extra
                changed = True
    return succ


class Token(NamedTuple):
    """A token of `_tokenize`, a plain tuple, read by field name."""
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens, diags = _tokenize(text)
    return [Token(*tok) for tok in tokens], diags


class _ParseAbort(Exception):
    pass


class ReferenceParser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.diags: list[Diagnostic] = []
        self.nesting = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def error(self, message: str, tok: Optional[Token] = None) -> _ParseAbort:
        tok = tok or self.peek()
        self.diags.append(Diagnostic(tok.line, tok.col, message))
        return _ParseAbort()

    def expect(self, kind: str, what: str) -> Token:
        if not self.at(kind):
            raise self.error(f"expected {what}, found {self.peek().text!r}")
        return self.next()

    def parse_file(self) -> Signature:
        sig = reference_builtin_signature()
        decls: list[Decl] = []
        while not self.at("eof"):
            tok = self.peek()
            try:
                kind, payload = self.parse_decl(sig)
            except _ParseAbort:
                self.skip_to_next_decl()
                continue
            decls.append(Decl(kind, payload, (tok.line, tok.col)))
        sig.decls = tuple(decls)
        return sig

    def skip_to_next_decl(self) -> None:
        while not self.at("eof") and not (
            self.peek().kind == "kw"
            and self.peek().text in ("type", "base", "subbase", "private", "closed")
        ):
            self.next()

    def parse_decl(self, sig: Signature) -> tuple[str, object]:
        tok = self.peek()
        if tok.kind != "kw":
            raise self.error(f"expected declaration, found {tok.text!r}")
        if tok.text == "base":
            self.next()
            name = self.expect("ident", "base type name")
            self.declare(sig, name, CtorInfo(name.text, 0, (), "base"))
            return "base", name.text
        if tok.text == "subbase":
            self.next()
            lo = self.expect("ident", "base type name")
            self.expect("<=", "'<='")
            hi = self.expect("ident", "base type name")
            return "subbase", (lo.text, hi.text)
        if tok.text == "private":
            self.next()
            lo = self.expect("ident", "type name")
            self.expect("=", "'='")
            hi = self.expect("ident", "type name")
            if not sig.has_ctor(lo.text):
                if sig.has_ctor(hi.text):
                    above = sig.info(hi.text)
                    sig.ctors[lo.text] = CtorInfo(
                        lo.text, above.arity, above.variances, "base"
                    )
                else:
                    sig.ctors[lo.text] = CtorInfo(lo.text, 0, (), "base")
            return "private", (lo.text, hi.text)
        if tok.text == "closed":
            self.next()
            flag = self.peek()
            if flag.kind not in ("+", "-", "="):
                raise self.error("expected one of '+', '-', '=' after 'closed'")
            self.next()
            name = self.expect("ident", "type name")
            return "closed", (variance_of(flag.text), name.text)
        if tok.text == "type":
            decl = self.parse_type_decl(sig)
            self.declare(
                sig, tok,
                CtorInfo(decl.name, len(decl.params),
                         decl.param_variances(), "datatype", decl))
            return "type", decl
        raise self.error(f"unexpected keyword {tok.text!r}")

    def declare(self, sig: Signature, tok: Token, info: CtorInfo) -> None:
        if sig.has_ctor(info.name):
            self.diags.append(Diagnostic(
                tok.line, tok.col, f"duplicate declaration of {info.name!r}"))
            return
        sig.ctors[info.name] = info

    def parse_type_decl(self, sig: Signature) -> DatatypeDecl:
        self.expect("kw", "'type'")
        self.expect("(", "'('")
        params: list[tuple[str, Variance]] = []
        while True:
            vtok = self.peek()
            if vtok.kind not in ("+", "-", "=", "~"):
                raise self.error("expected a variance sign ('+', '-', '=', '~')")
            self.next()
            var = self.expect("tyvar", "type variable")
            params.append((var.text, variance_of(vtok.text)))
            if self.at(","):
                self.next()
                continue
            break
        self.expect(")", "')'")
        name = self.expect("ident", "datatype name")
        if len({n for n, _ in params}) != len(params):
            self.diags.append(Diagnostic(
                name.line, name.col, f"duplicate parameter in {name.text!r}"))
        self.expect("=", "'='")
        param_names = tuple(n for n, _ in params)
        if self.at("|"):
            self.next()
        ctors = [self.parse_ctor(name.text, param_names)]
        while self.at("|"):
            self.next()
            ctors.append(self.parse_ctor(name.text, param_names))
        return DatatypeDecl(name.text, tuple(params), tuple(ctors))

    def parse_ctor(self, type_name: str, params: tuple[str, ...]) -> DataConstructorDecl:
        name = self.expect("ident", "constructor name")
        if self.at("kw", "of"):
            self.next()
            arg = self.parse_type()
            return DataConstructorDecl(name.text, FORM_ADT, (), (), arg,
                                       pos=(name.line, name.col))
        self.expect(":", "'of' or ':'")
        if self.at("kw", "forall"):
            self.next()
            exist = self.parse_binders(name, params)
            self.expect(".", "'.'")
            whole = self.parse_type()
            if not (isinstance(whole, App) and whole.ctor == ARROW):
                raise self.error(
                    f"constructor {name.text!r}: expected 'argument -> codomain'",
                    name)
            arg, cod = whole.args
            if not (isinstance(cod, App) and cod.ctor == type_name):
                raise self.error(
                    f"constructor {name.text!r}: codomain must be an application "
                    f"of {type_name!r}", name)
            return DataConstructorDecl(
                name.text, FORM_CODOMAIN, exist, (), arg, codomain_args=cod.args,
                pos=(name.line, name.col))
        exist = self.parse_binders(name, params)
        self.expect("[", "'['")
        constraints: list[tuple[str, ConstraintRel, TypeExpr, Token]] = []
        while True:
            lhs = self.expect("tyvar", "constrained parameter")
            rel_tok = self.peek()
            if rel_tok.kind not in ("=", ">=", "<="):
                raise self.error("expected '=', '>=' or '<=' in constraint")
            self.next()
            bound = self.parse_type()
            constraints.append((lhs.text, ConstraintRel(rel_tok.text), bound, lhs))
            if self.at(","):
                self.next()
                continue
            break
        self.expect("]", "']'")
        self.expect(".", "'.'")
        arg = self.parse_type()
        resolved: list[Constraint] = []
        seen_params: set[int] = set()
        for lhs_name, rel, bound, lhs_tok in constraints:
            if lhs_name not in params:
                self.diags.append(Diagnostic(
                    lhs_tok.line, lhs_tok.col,
                    f"constraint names {lhs_name!r}, which is not a parameter "
                    f"of {type_name!r}"))
                continue
            idx = params.index(lhs_name)
            if idx in seen_params:
                self.diags.append(Diagnostic(
                    lhs_tok.line, lhs_tok.col,
                    f"parameter '{lhs_name} is constrained more than once"))
                continue
            seen_params.add(idx)
            resolved.append(Constraint(idx, rel, bound))
        return DataConstructorDecl(
            name.text, FORM_CONSTRAINED, exist, tuple(resolved), arg,
            pos=(name.line, name.col))

    def parse_binders(self, ctor_tok: Token, params: tuple[str, ...]) -> tuple[str, ...]:
        exist: list[str] = []
        while self.at("tyvar"):
            var = self.next()
            if var.text in params:
                self.diags.append(Diagnostic(
                    var.line, var.col,
                    f"'{var.text} shadows a datatype parameter"))
            elif var.text in exist:
                self.diags.append(Diagnostic(
                    var.line, var.col, f"duplicate binder '{var.text}"))
            else:
                exist.append(var.text)
        return tuple(exist)

    def parse_type(self) -> TypeExpr:
        start = self.pos
        if self.nesting >= MAX_TYPE_DEPTH:
            raise self.error(self._too_deep)
        self.nesting += 1
        try:
            t = self.parse_arrow()
        finally:
            self.nesting -= 1
        if (self.nesting == 0 and self.pos - start > MAX_TYPE_DEPTH
                and type_depth(t) > MAX_TYPE_DEPTH):
            raise self.error(self._too_deep, self.tokens[start])
        return t

    _too_deep = f"type nested more than {MAX_TYPE_DEPTH} levels deep"

    def parse_arrow(self) -> TypeExpr:
        left = self.parse_product()
        if self.at("->"):
            self.next()
            right = self.parse_type()
            return arrow(left, right)
        return left

    def parse_product(self) -> TypeExpr:
        left = self.parse_postfix()
        while self.at("*"):
            self.next()
            right = self.parse_postfix()
            left = product(left, right)
        return left

    def parse_postfix(self) -> TypeExpr:
        t: Optional[TypeExpr]
        if self.at("("):
            self.next()
            items = [self.parse_type()]
            while self.at(","):
                self.next()
                items.append(self.parse_type())
            self.expect(")", "')'")
            if len(items) == 1:
                t = items[0]
            else:
                head = self.expect("ident", "type constructor after argument tuple")
                t = App(head.text, tuple(items))
        elif self.at("tyvar"):
            t = Var(self.next().text)
        elif self.at("ident"):
            t = App(self.next().text, ())
        else:
            raise self.error(f"expected a type, found {self.peek().text!r}")
        while self.at("ident"):
            head = self.next()
            t = App(head.text, (t,))
        return t


def reference_wf_check(sig: Signature) -> list[Diagnostic]:
    diags: list[Diagnostic] = []

    def bad(pos: tuple[int, int], message: str) -> None:
        diags.append(Diagnostic(pos[0], pos[1], message))

    def check_type(t: TypeExpr, scope: frozenset[str], where: str,
                   pos: tuple[int, int]) -> None:
        if isinstance(t, Var):
            if t.name not in scope:
                bad(pos, f"{where}: unbound type variable '{t.name}")
            return
        assert isinstance(t, App)
        if not sig.has_ctor(t.ctor):
            bad(pos, f"{where}: unknown type constructor {t.ctor!r}")
        elif sig.arity(t.ctor) != len(t.args):
            bad(pos, f"{where}: {t.ctor!r} expects {sig.arity(t.ctor)} "
                f"argument(s), got {len(t.args)}")
        for a in t.args:
            check_type(a, scope, where, pos)

    def declared(kind: str) -> list[tuple]:
        return [(d.payload, d.pos) for d in sig.decls if d.kind == kind]

    for (lo, hi), pos in declared("subbase"):
        for name in (lo, hi):
            if not sig.has_ctor(name):
                bad(pos, f"subbase: unknown type {name!r}")
            elif sig.arity(name) != 0 or sig.info(name).kind == "builtin":
                bad(pos, f"subbase: {name!r} is not an arity-0 base type")

    private = declared("private")
    for (lo, hi), pos in private:
        if not sig.has_ctor(hi):
            bad(pos, f"private: unknown type {hi!r}")
            continue
        if not sig.has_ctor(lo):
            continue
        a, b = sig.info(lo), sig.info(hi)
        if a.arity != b.arity:
            bad(pos, f"private: {lo!r} and {hi!r} have different arities")
        elif a.variances != b.variances:
            bad(pos, f"private: {lo!r} and {hi!r} have different variances")

    private_edges = tuple(edge for edge, _ in private)
    reach = reference_reachability(private_edges, {})
    cyclic = {lo for lo, hi in private_edges if lo in reach.get(hi, {hi})}
    for (lo, hi), pos in private:
        if lo in cyclic:
            cyclic.remove(lo)
            bad(pos, f"private: cycle through {lo!r}")

    for (v, name), pos in declared("closed"):
        if not sig.has_ctor(name):
            bad(pos, f"closed: unknown type {name!r}")

    datatypes = [info.decl for info in sig.ctors.values()
                 if info.kind == "datatype" and info.decl is not None]
    for decl in datatypes:
        names = decl.param_names()
        params = frozenset(names)
        ctor_names: set[str] = set()
        for k in decl.ctors:
            where, pos = f"{decl.name}.{k.name}", k.pos
            if k.name in ctor_names:
                bad(pos, f"{where}: duplicate constructor name")
            ctor_names.add(k.name)
            scope = params | frozenset(k.exist_vars) if k.form != FORM_CODOMAIN \
                else frozenset(k.exist_vars)
            check_type(k.arg, scope, where, pos)
            occurring = free_vars(k.arg).union(
                *(free_vars(c.bound) for c in k.constraints))
            for c in k.constraints:
                if not (0 <= c.param < len(decl.params)):
                    bad(pos, f"{where}: constraint on invalid parameter "
                        f"index {c.param}")
                elif names[c.param] in occurring:
                    bad(pos, f"{where}: parameter '{names[c.param]} is "
                        f"constrained and may not also occur in the "
                        f"argument or a bound")
                check_type(c.bound, scope, where, pos)
            if k.codomain_args is not None:
                if len(k.codomain_args) != len(decl.params):
                    bad(pos, f"{where}: codomain applies {decl.name!r} to "
                        f"{len(k.codomain_args)} argument(s), expected "
                        f"{len(decl.params)}")
                for t in k.codomain_args:
                    check_type(t, frozenset(k.exist_vars), where, pos)
    return diags


def _ctor_positions(decls) -> list[tuple[int, int]]:
    # A constructor's position takes no part in its equality.
    return [k.pos for d in decls if d.kind == "type" for k in d.payload.ctors]


def reference_parse(text: str) -> tuple[Signature, list[Diagnostic]]:
    """The signature and the scanner's and parser's diagnostics."""
    tokens, lex_diags = tokenize(text)
    parser = ReferenceParser(tokens)
    sig = parser.parse_file()
    return sig, lex_diags + parser.diags


def reference_outcome(text: str):
    """(decls, ctors, constructor positions) of a well-formed text, or
    the diagnostics of a malformed one."""
    sig, diags = reference_parse(text)
    diags = diags or reference_wf_check(sig)
    if diags:
        return diags
    return sig.decls, sig.ctors, _ctor_positions(sig.decls)


def outcome(text: str):
    try:
        sig = parse_signature(text)
    except SignatureError as e:
        return e.diagnostics
    return sig.decls, sig.ctors, _ctor_positions(sig.decls)


#: Private edges, chained and in cycles, beside the edges of the base
#: order, which the golden inputs have few of.
EDGES = """\
base a
base b
subbase a <= b
private c = a
private a = c
type (+'x) box = | B of 'x
private pbox = box
private qbox = pbox
private box = qbox
closed + qbox
"""

#: Every corpus file, check-wide input and malformed golden input (one
#: file per diagnostic), and EDGES.
TEXTS = [*(path.read_text(encoding="utf-8") for path in sorted(
    path for d in ("corpus", "tests/golden/inputs", "tests/golden/bad")
    for path in (ROOT / d).glob("*.vt"))), EDGES]
#: Their tokens, without `eof`.
SOURCES = [tokenize(text)[0][:-1] for text in TEXTS]


def render(tokens: list[Token]) -> str:
    """The tokens as text, one line per source line."""
    out = []
    line = 1
    for tok in tokens:
        out.append("\n" if tok.line != line else " ")
        line = tok.line
        out.append(f"'{tok.text}" if tok.kind == "tyvar" else tok.text)
    return "".join(out)


@st.composite
def mutated(draw) -> str:
    """A source with up to three edits: a token dropped, a token copied
    to another place, or two tokens swapped, often two of one kind (two
    names, two variables), which keeps the text parseable more often."""
    tokens = list(draw(st.sampled_from(SOURCES)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(["drop", "copy", "swap", "alike"]))
        if edit == "drop":
            del tokens[i]
            continue
        if edit == "alike":
            j = draw(st.sampled_from([j for j, tok in enumerate(tokens)
                                      if tok.kind == tokens[i].kind]))
        else:
            j = draw(st.integers(0, len(tokens) - 1))
        if edit == "copy":
            tokens.insert(j, tokens[i])
        else:
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return render(tokens)


def test_sources_equal_reference():
    for text in TEXTS:
        assert outcome(text) == reference_outcome(text)


def test_mutated_sources_equal_reference():
    # Counts of malformed texts by phase, and of well-formed ones.
    seen = {"parse": 0, "wf": 0, "ok": 0}

    @seed(20261019)
    @settings(max_examples=1000, deadline=None, database=None)
    @given(mutated())
    def check(text):
        want = reference_outcome(text)
        assert outcome(text) == want
        if not isinstance(want, list):
            seen["ok"] += 1
        else:
            seen["parse" if reference_parse(text)[1] else "wf"] += 1

    check()
    # Each outcome must be common, so that both phases and the
    # well-formed path are compared on many inputs.
    assert min(seen.values()) >= 50, seen
