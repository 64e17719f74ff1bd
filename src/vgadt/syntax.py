"""Type expressions, datatype declarations and the surface grammar.

A signature is a table of type constructors: arrow and product are
built-in binary constructors (variances `(-,+)` and `(+,+)`), `unit` is
a predeclared base, and declarations add bases, an order between bases,
private-type edges, closure flags and parametrized datatypes.

Datatype constructors come in three surface forms (plain `of`,
constrained existentials, generalized codomain); `normalize_constructor`
rewrites all of them into the fully constrained form in which every
datatype parameter carries exactly one constraint against a type over
the constructor's existential variables.

Grammar (UTF-8, `#` line comments)::

    file       := decl*
    decl       := "base" IDENT
                | "subbase" IDENT "<=" IDENT
                | "private" IDENT "=" IDENT
                | "closed" ("+"|"-"|"=") IDENT
                | "type" "(" varparam ("," varparam)* ")" IDENT "=" ctor ("|" ctor)*
    varparam   := ("+"|"-"|"="|"~") "'" IDENT
    ctor       := IDENT "of" type
                | IDENT ":" tyvar* "[" constr ("," constr)* "]" "." type
                | IDENT ":" "forall" tyvar* "." type "->" type
    constr     := tyvar ("="|">="|"<=") type
    type       := tyvar | IDENT | type IDENT | "(" type ("," type)* ")" IDENT
                | type "*" type | type "->" type | "(" type ")"
    tyvar      := "'" IDENT

`->` is right-associative and binds looser than `*`; `*` is
left-associative; postfix constructor application binds tightest.

The front end runs in three passes.  `_tokenize` is the one scanner, one
regular-expression match per token: a plain tuple (kind, text, line,
col), which the parser reads by index, per keyword, identifier, type
variable (its text without the quote) and sign, then `eof`.  A match
first skips the gap before its token: blanks, then at most one comment,
since a comment runs to its newline.  Lines and columns start at 1,
columns count code points.  The scanner reports and skips each
unexpected character.  The parser reads the tokens once, reports an
error at the token it stopped at and resumes at the next declaration
keyword.  `wf_check` runs only on a file with neither, and reports at a
declaration's keyword or a constructor's name.  `parse_signature`
raises one `SignatureError` with every diagnostic, the scanner's first.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional, Sequence

from .variance import Variance

ARROW = "->"
PRODUCT = "*"
UNIT = "unit"


# ---------------------------------------------------------------------------
# Type expressions


class Var(NamedTuple):
    """A type variable."""
    name: str


class App(NamedTuple):
    """A constructor applied to its arguments; a base takes none."""
    ctor: str
    args: tuple[TypeExpr, ...] = ()


#: A type expression.  Both kinds are tuples, so they are immutable and
#: compared and hashed by value, and a `Var` never equals an `App`.
TypeExpr = Var | App

#: `_new(App, fields)` skips the Python frame of a NamedTuple's own
#: `__new__`; the front end builds its records this way.
_new = tuple.__new__


def tvar(name: str) -> Var:
    return Var(name)


def tapp(ctor: str, *args: TypeExpr) -> App:
    return App(ctor, args)


def arrow(dom: TypeExpr, cod: TypeExpr) -> App:
    return App(ARROW, (dom, cod))


def product(left: TypeExpr, right: TypeExpr) -> App:
    return App(PRODUCT, (left, right))


def free_vars_ordered(t: TypeExpr) -> tuple[str, ...]:
    """Variable names in first-occurrence (left-to-right) order."""
    out: dict[str, None] = {}
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out[node.name] = None
        else:
            stack.extend(reversed(node.args))
    return tuple(out)


def free_vars(t: TypeExpr) -> frozenset[str]:
    """The exact set of variable names occurring in t."""
    return frozenset(free_vars_ordered(t))


def mentioned_ctors(*ts: TypeExpr) -> frozenset[str]:
    """All constructor names applied anywhere inside the types ts."""
    out: set[str] = set()
    stack = list(ts)
    while stack:
        node = stack.pop()
        if isinstance(node, App):
            out.add(node.ctor)
            stack.extend(node.args)
    return frozenset(out)


def subst(t: TypeExpr, mapping: dict[str, TypeExpr]) -> TypeExpr:
    """Simultaneously substitute types for variables in t."""
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    assert isinstance(t, App)
    if not t.args:
        return t
    return App(t.ctor, tuple(subst(a, mapping) for a in t.args))


def is_ground(t: TypeExpr) -> bool:
    return not free_vars(t)


def type_depth(t: TypeExpr) -> int:
    """Syntactic depth: variables and constants have depth 1."""
    deepest = 0
    stack = [(t, 1)]
    while stack:
        node, d = stack.pop()
        deepest = max(deepest, d)
        if isinstance(node, App):
            stack.extend((a, d + 1) for a in node.args)
    return deepest


# ---------------------------------------------------------------------------
# Declarations


class ConstraintRel(Enum):
    EQ = "="
    SUP = ">="   # parameter above the bound
    SUB = "<="

    def __str__(self) -> str:
        return self.value


class Constraint(NamedTuple):
    param: int              # index into the datatype's parameter list
    rel: ConstraintRel
    bound: TypeExpr


#: Surface form of a data constructor declaration.
FORM_ADT = "adt"
FORM_CONSTRAINED = "constrained"
FORM_CODOMAIN = "codomain"


class DataConstructorDecl(NamedTuple):
    name: str
    form: str
    exist_vars: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    arg: TypeExpr
    # Codomain parameter instantiations, present only in FORM_CODOMAIN
    # declarations before normalization.
    codomain_args: Optional[tuple[TypeExpr, ...]] = None
    #: line:col of the constructor name in the source, (0, 0) if none.
    pos: tuple[int, int] = (0, 0)


class DatatypeDecl(NamedTuple):
    name: str
    params: tuple[tuple[str, Variance], ...]
    ctors: tuple[DataConstructorDecl, ...]

    def param_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.params)

    def param_variances(self) -> tuple[Variance, ...]:
        return tuple(v for _, v in self.params)


class CtorInfo(NamedTuple):
    name: str
    arity: int
    variances: tuple[Variance, ...]
    kind: str                       # "base" | "builtin" | "datatype"
    decl: Optional[DatatypeDecl] = None


class Diagnostic(NamedTuple):
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class SignatureError(Exception):
    """Raised when a signature cannot be parsed or is ill-formed."""

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class Decl(NamedTuple):
    """One top-level declaration as written: its keyword, its payload (a
    base's name, a `subbase` or `private` edge (lo, hi), a `closed` flag
    (variance, name) or a `type`'s DatatypeDecl) and the keyword's
    line:col."""
    kind: str
    payload: object
    pos: tuple[int, int]


@dataclass
class Signature:
    """The declaration table every later phase reads from.

    `decls` holds the top-level declarations in source order; `ctors` is
    the resolved constructor table.  Closure flags are attached by
    `checker.compute_closure_flags` and read through `checker.is_closed`.
    """

    ctors: dict[str, CtorInfo] = field(default_factory=dict)
    decls: tuple[Decl, ...] = ()
    closure_flags: Optional[dict[str, frozenset[Variance]]] = None

    @property
    def base_edges(self) -> tuple[tuple[str, str], ...]:
        """The declared base order: (b, c) for each `subbase b <= c`."""
        return tuple(d.payload for d in self.decls if d.kind == "subbase")

    @property
    def private_edges(self) -> tuple[tuple[str, str], ...]:
        """(t', t) for each `private t' = t`: t' lies below t."""
        return tuple(d.payload for d in self.decls if d.kind == "private")

    def has_ctor(self, name: str) -> bool:
        return name in self.ctors

    def info(self, name: str) -> CtorInfo:
        try:
            return self.ctors[name]
        except KeyError:
            raise KeyError(f"unknown type constructor {name!r}") from None

    def arity(self, name: str) -> int:
        return self.info(name).arity

    def variances(self, name: str) -> tuple[Variance, ...]:
        return self.info(name).variances

    def datatypes(self) -> list[DatatypeDecl]:
        return [info.decl for info in self.ctors.values()
                if info.kind == "datatype" and info.decl is not None]

    # Reach tables, set on first use (`cached_property` locks on 3.11).
    _base_reach = _head_reach = None

    def base_leq(self, b: str, c: str) -> bool:
        """Reflexive-transitive closure of the declared base order."""
        if self._base_reach is None:
            self._base_reach = _reachability(self.base_edges)
        return c in self._base_reach.get(b, {b})

    def head_reach(self) -> dict[str, set[str]]:
        """Upward reachability of head constructors: private edges plus,
        between arity-0 constructors, the declared base order.  A name
        no edge leaves has no entry; read it as `.get(n, {n})`."""
        if self._head_reach is None:
            self._head_reach = _reachability(self.private_edges
                                             + self.base_edges)
        return self._head_reach


def _reachability(edges: Sequence[tuple[str, str]]) -> dict[str, set[str]]:
    """Per edge's source, the names reachable from it, itself included."""
    succ: dict[str, list[str]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    reach: dict[str, set[str]] = {}
    for n in succ:
        seen, stack = {n}, [n]
        while stack:
            for m in succ.get(stack.pop(), ()):
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        reach[n] = seen
    return reach


#: The predeclared constructors.  Their records are frozen, so every
#: signature shares them.
_BUILTINS = {
    ARROW: CtorInfo(ARROW, 2, (Variance.CONTRA, Variance.COV), "builtin"),
    PRODUCT: CtorInfo(PRODUCT, 2, (Variance.COV, Variance.COV), "builtin"),
    UNIT: CtorInfo(UNIT, 0, (), "base"),
}


def builtin_signature() -> Signature:
    """A signature holding only the predeclared constructors."""
    return Signature(dict(_BUILTINS))


# ---------------------------------------------------------------------------
# Lexer

_DECL_KEYWORDS = ("type", "base", "subbase", "private", "closed")
_KEYWORDS = {*_DECL_KEYWORDS, "of", "forall"}
#: Each sign's variance and relation; cheaper than calling the Enum.
_VARIANCES = {v.value: v for v in Variance}
_RELATIONS = {r.value: r for r in ConstraintRel}


#: A token is a plain tuple (kind, text, line, col), read by index: kind
#: is "ident", "tyvar", "kw", the punctuation itself or "eof", and
#: `tok[2:]` is its line:col.
Token = tuple[str, str, int, int]


# One match per token, newline or unexpected character, whose prefix
# skips blanks then at most one comment (a comment runs to the newline).
# `\w` is exactly `str.isalnum()` plus `_`, and columns count code
# points.  Two quirks are kept, so that tokens and diagnostics equal
# those of the reference lexer in tests/test_lexer_reference.py:
# - a word that starts with a non-letter (`9a`, `²b`, `½`: digits and
#   numerals are `\w` too) reports each leading character as unexpected
#   and starts the identifier at the first letter or `_`;
# - a comment does not advance the column, so after a trailing comment
#   with no newline the `eof` token sits at the column of the `#`.
# The groups are numbered, the most frequent first, and a match's
# `lastindex` says which one matched.  A type variable's group holds no
# quote; a lone quote falls to the last group.  A word that starts with
# an ASCII letter or `_` needs no check of its first characters.
_SCAN = re.compile(r"""
    [ \t\r]* (?: \#[^\n]* )?
    (?: ( -> | >= | <= | [()\[\],.|:=*+~-] )    # 1: punctuation
      | ' ( \w+ )                              # 2: a type variable
      | ( [A-Za-z_]\w* )                       # 3: a word
      | ( \n )                                 # 4: a newline
      | ( \w+ )                                # 5: any other word
      | ( . )                                  # 6: anything else
    )?""", re.VERBOSE | re.DOTALL)
_PUNCT, _TYVAR, _WORD, _NEWLINE, _OTHER_WORD = 1, 2, 3, 4, 5


def _tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    add = tokens.append
    line, line_start = 1, 0
    for m in _SCAN.finditer(text):
        group = m.lastindex
        if group is None:           # blanks and a comment at the end
            continue
        lexeme = m[group]
        col = m.start(group) - line_start + 1
        if group == _PUNCT:
            add((lexeme, lexeme, line, col))
        elif group == _TYVAR:       # its column is the quote's
            add(("tyvar", lexeme, line, col - 1))
        elif group == _WORD:
            add(("kw" if lexeme in _KEYWORDS else "ident",
                 lexeme, line, col))
        elif group == _NEWLINE:
            line += 1
            line_start = m.end()
        elif group == _OTHER_WORD:
            i = next((i for i, c in enumerate(lexeme)
                      if c.isalpha() or c == "_"), len(lexeme))
            diags.extend(Diagnostic(line, col + j, f"unexpected character {c!r}")
                         for j, c in enumerate(lexeme[:i]))
            if i < len(lexeme):
                add(("kw" if lexeme[i:] in _KEYWORDS else "ident",
                     lexeme[i:], line, col + i))
        else:
            diags.append(Diagnostic(line, col, "expected identifier after '"
                                    if lexeme == "'" else
                                    f"unexpected character {lexeme!r}"))
    # A comment on the last line runs to the end, and `eof` sits at its `#`.
    hash_at = text.find("#", line_start)
    end = hash_at if hash_at >= 0 else len(text)
    add(("eof", "", line, end - line_start + 1))
    return tokens, diags


# ---------------------------------------------------------------------------
# Parser


class _ParseAbort(Exception):
    pass


#: The deepest type expression the parser accepts.  Later phases recurse
#: over type trees, so a bound keeps every input within Python's
#: recursion limit.
MAX_TYPE_DEPTH = 100


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        #: tokens[pos]; the list ends in `eof`, which `next` never passes.
        self.tok = tokens[0]
        self.diags: list[Diagnostic] = []
        self.nesting = 0

    def next(self) -> Token:
        tok = self.tok
        if tok[0] != "eof":
            self.pos += 1
            self.tok = self.tokens[self.pos]
        return tok

    def note(self, message: str, tok: Optional[Token] = None) -> None:
        """Report a diagnostic at tok, by default the current token."""
        tok = tok or self.tok
        self.diags.append(Diagnostic(tok[2], tok[3], message))

    def error(self, message: str, tok: Optional[Token] = None) -> _ParseAbort:
        self.note(message, tok)
        return _ParseAbort()

    def expect(self, kind: str, what: str) -> Token:
        tok = self.tok
        if tok[0] != kind:
            raise self.error(f"expected {what}, found {tok[1]!r}")
        # `kind` is never "eof", so there is a next token.
        self.pos += 1
        self.tok = self.tokens[self.pos]
        return tok

    # -- declarations ------------------------------------------------------

    def parse_file(self) -> Signature:
        sig = builtin_signature()
        decls: list[Decl] = []
        while self.tok[0] != "eof":
            tok = self.tok
            try:
                kind, payload = self.parse_decl(sig)
            except _ParseAbort:
                self.skip_to_next_decl()
                continue
            decls.append(_new(Decl, (kind, payload, tok[2:])))
        sig.decls = tuple(decls)
        return sig

    def skip_to_next_decl(self) -> None:
        while self.tok[0] != "eof" and not (
                self.tok[0] == "kw" and self.tok[1] in _DECL_KEYWORDS):
            self.next()

    def parse_decl(self, sig: Signature) -> tuple[str, object]:
        """One declaration: its keyword and payload, as a `Decl` holds
        them.  Bases and datatypes are entered into `sig.ctors`."""
        tok = self.tok
        keyword = tok[1]
        if tok[0] != "kw":
            raise self.error(f"expected declaration, found {keyword!r}")
        if keyword == "base":
            self.next()
            name = self.expect("ident", "base type name")
            self.declare(sig, name,
                         _new(CtorInfo, (name[1], 0, (), "base", None)))
            return "base", name[1]
        if keyword == "subbase":
            self.next()
            lo = self.expect("ident", "base type name")[1]
            self.expect("<=", "'<='")
            return "subbase", (lo, self.expect("ident", "base type name")[1])
        if keyword == "private":
            self.next()
            lo = self.expect("ident", "type name")[1]
            self.expect("=", "'='")
            hi = self.expect("ident", "type name")[1]
            # A fresh lower type mirrors the upper one's interface.
            if not sig.has_ctor(lo):
                above = sig.ctors.get(hi)
                sig.ctors[lo] = _new(CtorInfo, (
                    lo, above.arity if above else 0,
                    above.variances if above else (), "base", None))
            return "private", (lo, hi)
        if keyword == "closed":
            self.next()
            flag = self.tok[0]
            if flag not in ("+", "-", "="):
                raise self.error("expected one of '+', '-', '=' after 'closed'")
            self.next()
            return "closed", (_VARIANCES[flag],
                              self.expect("ident", "type name")[1])
        if keyword == "type":
            decl = self.parse_type_decl(sig)
            self.declare(sig, tok, _new(CtorInfo, (
                decl.name, len(decl.params), decl.param_variances(),
                "datatype", decl)))
            return "type", decl
        raise self.error(f"unexpected keyword {keyword!r}")

    def declare(self, sig: Signature, tok: Token, info: CtorInfo) -> None:
        if sig.has_ctor(info.name):
            self.note(f"duplicate declaration of {info.name!r}", tok)
        else:
            sig.ctors[info.name] = info

    def parse_type_decl(self, sig: Signature) -> DatatypeDecl:
        self.expect("kw", "'type'")
        self.expect("(", "'('")
        params: list[tuple[str, Variance]] = []
        while True:
            vtok = self.tok
            if vtok[0] not in ("+", "-", "=", "~"):
                raise self.error("expected a variance sign ('+', '-', '=', '~')")
            self.next()
            var = self.expect("tyvar", "type variable")
            params.append((var[1], _VARIANCES[vtok[0]]))
            if self.tok[0] != ",":
                break
            self.next()
        self.expect(")", "')'")
        name = self.expect("ident", "datatype name")
        if len({n for n, _ in params}) != len(params):
            self.note(f"duplicate parameter in {name[1]!r}", name)
        self.expect("=", "'='")
        param_names = tuple(n for n, _ in params)
        if self.tok[0] == "|":    # optional leading bar, OCaml style
            self.next()
        ctors = [self.parse_ctor(name[1], param_names)]
        while self.tok[0] == "|":
            self.next()
            ctors.append(self.parse_ctor(name[1], param_names))
        return _new(DatatypeDecl, (name[1], tuple(params), tuple(ctors)))

    def parse_ctor(self, type_name: str, params: tuple[str, ...]) -> DataConstructorDecl:
        name = self.expect("ident", "constructor name")
        if self.tok[0] == "kw" and self.tok[1] == "of":
            self.next()
            arg = self.parse_type()
            return _new(DataConstructorDecl, (name[1], FORM_ADT, (), (), arg,
                                              None, name[2:]))
        self.expect(":", "'of' or ':'")
        if self.tok[0] == "kw" and self.tok[1] == "forall":
            self.next()
            exist = self.parse_binders(name, params)
            self.expect(".", "'.'")
            whole = self.parse_type()
            if not (isinstance(whole, App) and whole.ctor == ARROW):
                raise self.error(
                    f"constructor {name[1]!r}: expected 'argument -> codomain'",
                    name)
            arg, cod = whole.args
            if not (isinstance(cod, App) and cod.ctor == type_name):
                raise self.error(
                    f"constructor {name[1]!r}: codomain must be an application "
                    f"of {type_name!r}", name)
            return _new(DataConstructorDecl, (
                name[1], FORM_CODOMAIN, exist, (), arg, cod.args,
                name[2:]))
        exist = self.parse_binders(name, params)
        self.expect("[", "'['")
        constraints: list[tuple[str, ConstraintRel, TypeExpr, Token]] = []
        while True:
            lhs = self.expect("tyvar", "constrained parameter")
            rel_tok = self.tok
            if rel_tok[0] not in ("=", ">=", "<="):
                raise self.error("expected '=', '>=' or '<=' in constraint")
            self.next()
            bound = self.parse_type()
            constraints.append((lhs[1], _RELATIONS[rel_tok[0]], bound, lhs))
            if self.tok[0] != ",":
                break
            self.next()
        self.expect("]", "']'")
        self.expect(".", "'.'")
        arg = self.parse_type()
        resolved: list[Constraint] = []
        seen_params: set[int] = set()
        for lhs_name, rel, bound, lhs_tok in constraints:
            if lhs_name not in params:
                self.note(f"constraint names {lhs_name!r}, which is not a "
                          f"parameter of {type_name!r}", lhs_tok)
                continue
            idx = params.index(lhs_name)
            if idx in seen_params:
                self.note(f"parameter '{lhs_name} is constrained more than "
                          f"once", lhs_tok)
                continue
            seen_params.add(idx)
            resolved.append(_new(Constraint, (idx, rel, bound)))
        return _new(DataConstructorDecl, (
            name[1], FORM_CONSTRAINED, exist, tuple(resolved), arg, None,
            name[2:]))

    def parse_binders(self, ctor_tok: Token, params: tuple[str, ...]) -> tuple[str, ...]:
        exist: list[str] = []
        while self.tok[0] == "tyvar":
            var = self.next()
            if var[1] in params:
                self.note(f"'{var[1]} shadows a datatype parameter", var)
            elif var[1] in exist:
                self.note(f"duplicate binder '{var[1]}", var)
            else:
                exist.append(var[1])
        return tuple(exist)

    # -- types -------------------------------------------------------------

    def parse_type(self) -> TypeExpr:
        """A type of depth at most MAX_TYPE_DEPTH: postfix types joined
        by `*`, left-associative, then by `->`, right-associative.
        Every recursive descent passes here, so the parser's own
        recursion is bounded too."""
        start = self.pos
        if self.nesting >= MAX_TYPE_DEPTH:
            raise self.error(self._too_deep)
        self.nesting += 1
        try:
            t = self.parse_postfix()
            while self.tok[0] == "*":
                self.next()
                t = _new(App, (PRODUCT, (t, self.parse_postfix())))
            if self.tok[0] == "->":
                self.next()
                t = _new(App, (ARROW, (t, self.parse_type())))
        finally:
            self.nesting -= 1
        # Each level of depth takes at least one token.
        if (self.nesting == 0 and self.pos - start > MAX_TYPE_DEPTH
                and type_depth(t) > MAX_TYPE_DEPTH):
            raise self.error(self._too_deep, self.tokens[start])
        return t

    _too_deep = f"type nested more than {MAX_TYPE_DEPTH} levels deep"

    def parse_postfix(self) -> TypeExpr:
        tok = self.tok
        kind = tok[0]
        t: TypeExpr
        if kind == "tyvar":
            self.next()
            t = _new(Var, (tok[1],))
        elif kind == "ident":
            self.next()
            t = _new(App, (tok[1], ()))
        elif kind == "(":
            self.next()
            items = [self.parse_type()]
            while self.tok[0] == ",":
                self.next()
                items.append(self.parse_type())
            self.expect(")", "')'")
            if len(items) == 1:
                t = items[0]
            else:
                head = self.expect("ident", "type constructor after argument tuple")
                t = _new(App, (head[1], tuple(items)))
        else:
            raise self.error(f"expected a type, found {tok[1]!r}")
        while self.tok[0] == "ident":
            t = _new(App, (self.next()[1], (t,)))
        return t


def parse_signature(text: str) -> Signature:
    """Parse and well-formedness-check a signature; raises SignatureError
    with positioned diagnostics on any failure."""
    tokens, lex_diags = _tokenize(text)
    parser = _Parser(tokens)
    sig = parser.parse_file()
    diags = lex_diags + parser.diags or wf_check(sig)
    if diags:
        raise SignatureError(diags)
    return sig


def parse_type(text: str) -> TypeExpr:
    """Parse a standalone type expression (test/CLI helper)."""
    tokens, lex_diags = _tokenize(text)
    parser = _Parser(tokens)
    try:
        t = parser.parse_type()
        if not lex_diags and not parser.diags and parser.tok[0] != "eof":
            parser.note(f"trailing input {parser.tok[1]!r}")
    except _ParseAbort:
        pass
    if lex_diags or parser.diags:
        raise SignatureError(lex_diags + parser.diags)
    return t


# ---------------------------------------------------------------------------
# Well-formedness


def wf_check(sig: Signature) -> list[Diagnostic]:
    """One diagnostic per violated signature invariant; [] iff well-formed."""
    diags: list[Diagnostic] = []
    ctors = sig.ctors

    def bad(pos: tuple[int, int], message: str) -> None:
        diags.append(Diagnostic(pos[0], pos[1], message))

    def check_type(t: TypeExpr, scope: frozenset[str], where: str,
                   pos: tuple[int, int]) -> None:
        if isinstance(t, Var):
            if t.name not in scope:
                bad(pos, f"{where}: unbound type variable '{t.name}")
            return
        info = ctors.get(t.ctor)
        if info is None:
            bad(pos, f"{where}: unknown type constructor {t.ctor!r}")
        elif info.arity != len(t.args):
            bad(pos, f"{where}: {t.ctor!r} expects {info.arity} "
                f"argument(s), got {len(t.args)}")
        for a in t.args:
            check_type(a, scope, where, pos)

    # (payload, pos) of each declaration, by kind, in source order.
    declared: dict[str, list[tuple]] = {}
    for kind, payload, pos in sig.decls:
        declared.setdefault(kind, []).append((payload, pos))

    for (lo, hi), pos in declared.get("subbase", ()):
        for name in (lo, hi):
            if not sig.has_ctor(name):
                bad(pos, f"subbase: unknown type {name!r}")
            elif sig.arity(name) != 0 or sig.info(name).kind == "builtin":
                bad(pos, f"subbase: {name!r} is not an arity-0 base type")

    private = declared.get("private", [])
    for (lo, hi), pos in private:
        a, b = ctors.get(lo), ctors.get(hi)
        if b is None:
            bad(pos, f"private: unknown type {hi!r}")
        elif a is not None and a.arity != b.arity:
            bad(pos, f"private: {lo!r} and {hi!r} have different arities")
        elif a is not None and a.variances != b.variances:
            bad(pos, f"private: {lo!r} and {hi!r} have different variances")

    # Private edges must be acyclic (the declared order may have cycles).
    # An edge lo -> hi closes a cycle iff lo is reachable from hi; a type
    # on a cycle is reported once, at its first private edge.
    if private:
        edges = [edge for edge, _ in private]
        reach = _reachability(edges)
        cyclic = {lo for lo, hi in edges if lo in reach.get(hi, {hi})}
        for (lo, hi), pos in private:
            if lo in cyclic:
                cyclic.remove(lo)
                bad(pos, f"private: cycle through {lo!r}")

    for (v, name), pos in declared.get("closed", ()):
        if not sig.has_ctor(name):
            bad(pos, f"closed: unknown type {name!r}")

    for decl in sig.datatypes():
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
            occurring = _occurring(k.arg, k.constraints) if k.constraints else ()
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


# ---------------------------------------------------------------------------
# Normalization into the fully constrained form


def _occurring(arg: TypeExpr, constraints: Sequence[Constraint]) -> set[str]:
    """The variables of `arg` and of every bound."""
    names = set(free_vars_ordered(arg))
    for c in constraints:
        names.update(free_vars_ordered(c.bound))
    return names


def _fresh_name(base: str, used: set[str]) -> str:
    i = 1
    while f"{base}{i}" in used:
        i += 1
    name = f"{base}{i}"
    used.add(name)
    return name


def normalize_constructor(
    decl: DatatypeDecl, k: DataConstructorDecl
) -> DataConstructorDecl:
    """Rewrite a constructor into the fully constrained form.

    Afterwards every datatype parameter carries exactly one constraint,
    and the argument type and every bound mention only the existential
    variables.  Fresh existentials are named after the parameter they
    replace, with a numeric suffix; the result is deterministic and the
    operation is idempotent.  A parameter constrained twice, which the
    parser rejects but a constructor built in code can carry, raises
    ValueError.
    """
    params = decl.param_names()
    if k.form == FORM_CODOMAIN:
        assert k.codomain_args is not None
        constraints = [_new(Constraint, (i, ConstraintRel.EQ, t))
                       for i, t in enumerate(k.codomain_args)]
    else:
        constraints = list(k.constraints)

    used = {*k.exist_vars, *params}
    exist = list(k.exist_vars)
    constrained: set[int] = set()
    for c in constraints:
        if c.param in constrained:
            raise ValueError(
                f"{decl.name}.{k.name}: parameter '{params[c.param]} is "
                f"constrained more than once")
        constrained.add(c.param)
    occurring = _occurring(k.arg, constraints)

    renaming: dict[str, TypeExpr] = {}
    for i, p in enumerate(params):
        if i in constrained:
            if p in occurring:
                raise ValueError(
                    f"{decl.name}.{k.name}: parameter '{p} is constrained and "
                    f"may not also occur in the argument or a bound")
            continue
        fresh = _fresh_name(p, used)
        var = _new(Var, (fresh,))
        if p in occurring:
            renaming[p] = var
        exist.append(fresh)
        constraints.append(_new(Constraint, (i, ConstraintRel.EQ, var)))

    arg = k.arg
    if renaming:
        arg = subst(arg, renaming)
        constraints = [_new(Constraint, (c.param, c.rel,
                                         subst(c.bound, renaming)))
                       for c in constraints]
    constraints.sort(key=lambda c: c.param)
    return _new(DataConstructorDecl, (
        k.name, FORM_CONSTRAINED, tuple(exist), tuple(constraints), arg, None,
        k.pos))


# ---------------------------------------------------------------------------
# Pretty-printing

_LEVEL_ARROW, _LEVEL_PRODUCT, _LEVEL_POSTFIX = 0, 1, 2


def render_type(t: TypeExpr, level: int = _LEVEL_ARROW) -> str:
    if isinstance(t, Var):
        return f"'{t.name}"
    assert isinstance(t, App)
    if t.ctor == ARROW:
        text = (f"{render_type(t.args[0], _LEVEL_PRODUCT)} -> "
                f"{render_type(t.args[1], _LEVEL_ARROW)}")
        return f"({text})" if level > _LEVEL_ARROW else text
    if t.ctor == PRODUCT:
        text = (f"{render_type(t.args[0], _LEVEL_PRODUCT)} * "
                f"{render_type(t.args[1], _LEVEL_POSTFIX)}")
        return f"({text})" if level > _LEVEL_PRODUCT else text
    if not t.args:
        return t.ctor
    if len(t.args) == 1:
        return f"{render_type(t.args[0], _LEVEL_POSTFIX)} {t.ctor}"
    inner = ", ".join(render_type(a, _LEVEL_ARROW) for a in t.args)
    return f"({inner}) {t.ctor}"


def render_constraint(decl: DatatypeDecl, c: Constraint) -> str:
    return f"'{decl.param_names()[c.param]} {c.rel.value} {render_type(c.bound)}"


def render_ctor(decl: DatatypeDecl, k: DataConstructorDecl) -> str:
    if k.form == FORM_ADT:
        return f"{k.name} of {render_type(k.arg)}"
    if k.form == FORM_CODOMAIN:
        assert k.codomain_args is not None
        binders = " ".join(f"'{b}" for b in k.exist_vars)
        cod = render_type(App(decl.name, k.codomain_args), _LEVEL_PRODUCT)
        return (f"{k.name} : forall {binders}. "
                f"{render_type(k.arg, _LEVEL_PRODUCT)} -> {cod}")
    binders = "".join(f"'{b} " for b in k.exist_vars)
    constrs = ", ".join(render_constraint(decl, c) for c in k.constraints)
    return f"{k.name} : {binders}[{constrs}]. {render_type(k.arg)}"


def render_signature(sig: Signature) -> str:
    lines: list[str] = []
    for kind, payload, _ in sig.decls:
        if kind == "base":
            lines.append(f"base {payload}")
        elif kind == "subbase":
            lo, hi = payload
            lines.append(f"subbase {lo} <= {hi}")
        elif kind == "private":
            lo, hi = payload
            lines.append(f"private {lo} = {hi}")
        elif kind == "closed":
            v, name = payload
            lines.append(f"closed {v.value} {name}")
        elif kind == "type":
            params = ", ".join(f"{v.value}'{n}" for n, v in payload.params)
            lines.append(f"type ({params}) {payload.name} =")
            for k in payload.ctors:
                lines.append(f"  | {render_ctor(payload, k)}")
    return "\n".join(lines) + "\n"
