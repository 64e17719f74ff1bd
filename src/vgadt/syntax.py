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
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

from .variance import Variance, variance_of

ARROW = "->"
PRODUCT = "*"
UNIT = "unit"


# ---------------------------------------------------------------------------
# Type expressions


class TypeExpr:
    """A type expression: a variable or a constructor application.

    Nodes are immutable and hash-consed by value (the hash is computed
    once at construction; the oracle memoizes heavily on type pairs).
    """

    __slots__ = ()


class Var(TypeExpr):
    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("var", name)))

    def __setattr__(self, *_):
        raise AttributeError("Var is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Var)
            and self._hash == other._hash
            and self.name == other.name
        )

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


class App(TypeExpr):
    __slots__ = ("ctor", "args", "_hash")

    def __init__(self, ctor: str, args: Iterable[TypeExpr] = ()):
        args = tuple(args)
        object.__setattr__(self, "ctor", ctor)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash(("app", ctor, args)))

    def __setattr__(self, *_):
        raise AttributeError("App is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, App)
            and self._hash == other._hash
            and self.ctor == other.ctor
            and self.args == other.args
        )

    def __repr__(self) -> str:
        return f"App({self.ctor!r}, {self.args!r})"


def tvar(name: str) -> Var:
    return Var(name)


def tapp(ctor: str, *args: TypeExpr) -> App:
    return App(ctor, args)


def arrow(dom: TypeExpr, cod: TypeExpr) -> App:
    return App(ARROW, (dom, cod))


def product(left: TypeExpr, right: TypeExpr) -> App:
    return App(PRODUCT, (left, right))


def free_vars(t: TypeExpr) -> frozenset[str]:
    """The exact set of variable names occurring in t."""
    out: set[str] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        else:
            assert isinstance(node, App)
            stack.extend(node.args)
    return frozenset(out)


def free_vars_ordered(t: TypeExpr) -> tuple[str, ...]:
    """Variable names in first-occurrence (left-to-right) order."""
    out: list[str] = []
    seen: set[str] = set()

    def walk(node: TypeExpr) -> None:
        if isinstance(node, Var):
            if node.name not in seen:
                seen.add(node.name)
                out.append(node.name)
        else:
            assert isinstance(node, App)
            for a in node.args:
                walk(a)

    walk(t)
    return tuple(out)


def mentioned_ctors(t: TypeExpr) -> frozenset[str]:
    """All constructor names applied anywhere inside t."""
    out: set[str] = set()
    stack = [t]
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


@dataclass(frozen=True)
class Constraint:
    param: int              # index into the datatype's parameter list
    rel: ConstraintRel
    bound: TypeExpr


#: Surface form of a data constructor declaration.
FORM_ADT = "adt"
FORM_CONSTRAINED = "constrained"
FORM_CODOMAIN = "codomain"


@dataclass(frozen=True)
class DataConstructorDecl:
    name: str
    form: str
    exist_vars: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    arg: TypeExpr
    # Codomain parameter instantiations, present only in FORM_CODOMAIN
    # declarations before normalization.
    codomain_args: Optional[tuple[TypeExpr, ...]] = None
    #: line:col of the constructor name in the source, (0, 0) if none.
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class DatatypeDecl:
    name: str
    params: tuple[tuple[str, Variance], ...]
    ctors: tuple[DataConstructorDecl, ...]

    def param_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.params)

    def param_variances(self) -> tuple[Variance, ...]:
        return tuple(v for _, v in self.params)

    def param_index(self, name: str) -> int:
        return self.param_names().index(name)


@dataclass(frozen=True)
class CtorInfo:
    name: str
    arity: int
    variances: tuple[Variance, ...]
    kind: str                       # "base" | "builtin" | "datatype"
    decl: Optional[DatatypeDecl] = None


@dataclass(frozen=True)
class Diagnostic:
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


@dataclass
class Signature:
    """The declaration table every later phase reads from.

    `decl_order` records top-level declarations as written, for the
    pretty-printer; `ctors` is the resolved constructor table.  Closure
    flags are attached by `checker.compute_closure_flags` and read
    through `checker.is_closed`.
    """

    ctors: dict[str, CtorInfo] = field(default_factory=dict)
    base_edges: tuple[tuple[str, str], ...] = ()          # declared b <= c
    private_edges: tuple[tuple[str, str], ...] = ()       # t' below t
    closed_decls: tuple[tuple[Variance, str], ...] = ()
    decl_order: tuple[tuple[str, object], ...] = ()
    #: line:col of the keyword of each `decl_order` entry in the source.
    decl_pos: dict[tuple[str, object], tuple[int, int]] = field(
        default_factory=dict)
    closure_flags: Optional[dict[str, frozenset[Variance]]] = None
    preset: Optional[str] = None

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
        return [
            info.decl for info in self.ctors.values()
            if info.kind == "datatype" and info.decl is not None
        ]

    def base_leq(self, b: str, c: str) -> bool:
        """Reflexive-transitive closure of the declared base order."""
        return c in self._base_reach().get(b, {b})

    def _base_reach(self) -> dict[str, set[str]]:
        cached = getattr(self, "_base_reach_cache", None)
        if cached is None:
            cached = _reachability(self.base_edges, self.ctors)
            object.__setattr__(self, "_base_reach_cache", cached)
        return cached

    def head_reach(self) -> dict[str, set[str]]:
        """Upward reachability of head constructors: private edges plus,
        between arity-0 constructors, the declared base order."""
        cached = getattr(self, "_head_reach_cache", None)
        if cached is None:
            edges = list(self.private_edges) + list(self.base_edges)
            cached = _reachability(tuple(edges), self.ctors)
            object.__setattr__(self, "_head_reach_cache", cached)
        return cached


def _reachability(
    edges: tuple[tuple[str, str], ...], nodes: dict[str, CtorInfo]
) -> dict[str, set[str]]:
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


def builtin_signature() -> Signature:
    """A signature holding only the predeclared constructors."""
    sig = Signature()
    sig.ctors[ARROW] = CtorInfo(ARROW, 2, (Variance.CONTRA, Variance.COV), "builtin")
    sig.ctors[PRODUCT] = CtorInfo(PRODUCT, 2, (Variance.COV, Variance.COV), "builtin")
    sig.ctors[UNIT] = CtorInfo(UNIT, 0, (), "base")
    return sig


# ---------------------------------------------------------------------------
# Lexer

_KEYWORDS = {"type", "base", "subbase", "private", "closed", "of", "forall"}
_PUNCT = ("->", ">=", "<=", "(", ")", "[", "]", ",", ".", "|", ":",
          "=", "*", "+", "-", "~")


@dataclass(frozen=True)
class Token:
    kind: str            # "ident" | "tyvar" | "kw" | punctuation | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "'":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i + 1:j]
            if not name:
                diags.append(Diagnostic(line, col, "expected identifier after '"))
                i += 1
                col += 1
                continue
            tokens.append(Token("tyvar", name, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "kw" if word in _KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(Token(p, p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            diags.append(Diagnostic(line, col, f"unexpected character {ch!r}"))
            i += 1
            col += 1
    tokens.append(Token("eof", "", line, col))
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
        self.diags: list[Diagnostic] = []
        self.nesting = 0

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

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

    # -- declarations ------------------------------------------------------

    def parse_file(self) -> Signature:
        sig = builtin_signature()
        decl_order: list[tuple[str, object]] = []
        base_edges: list[tuple[str, str]] = []
        private_edges: list[tuple[str, str]] = []
        closed_decls: list[tuple[Variance, str]] = []
        while not self.at("eof"):
            tok, first = self.peek(), len(decl_order)
            try:
                self.parse_decl(sig, decl_order, base_edges, private_edges, closed_decls)
            except _ParseAbort:
                self.skip_to_next_decl()
            for entry in decl_order[first:]:
                sig.decl_pos.setdefault(entry, (tok.line, tok.col))
        sig.base_edges = tuple(base_edges)
        sig.private_edges = tuple(private_edges)
        sig.closed_decls = tuple(closed_decls)
        sig.decl_order = tuple(decl_order)
        return sig

    def skip_to_next_decl(self) -> None:
        while not self.at("eof") and not (
            self.peek().kind == "kw"
            and self.peek().text in ("type", "base", "subbase", "private", "closed")
        ):
            self.next()

    def parse_decl(self, sig, decl_order, base_edges, private_edges, closed_decls):
        tok = self.peek()
        if tok.kind != "kw":
            raise self.error(f"expected declaration, found {tok.text!r}")
        if tok.text == "base":
            self.next()
            name = self.expect("ident", "base type name")
            self.declare(sig, name, CtorInfo(name.text, 0, (), "base"))
            decl_order.append(("base", name.text))
        elif tok.text == "subbase":
            self.next()
            lo = self.expect("ident", "base type name")
            self.expect("<=", "'<='")
            hi = self.expect("ident", "base type name")
            base_edges.append((lo.text, hi.text))
            decl_order.append(("subbase", (lo.text, hi.text)))
        elif tok.text == "private":
            self.next()
            lo = self.expect("ident", "type name")
            self.expect("=", "'='")
            hi = self.expect("ident", "type name")
            # A fresh lower type mirrors the upper one's interface.
            if not sig.has_ctor(lo.text):
                if sig.has_ctor(hi.text):
                    above = sig.info(hi.text)
                    sig.ctors[lo.text] = CtorInfo(
                        lo.text, above.arity, above.variances, "base"
                    )
                else:
                    sig.ctors[lo.text] = CtorInfo(lo.text, 0, (), "base")
            private_edges.append((lo.text, hi.text))
            decl_order.append(("private", (lo.text, hi.text)))
        elif tok.text == "closed":
            self.next()
            flag = self.peek()
            if flag.kind not in ("+", "-", "="):
                raise self.error("expected one of '+', '-', '=' after 'closed'")
            self.next()
            name = self.expect("ident", "type name")
            closed_decls.append((variance_of(flag.text), name.text))
            decl_order.append(("closed", (variance_of(flag.text), name.text)))
        elif tok.text == "type":
            decl = self.parse_type_decl(sig)
            self.declare(
                sig, tok,
                CtorInfo(decl.name, len(decl.params),
                         decl.param_variances(), "datatype", decl),
                name_override=decl.name,
            )
            decl_order.append(("type", decl.name))
        else:
            raise self.error(f"unexpected keyword {tok.text!r}")

    def declare(self, sig: Signature, tok, info: CtorInfo,
                name_override: Optional[str] = None) -> None:
        name = name_override or info.name
        if sig.has_ctor(name):
            where = tok if isinstance(tok, Token) else self.peek()
            self.diags.append(Diagnostic(
                where.line, where.col, f"duplicate declaration of {name!r}"))
            return
        sig.ctors[name] = info

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
        if self.at("|"):            # optional leading bar, OCaml style
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

    # -- types -------------------------------------------------------------

    def parse_type(self) -> TypeExpr:
        """A type of depth at most MAX_TYPE_DEPTH.  Every recursive
        descent passes here, so the parser's own recursion is bounded
        too."""
        start = self.pos
        if self.nesting >= MAX_TYPE_DEPTH:
            raise self.error(self._too_deep)
        self.nesting += 1
        try:
            t = self.parse_arrow()
        finally:
            self.nesting -= 1
        # Each level of depth takes at least one token.
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


def parse_signature(text: str) -> Signature:
    """Parse and well-formedness-check a signature; raises SignatureError
    with positioned diagnostics on any failure."""
    tokens, lex_diags = _tokenize(text)
    parser = _Parser(tokens)
    sig = parser.parse_file()
    diags = lex_diags + parser.diags
    if not diags:
        diags = wf_check(sig)
    if diags:
        raise SignatureError(diags)
    return sig


def parse_type(text: str) -> TypeExpr:
    """Parse a standalone type expression (test/CLI helper)."""
    tokens, lex_diags = _tokenize(text)
    parser = _Parser(tokens)
    try:
        t = parser.parse_type()
    except _ParseAbort:
        raise SignatureError(lex_diags + parser.diags) from None
    if lex_diags or parser.diags or not parser.at("eof"):
        diags = lex_diags + parser.diags
        if not diags:
            diags = [Diagnostic(parser.peek().line, parser.peek().col,
                                f"trailing input {parser.peek().text!r}")]
        raise SignatureError(diags)
    return t


# ---------------------------------------------------------------------------
# Well-formedness


def wf_check(sig: Signature) -> list[Diagnostic]:
    """One diagnostic per violated signature invariant; [] iff well-formed."""
    diags: list[Diagnostic] = []

    def bad(pos: tuple[int, int], message: str) -> None:
        diags.append(Diagnostic(pos[0], pos[1], message))

    def decl_pos(kind: str, payload: object) -> tuple[int, int]:
        return sig.decl_pos.get((kind, payload), (0, 0))

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

    for lo, hi in sig.base_edges:
        for name in (lo, hi):
            if not sig.has_ctor(name):
                bad(decl_pos("subbase", (lo, hi)),
                    f"subbase: unknown type {name!r}")
            elif sig.arity(name) != 0 or sig.info(name).kind == "builtin":
                bad(decl_pos("subbase", (lo, hi)),
                    f"subbase: {name!r} is not an arity-0 base type")

    for lo, hi in sig.private_edges:
        pos = decl_pos("private", (lo, hi))
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

    # Private edges must be acyclic (the declared order may have cycles).
    succ: dict[str, set[str]] = {}
    for lo, hi in sig.private_edges:
        succ.setdefault(lo, set()).add(hi)
    for start in succ:
        seen, stack = set(), [start]
        while stack:
            n = stack.pop()
            for m in succ.get(n, ()):
                if m == start:
                    first = next(e for e in sig.private_edges if e[0] == start)
                    bad(decl_pos("private", first),
                        f"private: cycle through {start!r}")
                    stack = []
                    break
                if m not in seen:
                    seen.add(m)
                    stack.append(m)

    for v, name in sig.closed_decls:
        if not sig.has_ctor(name):
            bad(decl_pos("closed", (v, name)), f"closed: unknown type {name!r}")

    for decl in sig.datatypes():
        params = frozenset(decl.param_names())
        ctor_names: set[str] = set()
        for k in decl.ctors:
            where, pos = f"{decl.name}.{k.name}", k.pos
            if k.name in ctor_names:
                bad(pos, f"{where}: duplicate constructor name")
            ctor_names.add(k.name)
            scope = params | frozenset(k.exist_vars) if k.form != FORM_CODOMAIN \
                else frozenset(k.exist_vars)
            check_type(k.arg, scope, where, pos)
            for c in k.constraints:
                if not (0 <= c.param < len(decl.params)):
                    bad(pos, f"{where}: constraint on invalid parameter "
                        f"index {c.param}")
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
    operation is idempotent.
    """
    params = decl.param_names()
    if k.form == FORM_CODOMAIN:
        assert k.codomain_args is not None
        constraints = tuple(
            Constraint(i, ConstraintRel.EQ, t)
            for i, t in enumerate(k.codomain_args)
        )
        k = DataConstructorDecl(
            k.name, FORM_CONSTRAINED, k.exist_vars, constraints, k.arg,
            pos=k.pos)

    used = set(k.exist_vars) | set(params)
    exist = list(k.exist_vars)
    constraints = list(k.constraints)
    constrained = {c.param for c in constraints}
    occurring = free_vars(k.arg).union(*(free_vars(c.bound) for c in constraints)) \
        if constraints else free_vars(k.arg)

    renaming: dict[str, TypeExpr] = {}
    for i, p in enumerate(params):
        if p in occurring:
            if i in constrained:
                raise ValueError(
                    f"{decl.name}.{k.name}: parameter '{p} is constrained and "
                    f"may not also occur in the argument or a bound")
            fresh = _fresh_name(p, used)
            renaming[p] = Var(fresh)
            exist.append(fresh)
            constraints.append(Constraint(i, ConstraintRel.EQ, Var(fresh)))
        elif i not in constrained:
            fresh = _fresh_name(p, used)
            exist.append(fresh)
            constraints.append(Constraint(i, ConstraintRel.EQ, Var(fresh)))

    arg = subst(k.arg, renaming) if renaming else k.arg
    constraints = [
        Constraint(c.param, c.rel, subst(c.bound, renaming) if renaming else c.bound)
        for c in constraints
    ]
    constraints.sort(key=lambda c: c.param)
    return DataConstructorDecl(
        k.name, FORM_CONSTRAINED, tuple(exist), tuple(constraints), arg,
        pos=k.pos)


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
    for kind, payload in sig.decl_order:
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
            decl = sig.info(payload).decl
            assert decl is not None
            params = ", ".join(f"{v.value}'{n}" for n, v in decl.params)
            lines.append(f"type ({params}) {decl.name} =")
            for k in decl.ctors:
                lines.append(f"  | {render_ctor(decl, k)}")
    return "\n".join(lines) + "\n"
