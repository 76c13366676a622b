"""Hypothesis strategies for random HTL formulas and terms.

Shared by the pretty-printer round-trip tests, the classification tests
and the engine-vs-oracle integration tests.  Identifiers are drawn from
pools disjoint from HTL keywords, and variable kinds use disjoint name
pools so printing is always possible (see the documented limitations in
:mod:`repro.htl.pretty`).
"""

from hypothesis import strategies as st

from repro.htl import ast

OBJECT_VARS = ["x", "y", "z", "w"]
ATTR_VARS = ["h", "k", "m_var"]
ATTR_FUNCS = ["height", "speed", "color", "kind"]
REL_NAMES = ["fires_at", "holds", "near"]
ATOMIC_NAMES = ["P1", "P2", "Moving-Train"]
LEVEL_NAMES = ["scene", "shot", "frame"]
STRINGS = ["gun", "bandit", "airplane", "western", "John Wayne"]

object_vars = st.sampled_from(OBJECT_VARS).map(ast.ObjectVar)
attr_vars = st.sampled_from(ATTR_VARS).map(ast.AttrVar)
constants = st.one_of(
    st.integers(-50, 50).map(ast.Const),
    st.sampled_from(STRINGS).map(ast.Const),
)


@st.composite
def attr_funcs(draw, max_args=1, names=tuple(ATTR_FUNCS)):
    name = draw(st.sampled_from(names))
    n_args = draw(st.integers(0, max_args))
    args = tuple(draw(object_vars) for __ in range(n_args))
    return ast.AttrFunc(name, args)


terms = st.one_of(object_vars, attr_vars, constants, attr_funcs())


@st.composite
def comparisons(draw):
    op = draw(st.sampled_from(ast.COMPARISON_OPS))
    left = draw(terms)
    right = draw(terms)
    return ast.Compare(op, left, right)


@st.composite
def relationships(draw):
    name = draw(st.sampled_from(REL_NAMES))
    n_args = draw(st.integers(1, 2))
    args = tuple(
        draw(st.one_of(object_vars, constants)) for __ in range(n_args)
    )
    return ast.Rel(name, args)


atomic_formulas = st.one_of(
    st.just(ast.Truth()),
    object_vars.map(ast.Present),
    comparisons(),
    relationships(),
    st.sampled_from(ATOMIC_NAMES).map(ast.AtomicRef),
)


def formulas(max_depth=4):
    """Random HTL formulas covering every AST node kind."""
    return st.recursive(
        atomic_formulas,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda pair: ast.And(*pair)),
            st.tuples(children, children).map(lambda pair: ast.Or(*pair)),
            st.tuples(children, children).map(lambda pair: ast.Until(*pair)),
            children.map(ast.Not),
            children.map(ast.Next),
            children.map(ast.Eventually),
            children.map(ast.Always),
            st.tuples(
                st.lists(
                    st.sampled_from(OBJECT_VARS),
                    min_size=1,
                    max_size=2,
                    unique=True,
                ),
                children,
            ).map(lambda pair: ast.Exists(tuple(pair[0]), pair[1])),
            st.tuples(
                st.sampled_from(ATTR_VARS), attr_funcs(), children
            ).map(lambda triple: ast.Freeze(*triple)),
            children.map(ast.AtNextLevel),
            st.tuples(st.integers(1, 5), children).map(
                lambda pair: ast.AtLevel(*pair)
            ),
            st.tuples(st.sampled_from(LEVEL_NAMES), children).map(
                lambda pair: ast.AtNamedLevel(*pair)
            ),
            st.tuples(
                st.floats(0.5, 4.0, allow_nan=False).map(
                    lambda value: round(value, 2)
                ),
                atomic_formulas,
            ).map(lambda pair: ast.Weighted(*pair)),
        ),
        max_leaves=max_depth * 2,
    )


@st.composite
def non_temporal_formulas(draw, allow_attr_vars=False):
    """Random non-temporal formulas (atoms for the picture system)."""
    term_pool = (
        terms
        if allow_attr_vars
        else st.one_of(object_vars, constants, attr_funcs())
    )

    def compare():
        return st.tuples(
            st.sampled_from(ast.COMPARISON_OPS), term_pool, term_pool
        ).map(lambda triple: ast.Compare(*triple))

    base = st.one_of(
        st.just(ast.Truth()),
        object_vars.map(ast.Present),
        compare(),
        relationships(),
    )
    formula = st.recursive(
        base,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda pair: ast.And(*pair)),
            st.tuples(children, children).map(lambda pair: ast.Or(*pair)),
            children.map(ast.Not),
            st.tuples(
                st.lists(
                    st.sampled_from(OBJECT_VARS),
                    min_size=1,
                    max_size=1,
                    unique=True,
                ),
                children,
            ).map(lambda pair: ast.Exists(tuple(pair[0]), pair[1])),
        ),
        max_leaves=5,
    )
    return draw(formula)


#: The signature windows of generated (resolved) ``looks_like`` atoms.
CLIP = ((1.0, 2.0, 1.0, 4.0), (3.0, 1.0, 1.0, 1.0))


@st.composite
def picture_atoms(draw, attributes=tuple(ATTR_FUNCS)):
    """Non-temporal formulas reaching every branch of the picture scorer.

    :func:`non_temporal_formulas` plus resolved ``looks_like``, weights,
    ``bool`` and ``float`` constants (cross-type comparisons), attribute
    variables, ``∃`` over one or two variables — nested ones re-bind
    outer names, one shape does so on purpose — and the freeze operator
    with its variable drawn from attribute *and* object variable names.
    Attribute accesses draw their names from ``attributes``.
    """
    accesses = attr_funcs(names=attributes)
    any_constant = st.one_of(
        constants,
        st.booleans().map(ast.Const),
        st.sampled_from([0.5, 50.0]).map(ast.Const),
    )
    term_pool = st.one_of(object_vars, attr_vars, any_constant, accesses)
    base = st.one_of(
        st.just(ast.Truth()),
        object_vars.map(ast.Present),
        st.tuples(
            st.sampled_from(ast.COMPARISON_OPS), term_pool, term_pool
        ).map(lambda triple: ast.Compare(*triple)),
        relationships(),
        st.sampled_from([0.0, 0.6, 0.9]).map(
            lambda theta: ast.LooksLike(theta=theta, clip=CLIP)
        ),
    )
    quantified = st.lists(
        st.sampled_from(OBJECT_VARS), min_size=1, max_size=2, unique=True
    ).map(tuple)

    def shadowed(pair):
        outer, inner = pair
        return ast.Exists(
            ("x",),
            ast.And(
                ast.And(ast.Present(ast.ObjectVar("x")), outer),
                ast.Exists(("x",), inner),
            ),
        )

    formula = st.recursive(
        base,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda pair: ast.And(*pair)),
            st.tuples(children, children).map(lambda pair: ast.Or(*pair)),
            children.map(ast.Not),
            st.tuples(st.sampled_from([0.5, 2.5]), children).map(
                lambda pair: ast.Weighted(*pair)
            ),
            st.tuples(quantified, children).map(
                lambda pair: ast.Exists(*pair)
            ),
            st.tuples(children, children).map(shadowed),
            st.tuples(
                st.sampled_from(ATTR_VARS + OBJECT_VARS[:2]),
                accesses,
                children,
            ).map(lambda triple: ast.Freeze(*triple)),
        ),
        max_leaves=6,
    )
    return draw(formula)
